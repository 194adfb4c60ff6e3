"""Tests of the ledger benchmark's own machinery (collected by tier-1)."""

from __future__ import annotations

import json
import os
import sys

import pytest

import compare
import recorder as rec
import run
import spec


class _FakeClock:
    """perf_counter stand-in: each call returns the next scripted time."""

    def __init__(self, times):
        self._times = iter(times)

    def perf_counter(self):
        return next(self._times)


def test_self_time_on_nested_spans(monkeypatch):
    # root [0, 10] > a [1, 7] > b [2, 5];  a again [8, 9]
    monkeypatch.setattr(rec, "time", _FakeClock([0, 1, 2, 5, 7, 8, 9, 10]))
    recorder = rec.Recorder()
    root = recorder.begin("root")
    a = recorder.begin("a", bin_index=3)
    b = recorder.begin("b")
    recorder.end(b)
    recorder.end(a)
    a2 = recorder.begin("a")
    recorder.end(a2)
    recorder.end(root)
    totals = recorder.totals()
    assert totals["root"] == {"calls": 1, "busy_s": 10, "self_s": 3, "max_s": 10}
    assert totals["a"] == {"calls": 2, "busy_s": 7, "self_s": 4, "max_s": 6}
    assert totals["b"]["self_s"] == 3
    # self times partition the root exactly
    assert sum(row["self_s"] for row in totals.values()) == totals["root"]["busy_s"]
    spans = recorder.dump()
    assert [s["parent"] for s in spans] == [-1, 0, 1, 0]
    assert spans[2]["bin"] == 3  # inherited from its parent


def test_same_named_nesting_is_not_busy_twice(monkeypatch):
    monkeypatch.setattr(rec, "time", _FakeClock([0, 1, 4, 6]))
    recorder = rec.Recorder()
    outer = recorder.begin("io.replay")
    inner = recorder.begin("io.replay")
    recorder.end(inner)
    recorder.end(outer)
    assert recorder.totals()["io.replay"] == {
        "calls": 1, "busy_s": 6, "self_s": 6, "max_s": 6,
    }


def test_iterator_spans_time_only_next(monkeypatch):
    recorder = rec.Recorder()

    def produce():
        yield [1, 2, 3]
        yield [4]

    wrapped = rec._wrap(
        recorder, "src", produce, "iter", {"n": lambda a, k, item: len(item)}, set()
    )
    # three next() calls (two items + exhaustion), each 1 s long; the
    # consumer's 100 s between them must not be charged to the producer.
    monkeypatch.setattr(rec, "time", _FakeClock([0, 1, 101, 102, 202, 203]))
    assert list(wrapped()) == [[1, 2, 3], [4]]
    assert recorder.totals()["src"] == {"calls": 3, "busy_s": 3, "self_s": 3, "max_s": 1}
    assert recorder.counts["n"] == 4


def test_percentile_needs_ten_samples_beyond():
    assert run.samples_beyond(200, 95) == 10
    assert run.samples_beyond(199, 95) == 9
    assert run.highest_supported_percentile(199) == 90
    assert run.highest_supported_percentile(200) == 95
    assert run.highest_supported_percentile(1000) == 99
    assert run.highest_supported_percentile(10_000) == 99.9
    assert run.highest_supported_percentile(19) is None
    samples = list(range(1, 201))
    assert run.percentile(samples, 95) == 190  # nearest rank: 10 beyond
    assert run.percentile(samples, 50) == 100
    assert run.percentile([7.0], 95) == 7.0


def _repro_state():
    state = {}
    for module in rec._repro_modules():
        for key, value in vars(module).items():
            state[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for attr, member in vars(value).items():
                    state[(module.__name__, key, attr)] = member
    return state


def test_install_and_restore_leave_repro_identical():
    import importlib

    import repro.stream.window as window
    from repro.kernels.grouped import group_reduce

    for _, module_name, *_ in rec.TARGETS:  # install() imports these itself
        importlib.import_module(module_name)
    before = _repro_state()
    recorder = rec.Recorder()
    handle = rec.install(recorder)
    try:
        assert handle.missing == []
        # a `from repro.kernels import group_reduce` copy is traced too
        assert window.group_reduce is not group_reduce
        root = recorder.begin("root")
        window.group_reduce([0, 0, 1], [5, 5, 6])
        recorder.end(root)
        assert recorder.totals()["kernels.group_reduce"]["calls"] == 1
        assert recorder.counts["kernels.group_reduce.rows"] == 3
    finally:
        handle.restore()
    after = _repro_state()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_renamed_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(
        rec, "TARGETS",
        (("x", "repro.kernels.grouped", "no_such_function", "call", {}),
         ("y", "repro.no_such_module", "f", "call", {})),
    )
    handle = rec.install(rec.Recorder())
    handle.restore()
    assert handle.missing == [
        "repro.kernels.grouped.no_such_function", "repro.no_such_module.f",
    ]


def test_check_ops_counts_differing_bins():
    class Inputs:
        n_bins, warmup_bins, trace_records = 4, 2, 100

    def run_row(spe=1.0, flag=False, n_records=100):
        return {
            "verdicts": [(2, flag, False, (), spe), (3, False, True, (7,), 0.0)],
            "n_records": n_records, "n_bins_scored": 2, "late_records": 0,
            "restarts": 0, "degraded": False,
        }

    reference = run_row()["verdicts"]
    good = [{"runs": [run_row(), run_row(spe=1.0 + 1e-12)]}]
    assert run.check_ops("batch-exact", good, Inputs, reference) == {
        "attempted": 4, "failed": 0, "notes": [],
    }
    drifted = [{"runs": [run_row(), run_row(flag=True)]}]
    assert run.check_ops("batch-exact", drifted, Inputs, reference)["failed"] == 1
    off_parity = [{"runs": [run_row(spe=2.0)]}]
    assert run.check_ops("batch-exact", off_parity, Inputs, reference)["failed"] == 1
    assert run.check_ops("stream-sketch", off_parity, Inputs, None)["failed"] == 0
    short = [{"runs": [run_row(n_records=99)]}]
    assert run.check_ops("batch-exact", short, Inputs, reference)["failed"] == 2


def test_benchmark_json_matches_spec():
    with open(os.path.join(run.REPO, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert doc["paths"] == ["benchmarks/ledger"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == spec.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.PER_LAYER
    ]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"] + doc["workloads"]]
    assert len(set(names)) == len(names)
    assert all(spec.NAME_RE.match(name) for name in names)


def test_smoke_run_emits_every_metric(tmp_path, capsys):
    out = tmp_path / "smoke.json"
    assert run.main(["--smoke", "--seed", "5", "--out", str(out)]) == 0
    results = json.loads(out.read_text())
    assert set(results["workloads"]) == set(spec.WORKLOADS)
    for workload, row in results["workloads"].items():
        assert set(row["end_to_end"]) == {m.name for m in spec.END_TO_END}, workload
        assert set(row["quality"]) == {m.name for m in spec.QUALITY}, workload
        assert set(row["per_layer"]) == {m.name for m in spec.PER_LAYER}, workload
        assert row["missing_targets"] == [], workload
        assert row["ops"]["attempted"] > 0 and row["ops"]["failed"] == 0, row["ops"]
        assert all(e["value"] > 0 for e in row["end_to_end"].values()), workload
    # the bypass predictions hold at baseline
    replay = results["workloads"]["precomputed-replay"]["per_layer"]
    assert replay["kernels.group_reduce.calls"]["value"] == 0
    assert replay["net.attribute.records"]["value"] == 0
    assert results["workloads"]["cluster-2shard"]["per_layer"]["net.attribute.records"]["value"] == 0
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "seed", "trace_records"):
        assert key in results["provenance"]
    printed = capsys.readouterr().out
    assert "stream-exact records_per_s" in printed
    assert "cluster-2shard cluster.coordinator.wait_share" in printed
    # a results file compares clean against itself
    assert compare.main([str(out), str(out)]) == 0
    assert "worse" not in capsys.readouterr().out.replace("0 worse", "")


def test_compare_flags_worse_and_unresolved(tmp_path):
    def results(rate, samples):
        entry = {"value": rate, "unit": "records/s", "samples": samples}
        one = {"value": 1.0, "unit": "x", "samples": [1.0]}
        return {"workloads": {"w": {
            "end_to_end": {**{m.name: one for m in spec.END_TO_END}, "records_per_s": entry},
            "quality": {m.name: one for m in spec.QUALITY},
        }}}

    steady = results(100.0, [99.0, 100.0, 100.0, 101.0])
    rows, worse = compare.compare(steady, results(70.0, [69.0, 70.0, 70.0, 71.0]))
    assert worse == 1 and "records_per_s worse +30.0% of 100" in rows[0]
    rows, worse = compare.compare(steady, results(95.0, [94.0, 95.0, 95.0, 96.0]))
    assert worse == 0 and "records_per_s within +5.0%" in rows[0]
    rows, worse = compare.compare(results(80.0, [79.0, 80.0, 80.0, 81.0]), steady)
    assert worse == 0 and "records_per_s within -25.0% of 80" in rows[0]  # better, not worse
    rows, worse = compare.compare(steady, results(70.0, [40.0, 60.0, 80.0, 100.0]))
    assert worse == 0 and "records_per_s unresolved" in rows[0]


@pytest.mark.skipif(sys.platform != "linux", reason="child RSS is read from /proc")
def test_child_process_round_trip(tmp_path):
    session = run.Session(seed=5, scale="smoke", workdir=str(tmp_path))
    job = {
        "workload": "stream-exact",
        "inputs": session.inputs("stream-exact"),
        "seconds": 0.0, "trace": False, "min_passes": 1, "warm_up": False,
        "spans_path": str(tmp_path / "spans.json"),
    }
    child = run.run_child(job, str(tmp_path))
    assert len(child["passes"]) == 1 and child["peak_rss_mb"] > 0
