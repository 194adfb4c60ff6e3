"""``repro.telemetry``: span algebra, no-op identity, export schema.

The contracts that make the instrumentation trustworthy:

* the span accumulation algebra is exact — child time is credited to
  parents, ``self`` and stage-exclusive time follow from it, and the
  merge is a lossless commutative monoid (cluster shards depend on it);
* with no session active every hook is a no-op and detections are
  identical to an instrumented run, bit for bit;
* the JSONL export round-trips through ``repro stats`` and fails
  loudly (``ValueError`` → exit 2) on schema drift;
* the CLI surface (``--telemetry``, ``--progress``, ``repro stats``)
  writes stderr/files only — stdout stays the run's report.
"""

import io
import json
import time

import pytest

from repro import telemetry
from repro.pipeline import DetectionPipeline, ScenarioSource
from repro.stream.engine import StreamConfig
from repro.telemetry.export import (
    SCHEMA,
    prometheus_text,
    read_events,
    snapshot_events,
    validate_events,
    write_jsonl,
)
from repro.telemetry.progress import ProgressMeter
from repro.telemetry.spans import (
    SpanCollector,
    SpanStats,
    iter_top_level_stage_time,
    merge_span_stats,
)
from repro.telemetry.stats import format_stats, snapshot_from_events, stage_total_seconds

N_BINS = 18
WARMUP = 12
MAX_RECORDS = 20
SEED = 3


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test starts and ends with telemetry off."""
    telemetry.disable()
    yield
    telemetry.disable()


def _stats_entry(count, total, children=None):
    return {
        "count": count, "total_s": total, "min_s": total / max(count, 1),
        "max_s": total, "self_s": total - sum((children or {}).values()),
        "children": children or {},
    }


class TestSpanAlgebra:
    def test_accumulation_per_label(self):
        stats = SpanStats()
        stats.add(1.0)
        stats.add(3.0)
        assert stats.count == 2
        assert stats.total == pytest.approx(4.0)
        assert stats.min == pytest.approx(1.0)
        assert stats.max == pytest.approx(3.0)
        assert stats.self_total == pytest.approx(4.0)

    def test_nested_spans_credit_parent(self):
        collector = SpanCollector()
        with collector.span("stage.outer"):
            with collector.span("stage.inner"):
                time.sleep(0.01)
            with collector.span("kernel.x"):
                time.sleep(0.01)
        snapshot = collector.stats()
        outer = snapshot["stage.outer"]
        assert set(outer["children"]) == {"stage.inner", "kernel.x"}
        # Self time is total minus everything nested beneath it.
        nested = sum(outer["children"].values())
        assert outer["self_s"] == pytest.approx(outer["total_s"] - nested)
        assert outer["total_s"] >= snapshot["stage.inner"]["total_s"]

    def test_exclusive_of_subtracts_stage_children_only(self):
        # stage.a spent 10s total: 4s inside stage.b, 2s inside kernel.x.
        snapshot = {
            "stage.a": _stats_entry(1, 10.0, {"stage.b": 4.0, "kernel.x": 2.0}),
            "stage.b": _stats_entry(2, 4.0),
            "kernel.x": _stats_entry(5, 2.0),
        }
        rows = dict(iter_top_level_stage_time(snapshot))
        # stage.a keeps its kernel time (detail spans live inside their
        # stage) but not the nested stage's; the stage sum counts the
        # 10 wall-clock seconds exactly once.
        assert rows["stage.a"] == pytest.approx(6.0)
        assert rows["stage.b"] == pytest.approx(4.0)
        assert "kernel.x" not in rows
        assert sum(rows.values()) == pytest.approx(10.0)
        assert stage_total_seconds(snapshot) == pytest.approx(10.0)

    def test_merge_is_lossless(self):
        # Collect the same spans in one collector vs two, then merge.
        one = SpanCollector()
        a, b = SpanCollector(), SpanCollector()
        for collector in (one, a):
            collector.record("stage.x", 1.0)
            collector.record("stage.x", 2.0)
        for collector in (one, b):
            collector.record("stage.x", 5.0)
            collector.record("stage.y", 0.5)
        merged = merge_span_stats(a.stats(), b.stats())
        assert merged == one.stats()
        # Commutative: order of shards does not matter.
        assert merge_span_stats(b.stats(), a.stats()) == merged

    def test_stats_dict_round_trip(self):
        stats = SpanStats()
        stats.add(2.0, {"child": 0.5})
        stats.add(1.0)
        restored = SpanStats.from_dict(stats.to_dict())
        assert restored.to_dict() == stats.to_dict()


class TestDisabledNoop:
    def test_span_is_shared_noop_object(self):
        assert telemetry.span("x") is telemetry.span("y")
        telemetry.count("c", 5)
        assert telemetry.counter_value("c") == 0
        telemetry.enable(poll=False)
        assert telemetry.span("x") is not telemetry.span("x")
        telemetry.count("c", 5)
        assert telemetry.counter_value("c") == 5

    def test_detections_identical_with_and_without_telemetry(self):
        def _run():
            pipeline = DetectionPipeline(StreamConfig(
                warmup_bins=WARMUP, refit_every=0, n_components=3,
                exact_histograms=True,
            ))
            source = ScenarioSource(
                "ddos-burst", n_bins=N_BINS, seed=SEED,
                max_records_per_od=MAX_RECORDS,
            )
            report = pipeline.run(source, mode="stream").report
            return [
                (d.bin, d.detected_by_entropy, d.detected_by_volume,
                 tuple(f.od for f in d.flows), d.spe_entropy, d.threshold)
                for d in report.detections
            ]

        plain = _run()
        session = telemetry.enable(poll=False)
        instrumented = _run()
        snapshot = session.snapshot()
        telemetry.disable()
        assert instrumented == plain
        # ...and the instrumented run actually collected something.
        assert snapshot["counters"]["pipeline.bins_closed"] == N_BINS
        assert any(label.startswith("stage.") for label in snapshot["spans"])


class TestExportSchema:
    def _session_snapshot(self):
        session = telemetry.enable(poll=False)
        with telemetry.span("stage.reduce"):
            with telemetry.span("kernel.sort"):
                pass
        telemetry.count("pipeline.records", 123)
        telemetry.gauge("cluster.pending_bins", 2.0)
        session.add_shard(1, {
            "elapsed_s": 0.5,
            "spans": {"stage.source": _stats_entry(3, 0.3)},
            "counters": {"reduce.records": 60},
            "gauges": {},
            "resources": {"peak_rss_bytes": 1 << 20},
        })
        snapshot = session.snapshot()
        telemetry.disable()
        return snapshot

    def test_jsonl_round_trip(self, tmp_path):
        snapshot = self._session_snapshot()
        path = tmp_path / "t.jsonl"
        write_jsonl(path, snapshot, run_info={"mode": "stream", "command": "run"})
        events = read_events(path)
        assert events[0]["event"] == "run"
        assert events[0]["mode"] == "stream"
        assert all(e["schema"] == SCHEMA for e in events)
        restored = snapshot_from_events(events)
        assert restored["spans"] == snapshot["spans"]
        assert restored["counters"] == snapshot["counters"]
        assert restored["gauges"] == snapshot["gauges"]
        # snapshot() stringifies shard ids for JSON; the inverter
        # restores them as ints.
        assert restored["shards"][1]["counters"] == {"reduce.records": 60}
        # The human rendering consumes the same events without error.
        text = format_stats(events)
        assert "stage.reduce" in text and "schema ok" in text

    def test_validate_rejects_schema_drift(self):
        events = snapshot_events(self._session_snapshot())
        good = [dict(e) for e in events]
        good[0]["schema"] = "repro.telemetry/999"
        with pytest.raises(ValueError, match="schema"):
            validate_events(good)
        with pytest.raises(ValueError, match="first event"):
            validate_events(events[1:] + events[:1])
        with pytest.raises(ValueError, match="empty"):
            validate_events([])

    def test_read_events_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            read_events(bad)
        bad.write_text(json.dumps({"schema": SCHEMA, "event": "nope"}) + "\n")
        with pytest.raises(ValueError, match="unknown type"):
            read_events(bad)

    def test_prometheus_text(self):
        snapshot = self._session_snapshot()
        text = prometheus_text(snapshot)
        assert "repro_run_elapsed_seconds" in text
        assert "repro_pipeline_records_total 123" in text
        assert "repro_span_stage_reduce_seconds_count 1" in text
        assert text.endswith("\n")


class TestShardMerge:
    def test_merge_snapshots_lossless(self):
        def _shard(span_s, records, rss):
            return {
                "elapsed_s": span_s,
                "spans": {"stage.reduce": _stats_entry(1, span_s)},
                "counters": {"reduce.records": records},
                "gauges": {"queue_depth": float(records)},
                "resources": {"peak_rss_bytes": rss, "rss_bytes": rss,
                              "n_samples": 1, "utime_s": 0.1, "stime_s": 0.0},
            }

        merged = telemetry.merge_snapshots(_shard(1.0, 10, 100), _shard(3.0, 20, 50))
        # Counters sum, gauges take the max, spans merge by the monoid.
        assert merged["counters"]["reduce.records"] == 30
        assert merged["gauges"]["queue_depth"] == 20.0
        reduce = merged["spans"]["stage.reduce"]
        assert reduce["count"] == 2
        assert reduce["total_s"] == pytest.approx(4.0)
        assert reduce["min_s"] == pytest.approx(1.0)
        assert reduce["max_s"] == pytest.approx(3.0)
        # Shards run concurrently: elapsed is the slowest, RSS the peak,
        # CPU the sum.
        assert merged["elapsed_s"] == pytest.approx(3.0)
        assert merged["resources"]["peak_rss_bytes"] == 100
        assert merged["resources"]["utime_s"] == pytest.approx(0.2)

    def test_resource_poller_snapshot(self):
        poller = telemetry.ResourcePoller(interval_s=0.01).start()
        time.sleep(0.03)
        snapshot = poller.snapshot()
        poller.stop()
        poller.stop()  # idempotent
        assert snapshot["peak_rss_bytes"] >= snapshot["rss_bytes"] > 0
        assert snapshot["n_samples"] >= 2
        assert snapshot["utime_s"] >= 0.0


class TestCLI:
    def _run_args(self, mode, extra=()):
        return [
            "run", "ddos-burst", "--mode", mode, "--bins", str(N_BINS),
            "--warmup-bins", str(WARMUP), "--max-records", str(MAX_RECORDS),
            "--exact", "--components", "3", "--refit-every", "0", *extra,
        ]

    def test_run_telemetry_then_stats(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.jsonl"
        assert main(self._run_args("stream", ["--telemetry", str(out)])) == 0
        assert out.exists()
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        text = capsys.readouterr().out
        assert "schema ok" in text
        assert "stage.reduce" in text and "stage.score" in text
        # Stage rows must account for (nearly) the whole run.
        events = read_events(out)
        wall = next(e for e in events if e["event"] == "run")["elapsed_s"]
        stage_sum = stage_total_seconds(snapshot_from_events(events)["spans"])
        assert stage_sum <= wall * 1.01
        assert stage_sum >= 0.5 * wall

    def test_cluster_stats_has_shard_table(self, tmp_path, capsys):
        self._assert_shard_table(tmp_path, capsys, [])

    def test_trace_cluster_stats_has_shard_table(self, tmp_path, capsys):
        """The same over a trace, where exact shards build their
        summaries from the stored run ids instead of records."""
        from repro.cli import main

        trace = tmp_path / "ddos.trace"
        assert main(["trace", "write", "ddos-burst", "--bins", str(N_BINS),
                     "--max-records", str(MAX_RECORDS), "--output", str(trace)]) == 0
        self._assert_shard_table(tmp_path, capsys, ["--trace", str(trace)])

    def _assert_shard_table(self, tmp_path, capsys, extra):
        from repro.cli import main

        out = tmp_path / "t.jsonl"
        args = self._run_args("cluster", ["--telemetry", str(out), *extra])
        assert main(args) == 0
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        text = capsys.readouterr().out
        assert "per-shard breakdown" in text
        # Shard counters merged losslessly: per-shard records sum to the
        # run's total.
        events = read_events(out)
        shards = [e for e in events if e["event"] == "shard"]
        assert len(shards) >= 2
        total = sum(s["counters"]["reduce.records"] for s in shards)
        run_event = next(e for e in events if e["event"] == "run")
        assert total == run_event["n_records"]

    def test_failed_cluster_run_info_keeps_the_shard_count(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.jsonl"
        args = self._run_args("cluster", [
            "--shards", "3", "--telemetry", str(out), "--max-retries", "0",
            "--chaos", "kill:shard=2,bin=1,attempts=10",
        ])
        with pytest.raises(RuntimeError, match="shard 2 failed after 1"):
            main(args)
        run_event = next(e for e in read_events(out) if e["event"] == "run")
        assert run_event["n_shards"] == 3

    def test_stats_rejects_garbage_with_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text("definitely not telemetry\n")
        assert main(["stats", str(bad)]) == 2

    def test_progress_writes_stderr_only(self, capsys):
        from repro.cli import main

        assert main(self._run_args("stream", ["--progress"])) == 0
        captured = capsys.readouterr()
        assert "progress:" in captured.err
        assert "progress:" not in captured.out

    def test_progress_meter_formats_line(self):
        stream = io.StringIO()
        telemetry.enable(poll=False)
        telemetry.count("pipeline.bins_closed", 9)
        telemetry.count("pipeline.records", 900)
        meter = ProgressMeter(total_bins=18, stream=stream, interval_s=10.0)
        meter.start()
        meter.close()
        line = stream.getvalue()
        assert "bins 9/18 (50%)" in line
        assert "rec/s" in line
