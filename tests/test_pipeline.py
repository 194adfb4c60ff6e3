"""The composable pipeline: mode parity, sources, bank, scenarios.

The headline contract (extending the streaming- and cluster-equivalence
suites to the unified pipeline): **every registered scenario, run
through batch, stream, and cluster modes from one shared trace, yields
identical exact-mode detections** — same bins, same flags, same
identified flows, same SPE values, bit for bit.  Inline scenario
generation must match the recorded trace too, so the matrix pins four
paths per scenario against one reference.

Around it: the scenario registry and schedule determinism, the
record-level anomaly materialiser's attribution/anonymisation
invariants, the pluggable detector bank, and provenance metadata
carried end-to-end into ``DiagnosisReport``.
"""

import json

import numpy as np
import pytest

from repro.flows.records import FlowRecordBatch
from repro.net.routing import Router
from repro.net.topology import abilene
from repro.pipeline import (
    DetectionPipeline,
    DetectorBank,
    ScenarioSource,
    SourceSpec,
    TraceSource,
    build_source,
)
from repro.scenarios import (
    SCENARIOS,
    anomaly_record_batch,
    get_scenario,
    scenario_names,
    scenario_record_batches,
)
from repro.stream.engine import StreamConfig
from repro.stream.window import BinSummary
from repro.traffic.generator import TrafficGenerator

#: Small but honest grid: every scenario keeps >= 1 event in the live
#: window and every mode scores the same 6 bins.
N_BINS = 18
WARMUP = 12
MAX_RECORDS = 20
SEED = 3


def _config(**overrides):
    defaults = dict(
        warmup_bins=WARMUP,
        refit_every=0,
        n_components=3,
        exact_histograms=True,
    )
    defaults.update(overrides)
    return StreamConfig(**defaults)


def _signature(report):
    """Everything a detection is, as a comparable value."""
    return [
        (
            d.bin,
            d.detected_by_entropy,
            d.detected_by_volume,
            tuple(f.od for f in d.flows),
            d.cluster,
            d.spe_entropy,
            d.threshold,
            d.n_records,
        )
        for d in report.detections
    ]


def _scenario_source(name):
    return ScenarioSource(
        name, n_bins=N_BINS, seed=SEED, max_records_per_od=MAX_RECORDS
    )


@pytest.fixture(scope="module")
def shared_traces(tmp_path_factory):
    """One recorded trace per registered scenario."""
    root = tmp_path_factory.mktemp("scenario-traces")
    paths = {}
    for name in scenario_names():
        path = root / f"{name}.trace"
        _scenario_source(name).write_trace(path)
        paths[name] = path
    return paths


class TestModeParityMatrix:
    """batch == stream == cluster == inline, per registered scenario."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_all_modes_identical_from_shared_trace(self, name, shared_traces):
        pipeline = DetectionPipeline(_config())
        path = shared_traces[name]
        reference = pipeline.run(TraceSource(path), mode="stream")
        assert reference.report.n_bins_scored == N_BINS - WARMUP
        ref_sig = _signature(reference.report)

        batch = pipeline.run(TraceSource(path), mode="batch")
        assert _signature(batch.report) == ref_sig
        cluster = pipeline.run(TraceSource(path), mode="cluster", n_shards=3)
        assert _signature(cluster.report) == ref_sig
        inline = pipeline.run(_scenario_source(name), mode="stream")
        assert _signature(inline.report) == ref_sig

        # Same records everywhere, and the cluster saw all of them.
        assert batch.n_records == reference.n_records == inline.n_records
        assert sum(cluster.shard_records.values()) == reference.n_records

    def test_scenarios_with_events_are_detected(self, shared_traces):
        # The matrix only means something if the workloads actually
        # trip the detectors; every event-carrying scenario must yield
        # at least one detection on this grid.
        pipeline = DetectionPipeline(_config())
        for name in scenario_names():
            if name == "baseline-diurnal":
                continue
            report = pipeline.run(TraceSource(shared_traces[name]), mode="stream").report
            assert report.counts()["total"] >= 1, f"{name} tripped nothing"

    def test_inline_cluster_matches_inline_stream(self):
        # No trace at all: sharded regeneration (including per-event
        # anomaly records) still equals the single-process stream.
        pipeline = DetectionPipeline(_config())
        name = "mixed-anomaly-day"
        stream = pipeline.run(_scenario_source(name), mode="stream")
        cluster = pipeline.run(_scenario_source(name), mode="cluster", n_shards=2)
        assert _signature(cluster.report) == _signature(stream.report)


class TestFuzzedParity:
    """Pinned parity regression over fuzzer-shaped workloads.

    The quality fuzzer (PR 6) swept hundreds of seeded workloads across
    all three modes without surfacing a divergence; these specs pin the
    closest calls — trace thinning (per-event thin seeds) and the
    CDF-weighted flow-size mix — so a future regression in sharded
    regeneration fails here, not in a nightly fuzz run.
    """

    SPECS = (
        dict(seed=0, index=0),                       # CLI smoke default
        dict(seed=7, index=4, sampling_rate=100),    # heavy thinning
        dict(seed=13, index=1, flow_profile="data-mining", intensity_scale=0.5),
        dict(seed=11, index=2, flow_profile=None),   # uniform record spread
    )

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"fuzz-{s['seed']}-{s['index']}")
    def test_fuzzed_modes_identical(self, spec):
        from repro.quality import FuzzSpec, FuzzedScenarioSource

        pipeline = DetectionPipeline(_config())
        source = FuzzedScenarioSource(FuzzSpec(**spec))
        reference = pipeline.run(source, mode="stream")
        ref_sig = _signature(reference.report)
        batch = pipeline.run(source, mode="batch")
        assert _signature(batch.report) == ref_sig
        cluster = pipeline.run(source, mode="cluster", n_shards=3)
        assert _signature(cluster.report) == ref_sig
        assert sum(cluster.shard_records.values()) == reference.n_records


class TestScenarioRegistry:
    def test_at_least_five_scenarios(self):
        assert len(scenario_names()) >= 5

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("frobnicate")

    def test_events_deterministic_and_in_range(self):
        topo = abilene()
        for name in scenario_names():
            scenario = SCENARIOS[name]
            a = scenario.events_for(topo, n_bins=N_BINS, seed=SEED)
            b = scenario.events_for(topo, n_bins=N_BINS, seed=SEED)
            assert [(e.bin, e.od, e.label) for e in a] == [
                (e.bin, e.od, e.label) for e in b
            ]
            for event in a:
                assert WARMUP <= event.bin < N_BINS
                assert 0 <= event.od < topo.n_od_flows
            if name != "baseline-diurnal":
                assert len(a) >= 1

    def test_seed_changes_schedule(self):
        topo = abilene()
        scenario = get_scenario("mixed-anomaly-day")
        a = scenario.events_for(topo, n_bins=72, seed=0)
        b = scenario.events_for(topo, n_bins=72, seed=1)
        assert [(e.bin, e.od) for e in a] != [(e.bin, e.od) for e in b]


class TestAnomalyRecords:
    def test_records_attribute_to_target_od(self):
        topo = abilene()
        generator = TrafficGenerator(topo, _bins(), seed=SEED)
        router = Router(topo)
        scenario = get_scenario("mixed-anomaly-day")
        for event in scenario.events_for(topo, n_bins=N_BINS, seed=SEED):
            batch = anomaly_record_batch(
                generator, event.od, event.bin, event.trace, salt=SEED
            )
            ods = router.resolve_ods_mixed(batch.ingress_pop, batch.dst_ip)
            assert (ods == event.od).all(), event.label
            idx = _bins().indices(batch.timestamp)
            assert (idx == event.bin).all()
            assert int(batch.packets.sum()) >= event.trace.packets

    def test_anonymization_keeps_novel_sources_dispersed(self):
        topo = abilene()
        generator = TrafficGenerator(topo, _bins(), seed=SEED)
        scenario = get_scenario("ddos-burst")
        event = scenario.events_for(topo, n_bins=N_BINS, seed=SEED)[0]
        assert event.label == "ddos"
        batch = anomaly_record_batch(
            generator, event.od, event.bin, event.trace, salt=SEED
        )
        anonymized = batch.anonymized(topo.anonymization_bits)
        # A DDOS's many spoofed sources must survive collector
        # anonymisation as many distinct values.
        assert len(np.unique(anonymized.src_ip)) > 50

    def test_sharded_union_equals_whole_stream(self):
        topo = abilene()
        scenario = get_scenario("port-scan-sweep")
        events = scenario.events_for(topo, n_bins=N_BINS, seed=SEED)

        def stream(ods=None):
            generator = TrafficGenerator(topo, _bins(), seed=SEED)
            return list(
                scenario_record_batches(
                    generator, events, range(N_BINS), ods=ods,
                    max_records_per_od=MAX_RECORDS, seed=SEED,
                )
            )

        whole = stream()
        shards = [stream(ods=range(s, topo.n_od_flows, 2)) for s in (0, 1)]
        for b in range(N_BINS):
            merged = FlowRecordBatch.concat(
                [shards[0][b], shards[1][b]]
            ).sort_by_time()
            np.testing.assert_array_equal(merged.timestamp, whole[b].timestamp)
            for col in ("src_ip", "dst_ip", "src_port", "dst_port",
                        "packets", "bytes", "ingress_pop"):
                np.testing.assert_array_equal(
                    getattr(merged, col), getattr(whole[b], col), err_msg=col
                )


class TestSources:
    def test_spec_round_trip(self):
        for source in (
            ScenarioSource("baseline-diurnal", n_bins=4, seed=1,
                           max_records_per_od=8),
            _scenario_source("flash-crowd"),
        ):
            rebuilt = build_source(source.spec)
            assert rebuilt.spec == source.spec
            assert type(rebuilt) is type(source)

    def test_trace_source_adopts_recorded_grid(self, shared_traces):
        source = TraceSource(shared_traces["baseline-diurnal"])
        assert source.spec.n_bins == N_BINS
        assert source.spec.network == "abilene"
        assert source.provenance["source"] == "trace"

    def test_trace_source_rejects_wrong_network(self, shared_traces):
        with pytest.raises(ValueError, match="recorded on"):
            TraceSource(shared_traces["baseline-diurnal"], network="geant")

    def test_unknown_source_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown source kind"):
            build_source(SourceSpec(kind="carrier-pigeon"))

    def test_pipeline_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            DetectionPipeline(_config()).run(
                _scenario_source("baseline-diurnal"), mode="hybrid"
            )


class TestDetectorBank:
    def test_zero_record_bin_scores_as_ordinary_verdict(self):
        # A bin the aggregator closed empty (e.g. a synthesized cluster
        # gap) must flow through a warm bank as an ordinary verdict —
        # and a network going silent after a warm baseline IS an
        # anomaly, so the entropy channel flags it rather than crashing
        # on the all-zero summary.
        rng = np.random.default_rng(3)
        bank = DetectorBank(_config(warmup_bins=8))
        p = 5
        verdicts = {}
        for b in range(10):
            if b == 9:
                summary = BinSummary(
                    bin=b,
                    entropy=np.zeros((p, 4)),
                    packets=np.zeros(p),
                    bytes=np.zeros(p),
                    n_records=0,
                )
            else:
                packets = rng.uniform(90, 110, p)
                summary = BinSummary(
                    bin=b,
                    entropy=rng.normal(2.0, 0.01, (p, 4)),
                    packets=packets,
                    bytes=packets * 500,
                    n_records=30,
                )
            verdict = bank.observe(summary)
            if verdict is not None:
                verdicts[b] = verdict
        assert verdicts[9].n_records == 0
        assert verdicts[9].detected_by_entropy  # silence is anomalous
        assert bank.n_bins_scored == 2
        report = bank.finish()
        assert [d.bin for d in report.detections] == [8, 9]

    @pytest.mark.parametrize("field", ["entropy", "packets", "bytes"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_summary_is_refused(self, field, bad):
        # A NaN SPE compares as clean and would enter the refit buffer,
        # so the bank refuses it before warm-up or scoring sees it.
        p = 5
        values = {"entropy": np.ones((p, 4)), "packets": np.ones(p), "bytes": np.ones(p)}
        values[field][0] = bad
        bank = DetectorBank(_config(warmup_bins=8))
        with pytest.raises(ValueError, match="non-finite"):
            bank.observe(BinSummary(bin=3, **values))
        assert bank.n_bins_scored == 0 and not bank._warmup_summaries

    def test_volume_spike_sets_the_volume_flag(self):
        rng = np.random.default_rng(1)
        bank = DetectorBank(
            _config(
                warmup_bins=8,
                volume_transform="none",
                volume_detrend="none",
                volume_calibration_margin=0.0,
            ),
        )
        p = 5
        hits = []
        for b in range(14):
            packets = rng.uniform(90, 110, p)
            if b == 11:
                packets = packets + 1e5
            verdict = bank.observe(
                BinSummary(
                    bin=b,
                    entropy=np.zeros((p, 4)),
                    packets=packets,
                    bytes=packets * 500,
                )
            )
            if verdict is not None and verdict.detected_by_volume:
                hits.append(b)
        assert 11 in hits


class TestProvenanceMeta:
    def test_meta_flows_into_diagnosis_report(self, shared_traces, tmp_path):
        from repro.io import write_report_json

        pipeline = DetectionPipeline(_config())
        result = pipeline.run(
            TraceSource(shared_traces["ddos-burst"]),
            mode="batch",
            meta={"scenario": "ddos-burst"},
        )
        meta = result.report.meta
        assert meta["mode"] == "batch"
        assert meta["source"] == "trace"
        assert meta["scenario"] == "ddos-burst"
        assert meta["trace_path"].endswith("ddos-burst.trace")

        diagnosis = result.report.to_diagnosis_report()
        assert diagnosis.meta == meta
        payload = json.loads(
            write_report_json(diagnosis, tmp_path / "report.json").read_text()
        )
        assert payload["meta"] == meta

    def test_cluster_meta_names_mode_and_shards(self):
        pipeline = DetectionPipeline(_config())
        result = pipeline.run(
            _scenario_source("baseline-diurnal"), mode="cluster", n_shards=2
        )
        assert result.report.meta["mode"] == "cluster"
        assert result.report.meta["n_shards"] == 2
        assert result.report.meta["scenario"] == "baseline-diurnal"

    def test_engine_path_source_records_trace_provenance(self, shared_traces):
        from repro.stream.engine import StreamingDetectionEngine

        path = shared_traces["baseline-diurnal"]
        engine = StreamingDetectionEngine(abilene(), _config())
        report = engine.process_precomputed(str(path))
        assert report.meta["source"] == "trace"
        assert report.meta["trace_path"] == str(path)


class TestRunCLI:
    def test_run_stream_and_list(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out
        assert main(["scenarios", "list", "--names"]) == 0
        assert capsys.readouterr().out.split() == list(scenario_names())

        assert main([
            "run", "worm-outbreak", "--mode", "stream",
            "--bins", str(N_BINS), "--warmup-bins", str(WARMUP),
            "--max-records", str(MAX_RECORDS), "--seed", str(SEED),
            "--exact", "--components", "3", "--refit-every", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "scenario worm-outbreak [stream]" in out
        assert "detections:" in out

    @pytest.mark.parametrize("argv", [
        ["stream", "--warmup-bins", "8"],
        ["cluster", "--shards", "3"],
        ["run", "baseline-diurnal", "--save-trace", "x.trace"],
        ["trace", "write", "baseline-diurnal", "--output", "x.trace",
         "--bin-group", "4"],
        ["trace", "replay", "x.trace", "--readahead"],
        ["trace", "upgrade", "x.trace"],
        ["run", "baseline-diurnal", "--mode", "cluster", "--tiers", "2x2"],
        ["run", "baseline-diurnal", "--mode", "cluster", "--transport", "tcp"],
    ])
    def test_removed_commands_and_flags_exit_2(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("knob, error", [
        (["--components", "0"], "n_components must be >= 1"),
        (["--components", "-4"], "n_components must be >= 1"),
        (["--refit-every", "-1"], "refit_every must be >= 0"),
    ], ids=["components=0", "components=-4", "refit-every=-1"])
    def test_out_of_range_detector_knob_exits_2(self, knob, error, capsys):
        # Each used to run to exit 0: m clamped to 1, a refit after
        # every clean bin.
        from repro.cli import main

        assert main(["run", "baseline-diurnal", "--bins", "14", "--max-records",
                     "5", "--warmup-bins", "10", "--exact"] + knob) == 2
        assert error in capsys.readouterr().err

    def test_run_unknown_scenario_exits_2(self, capsys):
        from repro.cli import main

        assert main(["run", "frobnicate"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_trace_scenario_mismatch_exits_2(self, shared_traces, capsys):
        from repro.cli import main

        assert main([
            "run", "ddos-burst", "--trace",
            str(shared_traces["flash-crowd"]),
        ]) == 2
        assert "records scenario" in capsys.readouterr().err

    def test_trace_write_then_run_replay_matches(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "saved.trace"
        source = ["--bins", str(N_BINS), "--seed", str(SEED)]
        args = source + ["--warmup-bins", str(WARMUP), "--exact",
                         "--components", "3", "--refit-every", "0", "--json"]
        assert main(["run", "flash-crowd", "--max-records", str(MAX_RECORDS)]
                    + args + [str(tmp_path / "inline.json")]) == 0
        first = capsys.readouterr().out
        assert main(["trace", "write", "flash-crowd", "--max-records",
                     str(MAX_RECORDS), "--output", str(path)] + source) == 0
        capsys.readouterr()
        assert main(["run", "flash-crowd", "--trace", str(path)]
                    + args + [str(tmp_path / "replay.json")]) == 0
        second = capsys.readouterr().out
        # Identical detections line for line (the banners name the
        # source), and the same diagnosis JSON apart from its provenance.
        pick = lambda text: [l for l in text.splitlines()
                             if l.startswith(("  bin", "detections:"))]
        assert pick(first) == pick(second)
        inline, replay = (json.loads((tmp_path / f"{name}.json").read_text())
                          for name in ("inline", "replay"))
        assert replay.pop("meta")["source"] == "trace"
        assert inline.pop("meta")["source"] == "scenario"
        assert replay == inline


def _bins():
    from repro.flows.binning import TimeBins

    return TimeBins(n_bins=N_BINS)
