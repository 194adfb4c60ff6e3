"""The detection-quality harness: fuzzer, scorer, grid, and CI gate.

Covers the contracts the quality gate stands on:

* fuzzed workloads are pure functions of their spec — same spec, same
  schedule and records, in any process (pickle round-trip through
  ``build_source``) — and sweeping the grid knobs perturbs magnitudes
  only, never the (bin, OD, label) schedule;
* the scorer's matching, vacuous edges, latency/OD/cluster bookkeeping, and
  lossless merge;
* events thinned to zero packets stay in the ground truth but
  materialise no records;
* ``tools/check_quality.py`` passes identical payloads, tolerates
  drops inside ``--max-drop``, and fails drops, vanished scenarios,
  and vanished grid cells.
"""

import importlib.util
import json
import pickle
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.anomalies.base import AnomalyTrace, FeatureContribution
from repro.flows.binning import TimeBins
from repro.flows.features import N_FEATURES
from repro.net.topology import abilene
from repro.pipeline.report import StreamDetection, StreamingReport
from repro.pipeline.sources import build_source
from repro.quality import (
    CHANNELS,
    DetectorScore,
    FuzzSpec,
    FuzzedScenarioSource,
    fuzz_scenario,
    fuzz_sources,
    match_bins,
    quality_config,
    run_source,
    score_report,
)
from repro.scenarios import ScenarioEvent, scenario_record_batches
from repro.traffic.generator import TrafficGenerator

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- fuzzer ----------------------------------------------------------------


def _schedule(source):
    return [(e.bin, e.od, e.label) for e in source.events]


class TestFuzzSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            FuzzSpec(index=-1)
        with pytest.raises(ValueError, match="min_events"):
            FuzzSpec(min_events=3, max_events=2)
        with pytest.raises(ValueError, match="intensity_scale"):
            FuzzSpec(intensity_scale=0.0)
        with pytest.raises(ValueError, match="sampling_rate"):
            FuzzSpec(sampling_rate=0)

    def test_name_is_seed_and_index(self):
        assert FuzzSpec(seed=7, index=3).name == "fuzz-7-003"

    def test_fuzz_sources_rejects_negative_n(self):
        with pytest.raises(ValueError, match="non-negative"):
            fuzz_sources(-1)


class TestFuzzer:
    def test_same_spec_same_schedule_and_records(self):
        spec = FuzzSpec(seed=5, index=2)
        a, b = FuzzedScenarioSource(spec), FuzzedScenarioSource(spec)
        assert _schedule(a) == _schedule(b)
        assert [e.trace.packets for e in a.events] == [
            e.trace.packets for e in b.events
        ]
        for batch_a, batch_b in zip(a.batches(), b.batches()):
            np.testing.assert_array_equal(batch_a.src_ip, batch_b.src_ip)
            np.testing.assert_array_equal(batch_a.packets, batch_b.packets)
            np.testing.assert_array_equal(batch_a.timestamp, batch_b.timestamp)

    def test_events_land_in_scored_window_on_valid_ods(self):
        topo = abilene()
        for source in fuzz_sources(6, seed=3):
            assert source.events, "fuzzer must schedule at least one event"
            for e in source.events:
                assert source.fuzz.warmup_bins <= e.bin < source.fuzz.n_bins
                assert 0 <= e.od < topo.n_od_flows

    def test_indices_fuzz_independent_schedules(self):
        schedules = {tuple(_schedule(s)) for s in fuzz_sources(6, seed=3)}
        assert len(schedules) > 1

    def test_knobs_perturb_magnitude_not_schedule(self):
        base = FuzzedScenarioSource(FuzzSpec(seed=9))
        for knob in (
            dict(intensity_scale=0.25),
            dict(sampling_rate=50),
            dict(flow_profile="data-mining"),
            dict(flow_profile=None),
        ):
            varied = FuzzedScenarioSource(replace(FuzzSpec(seed=9), **knob))
            assert _schedule(varied) == _schedule(base), knob

    def test_intensity_scale_scales_packets(self):
        base = FuzzedScenarioSource(FuzzSpec(seed=9))
        double = FuzzedScenarioSource(FuzzSpec(seed=9, intensity_scale=2.0))
        for e_base, e_double in zip(base.events, double.events):
            assert e_double.trace.packets == pytest.approx(
                2 * e_base.trace.packets, rel=0.01
            )

    def test_sampling_rate_thins_traces(self):
        base = FuzzedScenarioSource(FuzzSpec(seed=9))
        thinned = FuzzedScenarioSource(FuzzSpec(seed=9, sampling_rate=10))
        for e_base, e_thin in zip(base.events, thinned.events):
            assert e_thin.trace.packets == pytest.approx(
                e_base.trace.packets / 10, rel=0.25
            )
            assert e_thin.trace.meta["thinning"] == 10

    def test_flow_profile_lands_in_trace_meta(self):
        source = FuzzedScenarioSource(FuzzSpec(seed=1, flow_profile="data-mining"))
        assert all(
            e.trace.meta["flow_cdf"] == "data-mining" for e in source.events
        )
        bare = FuzzedScenarioSource(FuzzSpec(seed=1, flow_profile=None))
        assert all("flow_cdf" not in e.trace.meta for e in bare.events)

    def test_spec_pickle_round_trip_rebuilds_the_source(self):
        source = FuzzedScenarioSource(FuzzSpec(seed=4, index=1, sampling_rate=5))
        rebuilt = build_source(pickle.loads(pickle.dumps(source.spec)))
        assert isinstance(rebuilt, FuzzedScenarioSource)
        assert rebuilt.spec == source.spec
        assert _schedule(rebuilt) == _schedule(source)

    def test_fuzzed_scenarios_stay_out_of_the_registry(self):
        from repro.scenarios import scenario_names

        fuzz_scenario(FuzzSpec(seed=2))
        assert not any(n.startswith("fuzz-") for n in scenario_names())

    def test_build_source_requires_the_spec(self):
        from repro.pipeline.sources import SourceSpec

        with pytest.raises(ValueError, match="FuzzSpec"):
            build_source(SourceSpec(kind="fuzzed"))


class TestZeroPacketEvents:
    def test_thinned_away_event_materialises_no_records(self):
        """Ground truth keeps the event; the stream shows background only."""
        generator = TrafficGenerator(abilene(), TimeBins(n_bins=3), seed=0)
        ghost = ScenarioEvent(
            bin=1,
            od=5,
            label="dos",
            trace=AnomalyTrace(
                label="dos",
                contributions=tuple(
                    FeatureContribution() for _ in range(N_FEATURES)
                ),
                packets=0,
                bytes=0,
            ),
        )
        with_ghost = list(
            scenario_record_batches(
                generator, [ghost], range(3), max_records_per_od=5, seed=0
            )
        )
        background = list(
            scenario_record_batches(
                generator, [], range(3), max_records_per_od=5, seed=0
            )
        )
        assert len(with_ghost) == len(background)
        for a, b in zip(with_ghost, background):
            np.testing.assert_array_equal(a.timestamp, b.timestamp)
            np.testing.assert_array_equal(a.packets, b.packets)


# -- scorer ----------------------------------------------------------------


def _detection(b, entropy=False, volume=False, flows=(), cluster=-1):
    return StreamDetection(
        bin=b,
        spe_entropy=1.0 if entropy else 0.0,
        threshold=0.5,
        detected_by_entropy=entropy,
        detected_by_volume=volume,
        flows=[SimpleNamespace(od=od) for od in flows],
        cluster=cluster,
    )


def _report(detections):
    return StreamingReport(
        detections=detections,
        n_bins_scored=len(detections),
        n_bins_warmup=0,
        n_records=0,
        late_records=0,
    )


def _event(b, od=0, label="dos"):
    return SimpleNamespace(bin=b, od=od, label=label)


class TestMatchBins:
    def test_exact_and_tolerant_matching(self):
        assert match_bins([5], [5]) == [(0, 5)]
        assert match_bins([5], [6], tolerance=1) == [(0, 6)]
        assert match_bins([5], [7], tolerance=1) == []

    def test_one_to_one(self):
        # Two events, one detection: only one event may claim it.
        assert match_bins([5, 6], [5], tolerance=1) == [(0, 5)]

    def test_on_time_beats_early(self):
        # Detection at the event bin preferred over the earlier one.
        assert match_bins([5], [4, 5], tolerance=1) == [(0, 5)]
        # Only an early detection available: it still matches.
        assert match_bins([5], [4], tolerance=1) == [(0, 4)]

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            match_bins([1], [1], tolerance=-1)


class TestScoreReport:
    def test_vacuous_perfection_with_no_events_no_detections(self):
        scores = score_report([], _report([]))
        assert set(scores) == set(CHANNELS)
        for score in scores.values():
            assert score.precision == score.recall == score.f1 == 1.0
            assert score.mean_latency_bins is None

    def test_channels_are_scored_independently(self):
        events = [_event(5, od=3), _event(8, od=4)]
        report = _report([
            _detection(5, entropy=True, flows=(3,)),
            _detection(8, volume=True),
            _detection(11, volume=True),  # false positive
        ])
        scores = score_report(events, report, tolerance_bins=0)
        assert (scores["entropy"].tp, scores["entropy"].fn) == (1, 1)
        assert (scores["volume"].tp, scores["volume"].fp) == (1, 1)
        assert (scores["any"].tp, scores["any"].fp, scores["any"].fn) == (2, 1, 0)
        assert scores["any"].precision == pytest.approx(2 / 3)
        assert scores["any"].recall == 1.0

    def test_latency_is_detection_minus_event_bin(self):
        events = [_event(5), _event(10)]
        report = _report([
            _detection(6, volume=True),
            _detection(10, volume=True),
        ])
        scores = score_report(events, report, tolerance_bins=1)
        assert scores["volume"].mean_latency_bins == pytest.approx(0.5)

    def test_od_accuracy_only_on_the_entropy_channel(self):
        events = [_event(5, od=3), _event(8, od=4)]
        report = _report([
            _detection(5, entropy=True, flows=(3, 9)),   # od identified
            _detection(8, entropy=True, flows=(7,)),     # wrong flow
        ])
        scores = score_report(events, report)
        assert scores["entropy"].od_accuracy == pytest.approx(0.5)
        assert scores["volume"].od_accuracy is None
        assert scores["any"].od_accuracy is None

    def test_cluster_misassignment_under_the_best_bijection(self):
        events = [_event(b, label=lab) for b, lab in
                  [(2, "dos"), (4, "dos"), (6, "worm"), (8, "worm"), (10, "dos")]]
        report = _report([
            _detection(2, entropy=True, cluster=1),
            _detection(4, entropy=True, cluster=1),
            _detection(6, entropy=True, cluster=0),
            _detection(8, entropy=True, cluster=1),   # misassigned
            _detection(10, entropy=True),             # never classified
        ])
        scores = score_report(events, report, tolerance_bins=0)
        entropy = scores["entropy"]
        assert (entropy.cluster_total, entropy.cluster_errors) == (4, 1)
        assert (scores["any"].cluster_total, scores["any"].cluster_errors) == (0, 0)
        payload = entropy.to_dict()
        assert (payload["cluster_total"], payload["cluster_errors"]) == (4, 1)

    def test_cluster_errors_equal_fig7_best_assignment(self):
        from repro.experiments.fig7_known_clusters import (
            _TYPES,
            _best_assignment_errors,
        )

        rng = np.random.default_rng(27)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            labels = [_TYPES[t] for t in rng.integers(0, 3, size=n)]
            clusters = rng.integers(0, 3, size=n).tolist()
            events = [_event(2 * b, label=lab) for b, lab in enumerate(labels)]
            report = _report([
                _detection(2 * b, entropy=True, cluster=c)
                for b, c in enumerate(clusters)
            ])
            entropy = score_report(events, report, tolerance_bins=0)["entropy"]
            assert entropy.cluster_total == n
            assert entropy.cluster_errors == _best_assignment_errors(
                labels, np.array(clusters)
            )

    def test_merge_is_lossless_and_guarded(self):
        a = DetectorScore("any", tp=2, fp=1, fn=0, latency_total=3,
                          cluster_total=2, cluster_errors=1)
        b = DetectorScore("any", tp=1, fp=0, fn=2, latency_total=0,
                          cluster_total=1, cluster_errors=0)
        merged = a.merge(b)
        assert (merged.tp, merged.fp, merged.fn) == (3, 1, 2)
        assert (merged.cluster_total, merged.cluster_errors) == (3, 1)
        assert merged.mean_latency_bins == pytest.approx(1.0)
        with pytest.raises(ValueError, match="merge"):
            a.merge(DetectorScore("entropy"))

    def test_to_dict_is_json_ready(self):
        payload = DetectorScore("any", tp=1, fp=2, fn=0, latency_total=1).to_dict()
        assert payload["precision"] == pytest.approx(1 / 3)
        assert payload["od_accuracy"] is None
        json.dumps(payload)  # no numpy scalars

    def test_unknown_channel_rejected(self):
        from repro.quality.score import _channel_detections

        with pytest.raises(ValueError, match="unknown channel"):
            _channel_detections(_report([]), "wavelet")


# -- grid ------------------------------------------------------------------


class TestGrid:
    def test_quality_config_sketch_semantics(self):
        exact = quality_config(0)
        assert exact.exact_histograms
        sketched = quality_config(512)
        assert not sketched.exact_histograms
        assert sketched.sketch_width == 512

    def test_run_source_scores_a_fuzzed_workload(self):
        source = FuzzedScenarioSource(FuzzSpec(seed=7, index=2))
        scores = run_source(source, mode="stream")
        assert set(scores) == set(CHANNELS)
        total = scores["any"]
        assert total.tp + total.fn == len(source.events)
        assert 0.0 <= total.precision <= 1.0


# -- the CI gate -----------------------------------------------------------


def _channels(**overrides):
    ch = {
        "tp": 2, "fp": 0, "fn": 0,
        "precision": 1.0, "recall": 1.0, "f1": 1.0,
        "latency_bins": 0.0, "od_accuracy": None,
    }
    ch.update(overrides)
    return {name: dict(ch) for name in CHANNELS}


def _payload():
    return {
        "schema": 1,
        "seed": 7,
        "scenarios": {
            "ddos-burst": {"events": 2, "kind": "registered",
                           "channels": _channels()},
            "fuzz-7-000": {"events": 3, "kind": "fuzzed",
                           "channels": _channels()},
        },
        "grid": [
            {"intensity_scale": 1.0, "sketch_width": 0, "sampling_rate": 10,
             "events": 4, "channels": _channels()},
        ],
    }


class TestCheckQuality:
    @pytest.fixture(scope="class")
    def tool(self):
        return _load_tool("check_quality")

    def test_identical_payloads_pass(self, tool):
        assert tool.compare(_payload(), _payload(), max_drop=0.0)

    def test_drop_within_tolerance_passes(self, tool):
        fresh = _payload()
        fresh["scenarios"]["ddos-burst"]["channels"]["any"]["recall"] = 0.96
        assert tool.compare(fresh, _payload(), max_drop=0.05)

    def test_drop_beyond_tolerance_fails(self, tool):
        fresh = _payload()
        fresh["scenarios"]["fuzz-7-000"]["channels"]["entropy"]["precision"] = 0.8
        assert not tool.compare(fresh, _payload(), max_drop=0.05)

    def test_grid_cells_are_gated_by_coordinates(self, tool):
        fresh = _payload()
        fresh["grid"][0]["channels"]["any"]["recall"] = 0.5
        assert not tool.compare(fresh, _payload(), max_drop=0.05)
        moved = _payload()
        moved["grid"][0]["sampling_rate"] = 100  # baseline cell vanished
        assert not tool.compare(moved, _payload(), max_drop=0.05)

    def test_vanished_scenario_fails(self, tool):
        fresh = _payload()
        del fresh["scenarios"]["fuzz-7-000"]
        assert not tool.compare(fresh, _payload(), max_drop=0.5)

    def test_improvement_never_fails(self, tool):
        base = _payload()
        base["scenarios"]["ddos-burst"]["channels"]["any"]["recall"] = 0.5
        assert tool.compare(_payload(), base, max_drop=0.0)

    def test_main_exit_codes(self, tool, tmp_path, monkeypatch):
        monkeypatch.delenv(tool.SKIP_ENV, raising=False)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_payload()))
        regressed = tmp_path / "bad.json"
        bad = _payload()
        bad["scenarios"]["ddos-burst"]["channels"]["any"]["recall"] = 0.2
        regressed.write_text(json.dumps(bad))

        assert tool.main(["--fresh", str(good), "--baseline", str(good)]) == 0
        assert tool.main(["--fresh", str(regressed), "--baseline", str(good)]) == 1
        # Generous tolerance turns the same drop into a pass.
        assert tool.main(["--fresh", str(regressed), "--baseline", str(good),
                          "--max-drop", "0.9"]) == 0

    def test_seed_mismatch_refuses_to_compare(self, tool, tmp_path, monkeypatch):
        monkeypatch.delenv(tool.SKIP_ENV, raising=False)
        fresh = tmp_path / "fresh.json"
        other = _payload()
        other["seed"] = 8
        fresh.write_text(json.dumps(other))
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_payload()))
        assert tool.main(["--fresh", str(fresh), "--baseline", str(base)]) == 1

    def test_skip_env_short_circuits(self, tool, monkeypatch):
        monkeypatch.setenv(tool.SKIP_ENV, "1")
        assert tool.main(["--fresh", "/nonexistent.json"]) == 0


# -- CLI -------------------------------------------------------------------


class TestQualityCLI:
    def test_fuzz_single_mode_writes_artifact(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fuzz.json"
        code = main(["quality", "fuzz", "--n", "1", "--modes", "stream",
                     "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["modes"] == ["stream"]
        assert len(payload["workloads"]) == 1
        assert payload["workloads"][0]["parity"] is True
        assert "parity ok" in capsys.readouterr().out

    def test_fuzz_rejects_bad_modes(self, capsys):
        from repro.cli import main

        assert main(["quality", "fuzz", "--modes", "warp"]) == 2
        assert "unknown mode" in capsys.readouterr().err
