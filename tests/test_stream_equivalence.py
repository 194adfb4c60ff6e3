"""Streaming-vs-batch equivalence on a fixed synthetic cube.

The acceptance contract of the streaming engine: warmed up on the same
data the batch pipeline fits on, and scoring bins reduced from the same
per-bin histograms, its detected bins must match
:class:`repro.core.detector.AnomalyDiagnosis` — exactly when the
histograms are reduced exactly (the grouped-entropy kernel, as the
exact stage reduces records), and within sketch-error tolerance when
their entropies are Count-Min estimates (any disagreeing bin must sit
within a small margin of the detection threshold).

A record-level variant closes the loop end-to-end: the same raw record
trace aggregated by :class:`repro.flows.odflows.ODFlowAggregator`
(batch) and rolled through the streaming feature stage must produce
identical per-bin entropy matrices and volume rows, hence identical
detections.
"""

import numpy as np
import pytest

from repro.anomalies.builders import BUILDERS
from repro.anomalies.injector import combined_counts, injected_bin_state
from repro.core.detector import AnomalyDiagnosis
from repro.flows.binning import TimeBins
from repro.flows.odflows import ODFlowAggregator
from repro.flows.records import FlowRecordBatch
from repro.flows.sketches import SketchBank, entropy_from_sketch_runs
from repro.kernels import group_reduce
from repro.net.topology import abilene
from repro.stream.chunks import synthetic_record_stream
from repro.stream.engine import StreamConfig, StreamingDetectionEngine
from repro.stream.window import BinSummary
from repro.traffic.generator import TrafficGenerator

N_BINS = 64
SEED = 3
#: Milder settings than the paper's (0.999, 10): on a 64-bin cube the
#: Q threshold sits right where single-OD injections land (stronger
#: ones contaminate the fitted subspace and vanish from the residual —
#: the classic PCA-poisoning effect), and the equivalence contract is
#: parameter-agnostic anyway.
ALPHA = 0.95
N_COMPONENTS = 4

#: (bin, OD flow, anomaly type, pps) planted into the cube histograms.
#: Intensity tuned to sit inside the detectability window: strong
#: enough to clear Q_alpha, mild enough not to hijack a principal
#: component of the 64-bin fit.
PLANTS = ((20, 5, "port_scan", 9.0),)
#: (bin, OD flow) volume spikes planted into the packet matrix.
VOLUME_PLANTS = ((33, 12),)


def _batch_equivalence_config(**overrides):
    """Engine config that scores exactly like the batch pipeline."""
    defaults = dict(
        warmup_bins=N_BINS,
        refit_every=0,
        drift_reset_after=0,
        n_components=N_COMPONENTS,
        alpha=ALPHA,
        volume_transform="none",
        volume_detrend="none",
        calibration_margin=0.0,
        volume_calibration_margin=0.0,
        exact_histograms=True,
    )
    defaults.update(overrides)
    return StreamConfig(**defaults)


@pytest.fixture(scope="module")
def fixed_cube():
    """A fixed synthetic cube with planted anomalies + its histograms."""
    topo = abilene()
    generator = TrafficGenerator(topo, TimeBins(n_bins=N_BINS), seed=SEED)
    cube = generator.generate()
    rng = np.random.default_rng(0)
    traces = {
        (b, od): BUILDERS[kind](rng, pps=pps) for b, od, kind, pps in PLANTS
    }
    hists_by_bin = {b: {} for b in range(N_BINS)}
    for od in range(topo.n_od_flows):
        stream = generator.od_stream(od)
        for b in range(N_BINS):
            hists = [stream.histograms[k][b] for k in range(4)]
            trace = traces.get((b, od))
            if trace is not None:
                entropy, packets, byte_count = injected_bin_state(
                    tuple(hists), cube.packets[b, od], cube.bytes[b, od], trace
                )
                hists = [
                    combined_counts(hists[k], trace.contributions[k])
                    for k in range(4)
                ]
                cube.entropy[b, od] = entropy
                cube.packets[b, od] = packets
                cube.bytes[b, od] = byte_count
            hists_by_bin[b][od] = (
                [(np.arange(len(c), dtype=np.int64), c) for c in hists],
                cube.packets[b, od],
                cube.bytes[b, od],
            )
        generator.evict_stream(od)
    for b, od in VOLUME_PLANTS:
        # Inside the volume detectability window (bigger spikes hijack
        # a principal component of the 64-bin fit and vanish).
        cube.packets[b, od] += 3e5
        entry = hists_by_bin[b][od]
        hists_by_bin[b][od] = (entry[0], cube.packets[b, od], entry[2])
    return topo, cube, hists_by_bin


def _bin_summary(b, hists_by_od, p, sketch_width=None):
    """One bin's rows from its per-OD histograms: exact grouped
    entropies, or Count-Min estimates over every histogram value."""
    entropy = np.zeros((p, 4))
    packets, byte_counts = np.zeros(p), np.zeros(p)
    for od, (_, n_packets, n_bytes) in hists_by_od.items():
        packets[od], byte_counts[od] = n_packets, n_bytes
    for k in range(4):
        pairs = [(od, hists[k]) for od, (hists, _, _) in hists_by_od.items()]
        runs = group_reduce(
            np.concatenate([np.full(len(v), od) for od, (v, _) in pairs]),
            np.concatenate([v for _, (v, _) in pairs]),
            np.concatenate([c for _, (_, c) in pairs]).astype(np.int64),
        )
        if sketch_width is None:
            entropy[runs.group_ids, k] = runs.entropies()
            continue
        bank = SketchBank(p, width=sketch_width)
        bank.update(runs.group_ids, runs.starts, runs.values, runs.counts)
        estimates, totals = bank.query_runs(runs.group_ids, runs.starts, runs.values)
        entropy[runs.group_ids, k] = entropy_from_sketch_runs(
            estimates, totals, runs.starts
        )
    return BinSummary(bin=b, entropy=entropy, packets=packets, bytes=byte_counts)


def _run_engine(topo, cube, hists_by_bin, sketch_width=None, **config_overrides):
    engine = StreamingDetectionEngine(topo, _batch_equivalence_config(**config_overrides))
    engine.warm_up(cube)
    for b in range(N_BINS):
        engine.observe_summary(
            _bin_summary(b, hists_by_bin[b], topo.n_od_flows, sketch_width)
        )
    return engine.finish()


@pytest.fixture(scope="module")
def batch_reference(fixed_cube):
    topo, cube, _ = fixed_cube
    diagnosis = AnomalyDiagnosis(n_components=N_COMPONENTS, alpha=ALPHA)
    volume_bins = diagnosis.detect_volume(cube)
    detections = diagnosis.detect_entropy(cube)
    entropy_bins = np.array(sorted(d.bin for d in detections), dtype=np.int64)
    return volume_bins, entropy_bins


class TestExactEquivalence:
    def test_detected_bins_match_batch_exactly(self, fixed_cube, batch_reference):
        topo, cube, hists_by_bin = fixed_cube
        volume_bins, entropy_bins = batch_reference
        report = _run_engine(topo, cube, hists_by_bin)
        assert report.n_bins_scored == N_BINS
        np.testing.assert_array_equal(report.entropy_bins, entropy_bins)
        np.testing.assert_array_equal(report.volume_bins, volume_bins)

    def test_plants_are_detected(self, batch_reference):
        volume_bins, entropy_bins = batch_reference
        # The fixture is only a meaningful equivalence check if both
        # methods actually fire on it.
        assert {b for b, *_ in PLANTS} <= set(entropy_bins.tolist())
        assert {b for b, _ in VOLUME_PLANTS} <= set(volume_bins.tolist())


class TestSketchTolerance:
    def test_detected_bins_match_within_sketch_error(
        self, fixed_cube, batch_reference
    ):
        topo, cube, hists_by_bin = fixed_cube
        volume_bins, entropy_bins = batch_reference
        report = _run_engine(topo, cube, hists_by_bin, sketch_width=8192)
        # Volume rows bypass the sketches entirely: exact match.
        np.testing.assert_array_equal(report.volume_bins, volume_bins)
        # Entropy bins: any disagreement must be a borderline bin whose
        # batch SPE sits within 10% of the threshold.
        batch_set = set(entropy_bins.tolist())
        stream_set = set(report.entropy_bins.tolist())
        threshold = {d.bin: d.threshold for d in report.detections}
        spe_by_bin = {d.bin: d.spe_entropy for d in report.detections}
        for b in batch_set ^ stream_set:
            spe = spe_by_bin.get(b, 0.0)
            thr = threshold[b]
            assert abs(spe - thr) <= 0.1 * thr, (
                f"bin {b} disagrees beyond sketch tolerance "
                f"(spe={spe}, threshold={thr})"
            )
        # The planted anomalies are far from the threshold: must agree.
        assert {b for b, *_ in PLANTS} <= stream_set


class TestRecordLevelEquivalence:
    def test_stage_matches_batch_aggregator(self):
        topo = abilene()
        n_bins = 8
        bins = TimeBins(n_bins=n_bins)
        generator = TrafficGenerator(topo, bins, seed=17)
        batches = list(
            synthetic_record_stream(
                generator, range(n_bins), max_records_per_od=40
            )
        )
        cube = ODFlowAggregator(topo).aggregate(
            FlowRecordBatch.concat(batches), bins
        )

        engine = StreamingDetectionEngine(
            topo, _batch_equivalence_config(warmup_bins=n_bins)
        )
        engine.warm_up(cube)
        summaries = []
        for batch in batches:
            summaries.extend(engine.stage.ingest(batch))
        summaries.extend(engine.stage.flush())
        assert [s.bin for s in summaries] == list(range(n_bins))
        for s in summaries:
            np.testing.assert_allclose(s.entropy, cube.entropy[s.bin])
            np.testing.assert_allclose(s.packets, cube.packets[s.bin])
            np.testing.assert_allclose(s.bytes, cube.bytes[s.bin])
