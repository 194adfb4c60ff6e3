"""Unit tests for the streaming subsystem (chunks, window stage, engine)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.online import OnlineClassifier, OnlineVolumeDetector
from repro.flows.features import N_FEATURES, BinFeatures
from repro.flows.records import FlowRecordBatch
from repro.flows.sketches import CountMinSketch
from repro.net.routing import Router
from repro.net.topology import abilene
from repro.stream.chunks import iter_record_chunks
from repro.stream.engine import StreamConfig, StreamingDetectionEngine
from repro.stream.window import BinAccumulator, BinSummary, StreamFeatureStage


def _random_batch(n, rng, t0=0.0, width=300.0, pop=0):
    return FlowRecordBatch(
        src_ip=rng.integers(0, 1 << 28, size=n),
        dst_ip=rng.integers(0, 1 << 28, size=n),
        src_port=rng.integers(0, 1 << 16, size=n),
        dst_port=rng.integers(0, 1 << 16, size=n),
        protocol=np.full(n, 6),
        packets=rng.integers(1, 50, size=n),
        bytes=rng.integers(40, 1500, size=n),
        timestamp=t0 + rng.uniform(0, width, size=n),
        ingress_pop=np.full(n, pop),
    )


class TestIterRecordChunks:
    def test_rechunks_preserving_order(self):
        rng = np.random.default_rng(0)
        batches = [_random_batch(n, rng) for n in (10, 25, 3, 40)]
        chunks = list(iter_record_chunks(batches, chunk_records=16))
        assert sum(len(c) for c in chunks) == 78
        assert all(len(c) <= 16 for c in chunks)
        # An already-fitting batch with nothing pending passes through
        # as the same object (the no-copy hot path); oversized batches
        # are split into full chunks with the remainder carried over.
        assert chunks[0] is batches[0]
        assert [len(c) for c in chunks[1:]] == [16, 16, 16, 16, 4]
        merged = FlowRecordBatch.concat(chunks)
        original = FlowRecordBatch.concat(batches)
        np.testing.assert_array_equal(merged.src_ip, original.src_ip)
        np.testing.assert_array_equal(merged.timestamp, original.timestamp)

    def test_single_batch_and_empty(self):
        rng = np.random.default_rng(1)
        assert list(iter_record_chunks([], chunk_records=8)) == []
        assert list(iter_record_chunks([FlowRecordBatch.empty()], chunk_records=8)) == []
        batch = _random_batch(5, rng)
        chunks = list(iter_record_chunks(batch, chunk_records=8))
        assert len(chunks) == 1 and chunks[0] is batch

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            list(iter_record_chunks([], chunk_records=0))


class TestSketchBulkOps:
    def test_add_histogram_matches_sequential(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 1 << 20, size=200)
        counts = rng.integers(1, 100, size=200)
        bulk = CountMinSketch(width=1024, depth=4, seed=3)
        bulk.add_histogram(values, counts)
        seq = CountMinSketch(width=1024, depth=4, seed=3)
        for v, c in zip(values, counts):
            seq.add(int(v), int(c))
        assert bulk.total == seq.total
        for v in values[:50]:
            assert bulk.query(int(v)) >= seq.query(int(v)) - 0  # never under
            assert bulk.query(int(v)) <= seq.query(int(v))

    def test_add_histogram_aggregates_duplicates(self):
        # Regression: 1500 rows of the same value must accumulate, not
        # leave the counter at a single row's count.
        sketch = CountMinSketch(width=512, depth=4, seed=0)
        values = np.full(1500, 42, dtype=np.int64)
        counts = np.full(1500, 24, dtype=np.int64)
        sketch.add_histogram(values, counts)
        assert sketch.query(42) >= 1500 * 24

    def test_query_many_matches_query(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 1 << 20, size=100)
        counts = rng.integers(1, 50, size=100)
        sketch = CountMinSketch(width=256, depth=3, seed=1)
        sketch.add_histogram(values, counts)
        probe = np.concatenate([values[:20], rng.integers(0, 1 << 20, size=20)])
        bulk = sketch.query_many(probe)
        assert list(bulk) == [sketch.query(int(v)) for v in probe]


class TestBinAccumulator:
    def test_exact_mode_matches_feature_histograms(self):
        rng = np.random.default_rng(4)
        batch = _random_batch(300, rng)
        ods = rng.integers(0, 5, size=300)
        acc = BinAccumulator(n_od_flows=5, exact=True)
        # Split across two chunks to exercise merge-on-finalize.
        acc.add_batch(ods[:150], batch.select(np.arange(150)))
        acc.add_batch(ods[150:], batch.select(np.arange(150, 300)))
        summary = acc.finalize(7)
        assert summary.bin == 7 and summary.n_records == 300
        for od in range(5):
            sub = batch.select(ods == od)
            expected = BinFeatures.from_batch(sub)
            np.testing.assert_allclose(summary.entropy[od], expected.entropies())
            assert summary.packets[od] == expected.packets
            assert summary.bytes[od] == expected.bytes

    def test_sketch_mode_tracks_exact(self):
        rng = np.random.default_rng(5)
        batch = _random_batch(400, rng)
        ods = np.zeros(400, dtype=np.int64)
        exact = BinAccumulator(n_od_flows=1, exact=True)
        sketch = BinAccumulator(n_od_flows=1, width=4096)
        exact.add_batch(ods, batch)
        sketch.add_batch(ods, batch)
        e = exact.finalize(0).entropy[0]
        s = sketch.finalize(0).entropy[0]
        # Wide sketch on a few hundred distinct values: close estimate.
        np.testing.assert_allclose(s, e, atol=0.6)


class TestStreamFeatureStage:
    def test_bin_rollover_gaps_and_late_records(self):
        topo = abilene()
        stage = StreamFeatureStage(topo, bin_width=300.0)
        rng = np.random.default_rng(6)
        closed = stage.ingest(_random_batch(50, rng, t0=0.0))
        assert closed == []  # bin 0 still open
        closed = stage.ingest(_random_batch(50, rng, t0=900.0))  # jump to bin 3
        assert [s.bin for s in closed] == [0, 1, 2]
        assert closed[0].n_records == 50
        assert closed[1].n_records == 0  # gap bins emit empty summaries
        late = stage.ingest(_random_batch(10, rng, t0=0.0))  # bin 0 again
        assert late == [] and stage.late_records == 10
        final = stage.flush()
        assert [s.bin for s in final] == [3]
        assert stage.flush() == []  # idempotent once closed

    def test_single_bin_window(self):
        topo = abilene()
        stage = StreamFeatureStage(topo)
        rng = np.random.default_rng(7)
        assert stage.ingest(_random_batch(30, rng, t0=0.0)) == []
        summaries = stage.flush()
        assert len(summaries) == 1
        assert summaries[0].bin == 0 and summaries[0].n_records == 30

    def test_empty_chunk_is_noop(self):
        stage = StreamFeatureStage(abilene())
        assert stage.ingest(FlowRecordBatch.empty()) == []
        assert stage.flush() == []


    def test_bad_ingress_pop_loses_no_earlier_bin(self):
        topo = abilene()
        stage = StreamFeatureStage(topo)
        rng = np.random.default_rng(8)
        good = FlowRecordBatch.concat(
            [_random_batch(20, rng, t0=0.0), _random_batch(15, rng, t0=300.0)]
        )
        bad = _random_batch(1, rng, t0=600.0, pop=topo.n_pops)
        with pytest.raises(ValueError, match="OD id"):
            stage.ingest(FlowRecordBatch.concat([good, bad]))
        assert stage._current_bin is None and stage.late_records == 0
        closed = stage.ingest(good) + stage.flush()
        assert [(s.bin, s.n_records) for s in closed] == [(0, 20), (1, 15)]

    @pytest.mark.parametrize("bad", ["wrapped", "minus_one", "negated"])
    def test_out_of_range_address_changes_nothing(self, bad):
        topo = abilene()
        stage = StreamFeatureStage(topo)
        rng = np.random.default_rng(9)
        assert stage.ingest(_random_batch(10, rng, t0=0.0)) == []
        chunk = _random_batch(10, rng, t0=300.0)
        a = topo.pops[3].prefix.nth(5)
        dst = chunk.dst_ip.copy()
        dst[4] = {"wrapped": a + (1 << 32), "minus_one": -1, "negated": -a}[bad]
        with pytest.raises(ValueError, match=f"address {dst[4]} outside"):
            stage.ingest(chunk.with_columns(dst_ip=dst))
        assert stage._current_bin == 0 and stage.late_records == 0
        assert [(s.bin, s.n_records) for s in stage.flush()] == [(0, 10)]


def _reference_split(topology, chunks, exact):
    """The stage's bin split by the obvious route: ``np.unique`` over
    each chunk's bin indices, a mask per bin, ODs resolved and
    addresses anonymized per bin."""
    router = Router(topology)
    acc = BinAccumulator(topology.n_od_flows, width=64, depth=2, exact=exact)
    current, late, out = None, 0, []
    for chunk in chunks:
        idx = np.floor(chunk.timestamp / 300.0).astype(np.int64)
        for b in np.unique(idx).tolist():
            mask = idx == b
            if current is not None and b < current:
                late += int(mask.sum())
                continue
            if current is None:
                current = b
            while b > current:
                out.append(acc.finalize(current))
                acc.reset()
                current += 1
            sub = chunk.select(mask)
            acc.add_batch(router.resolve_ods_mixed(sub.ingress_pop, sub.dst_ip),
                          sub.anonymized(topology.anonymization_bits))
    if current is not None and acc.n_records:
        out.append(acc.finalize(current))
    return out, late


@st.composite
def _chunk_plans(draw):
    """1–4 chunks, each over 1–5 distinct bins of 0..9 (gaps and late
    bins included), sorted by time or not."""
    return [
        (draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True)),
         draw(st.integers(1, 60)), draw(st.booleans()))
        for _ in range(draw(st.integers(1, 4)))
    ]


@given(plans=_chunk_plans(), seed=st.integers(0, 2**32 - 1),
       exact=st.booleans())
@settings(max_examples=60, deadline=None)
def test_slice_split_matches_unique_and_mask_split(plans, seed, exact):
    topo = abilene()
    rng = np.random.default_rng(seed)
    prefixes = [pop.prefix for pop in topo.pops]
    chunks = []
    for bins, n, in_order in plans:
        batch = _random_batch(n, rng, pop=0).with_columns(
            timestamp=300.0 * rng.choice(bins, size=n) + rng.uniform(0, 300, size=n),
            ingress_pop=rng.integers(0, topo.n_pops, size=n),
            dst_ip=np.where(
                rng.random(n) < 0.8,
                [prefixes[i].nth(int(o)) for i, o in zip(
                    rng.integers(0, len(prefixes), size=n),
                    rng.integers(0, 1 << 16, size=n))],
                rng.integers(0, 1 << 32, size=n),
            ),
        )
        chunks.append(batch.sort_by_time() if in_order else batch)
    stage = StreamFeatureStage(topo, width=64, depth=2, exact=exact)
    got = [s for chunk in chunks for s in stage.ingest(chunk)] + stage.flush()
    want, late = _reference_split(topo, chunks, exact)
    assert stage.late_records == late
    assert [s.bin for s in got] == [s.bin for s in want]
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.entropy, w.entropy)
        np.testing.assert_array_equal(g.packets, w.packets)
        np.testing.assert_array_equal(g.bytes, w.bytes)
        assert g.n_records == w.n_records


def _summary(bin_index, entropy, packets=None, bytes_=None):
    p = entropy.shape[0]
    return BinSummary(
        bin=bin_index,
        entropy=entropy,
        packets=np.full(p, 1000.0) if packets is None else packets,
        bytes=np.full(p, 8e5) if bytes_ is None else bytes_,
        n_records=p,
    )


def _entropy_stream(t, p=12, seed=0, noise=0.02):
    rng = np.random.default_rng(seed)
    base = rng.uniform(3, 6, size=(p, N_FEATURES))
    return base[None] + noise * rng.normal(size=(t, p, N_FEATURES))


class TestStreamingEngine:
    def _engine(self, p=12, warmup=24, **overrides):
        config = StreamConfig(
            warmup_bins=warmup,
            n_components=4,
            refit_every=overrides.pop("refit_every", 0),
            drift_reset_after=0,
            **overrides,
        )
        topo = abilene()
        return StreamingDetectionEngine(topo, config)

    def test_warms_up_from_stream_then_scores(self):
        p = abilene().n_od_flows
        engine = self._engine(warmup=24)
        tensor = _entropy_stream(30, p=p, seed=8)
        verdicts = []
        for b in range(30):
            v = engine.observe_summary(_summary(b, tensor[b]))
            verdicts.append(v)
        assert all(v is None for v in verdicts[:24])  # warm-up absorbs
        assert engine.is_warm
        assert all(v is not None for v in verdicts[24:])
        report = engine.finish()
        assert report.n_bins_warmup == 24
        assert report.n_bins_scored == 6

    def test_empty_chunk_is_noop(self):
        engine = self._engine()
        assert engine.ingest(FlowRecordBatch.empty()) == []
        report = engine.finish()
        assert report.n_records == 0 and report.n_bins_scored == 0

    def test_refit_boundary_keeps_scoring(self):
        p = abilene().n_od_flows
        engine = self._engine(warmup=24, refit_every=3)
        tensor = _entropy_stream(40, p=p, seed=9)
        for b in range(40):
            engine.observe_summary(_summary(b, tensor[b]))
        # Crossed several refit boundaries (every 3 clean bins) without
        # error; the model is still warm and every live bin was scored.
        assert engine.is_warm
        assert engine.finish().n_bins_scored == 16

    def test_detects_planted_entropy_anomaly_and_classifies(self):
        p = abilene().n_od_flows
        engine = self._engine(warmup=24)
        tensor = _entropy_stream(30, p=p, seed=10)
        tensor[27, 5] += np.array([-2.0, 0.5, -2.0, 3.0])  # port-scan-ish
        hits = []
        for b in range(30):
            v = engine.observe_summary(_summary(b, tensor[b]))
            if v is not None and v.detected_by_entropy:
                hits.append(v)
        assert [v.bin for v in hits] == [27]
        assert hits[0].flows and hits[0].flows[0].od == 5
        assert hits[0].cluster == 0  # cold-start classifier spawned
        report = engine.finish()
        diag = report.to_diagnosis_report()
        assert [a.bin for a in diag.anomalies if a.detected_by_entropy] == [27]
        assert diag.clustering is not None and diag.clustering.k == 1
        assert len(diag.clusters) == 1 and diag.clusters[0].size == 1

    def test_volume_spike_detected(self):
        p = abilene().n_od_flows
        engine = self._engine(warmup=24)
        tensor = _entropy_stream(30, p=p, seed=11)
        rng = np.random.default_rng(12)
        hits = []
        for b in range(30):
            packets = 1000.0 + rng.normal(0, 10, size=p)
            if b == 28:
                packets[3] += 5e4
            v = engine.observe_summary(_summary(b, tensor[b], packets=packets))
            if v is not None and v.detected_by_volume:
                hits.append(v.bin)
        assert hits == [28]


class TestOnlineVolumeDetector:
    def test_detects_spike_and_validates(self):
        rng = np.random.default_rng(13)
        history = 1000 + rng.normal(0, 5, size=(50, 8))
        det = OnlineVolumeDetector(window=50, refit_every=0, n_components=3)
        det.warm_up(history)
        clean_hits = sum(
            det.observe(1000 + rng.normal(0, 5, size=8))[0] for _ in range(20)
        )
        assert clean_hits <= 2
        detected, spe = det.observe(np.full(8, 1000.0) + np.eye(8)[2] * 1e4)
        assert detected and spe > det.threshold
        with pytest.raises(ValueError):
            det.observe(np.zeros(4))
        with pytest.raises(ValueError):
            OnlineVolumeDetector(transform="cube")
        with pytest.raises(RuntimeError):
            OnlineVolumeDetector().observe(np.zeros(8))

    def test_sqrt_holt_tracks_trend(self):
        # A strong linear trend: the raw detector drifts out of its own
        # threshold, the sqrt+holt detector keeps quiet.
        rng = np.random.default_rng(14)
        t = np.arange(120)
        base = 1000 + 15 * t[:, None] + rng.normal(0, 8, size=(120, 6))
        raw = OnlineVolumeDetector(window=60, refit_every=0, n_components=2)
        robust = OnlineVolumeDetector(
            window=60,
            refit_every=0,
            n_components=2,
            transform="sqrt",
            detrend="holt",
            calibration_margin=1.5,
        )
        raw.warm_up(base[:60])
        robust.warm_up(base[:60])
        raw_hits = sum(raw.observe(row)[0] for row in base[60:])
        robust_hits = sum(robust.observe(row)[0] for row in base[60:])
        assert robust_hits < raw_hits
        assert robust_hits <= 3


class TestOnlineClassifierColdStart:
    def test_empty_seed_spawns_first_cluster(self):
        clf = OnlineClassifier()
        assert clf.n_clusters == 0
        assert clf.centroids.shape == (0, N_FEATURES)
        first = clf.assign(np.array([1.0, 0.0, 0.0, 0.0]))
        assert first == 0 and clf.n_clusters == 1
        far = clf.assign(np.array([-1.0, 0.0, 0.0, 0.0]))
        assert far == 1 and clf.n_clusters == 2
