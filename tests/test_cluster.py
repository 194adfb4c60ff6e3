"""Tests for the sharded cluster subsystem (row-block wire format,
shard monitor, coordinator alignment, multiprocessing runner, CLI).

The load-bearing contract: each shard owns its OD flows whole, so the
rows it ships are the single-process rows of those ODs, and the
coordinator's scatter therefore reproduces the single-process engine's
detections bin for bin.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cluster import (
    ClusterCoordinator,
    ShardBinSummary,
    ShardMonitor,
    run_cluster_source,
)
from repro.flows.binning import TimeBins
from repro.flows.records import FlowRecordBatch
from repro.flows.sketches import CountMinSketch
from repro.net.topology import abilene
from repro.pipeline.sources import ScenarioSource, shard_ods
from repro.stream import StreamConfig, StreamingDetectionEngine, synthetic_record_stream
from repro.stream.window import BinAccumulator
from repro.traffic.generator import TrafficGenerator

N_BINS = 14
WARMUP_BINS = 8
MAX_RECORDS_PER_OD = 25
SEED = 5


def _record_stream(ods=None, n_bins=N_BINS):
    generator = TrafficGenerator(abilene(), TimeBins(n_bins=n_bins), seed=SEED)
    return synthetic_record_stream(
        generator, range(n_bins), ods=ods, max_records_per_od=MAX_RECORDS_PER_OD,
        seed=SEED,
    )


def _equivalence_config(**overrides):
    defaults = dict(
        warmup_bins=WARMUP_BINS,
        refit_every=0,
        drift_reset_after=0,
        n_components=4,
        exact_histograms=True,
    )
    defaults.update(overrides)
    return StreamConfig(**defaults)


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


def _summary_from_batch(batch, ods, n_od_flows=4, exact=True, bin_index=0, width=512,
                        shard=0):
    acc = BinAccumulator(n_od_flows=n_od_flows, exact=exact, width=width)
    acc.add_batch(ods, batch)
    return ShardBinSummary.from_accumulator(acc, bin_index, shard)


histogram_pairs = st.lists(
    st.tuples(st.integers(0, 1 << 20), st.integers(1, 5_000)),
    min_size=1,
    max_size=50,
)


class TestSketchMergeAlgebra:
    @given(histogram_pairs, histogram_pairs)
    @settings(max_examples=30, deadline=None)
    def test_merge_commutes(self, h1, h2):
        a, b = CountMinSketch(width=64, depth=3), CountMinSketch(width=64, depth=3)
        for values, counts, sketch in ((h1, None, a), (h2, None, b)):
            arr = np.array(values)
            sketch.add_histogram(arr[:, 0], arr[:, 1])
        ab, ba = a.merge(b), b.merge(a)
        np.testing.assert_array_equal(ab.table, ba.table)
        assert ab.total == ba.total

    @given(histogram_pairs, histogram_pairs, histogram_pairs)
    @settings(max_examples=30, deadline=None)
    def test_merge_associates(self, h1, h2, h3):
        sketches = []
        for h in (h1, h2, h3):
            sketch = CountMinSketch(width=64, depth=3)
            arr = np.array(h)
            sketch.add_histogram(arr[:, 0], arr[:, 1])
            sketches.append(sketch)
        a, b, c = sketches
        left, right = a.merge(b).merge(c), a.merge(b.merge(c))
        np.testing.assert_array_equal(left.table, right.table)
        assert left.total == right.total

    def test_merge_rejects_geometry_mismatch(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=64).merge(CountMinSketch(width=128))

    def test_sketch_bytes_round_trip(self):
        rng = np.random.default_rng(0)
        sketch = CountMinSketch(width=128, depth=3, seed=9)
        sketch.add_histogram(rng.integers(0, 1 << 20, 200), rng.integers(1, 50, 200))
        clone = CountMinSketch.from_bytes(sketch.to_bytes())
        np.testing.assert_array_equal(clone.table, sketch.table)
        assert (clone.width, clone.depth, clone.seed, clone.total) == (
            sketch.width, sketch.depth, sketch.seed, sketch.total,
        )
        assert clone.to_bytes() == sketch.to_bytes()


class TestRowBlockWire:
    @pytest.mark.parametrize("exact", [True, False])
    def test_wire_round_trip_is_bit_exact(self, exact):
        rng = np.random.default_rng(4)
        summary = _summary_from_batch(
            _random_batch(150, rng), rng.integers(0, 4, size=150), exact=exact,
            bin_index=7,
        )
        payload = summary.to_bytes()
        clone = ShardBinSummary.from_bytes(payload)
        assert clone.to_bytes() == payload
        assert (clone.bin, clone.n_records) == (7, 150)
        for name in ("ods", "entropy", "packets", "bytes"):
            np.testing.assert_array_equal(getattr(clone, name), getattr(summary, name))

    def test_exact_payload_ignores_sketch_geometry(self):
        # Sketch knobs are meaningless in exact mode: two monitors with
        # different widths must still ship byte-identical blocks for
        # the same records.
        rng = np.random.default_rng(9)
        batch = _random_batch(80, rng)
        ods = rng.integers(0, 4, size=80)
        narrow = _summary_from_batch(batch, ods, width=512)
        wide = _summary_from_batch(batch, ods, width=4096)
        assert narrow.to_bytes() == wide.to_bytes()

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(ValueError):
            ShardBinSummary.from_bytes(b"not a summary")


class TestShardMonitor:
    def test_emits_mergeable_summaries_with_rollover(self):
        topo = abilene()
        monitor = ShardMonitor(topo, exact=True, shard_id=3)
        rng = np.random.default_rng(6)
        assert monitor.ingest(_random_batch(40, rng, t0=0.0)) == []
        closed = monitor.ingest(_random_batch(40, rng, t0=600.0))  # jump to bin 2
        assert [s.bin for s in closed] == [0, 1]
        assert isinstance(closed[0], ShardBinSummary)
        assert closed[0].n_records == 40
        assert closed[1].n_records == 0  # gap bin still emitted
        final = monitor.flush()
        assert [s.bin for s in final] == [2]
        assert monitor.shard_id == 3

    def test_sketch_summary_survives_the_next_bins(self):
        # The stage reuses its sketch counters for the next bin, so an
        # exported summary must own copies: bin 0's bytes are the same
        # whether or not bins 1 and 2 were ingested after it.
        topo = abilene()
        rng = np.random.default_rng(12)
        first = _random_batch(60, rng, t0=0.0)
        monitor = ShardMonitor(topo, exact=False, width=256)
        assert monitor.ingest(first) == []
        (summary,) = monitor.ingest(_random_batch(60, rng, t0=300.0))
        payload = summary.to_bytes()
        monitor.ingest(_random_batch(60, rng, t0=600.0))
        assert summary.to_bytes() == payload
        alone = ShardMonitor(topo, exact=False, width=256)
        alone.ingest(first)
        (expected,) = alone.flush()
        assert payload == expected.to_bytes()

    def test_shard_ods_partitions_exactly(self):
        p = abilene().n_od_flows
        shards = [shard_ods(p, 4, s) for s in range(4)]
        assert sorted(od for shard in shards for od in shard) == list(range(p))
        with pytest.raises(ValueError):
            shard_ods(p, 4, 4)


class TestCoordinatorEquivalence:
    @pytest.fixture(scope="class")
    def single_process_report(self):
        engine = StreamingDetectionEngine(abilene(), _equivalence_config())
        return engine.process(_record_stream())

    def _detections(self, report):
        return [
            (d.bin, d.detected_by_entropy, d.detected_by_volume)
            for d in report.detections
        ]

    def test_four_shards_match_single_process(self, single_process_report):
        topo = abilene()
        engine = StreamingDetectionEngine(topo, _equivalence_config())
        coordinator = ClusterCoordinator(engine, shard_ids=range(4))
        for shard in range(4):
            monitor = ShardMonitor(topo, exact=True, shard_id=shard)
            for batch in _record_stream(ods=shard_ods(topo.n_od_flows, 4, shard)):
                for summary in monitor.ingest(batch):
                    coordinator.add_summary(shard, summary)
            for summary in monitor.flush():
                coordinator.add_summary(shard, summary)
            coordinator.close_shard(shard)
        report = coordinator.finish()
        assert report.n_bins_scored == N_BINS - WARMUP_BINS
        assert report.n_records == single_process_report.n_records
        assert self._detections(report) == self._detections(single_process_report)
        spe = [d.spe_entropy for d in report.detections]
        ref = [d.spe_entropy for d in single_process_report.detections]
        np.testing.assert_allclose(spe, ref, rtol=1e-9)

    def test_interleaved_serialized_arrival(self, single_process_report):
        # Shards advance in lock-step but deliver out of shard order,
        # over the wire format; the merge point must not care.
        topo = abilene()
        engine = StreamingDetectionEngine(topo, _equivalence_config())
        coordinator = ClusterCoordinator(engine, shard_ids=range(2))
        per_shard = []
        for shard in range(2):
            monitor = ShardMonitor(topo, exact=True, shard_id=shard)
            summaries = []
            for batch in _record_stream(ods=shard_ods(topo.n_od_flows, 2, shard)):
                summaries.extend(monitor.ingest(batch))
            summaries.extend(monitor.flush())
            per_shard.append(summaries)
        for b in range(N_BINS):
            order = (1, 0) if b % 2 else (0, 1)
            for shard in order:
                coordinator.add_serialized(shard, per_shard[shard][b].to_bytes())
        for shard in range(2):
            coordinator.close_shard(shard)
        report = coordinator.finish()
        assert self._detections(report) == self._detections(single_process_report)


class TestCoordinatorProtocol:
    def _engine(self):
        return StreamingDetectionEngine(abilene(), _equivalence_config())

    def _summary(self, bin_index, n=30, seed=0, shard=0, n_shards=2):
        """A block of ``shard``'s ODs (of ``n_shards``)."""
        rng = np.random.default_rng(seed)
        p = abilene().n_od_flows
        ods = rng.integers(0, p // n_shards, size=n) * n_shards + shard
        return _summary_from_batch(
            _random_batch(n, rng), ods, n_od_flows=p, bin_index=bin_index,
            shard=shard,
        )

    def test_holds_bins_until_all_shards_advance(self):
        coordinator = ClusterCoordinator(self._engine(), shard_ids=range(2))
        coordinator.add_summary(0, self._summary(0))
        assert coordinator.n_pending_bins == 1  # shard 1 yet to advance
        coordinator.add_summary(1, self._summary(0, seed=1, shard=1))
        assert coordinator.n_pending_bins == 0  # warm-up absorbed bin 0

    def test_closed_shard_releases_buffered_bins(self):
        coordinator = ClusterCoordinator(self._engine(), shard_ids=range(2))
        coordinator.add_summary(0, self._summary(0))
        coordinator.close_shard(1)  # never produced anything
        assert coordinator.n_pending_bins == 0

    def test_global_gap_bins_are_scored_empty(self):
        engine = self._engine()
        coordinator = ClusterCoordinator(engine, shard_ids=[0])
        coordinator.add_summary(0, self._summary(0))
        coordinator.add_summary(0, self._summary(9, seed=2))  # bins 1-8 unseen
        coordinator.close_shard(0)
        report = coordinator.finish()
        # The 8 synthesized gap bins count: 8 warm-up + 2 scored.
        assert report.n_bins_warmup == WARMUP_BINS
        assert report.n_bins_scored == 2

    def test_gap_verdicts_carry_zero_records(self):
        # The scored gap bin yields an ordinary verdict whose record
        # count says "nothing arrived", distinguishing a quiet network
        # from a silent shard in the report.
        coordinator = ClusterCoordinator(self._engine(), shard_ids=[0])
        coordinator.add_summary(0, self._summary(0))
        coordinator.add_summary(0, self._summary(9, seed=2))  # bins 1-8 unseen
        coordinator.close_shard(0)
        report = coordinator.finish()
        by_bin = {d.bin: d for d in report.detections}
        assert set(by_bin) == {8, 9}
        assert by_bin[8].n_records == 0  # synthesized gap bin
        assert by_bin[9].n_records > 0  # the real summary

    def test_a_shard_sending_a_foreign_od_is_refused(self):
        coordinator = ClusterCoordinator(self._engine(), shard_ids=range(2))
        coordinator.add_summary(0, self._summary(0))
        liar = self._summary(0, seed=1, shard=1)
        liar.ods = liar.ods - 1  # shard 0's ODs, signed by shard 1
        with pytest.raises(ValueError, match="shard 1 of 2 sent OD"):
            coordinator.add_summary(1, liar)

    def test_rejects_topology_mismatch(self):
        coordinator = ClusterCoordinator(self._engine(), shard_ids=[0])
        rng = np.random.default_rng(11)
        alien = _summary_from_batch(  # p=4 != abilene's 121
            _random_batch(10, rng), np.zeros(10, dtype=np.int64), n_od_flows=4
        )
        with pytest.raises(ValueError, match="OD flows"):
            coordinator.add_summary(0, alien)

    def test_protocol_violations_raise(self):
        coordinator = ClusterCoordinator(self._engine(), shard_ids=range(2))
        coordinator.add_summary(0, self._summary(3))
        with pytest.raises(ValueError):  # out of bin order within a shard
            coordinator.add_summary(0, self._summary(3))
        with pytest.raises(ValueError):  # unknown shard
            coordinator.add_summary(7, self._summary(0))
        coordinator.close_shard(1)
        with pytest.raises(ValueError):  # already closed
            coordinator.close_shard(1)
        with pytest.raises(RuntimeError):  # shard 0 still open
            coordinator.finish()
        with pytest.raises(ValueError):
            ClusterCoordinator(self._engine(), shard_ids=[])
        with pytest.raises(ValueError):
            ClusterCoordinator(self._engine(), shard_ids=[1, 1])


class TestClusterRunner:
    def test_two_workers_match_single_process(self):
        source = ScenarioSource(
            "baseline-diurnal", network="abilene", n_bins=N_BINS, seed=SEED,
            max_records_per_od=MAX_RECORDS_PER_OD,
        )
        config = _equivalence_config()
        clustered = run_cluster_source(source, n_shards=2, config=config)
        single = run_cluster_source(source, n_shards=1, config=config)
        assert clustered.n_records == single.n_records > 0
        assert sorted(clustered.shard_records) == [0, 1]
        assert sum(clustered.shard_records.values()) == clustered.n_records
        assert [
            (d.bin, d.detected_by_entropy, d.detected_by_volume)
            for d in clustered.report.detections
        ] == [
            (d.bin, d.detected_by_entropy, d.detected_by_volume)
            for d in single.report.detections
        ]
        assert clustered.report.n_bins_scored == N_BINS - WARMUP_BINS
        assert clustered.records_per_sec > 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_cluster_source(ScenarioSource("baseline-diurnal"), n_shards=0)
        empty = ScenarioSource("baseline-diurnal")
        empty.spec = dataclasses.replace(empty.spec, n_bins=0)
        with pytest.raises(ValueError, match="at least one bin"):
            run_cluster_source(empty)
        with pytest.raises(ValueError):
            run_cluster_source(ScenarioSource("baseline-diurnal", network="arpanet"))


class TestClusterCli:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_cluster_command_runs(self, capsys):
        code = main([
            "run", "baseline-diurnal", "--mode", "cluster", "--shards", "2",
            "--bins", "10", "--warmup-bins", "8", "--max-records", "10", "--exact", "--refit-every", "0",
            "--components", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 shards" in out and "records/s" in out and "shard load" in out

    def test_invalid_input_exits_2(self):
        assert main(["run", "baseline-diurnal", "--mode", "cluster",
                     "--shards", "0"]) == 2
        assert main(["detect", "--cube", "/definitely/not/there.npz"]) == 2
