"""Tests for the columnar trace store and its ranged-read replay path.

Load-bearing contracts:

* **round trip** — a trace written bin by bin reads back byte-identical
  columns and bin slices for arbitrary record counts and bin
  boundaries (hypothesis);
* **generation equivalence** — a background record is a counter-based
  function of ``(seed, salt, od, bin, record index)``, so the union
  over any OD partition, any ``bin_group`` and a resume from any bin
  reproduce the unsharded stream column for column (what cluster
  parity, chaos restarts and checkpoint resume rest on), and written
  traces reproduce the records inline synthesis produces;
* **replay equivalence** — exact-mode detections from a replayed trace
  match inline generation exactly, and ``run_cluster_source`` workers reading
  one shared trace file produce identical detections at any worker
  count;
* **ranged reads** — each replayed chunk owns fresh arrays (no chunk
  aliases another), re-chunking through ``iter_record_chunks`` forwards
  views of them, a closed reader refuses every read, and replay leaks
  no file descriptor;
* **failure modes** — truncated or corrupted files fail loudly with a
  clear :class:`repro.io.TraceError`.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.flows.binning import TimeBins
from repro.flows.records import COLUMN_SPEC, FlowRecordBatch
from repro.io import (
    TraceError,
    TraceReader,
    TraceWriter,
    trace_info,
    verify_trace,
)
from repro.resilience import truncate_tail
from repro.net.topology import abilene
from repro.pipeline import DetectionPipeline
from repro.pipeline.sources import ScenarioSource, TraceSource, shard_ods
from repro.stream import (
    StreamConfig,
    StreamingDetectionEngine,
    iter_record_chunks,
    synthetic_record_stream,
    trace_record_stream,
)
from repro.cluster import run_cluster_source
from repro.cluster.shard import shard_summaries
from repro.flows.odflows import ODFlowAggregator
from repro.traffic.generator import SYNTHESIS_SCHEME, TrafficGenerator

N_BINS = 14
WARMUP_BINS = 10
MAX_RECORDS_PER_OD = 25
SEED = 5


def _random_batch(n, rng, t0=0.0, width=300.0):
    return FlowRecordBatch(
        src_ip=rng.integers(0, 1 << 32, size=n),
        dst_ip=rng.integers(0, 1 << 32, size=n),
        src_port=rng.integers(0, 1 << 16, size=n),
        dst_port=rng.integers(0, 1 << 16, size=n),
        protocol=rng.choice([1, 6, 17], size=n),
        packets=rng.integers(1, 100, size=n),
        bytes=rng.integers(40, 1500, size=n),
        timestamp=np.sort(t0 + rng.uniform(0, width, size=n)),
        ingress_pop=rng.integers(0, 11, size=n),
    )


def _write(path, per_bin_batches, **kwargs):
    kwargs.setdefault("network", "Abilene")
    with TraceWriter(path, n_bins=len(per_bin_batches), **kwargs) as writer:
        for b, batch in enumerate(per_bin_batches):
            writer.append(b, batch)
    return writer.info


def _write_synthetic(path, generator, max_records_per_od):
    """Background records on ``generator``'s own bin grid, through a
    ``TraceWriter`` loop (a ScenarioSource always bins on 300 s)."""
    bins = generator.bins
    stream = synthetic_record_stream(
        generator, range(bins.n_bins), max_records_per_od=max_records_per_od
    )
    with TraceWriter(path, n_bins=bins.n_bins, bin_width=bins.width,
                     start=bins.start, topology=generator.topology) as writer:
        for b, batch in enumerate(stream):
            writer.append(b, batch)
    return writer.info


def _columns_equal(a: FlowRecordBatch, b: FlowRecordBatch):
    assert len(a) == len(b)
    for name, _ in COLUMN_SPEC:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    """A written trace plus the inline batches it must reproduce."""
    path = tmp_path_factory.mktemp("traces") / "abilene.trace"
    info = ScenarioSource(
        "baseline-diurnal", n_bins=N_BINS, seed=SEED,
        max_records_per_od=MAX_RECORDS_PER_OD,
    ).write_trace(path)
    inline_gen = TrafficGenerator(abilene(), TimeBins(n_bins=N_BINS), seed=SEED)
    batches = list(
        synthetic_record_stream(
            inline_gen, range(N_BINS), max_records_per_od=MAX_RECORDS_PER_OD,
            seed=SEED,
        )
    )
    return path, info, batches


class TestRoundTrip:
    @settings(deadline=None, max_examples=30)
    @given(
        bin_counts=st.lists(st.integers(0, 60), min_size=1, max_size=6),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_write_read_property(self, tmp_path_factory, bin_counts, seed):
        rng = np.random.default_rng(seed)
        batches = [
            _random_batch(n, rng, t0=300.0 * b) for b, n in enumerate(bin_counts)
        ]
        path = tmp_path_factory.mktemp("prop") / "t.trace"
        info = _write(path, batches, meta={"k": 1})
        assert info.n_records == sum(bin_counts)
        assert info.bin_counts.tolist() == bin_counts
        with TraceReader(path) as reader:
            assert reader.n_bins == len(bin_counts)
            assert reader.network == "Abilene"
            assert len(reader.derived_column("od")) == info.n_records
            assert reader.meta["k"] == 1
            for b, batch in enumerate(batches):
                _columns_equal(reader.read_bin(b), batch)
            _columns_equal(
                FlowRecordBatch.concat(list(reader.iter_chunks(chunk_records=17))),
                FlowRecordBatch.concat(batches),
            )

    def test_multiple_appends_per_bin_and_gaps(self, tmp_path):
        rng = np.random.default_rng(3)
        a, b = _random_batch(5, rng, t0=300.0), _random_batch(7, rng, t0=300.0)
        with TraceWriter(tmp_path / "t.trace", n_bins=4, network="abilene") as writer:
            writer.append(1, a)
            writer.append(1, b)
            writer.append(3, FlowRecordBatch.empty())
        with TraceReader(tmp_path / "t.trace") as reader:
            assert reader.info.bin_counts.tolist() == [0, 12, 0, 0]
            _columns_equal(reader.read_bin(1), FlowRecordBatch.concat([a, b]))
            assert len(reader.read_bin(0)) == 0

    def test_bin_split_across_appends_derives_as_one_bin(self, tmp_path):
        # Run ids are bin-local: the writer must derive a bin once,
        # over all of its appends, not once per appended batch.
        rng = np.random.default_rng(4)
        a, b = _random_batch(9, rng, t0=300.0), _random_batch(6, rng, t0=300.0)
        split, whole = tmp_path / "split.trace", tmp_path / "whole.trace"
        with TraceWriter(split, n_bins=2, network="Abilene") as writer:
            writer.append(1, a)
            writer.append(1, b)
        _write(whole, [FlowRecordBatch.empty(), FlowRecordBatch.concat([a, b])])
        assert split.read_bytes() == whole.read_bytes()

    def test_writer_rejects_misuse(self, tmp_path):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            TraceWriter(tmp_path / "x.trace", n_bins=0, network="abilene")
        # Deriving the OD column needs the backbone: no network, no writer.
        with pytest.raises(ValueError, match="not a known topology"):
            TraceWriter(tmp_path / "x.trace", n_bins=3)
        writer = TraceWriter(tmp_path / "t.trace", n_bins=3, network="abilene")
        writer.append(2, _random_batch(1, rng, t0=600.0))
        with pytest.raises(ValueError):  # decreasing bin order
            writer.append(1, _random_batch(1, rng, t0=300.0))
        with pytest.raises(ValueError):  # out of range
            writer.append(3, _random_batch(1, rng, t0=900.0))
        with pytest.raises(ValueError, match="outside"):  # wrong bin's time
            writer.append(2, _random_batch(1, rng, t0=0.0))
        writer.close()
        with pytest.raises(ValueError):  # closed
            writer.append(2, _random_batch(1, rng, t0=600.0))

    def test_abort_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.trace"
        try:
            with TraceWriter(path, n_bins=2, network="abilene") as writer:
                writer.append(0, _random_batch(4, np.random.default_rng(0)))
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # spools cleaned up too

    def test_trace_info_matches_reader(self, small_trace):
        path, info, _ = small_trace
        parsed = trace_info(path)
        assert parsed.n_records == info.n_records
        assert parsed.n_bins == info.n_bins == N_BINS
        assert parsed.bins == TimeBins(n_bins=N_BINS)
        assert parsed.meta["max_records_per_od"] == MAX_RECORDS_PER_OD


class TestCorruptTraces:
    def _valid(self, tmp_path):
        path = tmp_path / "t.trace"
        _write(path, [_random_batch(20, np.random.default_rng(1))])
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read trace"):
            TraceReader(tmp_path / "nope.trace")

    def test_bad_magic(self, tmp_path):
        path = self._valid(tmp_path)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTATRCE"
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError, match="bad magic"):
            TraceReader(path)

    def test_truncated_data(self, tmp_path):
        path = self._valid(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(TraceError, match="truncated or padded"):
            TraceReader(path)

    def test_truncated_header(self, tmp_path):
        path = self._valid(tmp_path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(TraceError, match="truncated"):
            TraceReader(path)

    def test_corrupt_header_json(self, tmp_path):
        path = self._valid(tmp_path)
        data = bytearray(path.read_bytes())
        data[17] = ord("!")  # break the JSON payload
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError, match="corrupt trace header"):
            TraceReader(path)

    def test_trace_error_is_value_error(self):
        assert issubclass(TraceError, ValueError)


class TestGenerationEquivalence:
    """The same records, whoever materialises them and in what grouping."""

    BINS = 9

    @pytest.fixture(scope="class")
    def whole(self):
        return self._stream()

    def _stream(self, ods=None, bins=None, **kwargs):
        generator = TrafficGenerator(abilene(), TimeBins(n_bins=self.BINS), seed=SEED)
        bins = range(self.BINS) if bins is None else bins
        kwargs.setdefault("seed", SEED)
        return list(
            synthetic_record_stream(
                generator, bins, ods=ods,
                max_records_per_od=MAX_RECORDS_PER_OD, **kwargs,
            )
        )

    def _assert_union_is_whole(self, partition, whole):
        shards = [self._stream(ods=ods) for ods in partition]
        for b, expected in enumerate(whole):
            union = FlowRecordBatch.concat([shard[b] for shard in shards])
            _columns_equal(union.sort_by_time(), expected)

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
    def test_union_over_round_robin_shards(self, whole, n_shards):
        p = abilene().n_od_flows
        self._assert_union_is_whole(
            [shard_ods(p, n_shards, s) for s in range(n_shards)], whole
        )

    @settings(deadline=None, max_examples=5)
    @given(owner=st.lists(st.integers(0, 2), min_size=121, max_size=121))
    def test_union_over_any_partition(self, whole, owner):
        partition = [[od for od, o in enumerate(owner) if o == s] for s in range(3)]
        self._assert_union_is_whole(partition, whole)

    @pytest.mark.parametrize("bin_group", [1, 7, 64])
    def test_any_bin_grouping(self, whole, bin_group):
        for got, expected in zip(self._stream(bin_group=bin_group), whole):
            _columns_equal(got, expected)

    def test_resume_from_a_later_bin(self, whole):
        for k in (1, 5):
            resumed = self._stream(bins=range(k, self.BINS), bin_group=3)
            assert len(resumed) == self.BINS - k
            for got, expected in zip(resumed, whole[k:]):
                _columns_equal(got, expected)

    def test_od_order_does_not_change_a_sorted_bin(self, whole):
        shuffled = np.random.default_rng(0).permutation(121).tolist()
        for got, expected in zip(self._stream(ods=shuffled), whole):
            _columns_equal(got, expected)

    def test_generator_seed_changes_records(self, whole):
        other = TrafficGenerator(abilene(), TimeBins(n_bins=self.BINS), seed=SEED + 1)
        batch = next(synthetic_record_stream(
            other, [0], max_records_per_od=MAX_RECORDS_PER_OD, seed=SEED
        ))
        assert batch.timestamp.tobytes() != whole[0].timestamp.tobytes()
        assert self._stream(seed=SEED + 1)[0].timestamp.tobytes() != (
            whole[0].timestamp.tobytes()
        )

    def test_stream_seed_and_od_slice_change_records(self):
        generator = TrafficGenerator(abilene(), TimeBins(n_bins=2), seed=SEED)
        base = generator.materialize_bin_group([1], [0], salt=0)[0]
        other_salt = generator.materialize_bin_group([1], [0], salt=9)[0]
        assert base.timestamp.tobytes() != other_salt.timestamp.tobytes()


class TestReplayEquivalence:
    def test_trace_reproduces_inline_records(self, small_trace):
        path, _, batches = small_trace
        with TraceReader(path) as reader:
            for b, batch in enumerate(batches):
                _columns_equal(reader.read_bin(b), batch)

    def test_exact_detections_identical(self, small_trace):
        path, _, batches = small_trace
        config = StreamConfig(
            warmup_bins=WARMUP_BINS, refit_every=0, n_components=4,
            exact_histograms=True,
        )
        topology = abilene()
        inline = StreamingDetectionEngine(topology, config).process(batches)
        replayed = DetectionPipeline(config).run(path, mode="stream").report
        precomputed = StreamingDetectionEngine(topology, config).process_precomputed(
            path
        )
        assert inline.n_records == replayed.n_records == precomputed.n_records

        def render(report):
            return [
                (d.bin, d.detected_by_entropy, d.detected_by_volume,
                 d.spe_entropy, d.threshold, tuple(f.od for f in d.flows),
                 d.cluster, d.n_records)
                for d in report.detections
            ]

        assert render(inline) == render(replayed) == render(precomputed)

    def test_batch_pipeline_accepts_trace(self, small_trace):
        path, _, batches = small_trace
        topology = abilene()
        bins = TimeBins(n_bins=N_BINS)
        from_batch = ODFlowAggregator(topology).aggregate(
            FlowRecordBatch.concat(batches), bins
        )
        from_trace = ODFlowAggregator(topology).aggregate_stream(
            TraceSource(path).batches(), bins
        )
        np.testing.assert_array_equal(from_trace.packets, from_batch.packets)
        np.testing.assert_array_equal(from_trace.bytes, from_batch.bytes)
        np.testing.assert_array_equal(from_trace.entropy, from_batch.entropy)

    def test_cluster_workers_share_trace(self, small_trace):
        path, _, _ = small_trace
        config = StreamConfig(
            warmup_bins=WARMUP_BINS, refit_every=0, drift_reset_after=0,
            n_components=4, exact_histograms=True,
        )
        source = TraceSource(path, network="abilene", n_bins=N_BINS)
        single = run_cluster_source(source, n_shards=1, config=config)
        sharded = run_cluster_source(source, n_shards=2, config=config)
        assert single.n_records == sharded.n_records > 0
        assert sum(sharded.shard_records.values()) == sharded.n_records
        assert [
            (d.bin, d.detected_by_entropy, d.detected_by_volume)
            for d in sharded.report.detections
        ] == [
            (d.bin, d.detected_by_entropy, d.detected_by_volume)
            for d in single.report.detections
        ]

    def test_engine_rejects_mismatched_bin_grid(self, tmp_path):
        """Replaying onto a different grid must raise, not silently re-bin."""
        topology = abilene()
        generator = TrafficGenerator(
            topology, TimeBins(n_bins=4, width=600.0), seed=SEED
        )
        path = tmp_path / "wide.trace"
        _write_synthetic(path, generator, max_records_per_od=5)
        config = StreamConfig(warmup_bins=10, exact_histograms=True)
        engine = StreamingDetectionEngine(topology, config)  # default 300s grid
        with pytest.raises(ValueError, match="binned on 600s"):
            engine.process_precomputed(path)
        # An engine built on the trace's grid replays fine.
        adopted = StreamingDetectionEngine(topology, config, bin_width=600.0)
        report = adopted.process_precomputed(path)
        assert report.n_records == trace_info(path).n_records

    def test_cluster_adopts_trace_bin_grid(self, tmp_path):
        topology = abilene()
        generator = TrafficGenerator(
            topology, TimeBins(n_bins=12, width=600.0), seed=SEED
        )
        path = tmp_path / "wide.trace"
        info = _write_synthetic(path, generator, max_records_per_od=5)
        config = StreamConfig(
            warmup_bins=10, refit_every=0, n_components=4,
            exact_histograms=True,
        )
        result = run_cluster_source(
            TraceSource(path, network="abilene", n_bins=12), n_shards=1,
            config=config,
        )
        # Every trace bin scores exactly once on the adopted 600s grid.
        assert result.n_records == info.n_records
        assert result.report.n_bins_scored + result.report.n_bins_warmup == 12

    def test_cluster_rejects_mismatched_trace(self, small_trace):
        path, _, _ = small_trace
        with pytest.raises(ValueError, match="recorded on"):
            run_cluster_source(TraceSource(path, network="geant", n_bins=N_BINS),
                               n_shards=1)
        with pytest.raises(ValueError, match="covers"):
            run_cluster_source(
                TraceSource(path, network="abilene", n_bins=N_BINS + 1),
                n_shards=1,
            )


class TestZeroCopyReplay:
    def test_chunks_own_their_memory(self, small_trace):
        """The reader reads each chunk's rows into fresh arrays: a chunk
        owns its columns, and no two chunks (or two columns) alias."""
        path, _, _ = small_trace
        with TraceReader(path) as reader:
            chunks = list(reader.iter_chunks(chunk_records=4096))
        columns = [getattr(c, name) for c in chunks for name, _ in COLUMN_SPEC]
        assert all(col.flags.owndata for col in columns)
        for i, a in enumerate(columns):
            for b in columns[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_iter_record_chunks_forwards_views(self, small_trace):
        """Re-chunking a reader's stream must not force column copies:
        every re-chunked chunk that lies inside one batch the reader
        yielded is a view of that batch."""
        path, _, _ = small_trace
        with TraceReader(path) as reader:
            batches = list(reader.iter_chunks(chunk_records=8192))
            # Chunk sizes that exercise the forward-as-is path and the
            # slice-carving path; neither may copy columns.
            for chunk_records in (reader.n_records, 1000):
                chunks = list(iter_record_chunks(iter(batches), chunk_records))
                assert sum(len(c) for c in chunks) == reader.n_records
                shared = [
                    any(np.shares_memory(c.src_ip, b.src_ip) for b in batches)
                    for c in chunks
                ]
                # Every chunk that lies inside one source batch is a
                # view; only stitches across batch boundaries may copy.
                assert np.mean(shared) > 0.5
                assert all(
                    len(c) <= chunk_records for c in chunks
                )

    def test_select_slice_is_view(self):
        batch = _random_batch(100, np.random.default_rng(0))
        view = batch.select(slice(10, 60))
        assert len(view) == 50
        assert np.shares_memory(view.src_ip, batch.src_ip)

    def test_concat_single_batch_is_identity(self):
        batch = _random_batch(10, np.random.default_rng(0))
        assert FlowRecordBatch.concat([batch]) is batch

    def test_trace_record_stream_from_path(self, small_trace):
        path, info, batches = small_trace
        total = sum(len(c) for c in trace_record_stream(path))
        assert total == info.n_records
        first_bin = FlowRecordBatch.concat(
            list(trace_record_stream(path, bins=[0]))
        )
        _columns_equal(first_bin, batches[0])


class TestReaderLifecycle:
    def test_closed_reader_refuses_every_read(self, small_trace):
        path, _, _ = small_trace
        reader = TraceReader(path)
        lo, hi = reader.bin_range(5)
        assert len(reader.read_bin(5)) == hi - lo > 0
        reader.close()
        reads = [
            lambda: reader.read_bin(5),
            lambda: reader.read_derived_bin(5),
            lambda: reader.column("src_ip"),
            lambda: reader.derived_column("od"),
            lambda: reader.read_rows("packets", lo, hi),
            lambda: next(reader.iter_chunks()),
        ]
        for read in reads:
            with pytest.raises(ValueError, match="^reader is closed$"):
                read()
        reader.close()
        # The header facts stay: they were read at open.
        assert reader.bin_range(5) == (lo, hi) and len(reader) == reader.n_records

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts descriptors in /proc/self/fd")
    def test_replay_passes_leave_no_descriptor_open(self, small_trace):
        path, _, _ = small_trace
        config = StreamConfig(warmup_bins=WARMUP_BINS, refit_every=0,
                              n_components=4, exact_histograms=True)

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        before = open_fds()
        for _ in range(5):
            DetectionPipeline(config).run(TraceSource(path), mode="stream")
        for k in range(5):
            # Stored run ids (exact) and shard_batches (sketch) alike.
            list(shard_summaries(TraceSource(path), k % 2, 2, exact=k < 3))
        for exact in (True, False):
            # An abandoned pass closes its reader with the generator.
            scan = iter(shard_summaries(TraceSource(path), 0, 2, exact=exact))
            next(scan)
            del scan
        assert open_fds() == before


class TestPartialTailRecovery:
    """A truncated trace recovers its complete leading bins."""

    def _truncated_copy(self, small_trace, tmp_path, cut=3000):
        """A copy cut ``cut`` bytes into the base columns: the five
        derived slabs after them go first."""
        path, info, _ = small_trace
        copy = tmp_path / "cut.trace"
        copy.write_bytes(path.read_bytes())
        if cut:
            truncate_tail(copy, cut + 5 * 8 * info.n_records)
        return path, copy, info

    def test_strict_read_raises_with_hint(self, small_trace, tmp_path):
        _, copy, _ = self._truncated_copy(small_trace, tmp_path)
        with pytest.raises(TraceError, match="allow_partial"):
            trace_info(copy)

    def test_partial_read_recovers_complete_bins(self, small_trace, tmp_path):
        full_path, copy, info = self._truncated_copy(small_trace, tmp_path)
        partial = trace_info(copy, allow_partial=True)
        assert partial.truncated
        assert 0 < partial.n_bins < info.n_bins
        assert partial.declared_records == info.n_records
        assert partial.n_records + partial.dropped_records == info.n_records
        with TraceReader(full_path) as full, \
                TraceReader(copy, allow_partial=True) as part:
            for b in range(part.n_bins):
                whole, recovered = full.read_bin(b), part.read_bin(b)
                for name in ("src_ip", "dst_port", "packets", "timestamp"):
                    np.testing.assert_array_equal(
                        getattr(whole, name), getattr(recovered, name)
                    )

    def test_truncation_into_early_columns_fails_loudly(
        self, small_trace, tmp_path
    ):
        # Column-major layout: losing most of the file loses whole
        # trailing columns, so no bin survives in *every* column.
        path, info, _ = small_trace
        copy = tmp_path / "deep.trace"
        copy.write_bytes(path.read_bytes())
        truncate_tail(copy, copy.stat().st_size // 2)
        with pytest.raises(TraceError, match="no complete bins"):
            trace_info(copy, allow_partial=True)

    def test_verify_detects_bit_flip(self, small_trace, tmp_path):
        path, copy, _ = self._truncated_copy(small_trace, tmp_path, cut=0)
        assert all(r["ok"] for r in verify_trace(path).values())
        size = copy.stat().st_size
        with open(copy, "r+b") as handle:
            handle.seek(size // 2)
            byte = handle.read(1)
            handle.seek(size // 2)
            handle.write(bytes([byte[0] ^ 0x01]))
        results = verify_trace(copy)
        assert sum(not r["ok"] for r in results.values()) == 1

    def test_partial_replay_matches_full_prefix(self, small_trace, tmp_path):
        _, copy, _ = self._truncated_copy(small_trace, tmp_path)
        partial = trace_info(copy, allow_partial=True)
        config = StreamConfig(
            warmup_bins=WARMUP_BINS, refit_every=0, drift_reset_after=0,
            n_components=4, exact_histograms=True,
        )
        engine = StreamingDetectionEngine(abilene(), config)
        with TraceReader(copy, allow_partial=True) as reader:
            for _ in engine.events(reader.iter_chunks()):
                pass
        report = engine.finish()
        assert report.n_records == partial.n_records
        assert report.n_bins_scored == partial.n_bins - WARMUP_BINS


class TestTraceCli:
    def test_write_info_replay(self, tmp_path, capsys):
        out_path = tmp_path / "cli.trace"
        code = main([
            "trace", "write", "baseline-diurnal", "--bins", "12",
            "--max-records", "10", "--seed", "3", "--output", str(out_path),
        ])
        out = capsys.readouterr().out
        assert code == 0 and "records/s" in out and out_path.exists()

        assert main(["trace", "info", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "records : " in out and "Abilene" in out
        assert f"synthesis: scheme {SYNTHESIS_SCHEME}\n" in out

        code = main([
            "trace", "replay", str(out_path), "--warmup-bins", "8",
            "--exact", "--refit-every", "0", "--components", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0 and "scored bins" in out
        assert "precomputed columns" in out  # exact: the derived columns

        code = main([
            "trace", "replay", str(out_path), "--warmup-bins", "8",
            "--refit-every", "0", "--components", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0 and "CM sketches" in out  # sketch: the records

    def test_info_flags_a_trace_from_an_older_synthesis_scheme(
        self, tmp_path, capsys
    ):
        # No "synthesis" key: a file written before the key existed.
        path = tmp_path / "old.trace"
        rng = np.random.default_rng(1)
        _write(path, [_random_batch(4, rng)], network="Abilene", meta={"seed": 3})
        assert trace_info(path).synthesis == 1
        assert main(["trace", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "synthesis: scheme 1 (this build synthesises scheme 2" in out

    def test_written_traces_record_the_synthesis_scheme(self, small_trace, tmp_path):
        _, info, _ = small_trace
        assert info.meta["synthesis"] == info.synthesis == SYNTHESIS_SCHEME == 2
        scenario = ScenarioSource("ddos-burst", n_bins=3, max_records_per_od=5)
        written = scenario.write_trace(tmp_path / "scenario.trace")
        assert written.synthesis == SYNTHESIS_SCHEME
        assert trace_info(written.path).synthesis == SYNTHESIS_SCHEME

    def test_info_verify_and_allow_partial(self, tmp_path, capsys):
        out_path = tmp_path / "cli.trace"
        main(["trace", "write", "baseline-diurnal", "--bins", "12",
              "--max-records", "10", "--seed", "3", "--output", str(out_path)])
        capsys.readouterr()

        assert main(["trace", "info", str(out_path), "--verify"]) == 0
        assert "verification passed" in capsys.readouterr().out

        size = out_path.stat().st_size
        with open(out_path, "r+b") as handle:
            handle.seek(size // 2)
            byte = handle.read(1)
            handle.seek(size // 2)
            handle.write(bytes([byte[0] ^ 0x01]))
        assert main(["trace", "info", str(out_path), "--verify"]) == 1
        assert "FAILED" in capsys.readouterr().out

        truncate_tail(out_path, 2000)
        assert main(["trace", "info", str(out_path)]) == 2
        assert "allow_partial" in capsys.readouterr().err
        code = main(["trace", "info", str(out_path), "--allow-partial"])
        assert code == 0
        assert "TRUNCATED" in capsys.readouterr().out
        code = main([
            "trace", "replay", str(out_path), "--allow-partial",
            "--warmup-bins", "8", "--exact", "--refit-every", "0",
            "--components", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # A truncated tail loses the derived slabs: the records replay.
        assert "truncated" in out and "exact histograms" in out

    def test_run_accepts_trace_in_stream_and_cluster_mode(self, tmp_path, capsys):
        out_path = tmp_path / "cli.trace"
        main(["trace", "write", "baseline-diurnal", "--bins", "10",
              "--max-records", "10", "--seed", "3", "--output", str(out_path)])
        capsys.readouterr()
        args = ["--trace", str(out_path), "--warmup-bins", "8", "--exact",
                "--refit-every", "0", "--components", "4"]
        code = main(["run", "baseline-diurnal", "--mode", "stream", *args])
        stream = capsys.readouterr().out
        assert code == 0 and f"source: trace {out_path}" in stream

        code = main(["run", "baseline-diurnal", "--mode", "cluster",
                     "--shards", "2", *args])
        cluster = capsys.readouterr().out
        assert code == 0 and "2 shards," in cluster
        pick = lambda text: [l for l in text.splitlines()
                             if l.startswith(("  bin", "detections:"))]
        assert pick(stream) == pick(cluster)

    def test_invalid_trace_input_exits_2(self, tmp_path):
        missing = str(tmp_path / "missing.trace")
        assert main(["trace", "info", missing]) == 2
        assert main(["trace", "replay", missing]) == 2
        assert main(["run", "baseline-diurnal", "--trace", missing]) == 2

    def test_run_rejects_network_mismatch(self, tmp_path, capsys):
        path = tmp_path / "geant.trace"
        main(["trace", "write", "baseline-diurnal", "--network", "geant",
              "--bins", "9", "--max-records", "5", "--output", str(path)])
        capsys.readouterr()
        code = main(["run", "baseline-diurnal", "--trace", str(path),
                     "--network", "abilene"])
        assert code == 2
        assert "recorded on 'Geant'" in capsys.readouterr().err
