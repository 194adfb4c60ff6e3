"""``shard_summaries``: the stored-run-id path against the record path,
and the coordinator's scattered rows against stream mode's.

An exact-mode shard over a trace builds its row blocks from the
trace's stored OD and run-id columns; every other shard runs a
:class:`ShardMonitor` over ``shard_batches``.  The two must ship the
same bins with byte-identical payloads, count the same records and
close the same number of bins — for every shard count, from bin 0 or
from a resume point, over traces with gap bins, zero-packet records
(run id -1) and shards that own nothing.  Scattered by the
coordinator, the blocks of any shard count must give stream mode's
``BinSummary`` in every bin, bit for bit.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry as tel
from repro.cli import main
from repro.cluster import ClusterCoordinator
from repro.cluster.shard import ShardMonitor, shard_summaries
from repro.flows.records import FlowRecordBatch
from repro.io.trace import TraceWriter, trace_info
from repro.net.topology import abilene
from repro.pipeline import ScenarioSource, TraceSource
from repro.stream import StreamConfig
from repro.stream.replay import derived_runs
from repro.stream.window import StreamFeatureStage

TOPOLOGY = abilene()
WIDTH = 300.0


def _records(topology, rng, b, ods, packets):
    """One bin's records for the given OD flows: addresses inside the
    OD's PoP prefixes with random low bits (so anonymisation merges
    some of them), small port ranges (so runs repeat values)."""
    n = len(ods)
    origin = np.array([topology.od_pair(od)[0].prefix.network for od in ods])
    dest = np.array([topology.od_pair(od)[1].prefix.network for od in ods])
    pops = np.array([topology.od_pair(od)[0].index for od in ods])
    return FlowRecordBatch(
        src_ip=origin + rng.integers(0, 1 << 13, size=n),
        dst_ip=dest + rng.integers(0, 1 << 13, size=n),
        src_port=rng.integers(1000, 1012, size=n),
        dst_port=rng.integers(0, 6, size=n),
        protocol=np.full(n, 6),
        packets=np.asarray(packets, dtype=np.int64),
        bytes=rng.integers(40, 1500, size=n),
        timestamp=b * WIDTH + rng.uniform(0, WIDTH, size=n),
        ingress_pop=pops,
    )


def _write(path, bins, topology=TOPOLOGY, seed=0):
    """A trace of ``bins``: per bin, a list of ``(od, packets)`` rows."""
    rng = np.random.default_rng(seed)
    with TraceWriter(path, n_bins=len(bins), network="abilene",
                     topology=topology) as writer:
        for b, rows in enumerate(bins):
            if rows:
                ods, packets = zip(*rows)
                writer.append(b, _records(topology, rng, b, ods, packets))
    return TraceSource(path)


def _record_path(source, shard_id, n_shards, resume_bin, chunk_records=7):
    """The record path, spelled out: a monitor over ``shard_batches``,
    fast-forwarding chunks before the resume bin.  The record count is
    every record the shard owns, fast-forwarded ones included."""
    monitor = ShardMonitor(
        source.topology, bin_width=source.spec.bin_width,
        start=source.spec.bin_start, exact=True, shard_id=shard_id,
    )
    resume_time = source.spec.bin_start + resume_bin * source.spec.bin_width
    shipped, n_records = [], 0
    for chunk, ods in source.shard_batches(
        shard_id, n_shards, router=monitor.router, chunk_records=chunk_records
    ):
        n_records += len(chunk)
        if resume_bin and chunk.timestamp.max() < resume_time:
            continue
        shipped += monitor.ingest(chunk, ods=ods)
    shipped += monitor.flush()
    return [s for s in shipped if s.bin >= resume_bin], n_records


def _assert_same(source, shard_id, n_shards, resume_bin):
    want, want_records = _record_path(source, shard_id, n_shards, resume_bin)
    scan = shard_summaries(source, shard_id, n_shards, resume_bin)
    got = list(scan)
    where = f"shard {shard_id} of {n_shards} from bin {resume_bin}"
    assert [s.bin for s in got] == [s.bin for s in want], where
    for fast, slow in zip(got, want):
        assert fast.to_bytes() == slow.to_bytes(), f"{where}, bin {fast.bin}"
    assert (scan.n_records, scan.late_records) == (want_records, 0), where


od_rows = st.lists(
    st.tuples(st.integers(0, TOPOLOGY.n_od_flows - 1), st.integers(0, 4)),
    max_size=25,
)


@settings(max_examples=30, deadline=None)
@given(bins=st.lists(od_rows, min_size=1, max_size=7), seed=st.integers(0, 2**16))
def test_stored_run_ids_ship_what_the_record_path_ships(bins, seed):
    """Byte-equal summaries, same bins, same record counts, for K in
    {1, 2, 3, 5} from bin 0 and from a mid-run resume point."""
    with tempfile.TemporaryDirectory() as tmp:
        source = _write(Path(tmp) / "t.trace", bins, seed=seed)
        for n_shards in (1, 2, 3, 5):
            for shard_id in range(n_shards):
                for resume_bin in sorted({0, len(bins) // 2}):
                    _assert_same(source, shard_id, n_shards, resume_bin)


def test_gap_bins_zero_packets_and_an_idle_shard(tmp_path):
    """Leading, gap and trailing empty bins; a bin of zero-packet records
    only; every record on ODs = 0 mod 5, so shards 1-4 of 5 own nothing."""
    bins = [
        [],
        [(0, 3), (5, 0), (10, 2), (0, 1)],
        [],
        [(5, 0), (15, 0)],
        [(20, 4), (0, 0), (20, 2)],
        [],
    ]
    source = _write(tmp_path / "t.trace", bins)
    for n_shards in (1, 2, 3, 5):
        for shard_id in range(n_shards):
            for resume_bin in (0, 2, 3, 5, 6):
                _assert_same(source, shard_id, n_shards, resume_bin)
    for shard_id in range(1, 5):
        scan = shard_summaries(source, shard_id, 5)
        assert list(scan) == [] and scan.n_records == 0
    shipped = [s.bin for s in shard_summaries(source, 0, 5)]
    assert shipped == [1, 2, 3, 4]


def test_derived_runs_drop_the_runs_a_shards_rows_miss():
    """A shard's rows reach only its ODs' run ids: the runs between them
    (another shard's OD 2) count zero and must not reach the entropy."""
    rid = np.array([0, 1, 4, 4])  # runs 2-3 belong to OD 2, elsewhere
    ods = np.array([1, 1, 3, 3])
    group_ids, starts, counts = derived_runs(rid, ods, np.array([2, 1, 1, 5]))
    assert group_ids.tolist() == [1, 3] and starts.tolist() == [0, 2, 3]
    assert counts.tolist() == [2, 1, 6]


class _RowsEngine:
    """Stands in for the detection engine: keeps every ``BinSummary``
    the coordinator scores."""

    def __init__(self, topology):
        self.topology = topology
        self.rows = {}

    def observe_summary(self, summary):
        self.rows[summary.bin] = summary


def _stream_rows(source):
    stage = StreamFeatureStage(
        source.topology, bin_width=source.spec.bin_width,
        start=source.spec.bin_start, exact=True,
    )
    rows = []
    for batch in source.batches(chunk_records=11):
        rows += stage.ingest(batch)
    return {summary.bin: summary for summary in rows + stage.flush()}


def _assert_cluster_rows_are_stream_rows(source, n_shards, resume_bin):
    """Every shard ships its blocks before ``resume_bin``, is restarted
    there (as a supervisor restarts a killed worker), and ships the
    rest; the coordinator's scattered rows must be stream mode's."""
    engine = _RowsEngine(source.topology)
    coordinator = ClusterCoordinator(engine, range(n_shards))
    for shard in range(n_shards):
        for block in shard_summaries(source, shard, n_shards):
            if block.bin < resume_bin:
                coordinator.add_serialized(shard, block.to_bytes())
        for block in shard_summaries(source, shard, n_shards, resume_bin):
            coordinator.add_serialized(shard, block.to_bytes())
        coordinator.close_shard(shard)
    want = _stream_rows(source)
    where = f"{n_shards} shards resumed at bin {resume_bin}"
    assert sorted(engine.rows) == sorted(want), where
    for b, got in engine.rows.items():
        for name in ("entropy", "packets", "bytes"):
            np.testing.assert_array_equal(
                getattr(got, name), getattr(want[b], name), err_msg=f"{where}, bin {b}"
            )
        assert got.n_records == want[b].n_records, f"{where}, bin {b}"


@settings(max_examples=15, deadline=None)
@given(bins=st.lists(od_rows, min_size=1, max_size=7), seed=st.integers(0, 2**16))
def test_cluster_rows_are_stream_rows_over_a_trace(bins, seed):
    """K in {1, 2, 3, 5}, from bin 0 and resumed mid-run."""
    with tempfile.TemporaryDirectory() as tmp:
        source = _write(Path(tmp) / "t.trace", bins, seed=seed)
        for n_shards in (1, 2, 3, 5):
            for resume_bin in sorted({0, len(bins) // 2}):
                _assert_cluster_rows_are_stream_rows(source, n_shards, resume_bin)


def test_cluster_rows_are_stream_rows_with_gaps_and_an_idle_shard(tmp_path):
    """Leading, gap and trailing empty bins, zero-packet records, and
    shards 1-4 of 5 owning nothing (``test_gap_bins_zero_packets_and_an_idle_shard``'s
    trace); then a scenario source, whose shards run the record path."""
    source = _write(tmp_path / "t.trace", [
        [], [(0, 3), (5, 0), (10, 2), (0, 1)], [], [(5, 0), (15, 0)],
        [(20, 4), (0, 0), (20, 2)], [],
    ])
    scenario = ScenarioSource("mixed-anomaly-day", n_bins=6, max_records_per_od=4)
    for source in (source, scenario):
        for n_shards in (1, 2, 3, 5):
            for resume_bin in (0, 3):
                _assert_cluster_rows_are_stream_rows(source, n_shards, resume_bin)


def test_counters_match_the_record_path(tmp_path):
    """``reduce.records`` / ``reduce.bins_closed`` — the worker's
    heartbeat and the per-shard telemetry table — are the same."""
    path = tmp_path / "s.trace"
    ScenarioSource("mixed-anomaly-day", n_bins=8, max_records_per_od=5).write_trace(path)
    source = TraceSource(path)

    def counters(run):
        session = tel.enable(poll=False)
        try:
            run()
            return {k: session.counters.get(k) for k in ("reduce.records", "reduce.bins_closed")}
        finally:
            tel.disable()

    for shard_id in range(3):
        for resume_bin in (0, 4):
            fast = counters(lambda: list(shard_summaries(source, shard_id, 3, resume_bin)))
            slow = counters(lambda: _record_path(source, shard_id, 3, resume_bin))
            assert fast == slow and fast["reduce.records"] > 0


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("bad", [-1, TOPOLOGY.n_od_flows])
def test_out_of_range_stored_od_is_refused(tmp_path, exact, bad):
    """A damaged OD column fails the run instead of shipping a wrong
    summary, on the stored run-id path (exact) as on the record path
    (sketch): the shard that would own the record raises."""
    path = tmp_path / "t.trace"
    source = _write(path, [[(0, 1), (1, 1), (2, 1)]] * 3)
    info = trace_info(path)
    damaged = np.memmap(path, dtype="<i8", mode="r+",
                        offset=info.slab_offset("od"), shape=(info.n_records,))
    damaged[4] = bad
    damaged.flush()
    with pytest.raises(ValueError, match=f"OD id {bad} outside"):
        for shard_id in range(2):
            list(shard_summaries(source, shard_id, 2, exact=exact))


class TestAnonymizationDepth:
    """A trace whose run ids were derived under another anonymization
    depth cannot stand in for the topology's reduction: refused before
    any worker starts, with the error `trace replay --exact` raises."""

    @pytest.fixture
    def unmasked_trace(self, tmp_path):
        unmasked = dataclasses.replace(TOPOLOGY, anonymization_bits=0)
        bins = [[(od, 2) for od in range(0, 121, 7)]] * 12
        _write(tmp_path / "unmasked.trace", bins, topology=unmasked)
        return tmp_path / "unmasked.trace"

    def test_api_refuses_before_any_worker(self, unmasked_trace):
        from repro.cluster import run_cluster_source

        source = TraceSource(unmasked_trace)
        config = StreamConfig(warmup_bins=8, n_components=1, exact_histograms=True)
        with pytest.raises(ValueError, match="0-bit anonymization, but Abilene uses 11"):
            run_cluster_source(source, n_shards=2, config=config)
        with pytest.raises(ValueError, match="0-bit anonymization"):
            list(shard_summaries(source, 0, 2))

    def test_cli_exits_2(self, unmasked_trace, capsys):
        args = ["run", "baseline-diurnal", "--trace", str(unmasked_trace),
                "--mode", "cluster", "--shards", "2", "--exact",
                "--warmup-bins", "8", "--components", "1"]
        assert main(args) == 2
        assert "0-bit anonymization" in capsys.readouterr().err
        assert main(["trace", "replay", str(unmasked_trace), "--exact",
                     "--warmup-bins", "8", "--components", "1"]) == 2
        assert "0-bit anonymization" in capsys.readouterr().err
