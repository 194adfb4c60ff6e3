"""Tests for the cluster's worker links and the bin alignment.

Three contracts pin the scale-out:

* **wire safety** — the framed codec every worker link speaks
  round-trips every runner message, rejects garbage with
  :class:`FrameError` (routing it into the supervised-restart path
  instead of crashing the coordinator), reassembles frames from
  arbitrary stream fragmentation, and delivers a link's frames ahead
  of its EOF;
* **merge invariance** — :class:`BinAligner`, the one alignment rule
  behind the coordinator, releases the same merged bytes for *any*
  arrival interleaving of its units' blocks (per-unit bin order is the
  only requirement);
* **end-to-end bit-identity** — detections over local links, at any
  shard count and start method, and over remote ``--listen`` links,
  render byte-for-byte equal to the frozen single-process fixture
  (``tests/data/seed_stream_detections.json``).
"""

import multiprocessing
import socket
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parity_fixture import FIXTURE_PATH, render, seed_workload, stream_config
from test_cluster import _random_batch, _summary_from_batch
from test_trace_precompute import _write_batches

from repro.cli import main
from repro.cluster import (
    FrameError,
    ShardBinSummary,
    SummaryCorruptError,
    parse_hostport,
    run_cluster_source,
)
from repro.cluster.coordinator import BinAligner
from repro.cluster.transport import (
    MAX_FRAME_BYTES,
    WorkerLinks,
    _FrameBuffer,
    decode_message,
    encode_message,
    serve,
)
from repro.net.routing import Router
from repro.net.topology import abilene
from repro.pipeline.sources import ScenarioSource, TraceSource
from repro.resilience import ResiliencePolicy
from repro.stream import StreamConfig


class TestParseHelpers:
    def test_hostport(self):
        assert parse_hostport("10.0.0.7:9100") == ("10.0.0.7", 9100)
        assert parse_hostport(":9100") == ("0.0.0.0", 9100)
        assert parse_hostport("host:0") == ("host", 0)  # 0 = ephemeral
        for bad in ("nohost", "host:", "host:notaport", "host:70000", "host:-4"):
            with pytest.raises(ValueError):
                parse_hostport(bad)


def _frames(buffer, data):
    """``buffer.feed(data)``'s frames, which must come with no error."""
    frames, error = buffer.feed(data)
    assert error is None
    return frames


def _error(data):
    """The :class:`FrameError` a fresh buffer reports for ``data``."""
    frames, error = _FrameBuffer().feed(data)
    assert frames == [] and isinstance(error, FrameError)
    return error


class TestFrameCodec:
    def _messages(self):
        rng = np.random.default_rng(0)
        payload = _summary_from_batch(
            _random_batch(60, rng), rng.integers(0, 4, size=60)
        ).to_bytes()
        return [
            ("summary", 3, 1, payload, {"bin": 4, "rss": 123}),
            ("summary", 0, 0, payload, None),
            ("close", 2, 1, 4021, 7, {"counters": {"x": 1}}),
            ("error", 5, 2, "Traceback (most recent call last):\n  boom"),
        ]

    def test_round_trip_every_kind(self):
        buffer = _FrameBuffer()
        for message in self._messages():
            frames = _frames(buffer, encode_message(message))
            assert len(frames) == 1
            assert decode_message(*frames[0]) == message

    def test_reassembly_is_fragmentation_invariant(self):
        wire = b"".join(encode_message(m) for m in self._messages())
        for step in (1, 3, 7, 64, len(wire)):
            buffer = _FrameBuffer()
            decoded = []
            for i in range(0, len(wire), step):
                for header, payload in _frames(buffer, wire[i:i + step]):
                    decoded.append(decode_message(header, payload))
            assert decoded == self._messages()

    def test_garbage_prefix_is_a_frame_error(self):
        assert "implausible frame length" in str(_error(b"\xff" * 64))

    def test_frames_ahead_of_garbage_are_returned_with_the_error(self):
        sent = self._messages()
        wire = b"".join(encode_message(m) for m in sent) + b"\xff" * 64
        frames, error = _FrameBuffer().feed(wire)
        assert [decode_message(*f) for f in frames] == sent
        assert isinstance(error, FrameError)

    def test_hostile_length_is_a_frame_error(self):
        import struct

        huge = struct.pack("<II", MAX_FRAME_BYTES + 1, 16)
        _error(huge)

    def test_bad_header_json_is_a_frame_error(self):
        import struct

        head = b"not json at all"
        raw = struct.pack("<II", len(head), len(head)) + head
        assert "undecodable frame header" in str(_error(raw))

    def test_unknown_kind_is_a_frame_error(self):
        with pytest.raises(FrameError):
            decode_message({"kind": "exfiltrate", "shard": 0, "attempt": 0}, b"")

    def test_corrupt_summary_payload_survives_framing(self):
        # Framing must deliver a bit-flipped summary intact so the
        # CRC inside the summary payload (not the framing) catches it.
        from repro.cluster import ShardBinSummary
        from repro.resilience import corrupt_payload

        rng = np.random.default_rng(1)
        good = _summary_from_batch(
            _random_batch(50, rng), rng.integers(0, 4, size=50)
        ).to_bytes()
        bad = corrupt_payload(good)
        frames = _frames(_FrameBuffer(), encode_message(("summary", 0, 0, bad, None)))
        delivered = decode_message(*frames[0])[3]
        assert delivered == bad
        with pytest.raises(SummaryCorruptError):
            ShardBinSummary.from_bytes(delivered)


    def test_shape_lie_under_a_valid_crc_survives_framing_too(self):
        # What the CRC cannot catch — a body that lies about its sizes
        # — is refused by the summary's shape checks with the same
        # error class, so over a link it takes the same restart path.
        from test_cluster_summary import HOSTILE, _payload, _reframe

        from repro.cluster import ShardBinSummary

        for case in ("n huge", "n one less than held", "OD ids unsorted"):
            bad = _reframe(_payload(), *HOSTILE[case])
            frames = _frames(
                _FrameBuffer(), encode_message(("summary", 1, 0, bad, None))
            )
            delivered = decode_message(*frames[0])[3]
            assert delivered == bad
            with pytest.raises(SummaryCorruptError):
                ShardBinSummary.from_bytes(delivered)


class TestWorkerLinks:
    """One :class:`WorkerLinks` read loop, driven over a bare
    ``socketpair`` registered as unit 0 (no worker process)."""

    @pytest.fixture
    def linked(self):
        links = WorkerLinks(entry=None, context=None)
        ours, theirs = socket.socketpair()
        links._register(0, ours, _FrameBuffer())
        yield links, theirs
        links.shutdown()
        theirs.close()

    @staticmethod
    def _poll_until_dropped(links):
        messages = []
        deadline = time.monotonic() + 10.0
        while links._socks:
            assert time.monotonic() < deadline, messages
            messages += links.poll(1.0)
        return messages

    def test_frames_sent_before_exit_arrive_ahead_of_eof(self, linked):
        links, theirs = linked
        sent = TestFrameCodec()._messages()
        theirs.sendall(b"".join(encode_message(m) for m in sent))
        theirs.close()
        assert self._poll_until_dropped(links) == sent + [("eof", 0, None)]

    def test_garbage_is_one_frame_error_and_drops_the_link(self, linked):
        links, theirs = linked
        theirs.sendall(b"\xff" * 64)
        messages = self._poll_until_dropped(links)
        assert [m[:2] for m in messages] == [("frame_error", 0)]
        theirs.settimeout(5.0)
        assert theirs.recv(1) == b""  # our end is closed
        assert links.poll(0.05) == []

    def test_frames_ahead_of_garbage_reach_the_supervisor_first(self, linked):
        links, theirs = linked
        theirs.sendall(encode_message(("error", 0, 0, "first")) + b"\xff" * 64)
        messages = self._poll_until_dropped(links)
        assert messages[0] == ("error", 0, 0, "first")
        assert [m[:2] for m in messages[1:]] == [("frame_error", 0)]
        assert "implausible frame length" in messages[1][2]

    def test_discard_severs_the_link(self, linked):
        links, theirs = linked
        links.discard(0)
        theirs.settimeout(2.0)
        assert theirs.recv(1) == b""  # our end is closed
        with pytest.raises(BrokenPipeError):
            theirs.sendall(encode_message(("error", 0, 0, "late")))
        assert links.poll(0.05) == []


def _child_streams(n_children=3, n_bins=4, seed=8):
    """Per-child, per-bin blocks over a shared random workload.  Child
    ``c`` sees ODs ``c`` and ``c + 6`` of 12, which it owns among 2 or 3
    units alike."""
    rng = np.random.default_rng(seed)
    streams = []
    for child in range(n_children):
        summaries = []
        for b in range(n_bins):
            batch = _random_batch(40, rng, t0=b * 300.0)
            summaries.append(
                _summary_from_batch(batch, rng.choice([child, child + 6], size=40),
                                    n_od_flows=12, bin_index=b, shard=child)
            )
        streams.append(summaries)
    return streams


_STREAMS = _child_streams()
_EVENT_POOL = [
    (child, summary)
    for child, stream in enumerate(_STREAMS)
    for summary in stream
]


def _merged(released):
    """``(bin, bytes)`` of released bins (gaps: the aligner's ``None``)."""
    return [(b, None if m is None else m.to_bytes()) for b, m in released]


def _reference_emission():
    aligner = BinAligner(range(len(_STREAMS)))
    out = []
    for b in range(len(_STREAMS[0])):
        for child, stream in enumerate(_STREAMS):
            out.extend(aligner.add(child, stream[b]))
    for child in range(len(_STREAMS)):
        out.extend(aligner.close(child))
    return _merged(out)


class TestBinAlignerInvariance:
    def test_emits_in_bin_order_once_all_children_advance(self):
        reference = _reference_emission()
        assert [b for b, _ in reference] == list(range(len(_STREAMS[0])))

    @settings(max_examples=40, deadline=None)
    @given(order=st.permutations(list(range(len(_EVENT_POOL)))),
           close_order=st.permutations(list(range(len(_STREAMS)))))
    def test_any_arrival_interleaving_merges_identically(
        self, order, close_order
    ):
        # Project the shuffled event indices back to a per-child
        # FIFO delivery: each child's summaries still arrive in bin
        # order (each link guarantees that), but children
        # interleave arbitrarily.
        per_child = [iter(stream) for stream in _STREAMS]
        aligner = BinAligner(range(len(_STREAMS)))
        emitted = []
        for index in order:
            child = _EVENT_POOL[index][0]
            emitted.extend(aligner.add(child, next(per_child[child])))
        for child in close_order:
            emitted.extend(aligner.close(child))
        assert _merged(emitted) == _reference_emission()

    def test_serialized_arrival_round_trips(self):
        aligner = BinAligner(range(len(_STREAMS)))
        emitted = []
        for b in range(len(_STREAMS[0])):
            for child, stream in enumerate(_STREAMS):
                wire = ShardBinSummary.from_bytes(stream[b].to_bytes())
                emitted.extend(aligner.add(child, wire))
        for child in range(len(_STREAMS)):
            emitted.extend(aligner.close(child))
        assert _merged(emitted) == _reference_emission()

    def test_closed_child_stops_gating(self):
        aligner = BinAligner([0, 1])
        assert aligner.add(0, _STREAMS[0][0]) == []
        assert [b for b, _ in aligner.close(1)] == [0]
        assert aligner.open == {0}

    def test_gap_bins_release_as_none(self):
        # A bin no unit delivered is released as a gap, in bin order:
        # the coordinator scores it empty.
        aligner = BinAligner([0, 1])
        later = _child_streams(n_children=1, n_bins=4)[0][3]
        aligner.add(0, _STREAMS[0][0])
        aligner.add(0, later)
        released = aligner.close(1)
        assert [(b, m is None) for b, m in released] == [
            (0, False), (1, True), (2, True), (3, False),
        ]

    def test_corrupt_child_payload_raises(self):
        # What the coordinator feeds the aligner is a decoded payload:
        # a corrupt child frame never gets that far.
        from repro.resilience import corrupt_payload

        with pytest.raises(SummaryCorruptError):
            ShardBinSummary.from_bytes(corrupt_payload(_STREAMS[0][0].to_bytes()))

    def test_protocol_violations_raise(self):
        aligner = BinAligner([0, 1])
        aligner.add(0, _STREAMS[0][0])
        with pytest.raises(ValueError):  # unknown child
            aligner.add(9, _STREAMS[0][0])
        with pytest.raises(ValueError):  # unknown child
            aligner.close(9)
        with pytest.raises(ValueError, match="bin order"):
            aligner.add(0, _STREAMS[0][0])  # bin 0 again from child 0
        aligner.close(1)  # releases bin 0
        with pytest.raises(ValueError, match="bin order"):
            aligner.add(0, _STREAMS[1][0])  # bin 0 re-delivered after release
        resumed = BinAligner([0])
        resumed.frontier = 1  # as a coordinator's checkpoint preload leaves it
        with pytest.raises(ValueError, match="already merged"):
            resumed.add(0, _STREAMS[0][0])
        with pytest.raises(ValueError):
            BinAligner([])

    def test_a_block_signed_by_another_shard_is_refused(self):
        # A link delivers its own shard's blocks only: a block signed by
        # another shard would be scattered as if that shard sent it.
        aligner = BinAligner([0, 1])
        with pytest.raises(ValueError, match="shard 1 delivered a block signed by shard 0"):
            aligner.add(1, _STREAMS[0][0])
        assert aligner.highwater == {} and aligner.pending == {}
        assert aligner.add(0, _STREAMS[0][0]) == []

    def test_reopened_unit_duplicates_are_dropped(self):
        aligner = BinAligner([0, 1])
        aligner.add(0, _STREAMS[0][0])
        aligner.reopen(0)
        assert aligner.add(0, _STREAMS[0][0]) == []
        assert [b for b, _ in aligner.add(1, _STREAMS[1][0])] == [0]
        assert aligner.add(0, _STREAMS[2][0]) == []  # bin 0, released


class TestODSplitTraceReads:
    """``TraceSource.shard_batches``: the OD split over one shared trace.

    Small chunks put chunk boundaries inside every bin, and two bins
    hold a single OD each, so their one chunk has no row of most
    shards.  ODs are the stored ``od`` column read at a running offset,
    checked against longest-prefix match.
    """

    CHUNK_RECORDS = 64

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        from repro.flows.binning import TimeBins
        from repro.stream.chunks import synthetic_record_stream
        from repro.traffic.generator import TrafficGenerator

        n_bins = 6
        generator = TrafficGenerator(abilene(), TimeBins(n_bins=n_bins), seed=5)
        batches = list(synthetic_record_stream(
            generator, range(n_bins), max_records_per_od=30, seed=0
        ))
        router = Router(abilene())
        for b, od in ((2, 0), (4, 1)):
            ods = router.resolve_ods_mixed(batches[b].ingress_pop,
                                           batches[b].dst_ip)
            batches[b] = batches[b].select(ods == od)
        path = tmp_path_factory.mktemp("odsplit") / "split.trace"
        _write_batches(path, {"n_bins": n_bins}, batches)
        return path

    def _shards(self, trace, n_shards):
        source = TraceSource(trace)
        router = Router(source.topology)
        return source, router, [
            list(source.shard_batches(s, n_shards, router,
                                      chunk_records=self.CHUNK_RECORDS))
            for s in range(n_shards)
        ]

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_every_row_lands_in_exactly_one_shard(self, trace, n_shards):
        from repro.flows.records import COLUMN_SPEC, FlowRecordBatch
        from repro.io.trace import TraceReader

        _, router, shards = self._shards(trace, n_shards)
        with TraceReader(trace) as reader:
            bins = [reader.read_bin(b) for b in range(reader.n_bins)]
        n_chunks = sum(-(-len(batch) // self.CHUNK_RECORDS) for batch in bins)
        whole = FlowRecordBatch.concat(bins)
        whole_ods = router.resolve_ods_mixed(whole.ingress_pop, whole.dst_ip)
        assert sum(len(c) for chunks in shards for c, _ in chunks) == len(whole)
        for shard, chunks in enumerate(shards):
            assert all(len(chunk) for chunk, _ in chunks)
            if n_shards > 1:  # some chunk held none of this shard's rows
                assert len(chunks) < n_chunks
            ods = np.concatenate([o for _, o in chunks])
            assert (ods % n_shards == shard).all()
            # The shard's rows are exactly the trace rows it owns, in
            # row order, column for column.
            owned = whole_ods % n_shards == shard
            np.testing.assert_array_equal(ods, whole_ods[owned])
            got = FlowRecordBatch.concat(c for c, _ in chunks)
            for name, _ in COLUMN_SPEC:
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(whole, name)[owned])

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_ods_equal_longest_prefix_match(self, trace, n_shards):
        _, router, shards = self._shards(trace, n_shards)
        for chunks in shards:
            for chunk, ods in chunks:
                np.testing.assert_array_equal(
                    ods, router.resolve_ods_mixed(chunk.ingress_pop, chunk.dst_ip)
                )


class _FixtureCluster:
    """Shared plumbing: the frozen workload replayed through clusters."""

    @pytest.fixture(scope="class")
    def fixture_env(self, tmp_path_factory):
        wl, topology, batches = seed_workload()
        path = tmp_path_factory.mktemp("net") / "seed.trace"
        _write_batches(path, wl, batches)
        return wl, path, stream_config(wl), FIXTURE_PATH.read_bytes()

    def run(self, fixture_env, **kwargs):
        wl, path, config, fixture_bytes = fixture_env
        result = run_cluster_source(TraceSource(path), config=config, **kwargs)
        assert render(wl, result.report) == fixture_bytes
        return result


class TestLoopbackParity(_FixtureCluster):
    """Detections over local links must be bit-identical to the frozen
    single-process fixture at every shard count and start method."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_tcp_flat(self, fixture_env, n_shards):
        result = self.run(fixture_env, n_shards=n_shards)
        assert sorted(result.shard_records) == list(range(n_shards))
        assert sum(result.shard_records.values()) == result.n_records
        assert "transport" not in result.report.meta

    def test_spawned_workers_match(self, fixture_env):
        # A spawned worker receives its socket end pickled through
        # multiprocessing, not inherited by fork.
        self.run(fixture_env, n_shards=2, start_method="spawn")

    def test_local_run_opens_no_listening_socket(self, fixture_env, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("a local cluster run must not listen")

        monkeypatch.setattr(socket.socket, "listen", refuse)
        self.run(fixture_env, n_shards=2, start_method="fork")


class TestChaosOverTcp(_FixtureCluster):
    """One live run per chaos fault kind over the local link (the
    supervision logic itself is scripted in ``tests/test_supervisor.py``)."""

    def test_killed_tcp_worker_restarts_to_parity(self, fixture_env):
        result = self.run(
            fixture_env, n_shards=2,
            chaos="kill:shard=1,bin=24",
            resilience=ResiliencePolicy(backoff_s=0.01),
        )
        assert result.restarts == 1
        assert not result.degraded

    def test_corrupt_tcp_frame_restarts_to_parity(self, fixture_env):
        result = self.run(
            fixture_env, n_shards=2,
            chaos="corrupt:shard=0,bin=23",
            resilience=ResiliencePolicy(backoff_s=0.01),
        )
        assert result.restarts == 1

    def test_shape_lie_over_tcp_restarts_to_parity(self, fixture_env, monkeypatch):
        # The chaos ``corrupt`` fault, re-armed to ship a block whose
        # OD ids lie under a *recomputed* CRC (forked workers inherit
        # the patch): the coordinator's shape checks refuse it and the
        # supervisor restarts the shard, as for a flipped bit.
        from test_cluster_summary import HOSTILE, _reframe

        monkeypatch.setattr(
            "repro.cluster.runner.corrupt_payload",
            lambda payload: _reframe(payload, *HOSTILE["OD ids unsorted"]),
        )
        result = self.run(
            fixture_env, n_shards=2, start_method="fork",
            chaos="corrupt:shard=0,bin=23",
            resilience=ResiliencePolicy(backoff_s=0.01),
        )
        assert result.restarts == 1
        health = result.report.meta["shard_health"]["0"]
        assert "OD ids out of order" in health["faults"][0]

    def test_exhausted_tcp_worker_degrades_with_gaps(self, fixture_env):
        # The one live degraded run: the runner's result and meta
        # rendering of a failed unit, end to end.
        wl, path, config, _ = fixture_env
        result = run_cluster_source(
            TraceSource(path), n_shards=2, config=config,
            chaos="kill:shard=1,bin=24,attempts=10",
            resilience=ResiliencePolicy(max_retries=0, backoff_s=0.01,
                                        on_exhaustion="degrade"),
        )
        assert result.degraded
        assert result.report.meta["degraded"] is True
        assert result.report.n_bins_scored == wl["n_bins"] - config.warmup_bins
        health = result.report.meta["shard_health"]["1"]
        assert health["status"] == "failed"
        assert health["gap_bins"] == [[24, wl["n_bins"] - 1]]
        assert result.report.meta["shard_health"]["0"]["status"] == "closed"

    def test_stalled_tcp_worker_is_waited_out(self, fixture_env):
        result = self.run(
            fixture_env, n_shards=2,
            chaos="stall:shard=0,bin=23,secs=0.2",
        )
        assert result.restarts == 0

    def test_tcp_exit_after_close_is_clean(self, fixture_env):
        result = self.run(
            fixture_env, n_shards=2,
            chaos="exit-after-close:shard=1",
        )
        assert result.restarts == 0
        assert not result.degraded


def _patient_serve(address, outcome):
    deadline = time.monotonic() + 15.0
    while True:
        try:
            outcome.put(serve(address))
            return
        except OSError:
            if time.monotonic() > deadline:
                outcome.put(-1)
                return
            time.sleep(0.05)


class TestRemoteWorkers:
    def test_listen_mode_serves_external_workers(self):
        # The two-machine path on loopback: the coordinator spawns
        # nothing; `serve` processes (what `repro worker --connect`
        # runs) dial in, handshake, and run their assigned shards.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        context = multiprocessing.get_context()
        outcome = context.Queue()
        workers = [
            context.Process(target=_patient_serve,
                            args=(("127.0.0.1", port), outcome))
            for _ in range(2)
        ]
        for proc in workers:
            proc.start()
        try:
            result = run_cluster_source(
                ScenarioSource("baseline-diurnal", network="abilene",
                               n_bins=14, seed=5, max_records_per_od=20),
                n_shards=2,
                listen=("127.0.0.1", port),
                config=StreamConfig(warmup_bins=8, refit_every=0,
                                    drift_reset_after=0, n_components=4,
                                    exact_histograms=True),
            )
        finally:
            for proc in workers:
                proc.join(timeout=20)
                if proc.is_alive():
                    proc.terminate()
        assert sorted(result.shard_records) == [0, 1]
        assert sum(result.shard_records.values()) == result.n_records
        served = [outcome.get(timeout=5) for _ in workers]
        # Both shards were served by the external workers (usually one
        # each; a fast worker may reconnect and take both).
        assert sum(served) == 2


class TestClusterNetCli:
    def test_worker_refused_connection_exits_2(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["worker", "--connect", f"127.0.0.1:{port}"]) == 2

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit) as exc:
            main(["worker"])
        assert exc.value.code == 2

    def test_cluster_tcp_command_runs(self, capsys):
        code = main([
            "run", "baseline-diurnal", "--mode", "cluster", "--shards", "2",
            "--bins", "10", "--warmup-bins", "8",
            "--max-records", "10",
            "--exact", "--refit-every", "0", "--components", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 shards," in out and "records/s" in out

    def test_run_mode_rejects_cluster_only_flags(self, capsys):
        code = main([
            "run", "baseline-diurnal", "--mode", "stream",
            "--listen", "127.0.0.1:9100", "--bins", "10",
        ])
        assert code == 2
        assert "cluster" in capsys.readouterr().err
