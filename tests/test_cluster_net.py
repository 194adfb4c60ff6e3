"""Tests for the networked cluster transport and the aggregator tier.

Three contracts pin the scale-out PR:

* **wire safety** — the framed-TCP codec round-trips every runner
  message, rejects garbage with :class:`FrameError` (routing it into
  the supervised-restart path instead of crashing the coordinator),
  and reassembles frames from arbitrary stream fragmentation;
* **merge invariance** — :class:`TierMerge` emits the same merged
  bytes for *any* arrival interleaving of its children's summaries
  (per-child bin order is the only requirement), so an aggregator
  tier can never change a detection;
* **end-to-end bit-identity** — detections over loopback TCP, at any
  shard count and tier shape, render byte-for-byte equal to the frozen
  single-process fixture (``tests/data/seed_stream_detections.json``).
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
    SummaryCorruptError,
    TierMerge,
    parse_hostport,
    parse_tiers,
    run_cluster_source,
)
from repro.cluster.transport import (
    MAX_FRAME_BYTES,
    _encode_frame,
    _FrameBuffer,
    decode_message,
    encode_message,
    serve,
)
from repro.net.routing import Router
from repro.net.topology import abilene
from repro.pipeline.sources import SyntheticSource, TraceSource
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

    def test_tiers(self):
        assert parse_tiers("2x2") == (2, 2)
        assert parse_tiers("4X2") == (4, 2)
        assert parse_tiers("2×3") == (2, 3)  # the unicode ×
        assert parse_tiers((3, 5)) == (3, 5)
        for bad in ("x2", "2x", "0x3", "2x0", "axb", "2x2x2", "-1x2", ""):
            with pytest.raises(ValueError):
                parse_tiers(bad)


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
            ("close", 1, 0, {0: 10, 1: 20}, 0, None),
            ("error", 5, 2, "Traceback (most recent call last):\n  boom"),
        ]

    def test_round_trip_every_kind(self):
        buffer = _FrameBuffer()
        for message in self._messages():
            frames = buffer.feed(encode_message(message))
            assert len(frames) == 1
            assert decode_message(*frames[0]) == message

    def test_reassembly_is_fragmentation_invariant(self):
        wire = b"".join(encode_message(m) for m in self._messages())
        for step in (1, 3, 7, 64, len(wire)):
            buffer = _FrameBuffer()
            decoded = []
            for i in range(0, len(wire), step):
                for header, payload in buffer.feed(wire[i:i + step]):
                    decoded.append(decode_message(header, payload))
            assert decoded == self._messages()

    def test_garbage_prefix_is_a_frame_error(self):
        with pytest.raises(FrameError):
            _FrameBuffer().feed(b"\xff" * 64)

    def test_hostile_length_is_a_frame_error(self):
        import struct

        huge = struct.pack("<II", MAX_FRAME_BYTES + 1, 16)
        with pytest.raises(FrameError):
            _FrameBuffer().feed(huge)

    def test_bad_header_json_is_a_frame_error(self):
        import struct

        head = b"not json at all"
        raw = struct.pack("<II", len(head), len(head)) + head
        with pytest.raises(FrameError):
            _FrameBuffer().feed(raw)

    def test_unknown_kind_is_a_frame_error(self):
        with pytest.raises(FrameError):
            decode_message({"kind": "exfiltrate", "shard": 0, "attempt": 0}, b"")

    def test_corrupt_summary_payload_survives_framing(self):
        # Framing must deliver a bit-flipped summary intact so the
        # CRC inside the summary payload (not the transport) catches it.
        from repro.cluster import ShardBinSummary
        from repro.resilience import corrupt_payload

        rng = np.random.default_rng(1)
        good = _summary_from_batch(
            _random_batch(50, rng), rng.integers(0, 4, size=50)
        ).to_bytes()
        bad = corrupt_payload(good)
        frames = _FrameBuffer().feed(
            encode_message(("summary", 0, 0, bad, None))
        )
        delivered = decode_message(*frames[0])[3]
        assert delivered == bad
        with pytest.raises(SummaryCorruptError):
            ShardBinSummary.from_bytes(delivered)


    def test_shape_lie_under_a_valid_crc_survives_framing_too(self):
        # What the CRC cannot catch — a body that lies about its sizes
        # — is refused by the summary's shape checks with the same
        # error class, so over TCP it takes the same restart path.
        from test_cluster_summary import HOSTILE_EXACT, _payload, _reframe

        from repro.cluster import ShardBinSummary

        for case in ("G huge", "starts do not end at M", "group ids unsorted"):
            bad = _reframe(_payload(), HOSTILE_EXACT[case])
            frames = _FrameBuffer().feed(
                encode_message(("summary", 1, 0, bad, None))
            )
            delivered = decode_message(*frames[0])[3]
            assert delivered == bad
            with pytest.raises(SummaryCorruptError):
                ShardBinSummary.from_bytes(delivered)
            with pytest.raises(SummaryCorruptError):
                TierMerge([1]).add_serialized(1, delivered)


def _child_streams(n_children=3, n_bins=4, seed=8):
    """Per-child, per-bin summaries over a shared random workload."""
    rng = np.random.default_rng(seed)
    streams = []
    for _ in range(n_children):
        summaries = []
        for b in range(n_bins):
            batch = _random_batch(40, rng, t0=b * 300.0)
            summaries.append(
                _summary_from_batch(batch, rng.integers(0, 4, size=40),
                                    bin_index=b)
            )
        streams.append(summaries)
    return streams


_STREAMS = _child_streams()
_EVENT_POOL = [
    (child, summary)
    for child, stream in enumerate(_STREAMS)
    for summary in stream
]


def _reference_emission():
    tier = TierMerge(range(len(_STREAMS)))
    out = []
    for b in range(len(_STREAMS[0])):
        for child, stream in enumerate(_STREAMS):
            out.extend(tier.add_summary(child, stream[b]))
    for child in range(len(_STREAMS)):
        out.extend(tier.close_child(child))
    return [(s.bin, s.to_bytes()) for s in out]


class TestTierMergeInvariance:
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
        # order (the transport guarantees that), but children
        # interleave arbitrarily.
        per_child = [iter(stream) for stream in _STREAMS]
        tier = TierMerge(range(len(_STREAMS)))
        emitted = []
        for index in order:
            child = _EVENT_POOL[index][0]
            emitted.extend(tier.add_summary(child, next(per_child[child])))
        for child in close_order:
            emitted.extend(tier.close_child(child))
        assert [(s.bin, s.to_bytes()) for s in emitted] == _reference_emission()

    def test_serialized_arrival_round_trips(self):
        tier = TierMerge(range(len(_STREAMS)))
        emitted = []
        for b in range(len(_STREAMS[0])):
            for child, stream in enumerate(_STREAMS):
                emitted.extend(
                    tier.add_serialized(child, stream[b].to_bytes())
                )
        for child in range(len(_STREAMS)):
            emitted.extend(tier.close_child(child))
        assert [(s.bin, s.to_bytes()) for s in emitted] == _reference_emission()

    def test_closed_child_stops_gating(self):
        tier = TierMerge([0, 1])
        a, b = _STREAMS[0][0], _STREAMS[1][0]
        assert tier.add_summary(0, a) == []
        assert [s.bin for s in tier.close_child(1)] == [0]
        assert not tier.done

    def test_corrupt_child_payload_raises(self):
        from repro.resilience import corrupt_payload

        tier = TierMerge([0])
        with pytest.raises(SummaryCorruptError):
            tier.add_serialized(0, corrupt_payload(_STREAMS[0][0].to_bytes()))

    def test_protocol_violations_raise(self):
        tier = TierMerge([0, 1])
        tier.add_summary(0, _STREAMS[0][0])
        with pytest.raises(ValueError):  # unknown child
            tier.add_summary(9, _STREAMS[0][0])
        with pytest.raises(ValueError):  # unknown child
            tier.close_child(9)
        tier.close_child(1)  # emits bin 0
        with pytest.raises(ValueError, match="re-delivered"):
            tier.add_summary(0, _STREAMS[0][0])  # bin 0 already emitted
        with pytest.raises(ValueError):
            TierMerge([])


class TestODSplitTraceReads:
    """``TraceSource.shard_batches``: the OD split over one shared trace.

    Small chunks put chunk boundaries inside every bin, and two bins
    hold a single OD each, so their one chunk has no row of most
    shards.  Both trace versions: v1 (ODs from longest-prefix match)
    and v2 (the stored ``od`` column read at a running offset).
    """

    CHUNK_RECORDS = 64

    @pytest.fixture(scope="class", params=["v1", "v2"])
    def trace(self, request, tmp_path_factory):
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
        path = tmp_path_factory.mktemp("odsplit") / f"{request.param}.trace"
        _write_batches(path, {"n_bins": n_bins}, batches,
                       derive=request.param == "v2")
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
            assert reader.has_derived == trace.name.startswith("v2")
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
        _write_batches(path, wl, batches, derive=True)
        return wl, path, stream_config(wl), FIXTURE_PATH.read_bytes()

    def run(self, fixture_env, **kwargs):
        wl, path, config, fixture_bytes = fixture_env
        result = run_cluster_source(TraceSource(path), config=config, **kwargs)
        assert render(wl, result.report) == fixture_bytes
        return result


class TestLoopbackParity(_FixtureCluster):
    """Detections must be bit-identical to the frozen single-process
    fixture at every shard count x tier shape x transport."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_tcp_flat(self, fixture_env, n_shards):
        result = self.run(fixture_env, n_shards=n_shards, transport="tcp")
        assert sorted(result.shard_records) == list(range(n_shards))
        assert sum(result.shard_records.values()) == result.n_records

    def test_tcp_two_tier(self, fixture_env):
        result = self.run(fixture_env, tiers="2x2", transport="tcp")
        assert sorted(result.shard_records) == [0, 1, 2, 3]

    def test_pipe_flat_matches_tcp(self, fixture_env):
        self.run(fixture_env, n_shards=2, transport="pipe")

    def test_pipe_two_tier(self, fixture_env):
        result = self.run(fixture_env, tiers="2x2", transport="pipe")
        # Tiered shard accounting is per *worker*, not per aggregator.
        assert sorted(result.shard_records) == [0, 1, 2, 3]
        assert result.report.meta["tiers"] == "2x2"


class TestChaosOverTcp(_FixtureCluster):
    """One live run per chaos fault kind over TCP (the supervision
    logic itself is scripted in ``tests/test_supervisor.py``)."""

    def test_killed_tcp_worker_restarts_to_parity(self, fixture_env):
        result = self.run(
            fixture_env, n_shards=2, transport="tcp",
            chaos="kill:shard=1,bin=24",
            resilience=ResiliencePolicy(backoff_s=0.01),
        )
        assert result.restarts == 1
        assert not result.degraded

    def test_corrupt_tcp_frame_restarts_to_parity(self, fixture_env):
        result = self.run(
            fixture_env, n_shards=2, transport="tcp",
            chaos="corrupt:shard=0,bin=23",
            resilience=ResiliencePolicy(backoff_s=0.01),
        )
        assert result.restarts == 1

    def test_shape_lie_over_tcp_restarts_to_parity(self, fixture_env, monkeypatch):
        # The chaos ``corrupt`` fault, re-armed to ship a body whose
        # CSR offsets lie under a *recomputed* CRC (forked workers
        # inherit the patch): the coordinator's shape checks refuse it
        # and the supervisor restarts the shard, as for a flipped bit.
        from test_cluster_summary import _reframe

        p = abilene().n_od_flows

        def break_offsets(words):
            # packets[p] bytes[p] | G M group_ids[G] starts[G+1] ...
            words[2 * p + 2 + int(words[2 * p])] = 1  # starts[0] must be 0
            return words

        monkeypatch.setattr(
            "repro.cluster.runner.corrupt_payload",
            lambda payload: _reframe(payload, break_offsets),
        )
        result = self.run(
            fixture_env, n_shards=2, transport="tcp", start_method="fork",
            chaos="corrupt:shard=0,bin=23",
            resilience=ResiliencePolicy(backoff_s=0.01),
        )
        assert result.restarts == 1
        health = result.report.meta["shard_health"]["0"]
        assert "run offsets" in health["faults"][0]

    def test_exhausted_tcp_worker_degrades_with_gaps(self, fixture_env):
        # The one live degraded run: the runner's result and meta
        # rendering of a failed unit, end to end.
        wl, path, config, _ = fixture_env
        result = run_cluster_source(
            TraceSource(path), n_shards=2, transport="tcp", config=config,
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
            fixture_env, n_shards=2, transport="tcp",
            chaos="stall:shard=0,bin=23,secs=0.2",
        )
        assert result.restarts == 0

    def test_tcp_exit_after_close_is_clean(self, fixture_env):
        result = self.run(
            fixture_env, n_shards=2, transport="tcp",
            chaos="exit-after-close:shard=1",
        )
        assert result.restarts == 0
        assert not result.degraded

    def test_killed_tiered_worker_restarts_subtree_to_parity(self, fixture_env):
        # A child death inside an aggregator's subtree surfaces as the
        # aggregator's fault; the whole unit restarts and detections
        # still match the fixture bit-for-bit.
        result = self.run(
            fixture_env, tiers="2x2", transport="pipe",
            chaos="kill:shard=3,bin=24",
            resilience=ResiliencePolicy(backoff_s=0.01),
        )
        assert result.restarts == 1


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
                SyntheticSource(network="abilene", n_bins=14, seed=5,
                                max_records_per_od=20),
                n_shards=2,
                transport="tcp",
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
    def test_bad_tiers_exit_2(self, capsys):
        assert main(["cluster", "--tiers", "2x"]) == 2
        assert "tier layout" in capsys.readouterr().err

    def test_listen_requires_tcp(self, capsys):
        assert main(["cluster", "--listen", "127.0.0.1:9100"]) == 2
        assert "tcp" in capsys.readouterr().err

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
            "cluster", "--shards", "2", "--transport", "tcp",
            "--warmup-bins", "8", "--live-bins", "2", "--max-records", "10",
            "--exact", "--refit-every", "0", "--components", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "tcp transport" in out and "records/s" in out

    def test_run_mode_rejects_cluster_only_flags(self, capsys):
        code = main([
            "run", "baseline-diurnal", "--mode", "stream", "--tiers", "2x2",
            "--bins", "10",
        ])
        assert code == 2
        assert "cluster" in capsys.readouterr().err
