"""Tests for the resilience layer: supervised restarts, chaos
injection, checksummed wire formats, and checkpoint/resume.

The load-bearing contracts:

* **restart parity** — killing any single worker once (via the seeded
  chaos harness) leaves exact-mode detections bit-identical to an
  unsharded run: restarts recompute deterministic summaries and the
  coordinator dedupes the overlap;
* **bounded degradation** — when a shard exhausts its retries under
  ``on_exhaustion="degrade"``, the run still completes, the report is
  flagged ``degraded`` with per-shard health, and exactly the dead
  shard's unmerged bins appear as gaps;
* **checkpoint/resume** — a killed run restarted with ``--resume``
  replays the spilled bins and finishes with the same detections as an
  uninterrupted run, even when the checkpoint's tail is torn;
* **corruption detection** — the versioned summary wire format and the
  checkpoint records carry CRCs; flipped bytes fail loudly (and, for
  summaries, trigger a supervised restart rather than silent skew).

Restart parity and bounded degradation are replayed fault by fault,
without processes, in ``tests/test_supervisor.py``; here one live run
per fault kind checks the multiprocess runner end to end.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.cluster import (
    ShardBinSummary,
    SummaryCorruptError,
    run_cluster_source,
)
from repro.flows.binning import TimeBins
from repro.net.topology import abilene
from repro.pipeline import DetectionPipeline
from repro.pipeline.sources import ScenarioSource, TraceSource
from repro.resilience import (
    CheckpointError,
    CheckpointWriter,
    FaultPlan,
    ResiliencePolicy,
    ShardHealth,
    corrupt_payload,
    load_checkpoint,
    run_fingerprint,
    truncate_tail,
)
from repro.stream import StreamConfig, StreamingDetectionEngine, synthetic_record_stream
from repro.traffic.generator import TrafficGenerator

N_BINS = 14
WARMUP_BINS = 8
MAX_RECORDS_PER_OD = 20
SEED = 5


def _config(**overrides):
    defaults = dict(
        warmup_bins=WARMUP_BINS,
        refit_every=0,
        drift_reset_after=0,
        n_components=4,
        exact_histograms=True,
    )
    defaults.update(overrides)
    return StreamConfig(**defaults)


def _source():
    return ScenarioSource(
        "baseline-diurnal", network="abilene", n_bins=N_BINS, seed=SEED,
        max_records_per_od=MAX_RECORDS_PER_OD,
    )


def _signature(report):
    """Bit-exact detection fingerprint (bin, scores, attribution)."""
    return [
        (d.bin, d.spe_entropy, d.threshold, tuple(d.flows),
         tuple(d.entropy_vector))
        for d in report.detections
    ]


@pytest.fixture(scope="module")
def baseline_signature():
    """Detections of the unsharded engine over the shared workload."""
    generator = TrafficGenerator(abilene(), TimeBins(n_bins=N_BINS), seed=SEED)
    engine = StreamingDetectionEngine(abilene(), _config())
    stream = synthetic_record_stream(
        generator, range(N_BINS), max_records_per_od=MAX_RECORDS_PER_OD,
        seed=SEED,
    )
    for _ in engine.events(stream):
        pass
    return _signature(engine.finish())


class TestResiliencePolicy:
    def test_backoff_grows_and_caps(self):
        policy = ResiliencePolicy(backoff_s=0.1, backoff_factor=2.0,
                                  backoff_max_s=0.35)
        assert policy.backoff(0) == 0.0
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.35)  # capped
        assert policy.backoff(9) == pytest.approx(0.35)

    def test_validates(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(on_exhaustion="panic")
        with pytest.raises(ValueError):
            ResiliencePolicy(bin_deadline_s=0.0)

    def test_shard_health_meta_compresses_gap_runs(self):
        health = ShardHealth(shard_id=3)
        health.record_fault("boom")
        health.status = "failed"
        health.gap_bins = [4, 5, 6, 9, 11, 12]
        meta = health.to_meta()
        assert meta["status"] == "failed"
        assert meta["gap_bins"] == [[4, 6], [9, 9], [11, 12]]
        assert meta["faults"] == ["boom"]


class TestFaultPlan:
    def test_parse_explicit_faults(self):
        plan = FaultPlan.parse("kill:shard=1,bin=9;stall:shard=0,bin=3,secs=2")
        plan = plan.resolve(n_shards=2, n_bins=N_BINS)
        kill = plan.fault_for(1, 9, attempt=0)
        assert kill is not None and kill.kind == "kill"
        assert plan.fault_for(1, 9, attempt=1) is None  # fires once
        stall = plan.fault_for(0, 3, attempt=0)
        assert stall is not None and stall.secs == 2.0
        assert plan.fault_for(0, 9, attempt=0) is None

    def test_parse_rejects_garbage(self):
        for spec in ("", "explode:shard=0", "kill:color=red", "kill:shard=x"):
            with pytest.raises(ValueError):
                FaultPlan.parse(spec)

    def test_seeded_plan_is_deterministic(self):
        a = FaultPlan.parse("seeded:seed=7,count=2").resolve(4, 50)
        b = FaultPlan.parse("seeded:seed=7,count=2").resolve(4, 50)
        assert a.faults == b.faults
        assert len(a.faults) == 2
        for fault in a.faults:
            assert 0 <= fault.shard < 4
            assert 5 <= fault.bin < 45  # middle of the run, never bin 0

    def test_corrupt_payload_flips_one_byte(self):
        payload = bytes(range(64))
        mangled = corrupt_payload(payload)
        assert len(mangled) == len(payload)
        assert sum(a != b for a, b in zip(payload, mangled)) == 1

    def test_truncate_tail(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"x" * 100)
        assert truncate_tail(path, 30) == 70
        assert path.stat().st_size == 70


class TestSummaryWire:
    def _summary(self):
        from repro.flows.records import FlowRecordBatch
        from repro.stream.window import BinAccumulator

        rng = np.random.default_rng(11)
        n = 200
        batch = FlowRecordBatch(
            src_ip=rng.integers(0, 1 << 28, size=n),
            dst_ip=rng.integers(0, 1 << 28, size=n),
            src_port=rng.integers(0, 1 << 16, size=n),
            dst_port=rng.integers(0, 1 << 16, size=n),
            protocol=np.full(n, 6),
            packets=rng.integers(1, 50, size=n),
            bytes=rng.integers(40, 1500, size=n),
            timestamp=rng.uniform(0, 300.0, size=n),
            ingress_pop=np.zeros(n, dtype=np.int64),
        )
        acc = BinAccumulator(n_od_flows=4, exact=True, width=512)
        acc.add_batch(rng.integers(0, 4, size=n), batch)
        return ShardBinSummary.from_accumulator(acc, 0)

    def test_v2_round_trip_and_crc(self):
        summary = self._summary()
        payload = summary.to_bytes()
        assert payload[:4] == b"RBS4"
        restored = ShardBinSummary.from_bytes(payload)
        assert restored.to_bytes() == payload

    def test_corrupt_payload_raises(self):
        payload = self._summary().to_bytes()
        with pytest.raises(SummaryCorruptError):
            ShardBinSummary.from_bytes(corrupt_payload(payload))

    @pytest.mark.parametrize("magic", [b"RBS1", b"RBS2", b"RBS3", b"RBS5"])
    def test_other_wire_versions_are_rejected_by_name(self, magic):
        # One wire version: an older (or newer) payload is refused with
        # both versions named — it is not a transit fault to retry, and
        # it is never mis-parsed.
        payload = self._summary().to_bytes()
        with pytest.raises(ValueError, match="RBS4") as excinfo:
            ShardBinSummary.from_bytes(magic + payload[4:])
        assert magic.decode() in str(excinfo.value)
        assert not isinstance(excinfo.value, SummaryCorruptError)

    def test_crc_matches_body(self):
        payload = self._summary().to_bytes()
        (stored,) = struct.unpack_from("<I", payload, 4)
        assert stored == zlib.crc32(payload[8:]) & 0xFFFFFFFF


class TestCheckpoint:
    FINGERPRINT = {"spec": {"kind": "synthetic"}, "config": {}, "detectors": []}

    def test_round_trip_with_gap(self, tmp_path):
        path = tmp_path / "run.ckpt"
        with CheckpointWriter(path, self.FINGERPRINT) as writer:
            writer.append(0, b"bin zero")
            writer.append(1, None)  # a gap bin
            writer.append(2, b"bin two")
        state = load_checkpoint(path, self.FINGERPRINT)
        assert [(b, p) for b, p in state.bins] == [
            (0, b"bin zero"), (1, None), (2, b"bin two"),
        ]
        assert state.next_bin == 3

    def test_torn_tail_recovers_prefix(self, tmp_path):
        path = tmp_path / "run.ckpt"
        with CheckpointWriter(path, self.FINGERPRINT) as writer:
            writer.append(0, b"a" * 50)
            writer.append(1, b"b" * 50)
        truncate_tail(path, 20)  # tear the second record's payload
        state = load_checkpoint(path, self.FINGERPRINT)
        assert [(b, p) for b, p in state.bins] == [(0, b"a" * 50)]

    def test_corrupt_record_stops_replay(self, tmp_path):
        path = tmp_path / "run.ckpt"
        with CheckpointWriter(path, self.FINGERPRINT) as writer:
            writer.append(0, b"a" * 50)
            writer.append(1, b"b" * 50)
        size = path.stat().st_size
        with open(path, "r+b") as handle:  # flip a byte in the last payload
            handle.seek(size - 10)
            byte = handle.read(1)
            handle.seek(size - 10)
            handle.write(bytes([byte[0] ^ 0x40]))
        state = load_checkpoint(path, self.FINGERPRINT)
        assert len(state.bins) == 1

    def test_fingerprint_mismatch_raises(self, tmp_path):
        path = tmp_path / "run.ckpt"
        with CheckpointWriter(path, self.FINGERPRINT) as writer:
            writer.append(0, b"a")
        with pytest.raises(CheckpointError):
            load_checkpoint(path, {"spec": {"kind": "other"}})

    def test_a_checkpoint_starts_at_the_first_bin_merged(self, tmp_path):
        path = tmp_path / "run.ckpt"
        with CheckpointWriter(path, self.FINGERPRINT) as writer:
            writer.append(2, b"two")
            writer.append(3, None)
            with pytest.raises(CheckpointError, match="expected bin 4, got 6"):
                writer.append(6, b"six")
        state = load_checkpoint(path, self.FINGERPRINT)
        assert [(b, p) for b, p in state.bins] == [(2, b"two"), (3, None)]
        assert state.next_bin == 4
        with CheckpointWriter(path, self.FINGERPRINT, resume_from=state) as writer:
            writer.append(4, b"four")
        assert load_checkpoint(path).next_bin == 5

    def test_out_of_order_append_raises(self, tmp_path):
        with CheckpointWriter(tmp_path / "run.ckpt", self.FINGERPRINT) as writer:
            writer.append(0, b"a")
            with pytest.raises(ValueError):
                writer.append(2, b"c")

    def test_resume_truncates_after_state(self, tmp_path):
        path = tmp_path / "run.ckpt"
        with CheckpointWriter(path, self.FINGERPRINT) as writer:
            writer.append(0, b"a" * 50)
            writer.append(1, b"b" * 50)
        truncate_tail(path, 20)
        state = load_checkpoint(path, self.FINGERPRINT)
        with CheckpointWriter(path, self.FINGERPRINT,
                              resume_from=state) as writer:
            writer.append(1, b"B" * 30)
        state = load_checkpoint(path, self.FINGERPRINT)
        assert [(b, p) for b, p in state.bins] == [
            (0, b"a" * 50), (1, b"B" * 30),
        ]

    def test_fingerprint_ignores_sharding(self):
        source = _source()
        fp = run_fingerprint(source.spec, _config())
        assert "n_shards" not in str(fp)
        assert fp == run_fingerprint(source.spec, _config())


class TestChaosCluster:
    """Live smokes over local links: one per chaos fault kind, plus the
    runner's checkpoint/resume glue.  The supervision decisions behind
    them are replayed exhaustively, without processes, in
    ``tests/test_supervisor.py``."""

    def _run(self, **kwargs):
        kwargs.setdefault("n_shards", 2)
        kwargs.setdefault("config", _config())
        return run_cluster_source(_source(), **kwargs)

    def test_corrupt_summary_triggers_restart_and_parity(
        self, baseline_signature
    ):
        result = self._run(chaos="corrupt:shard=0,bin=5")
        assert result.restarts == 1
        assert _signature(result.report) == baseline_signature

    def test_exit_after_close_is_clean(self, baseline_signature):
        result = self._run(chaos="exit-after-close:shard=1")
        assert result.restarts == 0
        assert not result.degraded
        assert _signature(result.report) == baseline_signature

    def test_stall_is_waited_out(self, baseline_signature):
        result = self._run(chaos="stall:shard=0,bin=3,secs=0.2")
        assert result.restarts == 0
        assert _signature(result.report) == baseline_signature

    @pytest.mark.parametrize("kind", ["trace", "scenario"])
    def test_restarted_shard_reports_its_whole_load(self, kind, tmp_path):
        # The restarted attempt resumes mid-run; its close message must
        # still count the records of the bins before its resume point.
        source = _source()
        if kind == "trace":
            source = TraceSource(source.write_trace(tmp_path / "run.trace").path)
        calm = run_cluster_source(source, n_shards=3, config=_config())
        killed = run_cluster_source(
            source, n_shards=3, config=_config(), chaos="seeded:seed=11,kind=kill",
            resilience=ResiliencePolicy(backoff_s=0.01),
        )
        assert killed.restarts == 1
        assert killed.shard_records == calm.shard_records
        assert sum(killed.shard_records.values()) == killed.n_records

    def test_fault_for_unknown_shard_rejected(self):
        with pytest.raises(ValueError, match="shard"):
            self._run(chaos="kill:shard=7,bin=9")

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError, match="resume"):
            self._run(resume=True)

    def test_checkpoint_kill_resume_is_bit_identical(
        self, tmp_path, baseline_signature
    ):
        path = tmp_path / "run.ckpt"
        with pytest.raises(RuntimeError):
            self._run(
                chaos="kill:shard=1,bin=9,attempts=10",
                resilience=ResiliencePolicy(max_retries=0, backoff_s=0.01),
                checkpoint=path,
            )
        crashed = load_checkpoint(path)
        assert 0 < crashed.next_bin < N_BINS
        truncate_tail(path, 5)  # the crash also tore the spill's tail
        resumed = self._run(checkpoint=path, resume=True)
        assert resumed.report.meta["resumed_bins"] == crashed.next_bin - 1
        assert _signature(resumed.report) == baseline_signature
        final = load_checkpoint(path)
        assert final.next_bin == N_BINS

    def test_resume_rejects_an_old_wire_version_in_the_checkpoint(self, tmp_path):
        source = _source()
        path = tmp_path / "old.ckpt"
        fingerprint = run_fingerprint(source.spec, _config())
        with CheckpointWriter(path, fingerprint) as writer:
            writer.append(0, b"RBS3" + bytes(64))
        with pytest.raises(ValueError, match="RBS3.*RBS4"):
            run_cluster_source(source, n_shards=2, config=_config(),
                               checkpoint=path, resume=True)

    def test_resume_rejects_different_run(self, tmp_path):
        path = tmp_path / "run.ckpt"
        self._run(checkpoint=path)
        other = ScenarioSource(
            "baseline-diurnal", network="abilene", n_bins=N_BINS, seed=SEED + 94,
            max_records_per_od=MAX_RECORDS_PER_OD,
        )
        with pytest.raises(ValueError, match="checkpoint"):
            run_cluster_source(
                other, n_shards=2, config=_config(),
                checkpoint=path, resume=True,
            )


class TestEmptyFirstBin:
    """A trace whose bin 0 holds no record: the coordinator's first
    merged bin is bin 1, and a checkpoint starts there."""

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        from repro.io.trace import TraceWriter

        generator = TrafficGenerator(abilene(), TimeBins(n_bins=N_BINS), seed=SEED)
        path = tmp_path_factory.mktemp("late") / "late.trace"
        with TraceWriter(path, n_bins=N_BINS, network="Abilene") as writer:
            batches = synthetic_record_stream(
                generator, range(1, N_BINS),
                max_records_per_od=MAX_RECORDS_PER_OD, seed=SEED,
            )
            for b, batch in enumerate(batches, start=1):
                writer.append(b, batch)
        plain = run_cluster_source(TraceSource(path), n_shards=2, config=_config())
        assert plain.report.n_bins_scored == N_BINS - 1 - WARMUP_BINS
        return path, _signature(plain.report)

    def test_checkpointed_run_equals_the_unchecked_one(self, trace, tmp_path):
        path, signature = trace
        ckpt = tmp_path / "run.ckpt"
        result = run_cluster_source(TraceSource(path), n_shards=2,
                                    config=_config(), checkpoint=ckpt)
        assert _signature(result.report) == signature
        state = load_checkpoint(ckpt)
        assert [b for b, _ in state.bins] == list(range(1, N_BINS))

    def test_seeded_kill_and_resume_equals_it(self, trace, tmp_path):
        path, signature = trace
        ckpt = tmp_path / "run.ckpt"
        with pytest.raises(RuntimeError):
            run_cluster_source(
                TraceSource(path), n_shards=2, config=_config(), checkpoint=ckpt,
                chaos="seeded:seed=3,kind=kill",
                resilience=ResiliencePolicy(max_retries=0, backoff_s=0.01),
            )
        crashed = load_checkpoint(ckpt)
        assert crashed.bins and crashed.bins[0][0] == 1
        assert crashed.next_bin < N_BINS
        resumed = run_cluster_source(TraceSource(path), n_shards=2,
                                     config=_config(), checkpoint=ckpt,
                                     resume=True)
        assert resumed.report.meta["resumed_bins"] == len(crashed.bins)
        assert _signature(resumed.report) == signature
        assert load_checkpoint(ckpt).next_bin == N_BINS


class TestPipelineResilience:
    def test_cluster_only_knobs_rejected_in_stream_mode(self):
        pipeline = DetectionPipeline(_config())
        with pytest.raises(ValueError, match="cluster mode"):
            pipeline.run(_source(), mode="stream", chaos="kill:shard=0,bin=9")
        with pytest.raises(ValueError, match="cluster mode"):
            pipeline.run(_source(), mode="batch", resume=True)

    def test_pipeline_cluster_chaos_parity(self, baseline_signature):
        result = DetectionPipeline(_config()).run(
            _source(), mode="cluster", n_shards=2,
            chaos="kill:shard=0,bin=9",
        )
        assert result.restarts == 1
        assert not result.degraded
        assert _signature(result.report) == baseline_signature


class TestResilienceCli:
    def test_cluster_chaos_flag(self, capsys):
        from repro.cli import main

        code = main([
            "run", "baseline-diurnal", "--mode", "cluster",
            "--warmup-bins", str(WARMUP_BINS), "--bins", str(N_BINS),
            "--seed", str(SEED), "--max-records",
            str(MAX_RECORDS_PER_OD), "--exact", "--components", "4",
            "--refit-every", "0", "--shards", "2",
            "--chaos", "kill:shard=1,bin=9",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "recovered (1 restart(s))" in out

    def test_bad_chaos_spec_is_a_cli_error(self, capsys):
        from repro.cli import main

        code = main(["run", "baseline-diurnal", "--mode", "cluster",
                     "--chaos", "explode:shard=0"])
        assert code == 2
        assert "error" in capsys.readouterr().err
