"""Scripted supervision: every chaos fault, deadline and completion
policy replayed against the pure :class:`Supervisor` with injected time.

Workers are event scripts over wire payloads precomputed once by
in-process shard monitors (``tests/scripted_cluster.py``); everything
downstream of the link — supervisor, coordinator, engine — is the code
the live runner executes.  No process, socket or sleep: a fault lands at
the same bin and the same instant on every run.  The contracts:

* **restart parity** — any fault a retry can absorb (``kill``,
  ``corrupt``, a stall past the bin deadline, a worker exception, a
  TCP frame error), at any shard, bin and message interleaving, leaves
  the merged-bin verdict sequence identical to the fault-free run;
* **completion policy** — out of retries (or past the run deadline),
  ``strict`` raises once the survivors have drained and spilled,
  ``degrade`` finishes with exactly the failed unit's unmerged bins as
  gaps;
* **health** — every :class:`ShardHealth` transition renders the same
  ``meta["shard_health"]`` the live runner reports.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scripted_cluster import STEP_S, ScriptFault, drive, shard_streams

from repro.cluster import ClusterCoordinator
from repro.cluster.supervisor import TICK, Supervisor
from repro.pipeline import DetectionPipeline
from repro.pipeline.bank import DEFAULT_DETECTORS
from repro.pipeline.sources import SyntheticSource
from repro.resilience import (
    CheckpointWriter,
    FaultPlan,
    ResiliencePolicy,
    load_checkpoint,
    run_fingerprint,
)
from repro.stream import StreamConfig, StreamingDetectionEngine

N_BINS = 14
WARMUP_BINS = 8
N_SHARDS = 2
SOURCE = SyntheticSource(network="abilene", n_bins=N_BINS, seed=5,
                         max_records_per_od=20)
CONFIG = StreamConfig(warmup_bins=WARMUP_BINS, refit_every=0,
                      drift_reset_after=0, n_components=4,
                      exact_histograms=True)
FAST = dict(backoff_s=0.01)


def _signature(verdicts):
    """Bit-exact verdict fingerprint (bin, scores, attribution)."""
    return [
        (d.bin, d.spe_entropy, d.threshold, d.detected_by_entropy,
         d.detected_by_volume, tuple(f.od for f in d.flows),
         tuple(d.entropy_vector))
        for d in verdicts
    ]


@pytest.fixture(scope="module")
def streams():
    return shard_streams(SOURCE, N_SHARDS, CONFIG)


@pytest.fixture(scope="module")
def clean(streams):
    """Verdicts of the fault-free scripted run."""
    outcome = drive(SOURCE, CONFIG, streams)
    assert outcome.error is None and outcome.supervisor.restarts == 0
    return _signature(outcome.verdicts)


def _run(streams, *faults, choose=min, **policy):
    return drive(SOURCE, CONFIG, streams, faults=faults, choose=choose,
                 policy=ResiliencePolicy(**{**FAST, **policy}))


def test_fault_free_script_matches_single_process(streams, clean):
    stream = DetectionPipeline(CONFIG).run(SOURCE, mode="stream")
    assert clean == _signature(stream.report.detections)
    assert len(clean) == N_BINS - WARMUP_BINS
    outcome = drive(SOURCE, CONFIG, streams)
    assert outcome.report.n_records == stream.report.n_records
    assert outcome.supervisor.shard_records == {
        s: streams[s].n_records for s in range(N_SHARDS)
    }
    assert [spawn[1:] for spawn in outcome.spawns] == [(0, 0, 0), (1, 0, 0)]


class TestRestartParity:
    @pytest.mark.parametrize("victim", [0, 1])
    def test_kill_each_shard_once(self, streams, clean, victim):
        outcome = _run(streams, ScriptFault("kill", victim, bin=9))
        assert _signature(outcome.verdicts) == clean
        assert outcome.supervisor.restarts == 1
        assert not outcome.supervisor.degraded
        # running -> restarting -> running: the replacement is attempt 1
        # and fast-forwards past the 9 bins its predecessor delivered.
        assert [s[1:] for s in outcome.spawns if s[1] == victim] == [
            (victim, 0, 0), (victim, 1, 9)
        ]
        health = outcome.health[str(victim)]
        assert health == {
            "status": "closed", "attempts": 2, "restarts": 1,
            "faults": ["worker died with exit code 137 before closing its stream"],
        }
        assert outcome.health[str(1 - victim)] == {
            "status": "closed", "attempts": 1, "restarts": 0,
        }

    @pytest.mark.parametrize("kind, fault_text", [
        ("corrupt", "corrupt summary payload: "),
        ("error", "worker exception:\nRuntimeError('scripted')"),
        ("frame_error", "undecodable frame: scripted garbage"),
    ])
    def test_retryable_fault_restarts_to_parity(self, streams, clean, kind, fault_text):
        outcome = _run(streams, ScriptFault(kind, 0, bin=5))
        assert _signature(outcome.verdicts) == clean
        assert outcome.supervisor.restarts == 1
        (fault,) = outcome.health["0"]["faults"]
        assert fault.startswith(fault_text)

    def test_exit_after_close_is_clean(self, streams, clean):
        outcome = _run(streams, ScriptFault("exit-after-close", 1))
        assert _signature(outcome.verdicts) == clean
        assert outcome.supervisor.restarts == 0
        assert {h["status"] for h in outcome.health.values()} == {"closed"}

    def test_stall_without_deadline_is_waited_out(self, streams, clean):
        outcome = _run(streams, ScriptFault("stall", 0, bin=3, secs=30.0))
        assert _signature(outcome.verdicts) == clean
        assert outcome.supervisor.restarts == 0

    @pytest.mark.parametrize("kind", ["kill", "stall", "corrupt", "exit-after-close"])
    def test_seeded_plans_replay_to_parity(self, streams, clean, kind):
        plan = FaultPlan.parse(f"seeded:seed=11,kind={kind},count=2")
        plan = plan.resolve(N_SHARDS, N_BINS)
        outcome = _run(streams, *plan.faults, bin_deadline_s=0.25)
        assert _signature(outcome.verdicts) == clean
        assert not outcome.supervisor.degraded


class TestBinDeadline:
    def test_straggler_is_restarted_at_the_deadline(self, streams, clean):
        outcome = _run(streams, ScriptFault("stall", 0, bin=4, secs=30.0),
                       bin_deadline_s=0.5, backoff_s=0.2)
        assert _signature(outcome.verdicts) == clean
        assert outcome.health["0"]["faults"] == [
            "no summary within the bin deadline (0.5s)"
        ]
        # Bin 3 left at 4 steps; silence passes 0.5 s by the first tick
        # after that, and the relaunch waits out the 0.2 s backoff.
        (spawned_at, _, attempt, resume_bin) = outcome.spawns[-1]
        assert (attempt, resume_bin) == (1, 4)
        assert 4 * STEP_S + 0.5 + 0.2 <= spawned_at < 4 * STEP_S + 0.5 + 0.2 + 0.2

    def test_strict_exhaustion_raises(self, streams):
        outcome = _run(streams, ScriptFault("stall", 0, bin=4, secs=30.0),
                       bin_deadline_s=0.5, max_retries=0)
        assert str(outcome.error) == (
            "shard 0 failed after 1 attempt(s): "
            "no summary within the bin deadline (0.5s)"
        )

    def test_degrade_exhaustion_gaps_the_tail(self, streams):
        outcome = _run(streams, ScriptFault("stall", 0, bin=4, secs=30.0),
                       bin_deadline_s=0.5, max_retries=0, on_exhaustion="degrade")
        assert outcome.supervisor.degraded
        assert outcome.health["0"]["status"] == "failed"
        assert outcome.health["0"]["gap_bins"] == [[4, N_BINS - 1]]
        assert outcome.report.n_bins_scored == N_BINS - WARMUP_BINS


class TestRunDeadline:
    def test_strict_raises_naming_the_unfinished(self, streams):
        outcome = _run(streams, ScriptFault("stall", 0, bin=4, secs=30.0),
                       run_deadline_s=1.0)
        assert str(outcome.error) == (
            "cluster run exceeded its deadline (1.0s) with shards [0] unfinished"
        )

    def test_degrade_fails_a_running_unit(self, streams):
        # running -> failed on the run deadline.
        outcome = _run(streams, ScriptFault("stall", 0, bin=4, secs=30.0),
                       run_deadline_s=1.0, on_exhaustion="degrade")
        assert outcome.error is None
        assert outcome.health == {
            "0": {"status": "failed", "attempts": 1, "restarts": 0,
                  "faults": ["run deadline exceeded"],
                  "gap_bins": [[4, N_BINS - 1]]},
            "1": {"status": "closed", "attempts": 1, "restarts": 0},
        }
        assert outcome.report.n_bins_scored == N_BINS - WARMUP_BINS
        assert [d.bin for d in outcome.verdicts] == list(range(WARMUP_BINS, N_BINS))

    def test_degrade_fails_a_restarting_unit(self, streams):
        # restarting -> failed: the deadline lands inside the backoff.
        outcome = _run(streams, ScriptFault("kill", 0, bin=4),
                       backoff_s=5.0, run_deadline_s=1.0, on_exhaustion="degrade")
        health = outcome.health["0"]
        assert health["status"] == "failed"
        assert (health["attempts"], health["restarts"]) == (2, 1)
        assert health["faults"][-1] == "run deadline exceeded"
        assert len(outcome.spawns) == N_SHARDS  # the relaunch never came
        assert outcome.report.n_bins_scored == N_BINS - WARMUP_BINS


class TestStrictDrain:
    def test_retries_exhausted_strict_raises(self, streams):
        outcome = _run(streams, ScriptFault("kill", 1, bin=9, attempts=10),
                       max_retries=1)
        assert str(outcome.error).startswith("shard 1 failed after 2 attempt(s)")

    def test_retries_exhausted_degrade_completes_with_gaps(self, streams):
        outcome = _run(streams, ScriptFault("kill", 1, bin=9, attempts=10),
                       max_retries=1, on_exhaustion="degrade")
        assert outcome.supervisor.degraded
        assert outcome.report.n_bins_scored == N_BINS - WARMUP_BINS
        assert outcome.health["1"]["status"] == "failed"
        assert outcome.health["1"]["attempts"] == 2
        # The dead shard's unmerged tail — bins 9..13 — is one gap run.
        assert outcome.health["1"]["gap_bins"] == [[9, N_BINS - 1]]
        assert outcome.health["0"]["status"] == "closed"

    def test_every_unit_lost_pads_the_tail_with_gaps(self, streams):
        # No delivery is left to release bins 9..13: they are scored as
        # gaps so the degraded report still covers the whole grid.
        outcome = _run(streams, ScriptFault("kill", 0, bin=9, attempts=10),
                       ScriptFault("kill", 1, bin=9, attempts=10),
                       max_retries=0, on_exhaustion="degrade")
        assert [d.bin for d in outcome.verdicts] == list(range(WARMUP_BINS, N_BINS))
        assert [d.n_records for d in outcome.verdicts[-5:]] == [0] * 5
        assert {h["status"] for h in outcome.health.values()} == {"failed"}

    def test_drains_and_spills_survivors_before_raising(self, streams, clean, tmp_path):
        # Shard 0 sits on bin 0 while shard 1 ships bins 0-8 and dies
        # for good at bin 9: every bin shard 1 delivered must be merged
        # and spilled, in order, before the run raises — then a resume
        # from that checkpoint finishes bit-identical.
        path = tmp_path / "run.ckpt"
        fingerprint = run_fingerprint(SOURCE.spec, CONFIG, DEFAULT_DETECTORS)
        spilled = []
        with CheckpointWriter(path, fingerprint) as writer:
            def spill(bin_index, merged):
                spilled.append((bin_index, merged is None))
                writer.append(bin_index, None if merged is None else merged.to_bytes())

            outcome = drive(
                SOURCE, CONFIG, streams,
                faults=(ScriptFault("stall", 0, bin=0, secs=0.5),
                        ScriptFault("kill", 1, bin=9, attempts=10)),
                policy=ResiliencePolicy(max_retries=0, **FAST),
                on_bin_merged=spill,
            )
        assert str(outcome.error).startswith("shard 1 failed after 1 attempt(s)")
        assert spilled == [(b, False) for b in range(9)]
        state = load_checkpoint(path, fingerprint)
        assert state.next_bin == 9
        resumed = drive(SOURCE, CONFIG, streams, preload=state.bins)
        assert [s[1:] for s in resumed.spawns] == [(0, 0, 9), (1, 0, 9)]
        assert _signature(resumed.report.detections) == clean


_KINDS = ["kill", "stall", "corrupt", "exit-after-close", "error", "frame_error"]


@given(
    kind=st.sampled_from(_KINDS),
    shard=st.integers(0, N_SHARDS - 1),
    bin_index=st.integers(0, N_BINS - 1),
    bin_deadline=st.sampled_from([None, 0.25]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_any_interleaving_and_fault_keeps_the_verdicts(
    streams, clean, kind, shard, bin_index, bin_deadline, seed
):
    """Message interleaving x fault kind x fault position: the merged
    verdicts never move, and only faults that end an attempt restart."""
    rng = random.Random(seed)
    fault = ScriptFault(kind, shard, bin=bin_index, secs=2.0)
    outcome = _run(streams, fault, choose=rng.choice, bin_deadline_s=bin_deadline)
    assert _signature(outcome.verdicts) == clean
    restarted = kind not in ("exit-after-close", "stall") or (
        kind == "stall" and bin_deadline is not None
    )
    assert outcome.supervisor.restarts == int(restarted)


class TestTransitions:
    """Single steps of the table in :mod:`repro.cluster.supervisor`."""

    def _supervisor(self, **policy):
        engine = StreamingDetectionEngine(SOURCE.topology, CONFIG)
        coordinator = ClusterCoordinator(engine, shard_ids=range(N_SHARDS))
        return Supervisor(coordinator, ResiliencePolicy(**policy), N_BINS, now=0.0)

    def test_first_tick_spawns_every_unit(self):
        supervisor = self._supervisor()
        assert supervisor.step(0.0, TICK) == [("spawn", 0, 0, 0), ("spawn", 1, 0, 0)]
        assert supervisor.step(0.1, TICK) == []

    def test_stragglers_and_settled_units_are_ignored(self, streams):
        supervisor = self._supervisor(backoff_s=0.5)
        supervisor.step(0.0, TICK)
        assert supervisor.step(0.1, ("eof", 0, 137)) == [("discard", 0)]
        payload = streams[0].payloads[0][1]
        # attempt 0's summary after the unit was relaunched as attempt 1
        assert supervisor.step(0.2, ("summary", 0, 0, payload, None)) == []
        # a link event while the relaunch is still backing off
        assert supervisor.step(0.2, ("frame_error", 0, "late garbage")) == []
        assert supervisor.step(0.6, TICK) == [("spawn", 0, 1, 0)]
        supervisor.step(0.7, ("close", 1, 0, 10, 0, None))
        assert supervisor.units[1].status == "closed"
        assert supervisor.step(0.8, ("eof", 1, 3)) == []

    def test_a_superseded_attempt_cannot_close_its_successor(self, streams):
        supervisor = self._supervisor(backoff_s=0.0)
        supervisor.step(0.0, TICK)
        supervisor.step(0.1, ("error", 0, 0, "boom"))
        assert supervisor.step(0.1, TICK) == [("spawn", 0, 1, 0)]
        assert supervisor.step(0.2, ("close", 0, 0, 5, 0, None)) == []
        assert supervisor.units[0].status == "running"

    def test_a_relaunch_may_redeliver_merged_bins(self, streams):
        # The replacement recomputes bit-identical summaries; one the
        # coordinator already holds is dropped, not a bin-order error.
        supervisor = self._supervisor(backoff_s=0.0)
        supervisor.step(0.0, TICK)
        payload = streams[0].payloads[0][1]
        supervisor.step(0.1, ("summary", 0, 0, payload, None))
        supervisor.step(0.2, ("eof", 0, 137))
        assert supervisor.step(0.2, TICK) == [("spawn", 0, 1, 1)]
        assert supervisor.step(0.3, ("summary", 0, 1, payload, None)) == []
        assert supervisor.units[0].status == "running"

    def test_timeout_tracks_the_nearest_deadline(self):
        supervisor = self._supervisor(backoff_s=0.3, bin_deadline_s=2.0,
                                      run_deadline_s=10.0)
        assert supervisor.timeout(0.0) == 0.001  # first launches are due
        supervisor.step(0.0, TICK)
        assert supervisor.timeout(1.0) == pytest.approx(0.5)  # bin deadline / 4
        supervisor.step(1.0, ("eof", 0, 9))
        assert supervisor.timeout(1.0) == pytest.approx(0.3)  # the backoff
        assert supervisor.step(1.3, TICK) == [("spawn", 0, 1, 0)]
        assert supervisor.timeout(9.9) == pytest.approx(0.1)  # the run's end
