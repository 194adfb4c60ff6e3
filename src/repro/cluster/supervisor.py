"""Cluster supervision as a pure state machine.

The :class:`Supervisor` decides what the cluster runner does about
workers that die, stall or ship garbage.  It owns no process, socket or
clock — tests drive it with scripted events and injected time.  Its
input is ``(now, event)``: one of the worker links' message tuples
(``summary`` / ``close`` / ``error`` / ``eof`` / ``frame_error``, see
:mod:`repro.cluster.transport`) or :data:`TICK`, which the runner sends
after every poll.  Its output is a list of commands:

* ``("spawn", unit, attempt, resume_bin)`` — launch the unit's worker,
  shipping bins from ``resume_bin`` on;
* ``("discard", unit)`` — sever the unit's link and stop its worker;
* ``("emit", verdicts)`` — verdicts of the bins a merge just scored;
* ``("raise", error)`` — the run failed (terminal).

A unit is a worker shard.  Its
:class:`~repro.resilience.policy.ShardHealth` is its whole state::

    state       event                         commands, next state
    ----------  ----------------------------  ---------------------------------
    restarting  tick, now >= due              spawn; running
    running     summary (current attempt)     merge -> emit; running
    running     close                         close shard -> emit; closed
    running     fault, retries left           discard; restarting (due = now
                  (error, eof, frame_error,     + backoff), shard reopened
                  corrupt summary, tick past
                  the bin deadline)
    running     fault, no retries left        discard, then *fail*
    running or  tick past the run deadline    strict: raise.  degrade: discard,
    restarting                                  then *fail*
    any         message of an older attempt,  nothing
                or for a settled unit

*Fail* degrades or defers: under ``degrade`` the unit is closed at the
coordinator, its unmerged bins become ``gap_bins`` and the release is
emitted; under ``strict`` it stays open at the coordinator — no bin
merges without it — so the survivors drain up to its high-water bin
(and a checkpoint spills it) before the tick raises
``shard N failed after K attempt(s)``.  The run ends at the first tick
with no live unit (a degraded run then pads its tail with gap bins).
"""

from __future__ import annotations

from repro import telemetry as tel
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.summary import SummaryCorruptError
from repro.resilience.policy import ResiliencePolicy, ShardHealth

__all__ = ["Supervisor", "TICK"]

#: The clock event: deadlines, due launches and end-of-run checks.
TICK = ("tick",)

#: Why each link-level fault ends an attempt (formatted with the
#: message's last field: the worker's traceback, exit code, or reason).
_FAULTS = {
    "error": "worker exception:\n{}",
    "eof": "worker died with exit code {} before closing its stream",
    "frame_error": "undecodable frame: {}",
}


def _emit(verdicts) -> list[tuple]:
    return [("emit", verdicts)] if verdicts else []


class Supervisor:
    """Restarts, deadlines and completion policy of one cluster run.

    Args:
        coordinator: The run's merge point; its shard ids are the units.
        policy: Retries, backoff, deadlines, strict-vs-degrade.
        n_bins: Bins the run covers (gap runs, degraded padding).
        now: Start of the run on the caller's clock; every unit's first
            launch is due then.
    """

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        policy: ResiliencePolicy,
        n_bins: int,
        now: float,
    ) -> None:
        self.coordinator = coordinator
        self.policy = policy
        self.n_bins = n_bins
        self.start = now
        self.units = {
            unit: ShardHealth(shard_id=unit, status="restarting", due=now)
            for unit in coordinator.shard_ids
        }
        #: record counts from ``close`` messages, keyed by worker shard
        self.shard_records: dict[int, int] = {}
        self.done = False

    @property
    def restarts(self) -> int:
        """Worker restarts performed so far, over every unit."""
        return sum(record.restarts for record in self.units.values())

    @property
    def degraded(self) -> bool:
        """Whether the run goes on (or ended) without a failed unit."""
        return self.policy.degrade and any(
            record.status == "failed" for record in self.units.values()
        )

    def timeout(self, now: float) -> float:
        """How long the runner may wait for messages before the next tick."""
        timeout = 1.0
        due = [r.due for r in self.units.values() if r.status == "restarting"]
        if due:
            timeout = min(timeout, max(0.001, min(due) - now))
        if self.policy.bin_deadline_s is not None:
            timeout = min(timeout, max(0.01, self.policy.bin_deadline_s / 4))
        if self.policy.run_deadline_s is not None:
            remaining = self.policy.run_deadline_s - (now - self.start)
            timeout = min(timeout, max(0.001, remaining))
        return timeout

    def step(self, now: float, event: tuple) -> list[tuple]:
        """Apply one event at time ``now``; returns the commands to run."""
        kind = event[0]
        if kind == "tick":
            return self._tick(now)
        record = self.units.get(event[1])
        # eof / frame_error come from the link, not the worker, and carry
        # no attempt: a superseded attempt's link is discarded first.
        if record is None or record.status != "running" or (
            kind not in ("eof", "frame_error") and event[2] != record.attempts - 1
        ):
            return []  # straggler from a terminated attempt, or no such unit
        record.last_seen = now
        if kind == "summary":
            return self._summary(record, event[3], event[4], now)
        if kind == "close":
            return self._close(record, *event[3:])
        if kind == "frame_error":
            tel.count("resilience.corrupt_summaries")
        return self._fault(record, _FAULTS[kind].format(event[-1]), now)

    # -- transitions -----------------------------------------------------

    def _summary(self, record, payload, heartbeat, now) -> list[tuple]:
        unit = record.shard_id
        tel.count("cluster.bytes_shipped", len(payload))
        tel.count(f"cluster.link{unit}.bytes", len(payload))
        try:
            with tel.span("stage.merge"):
                verdicts = self.coordinator.add_serialized(unit, payload)
        except SummaryCorruptError as exc:
            tel.count("resilience.corrupt_summaries")
            return self._fault(record, f"corrupt summary payload: {exc}", now)
        if tel.enabled():
            tel.gauge_max("cluster.straggler_lag_bins",
                          self.coordinator.straggler_lag)
            tel.gauge_max("cluster.pending_bins", self.coordinator.n_pending_bins)
            if heartbeat:
                tel.gauge_max(f"cluster.shard{unit}.rss_bytes",
                              heartbeat.get("rss_bytes", 0))
        return _emit(verdicts)

    def _close(self, record, n_records, late_records, snapshot) -> list[tuple]:
        unit = record.shard_id
        record.status = "closed"
        self.shard_records[unit] = n_records
        record.n_records = n_records
        self.coordinator.record_late(late_records)
        with tel.span("stage.merge"):
            verdicts = self.coordinator.close_shard(unit)
        session = tel.active()
        if session is not None:
            session.add_shard(unit, snapshot)
        return _emit(verdicts)

    def _fault(self, record, reason: str, now: float) -> list[tuple]:
        tel.count("resilience.faults")
        record.record_fault(reason)
        commands = [("discard", record.shard_id)]
        if record.restarts >= self.policy.max_retries:
            tel.count("resilience.retries_exhausted")
            return commands + self._fail(record)
        tel.count("resilience.restarts")
        record.attempts += 1
        record.status = "restarting"
        record.due = now + self.policy.backoff(record.restarts)
        self.coordinator.reopen_shard(record.shard_id)
        return commands

    def _fail(self, record) -> list[tuple]:
        record.status = "failed"
        if not self.policy.degrade:
            return []  # held open at the coordinator until the drain ends
        unit = record.shard_id
        record.gap_bins = list(range(self.coordinator.resume_bin(unit), self.n_bins))
        return _emit(self.coordinator.close_shard(unit))

    def _tick(self, now: float) -> list[tuple]:
        commands: list[tuple] = []
        deadline = self.policy.bin_deadline_s
        if deadline is not None:
            # Remote TCP shards too: a worker that never connects or
            # silently dies misses the deadline like a stalled one.
            for record in self._in("running"):
                if now - record.last_seen > deadline:
                    commands += self._fault(
                        record, f"no summary within the bin deadline ({deadline:.1f}s)",
                        now,
                    )
        live = self._in("running", "restarting")
        lost = [] if self.policy.degrade else self._in("failed")
        expired = (
            self.policy.run_deadline_s is not None
            and now - self.start > self.policy.run_deadline_s
        )
        if lost:
            resume = self.coordinator.resume_bin
            first = min(lost, key=lambda r: (resume(r.shard_id), r.shard_id))
            if not live or expired or self.coordinator.next_bin >= resume(first.shard_id):
                self.done = True
                return commands + [("raise", RuntimeError(
                    f"shard {first.shard_id} failed after {first.attempts} "
                    f"attempt(s): {first.faults[-1]}"
                ))]
        if live and expired:
            if not self.policy.degrade:
                self.done = True
                return commands + [("raise", RuntimeError(
                    f"cluster run exceeded its deadline "
                    f"({self.policy.run_deadline_s:.1f}s) with shards "
                    f"{[r.shard_id for r in live]} unfinished"
                ))]
            for record in live:
                record.record_fault("run deadline exceeded")
                commands.append(("discard", record.shard_id))
                commands += self._fail(record)
            live = []
        if not live:
            self.done = True
            if self.degraded:
                # If every unit ended early, no delivery is left to push
                # the tail bins through the coordinator's gap path.
                commands += _emit(self.coordinator.pad_to(self.n_bins))
            return commands
        for record in live:
            if record.status == "restarting" and now >= record.due:
                record.status = "running"
                record.last_seen = now
                unit = record.shard_id
                commands.append(("spawn", unit, record.attempts - 1,
                                 self.coordinator.resume_bin(unit)))
        return commands

    def _in(self, *states: str) -> list[ShardHealth]:
        return [r for r in self.units.values() if r.status in states]
