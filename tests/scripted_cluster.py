"""Scripted cluster runs: the live runner with its I/O replaced by scripts.

``run_cluster_source`` is I/O glue around a pure
:class:`repro.cluster.supervisor.Supervisor`.  This module keeps
everything else the live run uses — :class:`ShardMonitor` reductions,
``RBS4`` wire payloads, the runner's command loop, the
:class:`ClusterCoordinator` and the engine — and swaps the two I/O
pieces for test doubles (:class:`ScriptedLink`):

* **workers** become event scripts: on ``spawn(unit, attempt,
  resume_bin)`` a unit's precomputed payloads from ``resume_bin`` on
  turn into the worker links' message tuples, one every ``STEP_S``
  seconds, with the unit's faults applied the way the live worker
  (or its link) would apply them;
* **the clock** is a number: a poll that finds no message advances it
  by the supervisor's own ``timeout(now)`` (or to the next message).

So a run takes milliseconds, with no process, socket or sleep, and the
same fault at the same position replays the same way every time.
``choose`` picks which ready worker's message arrives next: the hook
the hypothesis interleaving cases drive.
"""

from dataclasses import dataclass, field

from repro.cluster import ClusterCoordinator, ShardMonitor
from repro.cluster.runner import _supervise
from repro.cluster.supervisor import Supervisor
from repro.resilience import ResiliencePolicy, corrupt_payload
from repro.stream import StreamingDetectionEngine

#: seconds between two messages of one worker
STEP_S = 0.01
#: a script still running at this clock reading has hung
HORIZON_S = 1000.0


@dataclass(frozen=True)
class ShardStream:
    """What one shard's worker would ship: ``(bin, payload)`` in bin
    order, then its close counts."""

    payloads: tuple[tuple[int, bytes], ...]
    n_records: int
    late_records: int


@dataclass(frozen=True)
class ScriptFault:
    """A fault a script can inject; field-compatible with
    :class:`repro.resilience.chaos.Fault`, whose kinds it adds to:
    ``error`` (the worker raises at ``bin``) and ``frame_error`` (the
    TCP link delivers garbage at ``bin`` and is dropped)."""

    kind: str
    shard: int
    bin: int = -1
    secs: float = 0.0
    attempts: int = 1


@dataclass
class Outcome:
    """One scripted run: the report (None when the run raised), the
    error it raised, every emitted verdict, and every spawn as
    ``(time, unit, attempt, resume_bin)``."""

    report: object
    error: Exception | None
    supervisor: Supervisor
    verdicts: list = field(default_factory=list)
    spawns: list = field(default_factory=list)

    @property
    def health(self) -> dict:
        """``meta["shard_health"]`` as the live runner renders it."""
        return {str(u): r.to_meta() for u, r in self.supervisor.units.items()}


def shard_streams(source, n_shards, config) -> list[ShardStream]:
    """Each shard's wire payloads, reduced in-process by the shard
    monitors a live worker would run over ``source``'s OD split."""
    streams = []
    for shard in range(n_shards):
        monitor = ShardMonitor(
            source.topology,
            bin_width=source.spec.bin_width,
            start=source.spec.bin_start,
            width=config.sketch_width,
            depth=config.sketch_depth,
            sketch_seed=config.sketch_seed,
            exact=config.exact_histograms,
            shard_id=shard,
        )
        summaries, n_records = [], 0
        for chunk, ods in source.shard_batches(
            shard, n_shards, router=monitor.router,
            chunk_records=config.chunk_records,
        ):
            n_records += len(chunk)
            summaries += monitor.ingest(chunk, ods=ods)
        summaries += monitor.flush()
        streams.append(ShardStream(
            tuple((s.bin, s.to_bytes()) for s in summaries),
            n_records,
            monitor.late_records,
        ))
    return streams


def _fires(fault, unit, bin_index, attempt) -> bool:
    return (fault.kind != "exit-after-close" and fault.shard == unit
            and fault.bin == bin_index and attempt < fault.attempts)


def worker_script(stream, unit, attempt, resume_bin, faults, now):
    """``[(arrival time, message)]`` of one launched worker attempt."""
    events, t = [], now
    for bin_index, payload in stream.payloads:
        if bin_index < resume_bin:
            continue  # recomputed, never shipped
        t += STEP_S
        fault = next((f for f in faults if _fires(f, unit, bin_index, attempt)), None)
        kind = fault.kind if fault is not None else None
        if kind == "kill":
            return events + [(t, ("eof", unit, 137))]
        if kind == "error":
            return events + [(t, ("error", unit, attempt, "RuntimeError('scripted')")),
                             (t, ("eof", unit, 0))]
        if kind == "frame_error":
            return events + [(t, ("frame_error", unit, "scripted garbage"))]
        if kind == "stall":
            t += fault.secs
        if kind == "corrupt":
            payload = corrupt_payload(payload)
        events.append((t, ("summary", unit, attempt, payload, None)))
    t += STEP_S
    events.append((t, ("close", unit, attempt, stream.n_records,
                       stream.late_records, None)))
    exit_code = 3 if any(
        f.kind == "exit-after-close" and f.shard == unit and attempt < f.attempts
        for f in faults
    ) else 0
    return events + [(t, ("eof", unit, exit_code))]


class ScriptedLink:
    """The worker links' stand-in: a launched attempt becomes its
    :func:`worker_script`, and a poll advances the fake clock ``now``.

    A poll returns one message, from the unit ``choose`` picks among
    those with one ready — waiting until the next arrival if none is —
    or nothing once ``timeout`` passes first.
    """

    def __init__(self, streams, faults=(), choose=min):
        self.streams = streams
        self.faults = faults
        self.choose = choose
        self.now = 0.0
        #: every launch as ``(time, unit, attempt, resume_bin)``
        self.spawns: list = []
        self._scripts: dict[int, list] = {}

    def launch(self, spawn) -> None:
        unit, attempt, resume_bin = spawn
        self.spawns.append((self.now, *spawn))
        self._scripts[unit] = worker_script(
            self.streams[unit], unit, attempt, resume_bin, self.faults, self.now
        )

    def discard(self, unit) -> None:
        self._scripts.pop(unit, None)

    def poll(self, timeout) -> list[tuple]:
        assert self.now < HORIZON_S, "scripted run hung"
        if not self._ready():
            arrival = min((s[0][0] for s in self._scripts.values()),
                          default=float("inf"))
            if arrival > self.now + timeout:
                self.now += timeout
                return []
            self.now = arrival
        unit = self.choose(self._ready())
        _, message = self._scripts[unit].pop(0)
        if not self._scripts[unit]:
            del self._scripts[unit]  # the link is gone after its last message
        return [message]

    def _ready(self) -> list[int]:
        return sorted(u for u, s in self._scripts.items() if s[0][0] <= self.now)


def drive(source, config, streams, policy=None, faults=(), choose=min,
          on_bin_merged=None, preload=()) -> Outcome:
    """One scripted cluster run over precomputed ``streams``, through
    the live runner's own command loop.

    Args:
        source: Supplies the topology and bin grid (its records are
            already in ``streams``).
        config: Engine config.
        streams: :func:`shard_streams` output, one per unit.
        policy: Supervision policy (default :class:`ResiliencePolicy`).
        faults: Chaos ``Fault`` / :class:`ScriptFault` entries.
        choose: Picks the unit whose message arrives next from the
            sorted list of units with one ready.
        on_bin_merged: The coordinator's spill hook (checkpoint order).
        preload: ``(bin, payload)`` pairs replayed before any spawn, as
            ``--resume`` replays a checkpoint.
    """
    engine = StreamingDetectionEngine(
        source.topology, config,
        bin_width=source.spec.bin_width, start=source.spec.bin_start,
    )
    coordinator = ClusterCoordinator(engine, shard_ids=range(len(streams)))
    for bin_index, payload in preload:
        coordinator.preload(bin_index, payload)
    coordinator.on_bin_merged = on_bin_merged
    link = ScriptedLink(streams, faults, choose)
    supervisor = Supervisor(
        coordinator, policy or ResiliencePolicy(), source.spec.n_bins, link.now
    )
    outcome = Outcome(report=None, error=None, supervisor=supervisor,
                      spawns=link.spawns)
    try:
        _supervise(supervisor, link, lambda *spawn: spawn, lambda: link.now,
                   outcome.verdicts.append)
    except RuntimeError as exc:
        outcome.error = exc
    else:
        outcome.report = coordinator.finish()
    return outcome
