"""Supervision policy and per-shard health state.

:class:`ResiliencePolicy` is the one knob bundle the cluster's shard
supervisor reads: how many times a failed shard may be restarted,
how the restart delay grows, how long a shard may go without delivering
a bin before it is declared stalled, how long the whole run may take,
and what happens when a shard is out of retries — ``strict`` (raise,
the pre-supervision behaviour) or ``degrade`` (complete the run without
the shard and flag the report).

:class:`ShardHealth` is one unit's whole state in the pure
:class:`repro.cluster.supervisor.Supervisor`::

    (start)
       │
       ▼          tick at due: spawn
   restarting ─────────────────────────▶ running ──close──▶ closed
       ▲   │                              │   │
       │   │ run deadline (degrade)       │   │ fault, no retries left,
       │   ▼                              │   │ or run deadline (degrade)
       │ failed ◀─────────────────────────┼───┘
       │   (degrade: remaining bins       │
       │    become gaps; strict: the run  │
       │    raises once survivors drain)  │
       └────── fault, retries left ───────┘

Its :meth:`ShardHealth.to_meta` rendering lands in the report's
provenance ``meta["shard_health"]`` so a degraded run documents exactly
which shard died, how often it was restarted, and which bins are gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ResiliencePolicy", "ShardHealth"]

#: Terminal + transient states a shard moves through under supervision.
SHARD_STATES = ("running", "restarting", "closed", "failed")


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the cluster shard supervisor.

    Attributes:
        max_retries: Restarts allowed per shard before it is declared
            failed (0 disables restarts; worker death then follows
            ``on_exhaustion`` immediately).
        backoff_s: Delay before the first restart, seconds.
        backoff_factor: Multiplier applied per subsequent restart
            (exponential backoff).
        backoff_max_s: Ceiling on any single restart delay.
        bin_deadline_s: Straggler deadline — a shard that delivers no
            message for this long (while its worker is alive) is
            treated as stalled and restarted.  None disables.
        run_deadline_s: Whole-run deadline; on expiry the run either
            degrades (remaining shards closed, their missing bins
            becoming gaps) or raises, per ``on_exhaustion``.  None
            disables.
        on_exhaustion: ``"strict"`` raises ``RuntimeError`` when a
            shard is out of retries (or the run deadline expires);
            ``"degrade"`` completes the run without the shard and flags
            the report ``degraded=True``.
    """

    max_retries: int = 2
    backoff_s: float = 0.1
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    bin_deadline_s: float | None = None
    run_deadline_s: float | None = None
    on_exhaustion: str = "strict"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_s < 0 or self.backoff_factor < 1 or self.backoff_max_s < 0:
            raise ValueError("backoff knobs must be non-negative (factor >= 1)")
        for name in ("bin_deadline_s", "run_deadline_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive (or None to disable)")
        if self.on_exhaustion not in ("strict", "degrade"):
            raise ValueError(
                f"on_exhaustion must be 'strict' or 'degrade', "
                f"not {self.on_exhaustion!r}"
            )

    def backoff(self, restarts: int) -> float:
        """Delay before restart number ``restarts`` (1-based), seconds."""
        if restarts <= 0:
            return 0.0
        return min(
            self.backoff_s * self.backoff_factor ** (restarts - 1),
            self.backoff_max_s,
        )

    @property
    def degrade(self) -> bool:
        """Whether exhaustion degrades instead of raising."""
        return self.on_exhaustion == "degrade"


@dataclass
class ShardHealth:
    """One shard's supervision record (rendered into report meta).

    Attributes:
        shard_id: The shard.
        status: One of ``running | restarting | closed | failed``
            (``restarting``: waiting for its next launch at ``due``).
        attempts: Worker launches so far, the pending one included
            (1 = never restarted).
        faults: Human-readable fault descriptions, in order.
        gap_bins: Bins this shard never contributed to a merge (only
            populated when the shard fails under a degrade policy).
        n_records: Records the shard's last completed attempt reported.
        due: Supervisor clock time the pending launch is due.
        last_seen: Supervisor clock time of the last launch or message
            (the bin deadline counts from it).
    """

    shard_id: int
    status: str = "running"
    attempts: int = 1
    faults: list[str] = field(default_factory=list)
    gap_bins: list[int] = field(default_factory=list)
    n_records: int = 0
    due: float = 0.0
    last_seen: float = 0.0

    @property
    def restarts(self) -> int:
        """Restarts performed: every launch after the first."""
        return self.attempts - 1

    def record_fault(self, reason: str) -> None:
        self.faults.append(str(reason))

    def to_meta(self) -> dict:
        """JSON-safe rendering for report provenance ``meta``."""
        out = {
            "status": self.status,
            "attempts": int(self.attempts),
            "restarts": int(self.restarts),
        }
        if self.faults:
            out["faults"] = list(self.faults)
        if self.gap_bins:
            # Compact contiguous runs: [first, last] inclusive pairs.
            out["gap_bins"] = _runs(self.gap_bins)
        return out


def _runs(bins: list[int]) -> list[list[int]]:
    """Compress a sorted bin list into inclusive [first, last] runs."""
    runs: list[list[int]] = []
    for b in sorted(int(b) for b in bins):
        if runs and b == runs[-1][1] + 1:
            runs[-1][1] = b
        else:
            runs.append([b, b])
    return runs
