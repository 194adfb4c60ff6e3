"""Deterministic chaos harness for the cluster path.

A :class:`FaultPlan` is a list of :class:`Fault` entries, each pinned to
a (shard, bin, attempt) coordinate, so a chaos run is *reproducible*:
the same plan against the same :class:`~repro.pipeline.sources.SourceSpec`
kills the same worker at the same bin every time.  Plans are built
either explicitly (``kill:shard=1,bin=9``) or from a seed
(``seeded:seed=7,kind=kill``), in which case the coordinates are drawn
from a dedicated ``SeedSequence`` stream — independent of the traffic
seeds, so chaos never perturbs the workload itself.

Fault kinds, all injected at the worker's summary-ship hook (the only
place a worker talks to the coordinator):

* ``kill`` — the worker process dies hard (``os._exit``) *before*
  shipping the bin, as if the machine lost power mid-bin.
* ``stall`` — the worker sleeps ``secs`` before shipping, simulating a
  straggler; with a ``bin_deadline_s`` policy the supervisor restarts it.
* ``corrupt`` — the summary payload is bit-flipped in transit; the
  coordinator's wire CRC rejects it and the supervisor retries the
  shard instead of merging garbage.
* ``exit-after-close`` — the worker exits with a non-zero code *after*
  its ``close`` message is queued, reproducing the liveness race where
  a dead-but-finished worker must not be misreported as a crash.

``attempts`` bounds how many worker attempts a fault fires on (default
1: fire on the first attempt only, so the restarted shard succeeds).
:func:`truncate_tail` is the trace-side fault, used by tests and the CI
chaos-smoke job against the columnar trace store.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["Fault", "FaultPlan", "corrupt_payload", "truncate_tail"]

FAULT_KINDS = ("kill", "stall", "corrupt", "exit-after-close")

#: Domain-separation constant for the chaos RNG stream (never mixes
#: with traffic seeds, which derive from SourceSpec.seed).
_CHAOS_DOMAIN = 0x5EED


@dataclass(frozen=True)
class Fault:
    """One injected fault, pinned to a (shard, bin, attempt) coordinate.

    Attributes:
        kind: One of ``kill | stall | corrupt | exit-after-close``.
        shard: Target shard id.
        bin: Bin index at whose ship-point the fault fires
            (ignored for ``exit-after-close``, which fires at close).
        secs: Sleep length for ``stall``.
        attempts: Fire while the worker's attempt number is below this
            (1 = first attempt only, so a restart succeeds; larger
            values exhaust retries deterministically).
    """

    kind: str
    shard: int
    bin: int = -1
    secs: float = 0.0
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.shard < 0:
            raise ValueError("fault shard must be >= 0")
        if self.attempts < 1:
            raise ValueError("fault attempts must be >= 1")
        if self.kind == "stall" and self.secs <= 0:
            raise ValueError("stall fault needs secs > 0")

    def fires(self, shard: int, bin_index: int, attempt: int) -> bool:
        """Whether this fault fires at the given ship coordinate."""
        return (
            self.kind != "exit-after-close"
            and shard == self.shard
            and bin_index == self.bin
            and attempt < self.attempts
        )

    def fires_at_close(self, shard: int, attempt: int) -> bool:
        """Whether this fault fires at the worker's close point."""
        return (
            self.kind == "exit-after-close"
            and shard == self.shard
            and attempt < self.attempts
        )


@dataclass(frozen=True)
class _SeededEntry:
    """A fault whose coordinates are drawn at resolve() time."""

    seed: int
    kind: str = "kill"
    count: int = 1
    attempts: int = 1
    secs: float = 0.5


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible set of faults for one cluster run.

    Built from a ``--chaos`` spec string: semicolon-separated entries,
    each ``kind:key=value,key=value``::

        kill:shard=1,bin=9
        stall:shard=0,bin=4,secs=2
        corrupt:shard=2,bin=5,attempts=3
        exit-after-close:shard=1
        seeded:seed=7,kind=kill,count=2

    ``seeded`` entries expand into concrete faults only once the run's
    geometry is known, via :meth:`resolve`.
    """

    faults: tuple[Fault, ...] = ()
    seeded: tuple[_SeededEntry, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``--chaos`` spec string into a plan."""
        faults: list[Fault] = []
        seeded: list[_SeededEntry] = []
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            kind, _, rest = entry.partition(":")
            kind = kind.strip()
            kwargs: dict[str, str] = {}
            if rest.strip():
                for pair in rest.split(","):
                    key, sep, value = pair.partition("=")
                    if not sep:
                        raise ValueError(
                            f"bad chaos entry {entry!r}: expected key=value, "
                            f"got {pair!r}"
                        )
                    kwargs[key.strip()] = value.strip()
            try:
                if kind == "seeded":
                    seeded.append(
                        _SeededEntry(
                            seed=int(kwargs.pop("seed")),
                            kind=kwargs.pop("kind", "kill"),
                            count=int(kwargs.pop("count", 1)),
                            attempts=int(kwargs.pop("attempts", 1)),
                            secs=float(kwargs.pop("secs", 0.5)),
                        )
                    )
                else:
                    faults.append(
                        Fault(
                            kind=kind,
                            shard=int(kwargs.pop("shard")),
                            bin=int(kwargs.pop("bin", -1)),
                            secs=float(kwargs.pop("secs", 0.0)),
                            attempts=int(kwargs.pop("attempts", 1)),
                        )
                    )
            except KeyError as exc:
                raise ValueError(
                    f"chaos entry {entry!r} is missing required key {exc}"
                ) from None
            if kwargs:
                raise ValueError(
                    f"chaos entry {entry!r} has unknown keys {sorted(kwargs)}"
                )
        if not faults and not seeded:
            raise ValueError(f"chaos spec {spec!r} contains no faults")
        return cls(faults=tuple(faults), seeded=tuple(seeded))

    def resolve(self, n_shards: int, n_bins: int) -> "FaultPlan":
        """Expand seeded entries into concrete faults for this geometry.

        The draw uses a dedicated SeedSequence stream so the same spec
        and geometry always produce the same faults, and the traffic
        RNG is untouched.  Bins are drawn from the middle 80% of the
        run so a fault never lands trivially at the very first or very
        last bin.  An explicit fault aimed at a shard the run does not
        have is a ``ValueError``.
        """
        for fault in self.faults:
            if fault.shard >= n_shards:
                raise ValueError(
                    f"chaos fault targets shard {fault.shard}, "
                    f"but the run has only {n_shards} shard(s)"
                )
        if not self.seeded:
            return self
        faults = list(self.faults)
        for entry in self.seeded:
            rng = np.random.default_rng(
                np.random.SeedSequence([_CHAOS_DOMAIN, entry.seed])
            )
            lo = max(1, n_bins // 10)
            hi = max(lo + 1, n_bins - n_bins // 10)
            for _ in range(entry.count):
                faults.append(
                    Fault(
                        kind=entry.kind,
                        shard=int(rng.integers(0, n_shards)),
                        bin=int(rng.integers(lo, hi)),
                        secs=entry.secs if entry.kind == "stall" else 0.0,
                        attempts=entry.attempts,
                    )
                )
        return replace(self, faults=tuple(faults), seeded=())

    def fault_for(self, shard: int, bin_index: int, attempt: int) -> Fault | None:
        """First fault firing at this ship coordinate, if any."""
        for fault in self.faults:
            if fault.fires(shard, bin_index, attempt):
                return fault
        return None

    def close_fault(self, shard: int, attempt: int) -> Fault | None:
        """Fault firing at this shard's close point, if any."""
        for fault in self.faults:
            if fault.fires_at_close(shard, attempt):
                return fault
        return None


def corrupt_payload(payload: bytes) -> bytes:
    """Flip one bit in the middle of a wire payload.

    The midpoint of any ShardBinSummary payload is well inside the
    CRC-covered body (past the 8-byte magic + CRC prefix), so the
    coordinator's checksum is guaranteed to catch the damage.
    """
    if not payload:
        return payload
    out = bytearray(payload)
    out[len(out) // 2] ^= 0x40
    return bytes(out)


def truncate_tail(path: str, n_bytes: int) -> int:
    """Chop ``n_bytes`` off the end of a file; returns the new size.

    The trace-store fault: simulates a capture cut off mid-write, for
    exercising ``TraceReader(allow_partial=True)`` recovery.
    """
    import os

    size = os.path.getsize(path)
    new_size = max(0, size - int(n_bytes))
    os.truncate(path, new_size)
    return new_size
