"""Central merge point: align shard row blocks by bin, scatter, diagnose.

The :class:`ClusterCoordinator` is the "central point" of the paper's
network-wide diagnosis applied to the sharded deployment: shards push
per-bin :class:`ShardBinSummary` row blocks (in bin order, as their
local streams advance), the coordinator holds each bin open until every
still-open shard has advanced past it, then scatters the bin's blocks
into one :class:`~repro.stream.window.BinSummary`
(:func:`~repro.cluster.summary.merge_summaries`, which also refuses a
block carrying an OD its shard does not own) and drives
:meth:`repro.stream.engine.StreamingDetectionEngine.observe_summary` —
so the cluster's output is the same stream of
:class:`repro.stream.engine.StreamDetection` verdicts (and ultimately
the same ``DiagnosisReport``) a single-process engine produces.

Alignment rules (:class:`BinAligner`, their one copy):

* each shard's blocks must arrive in increasing bin order (shard
  monitors emit contiguous bins, gaps included), one per bin;
* bin ``b`` is merged once every open shard has delivered a block
  with bin >= ``b`` or closed — shards whose streams start late simply
  contribute nothing to earlier bins;
* bins no shard observed (a global gap) are scored as empty blocks,
  matching what a single feature stage would emit for a quiet bin.

Supervision hooks serve the runner's supervisor and checkpoint:
:meth:`~ClusterCoordinator.reopen_shard` (a restarted shard's
re-deliveries become drops — its blocks are deterministic, so nothing
is lost), :meth:`~ClusterCoordinator.resume_bin` (where its replacement
starts), :meth:`~ClusterCoordinator.preload` (replay checkpointed bins
on ``--resume``) and :attr:`~ClusterCoordinator.on_bin_merged` (every
closed bin's merged block, ``None`` for a gap: the spill point).
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from repro import telemetry as tel
from repro.cluster.summary import ShardBinSummary, merge_summaries
from repro.stream.engine import StreamDetection, StreamingDetectionEngine, StreamingReport

__all__ = ["BinAligner", "ClusterCoordinator"]


class BinAligner:
    """The cluster's bin-alignment rule, free of any engine or transport.

    Units (shards ``0..K-1``) :meth:`add` row blocks, each unit in
    increasing bin order.  Bin ``b`` is released once every still-open
    unit has delivered a bin >= ``b`` or closed; releases come in bin
    order from the frontier, as ``(bin, merged block)``, or ``(bin,
    None)`` for a bin no unit delivered (a global gap).  A block signed
    by another shard, or a bin re-delivered at or below a unit's
    high-water mark or below the frontier, is a protocol violation
    (``ValueError``) — unless the unit was :meth:`reopen`-ed: its
    replacement legitimately recomputes bins, and those copies are
    dropped (byte-identical to the kept one in exact mode).
    """

    def __init__(self, unit_ids) -> None:
        units = [int(u) for u in unit_ids]
        if not units:
            raise ValueError("bin alignment needs at least one shard")
        if len(set(units)) != len(units):
            raise ValueError("shard ids must be unique")
        self.units = units
        self.open = set(units)
        self.reopened: set[int] = set()
        #: unit -> highest bin it delivered
        self.highwater: dict[int, int] = {}
        #: bin -> its blocks so far, held until every open unit passes it
        self.pending: dict[int, list[ShardBinSummary]] = {}
        #: next bin to release; None until the first release
        self.frontier: int | None = None

    def _check_open(self, unit: int) -> None:
        if unit not in self.open:
            raise ValueError(f"shard {unit} is unknown or already closed")

    def add(self, unit: int, summary: ShardBinSummary) -> list:
        """Hold one unit's block; return the ``(bin, merged | None)``
        it released (a reopened unit's duplicate is dropped: ``[]``)."""
        self._check_open(unit)
        bin_index = summary.bin
        last = self.highwater.get(unit)
        if last is not None and bin_index <= last:
            if unit in self.reopened:
                return []
            raise ValueError(
                f"shard {unit} summaries must arrive in bin order "
                f"(got bin {bin_index} after {last})"
            )
        if self.frontier is not None and bin_index < self.frontier:
            if unit in self.reopened:
                return []
            raise ValueError(
                f"shard {unit} delivered bin {bin_index}, already merged "
                f"(frontier is at bin {self.frontier})"
            )
        if summary.shard != unit:
            raise ValueError(
                f"shard {unit} delivered a block signed by shard {summary.shard}"
            )
        self.highwater[unit] = bin_index
        self.pending.setdefault(bin_index, []).append(summary)
        return self._release()

    def close(self, unit: int) -> list:
        """Mark a unit's stream ended; return the bins it was gating."""
        self._check_open(unit)
        self.open.discard(unit)
        return self._release()

    def reopen(self, unit: int) -> None:
        """Mark an open unit as restarted: its duplicates become drops."""
        self._check_open(unit)
        self.reopened.add(unit)

    def _release(self) -> list:
        released = []
        while self.pending:
            target = min(self.pending) if self.frontier is None else self.frontier
            if any(self.highwater.get(u, target - 1) < target for u in self.open):
                break
            group = self.pending.pop(target, None)
            released.append((
                target,
                None if group is None else merge_summaries(group, len(self.units)),
            ))
            self.frontier = target + 1
        return released


class ClusterCoordinator:
    """Scatters shard row blocks bin-by-bin into a streaming diagnosis.

    Usage::

        engine = StreamingDetectionEngine(topology, config)
        coordinator = ClusterCoordinator(engine, shard_ids=range(4))
        for shard_id, payload in transport:          # any arrival order
            for verdict in coordinator.add_serialized(shard_id, payload):
                ...
        report = coordinator.finish()                # all shards closed
    """

    def __init__(
        self, engine: StreamingDetectionEngine, shard_ids: Sequence[int]
    ) -> None:
        self._aligner = BinAligner(shard_ids)
        self.engine = engine
        self.shard_ids = self._aligner.units
        self._n_records = 0
        self._late_records = 0
        #: bin -> perf_counter of its first block's arrival; the gap
        #: to its merge is the bin's wait-for-stragglers latency.
        self._first_arrival: dict[int, float] = {}
        #: invoked with (bin, merged block | None-for-gap) as each
        #: bin closes — the checkpoint writer's append point.  Attach
        #: AFTER preload(), or replayed bins would be re-appended.
        self.on_bin_merged: Callable[[int, ShardBinSummary | None], None] | None = None

    @property
    def next_bin(self) -> int:
        """The merge frontier: every bin below it is merged and scored."""
        return self._aligner.frontier or 0

    @property
    def n_pending_bins(self) -> int:
        """Bins buffered waiting for lagging shards (back-pressure gauge)."""
        return len(self._aligner.pending)

    @property
    def straggler_lag(self) -> int:
        """Bin spread between the fastest and slowest open shard."""
        aligner = self._aligner
        marks = [aligner.highwater[s] for s in aligner.open if s in aligner.highwater]
        return max(marks) - min(marks) if marks else 0

    def add_summary(
        self, shard_id: int, summary: ShardBinSummary
    ) -> list[StreamDetection]:
        """Accept one shard's row block; returns verdicts of bins it freed."""
        expected_p = self.engine.topology.n_od_flows
        if summary.n_od_flows != expected_p:
            raise ValueError(
                f"shard {shard_id} summary covers {summary.n_od_flows} OD flows, "
                f"engine topology has {expected_p} (topology mismatch?)"
            )
        if summary.bin >= self.next_bin and summary.bin not in self._aligner.pending:
            self._first_arrival[summary.bin] = time.perf_counter()
        return self._score(self._aligner.add(shard_id, summary))

    def add_serialized(self, shard_id: int, payload: bytes) -> list[StreamDetection]:
        """Accept one wire-format block (see :meth:`ShardBinSummary.to_bytes`)."""
        return self.add_summary(shard_id, ShardBinSummary.from_bytes(payload))

    def record_late(self, n_records: int) -> None:
        """Account records a shard discarded as late (report bookkeeping)."""
        self._late_records += int(n_records)

    def close_shard(self, shard_id: int) -> list[StreamDetection]:
        """Mark a shard's stream ended; may release bins it was holding."""
        return self._score(self._aligner.close(shard_id))

    # -- supervision hooks -------------------------------------------------

    def reopen_shard(self, shard_id: int) -> None:
        """Mark a shard as restarted: duplicate deliveries become drops.

        The shard must still be open.  Its high-water mark is kept: the
        replacement resumes past it (:meth:`resume_bin`), and anything
        at or below it that arrives anyway is deduped.
        """
        self._aligner.reopen(shard_id)

    def resume_bin(self, shard_id: int) -> int:
        """First bin a restarted worker for this shard must recompute.

        Everything below the shard's high-water mark was delivered by
        the previous attempt (and is merged or held pending); anything
        below the merge frontier is already scored.
        """
        return max(self._aligner.highwater.get(shard_id, -1) + 1, self.next_bin)

    def preload(self, bin_index: int, payload: bytes | None) -> None:
        """Replay one checkpointed merged bin (``None`` = global gap).

        Drives the engine exactly as a live merge would have — the
        merged rows are deterministic, so the replayed diagnosis is
        identical to the original run's.  Must be called with contiguous
        bins — from the checkpoint's first, which is the original run's
        first merged bin — before any shard delivers.
        """
        frontier = self._aligner.frontier
        if frontier is not None and bin_index != frontier:
            raise ValueError(
                f"preload must replay contiguous bins (expected bin "
                f"{frontier}, got {bin_index})"
            )
        if self._aligner.pending or self._aligner.highwater:
            raise ValueError("preload must run before any shard delivers")
        merged = None if payload is None else ShardBinSummary.from_bytes(payload)
        if merged is not None and merged.bin != bin_index:
            raise ValueError(
                f"checkpoint payload for bin {bin_index} describes bin {merged.bin}"
            )
        self._observe(bin_index, merged)
        self._aligner.frontier = bin_index + 1

    def _observe(self, bin_index: int, merged: ShardBinSummary | None):
        """Spill and score one closed bin's merged block.

        ``None`` is a global gap (no shard observed the bin): it is
        scored as an empty block, which renders exactly as the empty
        bin a quiet single-process stage emits.
        """
        if self.on_bin_merged is not None:
            self.on_bin_merged(bin_index, merged)
        if merged is None:
            merged = ShardBinSummary(bin_index, self.engine.topology.n_od_flows)
        self._n_records += merged.n_records
        return self.engine.observe_summary(merged.to_bin_summary())

    def _score(self, released) -> list[StreamDetection]:
        """Spill and score the bins the aligner released."""
        verdicts: list[StreamDetection] = []
        for target, merged in released:
            arrived = self._first_arrival.pop(target, None)
            if arrived is not None:
                # Merge latency: how long the bin sat buffered between
                # its first shard's block and being merged/scored.
                tel.record("cluster.bin_wait", time.perf_counter() - arrived)
            verdict = self._observe(target, merged)
            if verdict is not None:
                verdicts.append(verdict)
        return verdicts

    def pad_to(self, n_bins: int) -> list[StreamDetection]:
        """Synthesize empty bins up to ``n_bins`` (degraded completion).

        When every shard has failed before the end of the run, the
        remaining bins have no deliveries to trigger the gap path;
        a degrading supervisor calls this so the report still covers
        the full grid, with the missing tail scored as gaps.  All
        shards must be closed first.
        """
        if self._aligner.open:
            raise RuntimeError("pad_to requires all shards closed")
        released = [(b, None) for b in range(self.next_bin, n_bins)]
        if released:
            self._aligner.frontier = n_bins
        return self._score(released)

    def finish(self) -> StreamingReport:
        """Drain everything and return the cluster-wide report.

        All shards must be closed first (a shard still open could yet
        contribute to a buffered bin).
        """
        if self._aligner.open:
            raise RuntimeError(
                f"cannot finish with open shards: {sorted(self._aligner.open)}"
            )
        assert not self._aligner.pending  # the last close released them all
        report = self.engine.finish()
        report.n_records = self._n_records
        report.late_records += self._late_records
        return report
