"""Central merge point: align shard summaries by bin, merge, diagnose.

The :class:`ClusterCoordinator` is the "central point" of the paper's
network-wide diagnosis applied to the sharded deployment: shards push
per-bin :class:`ShardBinSummary` objects (in bin order, as their local
streams advance), the coordinator holds each bin open until every
still-open shard has advanced past it, then folds the shards together
with the summary algebra and drives
:meth:`repro.stream.engine.StreamingDetectionEngine.observe_summary` —
so the cluster's output is the same stream of
:class:`repro.stream.engine.StreamDetection` verdicts (and ultimately
the same ``DiagnosisReport``) a single-process engine produces.

Alignment rules:

* each shard's summaries must arrive in increasing bin order (shard
  monitors emit contiguous bins, gaps included);
* bin ``b`` is merged once every open shard has delivered a summary
  with bin >= ``b`` or closed — shards whose streams start late simply
  contribute nothing to earlier bins;
* bins no shard observed (a global gap) are scored as empty summaries,
  matching what a single feature stage would emit for a quiet bin.

Supervision hooks (used by the cluster runner's shard supervisor):

* :meth:`ClusterCoordinator.reopen_shard` marks a shard as restarted —
  its replacement worker may legitimately re-deliver bins the old
  attempt already shipped, so duplicates from reopened shards are
  silently dropped instead of violating the bin-order contract (the
  merge is canonical, so the dropped duplicate is byte-identical to
  the retained copy in exact mode);
* :meth:`ClusterCoordinator.resume_bin` is the first bin a restarted
  worker must recompute — everything earlier is merged or already held
  pending from the previous attempt;
* :meth:`ClusterCoordinator.preload` replays checkpointed merged bins
  through the engine on ``--resume``, advancing the merge frontier
  without any worker involvement;
* :attr:`ClusterCoordinator.on_bin_merged` fires with every closed
  bin's merged summary (``None`` for global gaps) — the checkpoint
  writer's append point.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro import telemetry as tel
from repro.cluster.summary import ShardBinSummary, merge_summaries
from repro.flows.features import N_FEATURES
from repro.stream.engine import StreamDetection, StreamingDetectionEngine, StreamingReport
from repro.stream.window import BinSummary

__all__ = ["ClusterCoordinator"]


class ClusterCoordinator:
    """Merges shard summaries bin-by-bin into a streaming diagnosis.

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
        shard_ids = [int(s) for s in shard_ids]
        if not shard_ids:
            raise ValueError("coordinator needs at least one shard")
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError("shard ids must be unique")
        self.engine = engine
        self.shard_ids = shard_ids
        self._open = set(shard_ids)
        self._highwater: dict[int, int] = {}
        self._pending: dict[int, dict[int, ShardBinSummary]] = {}
        self._next_bin: int | None = None
        self._n_records = 0
        self._late_records = 0
        #: bin -> perf_counter of its first summary's arrival; the gap
        #: to its merge is the bin's wait-for-stragglers latency.
        self._first_arrival: dict[int, float] = {}
        #: shards restarted at least once: duplicate deliveries from
        #: these are dropped (canonical merge makes that lossless)
        #: rather than treated as protocol violations.
        self._reopened: set[int] = set()
        #: invoked with (bin, merged summary | None-for-gap) as each
        #: bin closes — the checkpoint writer's append point.  Attach
        #: AFTER preload(), or replayed bins would be re-appended.
        self.on_bin_merged: Callable[[int, ShardBinSummary | None], None] | None = None

    @property
    def next_bin(self) -> int:
        """The merge frontier: every bin below it is merged and scored."""
        return 0 if self._next_bin is None else self._next_bin

    @property
    def n_pending_bins(self) -> int:
        """Bins buffered waiting for lagging shards (back-pressure gauge)."""
        return len(self._pending)

    @property
    def straggler_lag(self) -> int:
        """Bin spread between the fastest and slowest open shard."""
        marks = [self._highwater[s] for s in self._open if s in self._highwater]
        if len(marks) < 2:
            return 0
        return max(marks) - min(marks)

    def add_summary(
        self, shard_id: int, summary: ShardBinSummary
    ) -> list[StreamDetection]:
        """Accept one shard's summary; returns verdicts of bins it freed."""
        if shard_id not in self._open:
            raise ValueError(f"shard {shard_id} is unknown or already closed")
        expected_p = self.engine.topology.n_od_flows
        if summary.n_od_flows != expected_p:
            raise ValueError(
                f"shard {shard_id} summary covers {summary.n_od_flows} OD flows, "
                f"engine topology has {expected_p} (topology mismatch?)"
            )
        last = self._highwater.get(shard_id)
        if last is not None and summary.bin <= last:
            if shard_id in self._reopened:
                # A restarted worker recomputing a bin its predecessor
                # already shipped: the copies are byte-identical (exact
                # mode) or estimator-equivalent (sketch), so keep the
                # first and drop this one.
                return []
            raise ValueError(
                f"shard {shard_id} summaries must arrive in bin order "
                f"(got bin {summary.bin} after {last})"
            )
        if self._next_bin is not None and summary.bin < self._next_bin:
            if shard_id in self._reopened:
                return []
            raise ValueError(
                f"shard {shard_id} delivered bin {summary.bin}, already merged "
                f"(coordinator is at bin {self._next_bin})"
            )
        self._highwater[shard_id] = summary.bin
        if summary.bin not in self._pending:
            self._first_arrival[summary.bin] = time.perf_counter()
        self._pending.setdefault(summary.bin, {})[shard_id] = summary
        return self._drain()

    def add_serialized(self, shard_id: int, payload: bytes) -> list[StreamDetection]:
        """Accept one wire-format summary (see :meth:`ShardBinSummary.to_bytes`)."""
        return self.add_summary(shard_id, ShardBinSummary.from_bytes(payload))

    def record_late(self, n_records: int) -> None:
        """Account records a shard discarded as late (report bookkeeping)."""
        self._late_records += int(n_records)

    def close_shard(self, shard_id: int) -> list[StreamDetection]:
        """Mark a shard's stream ended; may release bins it was holding."""
        if shard_id not in self._open:
            raise ValueError(f"shard {shard_id} is unknown or already closed")
        self._open.discard(shard_id)
        return self._drain()

    # -- supervision hooks -------------------------------------------------

    def reopen_shard(self, shard_id: int) -> None:
        """Mark a shard as restarted: duplicate deliveries become drops.

        The shard must still be open (a closed shard finished cleanly
        and has nothing to restart).  Its high-water mark is kept — the
        replacement worker resumes *past* it (see :meth:`resume_bin`),
        and anything at or below it that arrives anyway (stale queue
        messages, recomputed bins) is deduped.
        """
        if shard_id not in self._open:
            raise ValueError(f"shard {shard_id} is unknown or already closed")
        self._reopened.add(shard_id)

    def resume_bin(self, shard_id: int) -> int:
        """First bin a restarted worker for this shard must recompute.

        Everything below the shard's high-water mark was delivered by
        the previous attempt (and is merged or held pending); anything
        below the merge frontier is already scored.
        """
        resume = self._highwater.get(shard_id, -1) + 1
        if self._next_bin is not None:
            resume = max(resume, self._next_bin)
        return resume

    def preload(self, bin_index: int, payload: bytes | None) -> None:
        """Replay one checkpointed merged bin (``None`` = global gap).

        Drives the engine exactly as :meth:`_drain` would have — the
        merge is deterministic, so the replayed diagnosis is identical
        to the original run's.  Must be called with contiguous bins
        starting at the frontier, before any shard delivers.
        """
        if bin_index != self.next_bin:
            raise ValueError(
                f"preload must replay contiguous bins (expected bin "
                f"{self.next_bin}, got {bin_index})"
            )
        if self._pending or self._highwater:
            raise ValueError("preload must run before any shard delivers")
        if payload is None:
            p = self.engine.topology.n_od_flows
            merged_bin = BinSummary(
                bin=bin_index,
                entropy=np.zeros((p, N_FEATURES)),
                packets=np.zeros(p),
                bytes=np.zeros(p),
                n_records=0,
            )
        else:
            merged = ShardBinSummary.from_bytes(payload)
            if merged.bin != bin_index:
                raise ValueError(
                    f"checkpoint payload for bin {bin_index} describes "
                    f"bin {merged.bin}"
                )
            self._n_records += merged.n_records
            merged_bin = merged.to_bin_summary()
        self.engine.observe_summary(merged_bin)
        self._next_bin = bin_index + 1

    def _drain(self) -> list[StreamDetection]:
        verdicts: list[StreamDetection] = []
        while self._pending:
            target = self._next_bin
            if target is None:
                target = min(self._pending)
            if any(self._highwater.get(s, target - 1) < target for s in self._open):
                break
            group = self._pending.pop(target, None)
            merged: ShardBinSummary | None = None
            if group is None:
                # A global gap: no shard observed this bin.  Score it as
                # the empty summary a quiet single-process stage emits.
                p = self.engine.topology.n_od_flows
                merged_bin = BinSummary(
                    bin=target,
                    entropy=np.zeros((p, N_FEATURES)),
                    packets=np.zeros(p),
                    bytes=np.zeros(p),
                    n_records=0,
                )
            else:
                merged = merge_summaries(group.values())
                self._n_records += merged.n_records
                merged_bin = merged.to_bin_summary()
            if self.on_bin_merged is not None:
                self.on_bin_merged(target, merged)
            arrived = self._first_arrival.pop(target, None)
            if arrived is not None:
                # Merge latency: how long the bin sat buffered between
                # its first shard's summary and being merged/scored.
                tel.record("cluster.bin_wait", time.perf_counter() - arrived)
            verdict = self.engine.observe_summary(merged_bin)
            if verdict is not None:
                verdicts.append(verdict)
            self._next_bin = target + 1
        return verdicts

    def pad_to(self, n_bins: int) -> list[StreamDetection]:
        """Synthesize empty bins up to ``n_bins`` (degraded completion).

        When every shard has failed before the end of the run, the
        remaining bins have no deliveries to trigger the gap path in
        :meth:`_drain`; a degrading supervisor calls this so the report
        still covers the full grid, with the missing tail scored as
        gaps.  All shards must be closed first.
        """
        if self._open:
            raise RuntimeError("pad_to requires all shards closed")
        verdicts: list[StreamDetection] = []
        p = self.engine.topology.n_od_flows
        target = self.next_bin
        while target < n_bins:
            merged_bin = BinSummary(
                bin=target,
                entropy=np.zeros((p, N_FEATURES)),
                packets=np.zeros(p),
                bytes=np.zeros(p),
                n_records=0,
            )
            if self.on_bin_merged is not None:
                self.on_bin_merged(target, None)
            verdict = self.engine.observe_summary(merged_bin)
            if verdict is not None:
                verdicts.append(verdict)
            target += 1
            self._next_bin = target
        return verdicts

    def finish(self) -> StreamingReport:
        """Drain everything and return the cluster-wide report.

        All shards must be closed first (a shard still open could yet
        contribute to a buffered bin).
        """
        if self._open:
            raise RuntimeError(
                f"cannot finish with open shards: {sorted(self._open)}"
            )
        assert not self._pending  # close_shard drains once all are closed
        report = self.engine.finish()
        report.n_records = self._n_records
        report.late_records += self._late_records
        return report
