"""Sliding-window feature stage: records -> per-bin entropy matrices.

The batch pipeline materialises exact per-value histograms for every
(OD flow, bin) before computing entropy
(:class:`repro.flows.odflows.ODFlowAggregator`).  At line rate that
state is the bottleneck, so this stage swaps the histograms for
:class:`repro.flows.sketches.CountMinSketch` summaries — entropy
estimated from compact summaries in place of exact counts, following
the sketch line of the paper's related work (Krishnamurthy et
al. [22]).  The stage keeps one grouped store per feature for its
whole lifetime — a :class:`repro.flows.sketches.SketchBank` holding
every OD's sketch in one array, updated for a whole chunk in one
batched pass via the grouped-reduction kernel (:mod:`repro.kernels`)
and reset, not reallocated, when a bin closes — plus each OD's capped
candidate values, held as the kernel's own sorted int64 runs.  On bin
close it emits the ``(p, 4)`` entropy matrix and volume rows the
detection engine consumes.

Memory is ``depth x width x p x 8 B`` per feature — one value-major
``(depth, width, p)`` counter array indexed by OD id, 64 KiB per
(OD, feature) at the default 2048 x 4 geometry: 7.6 MiB on Abilene's
121 ODs, 30 MiB for the four features — allocated once per stage,
plus 8 B per tracked candidate value and per counter written in the
open bin — regardless of trace length.  ``exact=True`` switches to
exact histograms (same interface): chunk columns are stashed per
feature and reduced once at bin close — one sort + ``reduceat`` +
grouped-entropy pass for all ODs, used by small deployments and the
streaming-vs-batch equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry as tel
from repro.flows.binning import BIN_SECONDS
from repro.flows.features import N_FEATURES, FEATURES
from repro.flows.records import FlowRecordBatch
from repro.flows.sketches import SketchBank, entropy_from_sketch_runs
from repro.kernels import GroupedRuns, group_reduce, group_sums
from repro.net.routing import Router
from repro.net.topology import Topology

__all__ = ["BinSummary", "BinAccumulator", "StreamFeatureStage"]

#: Cap on tracked candidate values per (OD, feature); matches a router's
#: bounded tracked-key table.  Values beyond the cap still enter the
#: sketch totals and are absorbed by the uniform-tail correction.
MAX_CANDIDATES = 4096


@dataclass
class BinSummary:
    """One closed bin, ready for the detection engine.

    Attributes:
        bin: Global bin index (from record timestamps).
        entropy: ``(p, 4)`` estimated sample entropies, feature order
            :data:`repro.flows.features.FEATURES`.
        packets: ``(p,)`` packet counts.
        bytes: ``(p,)`` byte counts.
        n_records: Records aggregated into this bin.
    """

    bin: int
    entropy: np.ndarray
    packets: np.ndarray
    bytes: np.ndarray
    n_records: int = 0


def _check_ods(ods: np.ndarray, p: int) -> None:
    """Refuse OD ids outside ``[0, p)``, naming the first one: numpy
    would wrap a negative id onto OD ``p + id`` and fail on ``p``."""
    if len(ods) and (ods.min() < 0 or ods.max() >= p):
        bad = ods[(ods < 0) | (ods >= p)][0]
        raise ValueError(f"OD id {int(bad)} outside [0, {p})")


def _no_runs() -> GroupedRuns:
    empty = np.zeros(0, dtype=np.int64)
    return GroupedRuns(empty, np.zeros(1, dtype=np.int64), empty, empty)


class BinAccumulator:
    """Aggregates one bin's records into per-OD feature summaries.

    One *per-bin grouped store* replaces the per-OD objects the first
    implementation kept: exact mode stashes each chunk's (ods, values,
    weights) columns and reduces them with the grouped-reduction kernel
    on bin close (one sort + ``reduceat`` + grouped entropy per
    feature); sketch mode drives a :class:`SketchBank` per feature —
    every chunk's runs update all active ODs' sketches in one batched
    conservative-update pass — and keeps candidate values as kernel
    runs.  No code path loops over ODs, per chunk or at bin close;
    :meth:`reset` readies the same storage for the next bin.
    """

    def __init__(
        self,
        n_od_flows: int,
        width: int = 2048,
        depth: int = 4,
        seed: int = 0,
        exact: bool = False,
    ) -> None:
        self.n_od_flows = n_od_flows
        self.width = width
        self.depth = depth
        self.seed = seed
        self.exact = exact
        if not exact:
            self._banks = [
                SketchBank(n_od_flows, width=width, depth=depth, seed=seed)
                for _ in range(N_FEATURES)
            ]
        self.reset()

    def reset(self) -> None:
        """Empty the accumulator for the next bin.  The sketch banks'
        counter arrays are kept (allocated once, cleared in place)."""
        if self.exact:
            #: per feature: list of (ods, values, weights) column triples
            self._parts: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = [
                [] for _ in range(N_FEATURES)
            ]
        else:
            for bank in self._banks:
                bank.reset()
            #: per feature: every OD's sorted distinct candidate values
            #: (capped) as kernel runs; the runs' counts are not used
            self._candidates = [_no_runs()] * N_FEATURES
            #: ``(N_FEATURES, p)`` candidates tracked per (feature, OD)
            self._distinct = np.zeros((N_FEATURES, self.n_od_flows), dtype=np.int64)
        self._packets = np.zeros(self.n_od_flows, dtype=np.int64)
        self._bytes = np.zeros(self.n_od_flows, dtype=np.int64)
        self.n_records = 0

    def _add_feature(self, k: int, ods: np.ndarray, values: np.ndarray,
                     weights: np.ndarray) -> None:
        if self.exact:
            self._parts[k].append((ods, values, weights))
            return
        runs = group_reduce(ods, values, weights)
        self._banks[k].update(runs.group_ids, runs.starts, runs.values, runs.counts)
        # An OD tracking fewer values than the cap takes all of the
        # chunk's (check-then-insert, so it may end above the cap).  A
        # bin's first chunk is its own candidate store — the kernel's
        # runs are already sorted and distinct per OD; later chunks
        # merge into it through one more grouped reduction.
        eligible = self._distinct[k, runs.group_ids] < MAX_CANDIDATES
        held = self._candidates[k]
        if len(held) or not eligible.all():
            keep = np.repeat(eligible, runs.lengths())
            runs = group_reduce(
                np.concatenate([np.repeat(held.group_ids, held.lengths()),
                                np.repeat(runs.group_ids, runs.lengths())[keep]]),
                np.concatenate([held.values, runs.values[keep]]),
            )
        self._candidates[k] = runs
        self._distinct[k, runs.group_ids] = runs.lengths()

    def add_batch(self, ods: np.ndarray, batch: FlowRecordBatch) -> None:
        """Add a record batch whose rows are already attributed to ODs
        (ids in ``[0, p)``; ``ValueError`` before any state changes)."""
        ods = np.asarray(ods, dtype=np.int64)
        if len(ods) != len(batch):
            raise ValueError("ods must align with the batch")
        if len(batch) == 0:
            return
        _check_ods(ods, self.n_od_flows)
        for k, name in enumerate(FEATURES):
            self._add_feature(k, ods, getattr(batch, name), batch.packets)
        self._packets += group_sums(ods, batch.packets, self.n_od_flows)
        self._bytes += group_sums(ods, batch.bytes, self.n_od_flows)
        self.n_records += len(batch)

    def feature_runs(self, k: int) -> GroupedRuns:
        """Exact mode: feature ``k``'s accumulated (od, value, count)
        runs in canonical sorted form — per OD, values ascending and
        counts grouped."""
        if not self.exact:
            raise ValueError("feature_runs() requires exact mode")
        parts = self._parts[k]
        if not parts:
            return _no_runs()
        if len(parts) == 1:
            ods, values, weights = parts[0]
        else:
            ods = np.concatenate([p[0] for p in parts])
            values = np.concatenate([p[1] for p in parts])
            weights = np.concatenate([p[2] for p in parts])
        return group_reduce(ods, values, weights)

    def sketch_state(self):
        """Sketch mode: ``(banks, candidates)`` — the four per-feature
        :class:`SketchBank` objects and the four per-feature
        candidate-value runs (``runs.group(od)[0]`` is an OD's sorted
        candidates).  Both are reused by the next bin, so the caller
        must copy what it keeps."""
        if self.exact:
            raise ValueError("sketch_state() requires sketch mode")
        return self._banks, self._candidates

    def finalize(self, bin_index: int) -> BinSummary:
        """Emit the bin's entropy matrix and volume rows."""
        entropy = np.zeros((self.n_od_flows, N_FEATURES))
        if self.exact:
            for k in range(N_FEATURES):
                runs = self.feature_runs(k)
                entropy[runs.group_ids, k] = runs.entropies()
        else:
            # One batched bank query per feature covers every OD's
            # candidate values at once; one vectorized estimator pass
            # then covers all four features' (OD) groups.  The estimator
            # works group by group, so this is bit for bit four passes.
            cands = self._candidates
            queried = [
                bank.query_runs(runs.group_ids, runs.starts, runs.values)
                for bank, runs in zip(self._banks, cands)
            ]
            offsets = np.cumsum([0] + [len(runs.values) for runs in cands])
            starts = np.concatenate(
                [[0]] + [runs.starts[1:] + off for runs, off in zip(cands, offsets)]
            )
            ods = np.concatenate([runs.group_ids for runs in cands])
            features = np.repeat(np.arange(N_FEATURES), [runs.n_groups for runs in cands])
            entropy[ods, features] = entropy_from_sketch_runs(
                np.concatenate([estimates for estimates, _ in queried]),
                np.concatenate([totals for _, totals in queried]),
                starts,
            )
        return BinSummary(
            bin=bin_index,
            entropy=entropy,
            packets=self._packets.astype(np.float64),
            bytes=self._bytes.astype(np.float64),
            n_records=self.n_records,
        )


@dataclass
class StreamFeatureStage:
    """Rolls time-ordered record chunks into successive bin summaries.

    Records are attributed to OD flows exactly like the batch
    aggregator — ingress PoP plus longest-prefix egress resolution via
    :class:`repro.net.routing.Router`, with the topology's collector
    anonymisation applied before histogramming — so the streaming and
    batch paths compute the same features from the same records.

    Attributes:
        topology: The backbone (defines p, routing, anonymisation).
        bin_width: Bin width in seconds (paper: 300).
        start: Trace epoch; bin ``i`` covers ``[start + i*width, ...)``.
        width / depth / sketch_seed: Count-Min sketch geometry.
        exact: Use exact histograms instead of sketches.
        apply_anonymization: Apply the topology's address anonymisation
            (the realistic collector default).
    """

    topology: Topology
    bin_width: float = BIN_SECONDS
    start: float = 0.0
    width: int = 2048
    depth: int = 4
    sketch_seed: int = 0
    exact: bool = False
    apply_anonymization: bool = True
    router: Router | None = None
    _current: BinAccumulator = field(init=False, repr=False)
    _current_bin: int | None = field(default=None, repr=False)
    late_records: int = 0

    def __post_init__(self) -> None:
        if self.router is None:
            self.router = Router(self.topology)
        # One accumulator for the stage's lifetime, reset at every bin
        # close: sketch mode allocates its counter arrays once.
        self._current = BinAccumulator(
            self.topology.n_od_flows,
            width=self.width,
            depth=self.depth,
            seed=self.sketch_seed,
            exact=self.exact,
        )

    def ingest(
        self, batch: FlowRecordBatch, ods: np.ndarray | None = None
    ) -> list[BinSummary]:
        """Feed one chunk; returns summaries of any bins it closed.

        Chunks must arrive in (roughly) time order: records for bins
        before the currently open one are counted in ``late_records``
        and dropped, mirroring a collector's export-window discard.
        Gaps in the bin sequence yield empty summaries so downstream
        detectors see every bin exactly once.

        Args:
            batch: The record chunk.
            ods: Optional per-record OD attribution aligned with the
                batch.  Callers that already resolved ODs (a cluster
                worker slicing a shared trace) pass them here to skip
                the stage's own longest-prefix pass; by default the
                stage resolves the whole chunk via its router.

        Raises:
            ValueError: an OD id outside ``[0, p)`` (a bad ingress PoP,
                or bad ``ods``) or a destination address outside
                ``[0, 2**32)``, before any bin closes or any state
                changes.
        """
        closed: list[BinSummary] = []
        if len(batch) == 0:
            return closed
        if ods is not None:
            ods = np.asarray(ods, dtype=np.int64)
            if len(ods) != len(batch):
                raise ValueError("ods must align with the batch")
        with tel.span("stage.reduce"):
            if ods is None:
                ods = self.router.resolve_ods_mixed(batch.ingress_pop, batch.dst_ip)
            # Checked before any bin closes, so a bad id loses nothing.
            _check_ods(ods, self.topology.n_od_flows)
            idx = np.floor((batch.timestamp - self.start) / self.bin_width).astype(np.int64)
            if idx.size > 1 and np.any(idx[1:] < idx[:-1]):
                order = np.argsort(idx, kind="stable")
                idx = idx[order]
                batch = batch.select(order)
                ods = ods[order]
            if self.apply_anonymization and self.topology.anonymization_bits:
                batch = batch.anonymized(self.topology.anonymization_bits)
            # ``idx`` is non-decreasing: each bin is one row range.
            n = len(idx)
            cuts = [0, *(np.flatnonzero(idx[1:] != idx[:-1]) + 1).tolist(), n]
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                b = int(idx[lo])
                if self._current_bin is not None and b < self._current_bin:
                    self.late_records += hi - lo
                    continue
                if self._current_bin is None:
                    self._current_bin = b
                while b > self._current_bin:
                    closed.append(self._close())
                self._current.add_batch(ods[lo:hi], batch.select(slice(lo, hi)))
            tel.count("reduce.records", n)
        return closed

    def _finalize(self, accumulator: BinAccumulator, bin_index: int):
        """Build the emitted summary for one closed bin.

        Override point: the default emits a ready-to-score
        :class:`BinSummary`; a shard monitor wraps the same rows into
        the row block it ships (:mod:`repro.cluster.summary`).
        """
        return accumulator.finalize(bin_index)

    def _close(self):
        with tel.span("stage.reduce.close"):
            summary = self._finalize(self._current, self._current_bin)
        tel.count("reduce.bins_closed")
        self._current_bin += 1
        self._current.reset()
        return summary

    def flush(self) -> list[BinSummary]:
        """Close the open bin (end of stream)."""
        if self._current_bin is None or not self._current.n_records:
            return []
        with tel.span("stage.reduce.close"):
            summary = self._finalize(self._current, self._current_bin)
        tel.count("reduce.bins_closed")
        self._current.reset()
        self._current_bin = None
        return [summary]
