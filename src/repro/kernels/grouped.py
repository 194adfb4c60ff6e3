"""Vectorized grouped-reduction kernel: the measurement pipeline's core.

Every entropy time series in the paper (Section 4) is built from
(group, feature value) -> packet count histograms, where a *group* is
an OD flow or a (bin, OD flow) pair.  Doing that grouping with
per-group Python loops (mask + copy per OD, ``Counter`` per histogram)
dominates the hot path at realistic record rates, so this module
reduces whole record batches with array primitives instead:

1. one sort brings rows with equal ``(group, value)`` together.  Those
   rows are *summed*, and integer sums commute, so the order of rows
   sharing a key is unobservable and the sort need not be stable.  The
   kernel therefore sorts keys, not indices, whenever the input's
   observed bit widths allow — three tiers, chosen per call from
   ``width(x) = bit_length(x.max())``:

   * ``width(g) + width(v) + width(w) <= 63`` — pack
     ``((group << vb | value) << wb) | weight`` into one int64 and sort
     it in place (a value sort: no index array, no gathers); runs are
     found on ``key >> wb`` and group and value are unpacked at the run
     starts only;
   * only ``width(g) + width(v) <= 63`` (byte-sized weights) — one
     ``argsort`` of the packed ``(group, value)`` key, then gathers;
   * otherwise (negative or oversized ids/values) — ``np.lexsort``;

2. run boundaries fall out of one comparison pass over the sorted rows
   and ``np.add.reduceat`` sums the weights per run;
3. per-group Shannon entropies come from the sorted count runs in one
   vectorized pass (no per-group calls into :func:`sample_entropy`).

The result — :class:`GroupedRuns`, a CSR-style bundle of sorted
``(group, value, count)`` runs — is the canonical representation the
flows and stream layers exchange: within each group the values are
ascending and counts positive, the canonical histogram form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry as tel

__all__ = [
    "GroupedRuns",
    "group_reduce",
    "grouped_entropy",
    "group_sums",
    "merge_histograms",
    "segment_sums",
    "sort_order",
]


def _width(x: np.ndarray) -> int:
    """Bits needed to hold every element of int64 ``x`` as an unsigned.

    Negative elements read as >= 2**63 through the uint64 view, so one
    scan both measures the range and keeps negatives out of every
    packing budget.
    """
    return int(x.view(np.uint64).max()).bit_length() if x.size else 0


def _sort_pairs(keys: np.ndarray, payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, payload)`` rows sorted by key; tie order unspecified.

    When key and payload together fit 63 bits the payload rides in the
    low bits of one int64 and the rows are value-sorted in place;
    otherwise one ``argsort`` of the keys and two gathers.
    """
    pb = _width(payload)
    if _width(keys) + pb <= 63:
        packed = keys << pb
        packed |= payload
        packed.sort()
        return packed >> pb, packed & ((1 << pb) - 1)
    order = np.argsort(keys)
    return keys[order], payload[order]


def _sorted_rows(
    groups: np.ndarray, values: np.ndarray, payload: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(groups, values, payload)`` rows sorted by (group, value).

    The order of rows sharing a (group, value) key is unspecified —
    every caller either sums them or gives them one run id.
    """
    vb = _width(values)
    if _width(groups) + vb <= 63:
        key = groups << vb
        key |= values
        key, payload = _sort_pairs(key, payload)
        return key >> vb, key & ((1 << vb) - 1), payload
    order = np.lexsort((values, groups))
    return groups[order], values[order], payload[order]


def sort_order(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A row order that sorts by (group, value), as an index array.

    Rows with equal ``(group, value)`` come out in unspecified order:
    the kernel sums them and the trace store gives them one run id, so
    tie order is unobservable downstream — which is why the per-record
    run indices the trace store derives from this order let
    precomputed-column replay reproduce the kernel's canonical run
    layout bit for bit.
    """
    groups = np.asarray(groups, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    return _sorted_rows(groups, values, np.arange(len(groups), dtype=np.int64))[2]


@dataclass(frozen=True)
class GroupedRuns:
    """Sorted (group, value, count) runs in CSR layout.

    Attributes:
        group_ids: ``(G,)`` distinct group ids, ascending; only groups
            with at least one positive-weight observation appear.
        starts: ``(G + 1,)`` offsets: group ``i`` owns
            ``values[starts[i]:starts[i+1]]`` (and the same count
            slice).
        values: ``(M,)`` feature values, ascending within each group.
        counts: ``(M,)`` summed weights per (group, value), all > 0.
    """

    group_ids: np.ndarray
    starts: np.ndarray
    values: np.ndarray
    counts: np.ndarray

    @property
    def n_groups(self) -> int:
        """Number of non-empty groups G."""
        return len(self.group_ids)

    def __len__(self) -> int:
        return len(self.values)

    def slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """``(values, counts)`` of the i-th group (views, not copies)."""
        lo, hi = self.starts[i], self.starts[i + 1]
        return self.values[lo:hi], self.counts[lo:hi]

    def group(self, group_id: int) -> tuple[np.ndarray, np.ndarray]:
        """``(values, counts)`` of a group by id (empty when absent)."""
        i = int(np.searchsorted(self.group_ids, group_id))
        if i == self.n_groups or self.group_ids[i] != group_id:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        return self.slice(i)

    def lengths(self) -> np.ndarray:
        """``(G,)`` number of distinct values per group."""
        return np.diff(self.starts)

    def totals(self) -> np.ndarray:
        """``(G,)`` total weight per group (int64, exact)."""
        if len(self.values) == 0:
            return np.zeros(0, dtype=np.int64)
        return np.add.reduceat(self.counts, self.starts[:-1])

    def entropies(self) -> np.ndarray:
        """``(G,)`` per-group sample entropies in one vectorized pass."""
        return grouped_entropy(self.counts, self.starts)


def _group_runs(run_groups: np.ndarray, run_values: np.ndarray,
                counts: np.ndarray) -> GroupedRuns:
    """CSR bundle of the sorted runs' (group, value, count) columns."""
    new_group = np.empty(len(run_groups), dtype=bool)
    new_group[0] = True
    np.not_equal(run_groups[1:], run_groups[:-1], out=new_group[1:])
    group_starts = np.flatnonzero(new_group)
    starts = np.append(group_starts, len(run_values)).astype(np.int64)
    return GroupedRuns(run_groups[group_starts], starts, run_values, counts)


def _reduce_sorted(g: np.ndarray, v: np.ndarray, w: np.ndarray) -> GroupedRuns:
    """Sum the weights of each (group, value) run of non-empty sorted rows."""
    new_run = np.empty(len(g), dtype=bool)
    new_run[0] = True
    np.logical_or(g[1:] != g[:-1], v[1:] != v[:-1], out=new_run[1:])
    run_starts = np.flatnonzero(new_run)
    return _group_runs(g[run_starts], v[run_starts], np.add.reduceat(w, run_starts))


def _reduce_packed(key: np.ndarray, vb: int, wb: int) -> GroupedRuns:
    """Runs of a sorted packed ``((group << vb | value) << wb) | weight``
    column: one comparison of ``key >> wb`` finds the run boundaries,
    the weights are summed per run, and only the M run starts are
    split back into group and value."""
    gv = key >> wb
    new_run = np.empty(len(gv), dtype=bool)
    new_run[0] = True
    np.not_equal(gv[1:], gv[:-1], out=new_run[1:])
    run_starts = np.flatnonzero(new_run)
    key &= (1 << wb) - 1
    counts = np.add.reduceat(key, run_starts)
    gv = gv[run_starts]
    return _group_runs(gv >> vb, gv & ((1 << vb) - 1), counts)


def group_reduce(
    groups: np.ndarray,
    values: np.ndarray,
    weights: np.ndarray | None = None,
) -> GroupedRuns:
    """Reduce (group, value, weight) triples into :class:`GroupedRuns`.

    Args:
        groups: ``(n,)`` integer group ids (need not be sorted).
        values: ``(n,)`` integer feature values, aligned with groups.
        weights: ``(n,)`` non-negative integer weights; defaults to 1
            per row (pure occurrence counting).  Zero-weight rows are
            dropped — they are not part of the empirical histogram,
            matching :meth:`FeatureHistogram.add`.

    Returns:
        The canonical sorted-run representation; counts are exact int64
        sums of the weights per distinct (group, value).  Row order
        never matters: rows sharing a (group, value) key are summed.
    """
    groups = np.asarray(groups, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    if groups.shape != values.shape or groups.ndim != 1:
        raise ValueError("groups and values must be aligned 1-D arrays")
    if weights is None:
        weights = np.ones(len(groups), dtype=np.int64)
    else:
        weights = np.asarray(weights, dtype=np.int64)
        if weights.shape != groups.shape:
            raise ValueError("weights must align with groups")
        min_weight = weights.min() if weights.size else 1
        if min_weight < 0:
            raise ValueError("weights must be non-negative")
        if min_weight == 0:
            keep = weights > 0
            groups, values, weights = groups[keep], values[keep], weights[keep]
    if len(groups) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return GroupedRuns(empty, np.zeros(1, dtype=np.int64), empty, empty)

    vb, wb = _width(values), _width(weights)
    if _width(groups) + vb + wb <= 63:
        with tel.span("kernel.sort"):
            key = groups << vb
            key |= values
            key <<= wb
            key |= weights
            key.sort()
        with tel.span("kernel.reduceat"):
            return _reduce_packed(key, vb, wb)
    with tel.span("kernel.sort"):
        rows = _sorted_rows(groups, values, weights)
    with tel.span("kernel.reduceat"):
        return _reduce_sorted(*rows)


def grouped_entropy(counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment sample entropy (bits) over a CSR count layout.

    ``counts[starts[i]:starts[i+1]]`` is segment ``i``'s histogram; the
    return value has one entropy per segment.  Empty segments and
    zero-count entries yield/contribute 0, matching
    :func:`repro.core.entropy.sample_entropy` conventions — and the
    per-element arithmetic (p = n/S, p*log2 p) is identical to the
    scalar routine's, so results agree to within summation-order
    rounding (~1 ulp).
    """
    counts = np.asarray(counts, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    n_segments = len(starts) - 1
    if n_segments == 0 or len(counts) == 0:
        return np.zeros(n_segments)
    lengths = np.diff(starts)
    with tel.span("kernel.entropy"):
        if lengths.min() > 0 and counts.min() > 0:
            # Every run of GroupedRuns: no empty segment, no zero count,
            # so no guard below can fire — same arithmetic, unguarded.
            seg_starts = starts[:-1]
            p = counts / np.repeat(np.add.reduceat(counts, seg_starts), lengths)
            return -np.add.reduceat(p * np.log2(p), seg_starts)
        out = np.zeros(n_segments)
        nonempty = lengths > 0
        if not nonempty.any():
            return out
        # reduceat over the non-empty segment starts only: consecutive
        # selected starts delimit exactly one segment each (empty
        # segments occupy zero width between them).
        seg_starts = starts[:-1][nonempty]
        totals = np.add.reduceat(counts, seg_starts)
        per_element_total = np.repeat(totals, lengths[nonempty])
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(per_element_total > 0, counts / per_element_total, 0.0)
            terms = p * np.log2(p, out=np.zeros_like(p), where=p > 0)
        entropies = -np.add.reduceat(terms, seg_starts)
        # Segments whose total is 0 (all-zero counts) have entropy 0.
        entropies[totals == 0] = 0.0
        out[nonempty] = entropies
    return out


def segment_sums(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment float sums over a CSR layout.

    ``x[starts[i]:starts[i+1]]`` is segment ``i``; empty segments sum
    to 0 (plain ``np.add.reduceat`` mis-handles them).
    """
    x = np.asarray(x, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    n_segments = len(starts) - 1
    out = np.zeros(n_segments)
    if n_segments == 0 or len(x) == 0:
        return out
    lengths = np.diff(starts)
    nonempty = lengths > 0
    if not nonempty.any():
        return out
    out[nonempty] = np.add.reduceat(x, starts[:-1][nonempty])
    return out


def group_sums(groups: np.ndarray, weights: np.ndarray, n_groups: int) -> np.ndarray:
    """Dense ``(n_groups,)`` int64 sum of weights per group id.

    ``np.bincount`` accumulates in float64, which is exact for totals
    below 2**53 — far above any per-bin packet/byte count this pipeline
    produces — so the cast back to int64 is lossless.
    """
    groups = np.asarray(groups, dtype=np.int64)
    weights = np.asarray(weights)
    sums = np.bincount(groups, weights=weights, minlength=n_groups)
    return sums.astype(np.int64)


def merge_histograms(
    values_a: np.ndarray,
    counts_a: np.ndarray,
    values_b: np.ndarray,
    counts_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two canonical histograms into one (values sorted, counts
    summed) — same result as
    :func:`repro.flows.sketches.canonical_histogram` over the
    concatenation, via one sort + reduceat instead of unique + add.at.
    """
    values = np.concatenate([np.asarray(values_a, dtype=np.int64),
                             np.asarray(values_b, dtype=np.int64)])
    counts = np.concatenate([np.asarray(counts_a, dtype=np.int64),
                             np.asarray(counts_b, dtype=np.int64)])
    if len(values) == 0:
        return values, counts
    v, w = _sort_pairs(values, counts)
    new_run = np.empty(len(v), dtype=bool)
    new_run[0] = True
    np.not_equal(v[1:], v[:-1], out=new_run[1:])
    run_starts = np.flatnonzero(new_run)
    return v[run_starts], np.add.reduceat(w, run_starts)
