"""Mergeable per-bin shard summaries (the cluster's unit of exchange).

Section 8 of the paper poses distributed deployment as the open systems
problem: monitors at each PoP observe feature histograms locally and a
central point mines anomalies network-wide.  The object that makes this
work is a *mergeable summary* — each shard reduces its slice of one
time bin's records into a :class:`ShardBinSummary` and ships it.  The
algebra is :func:`merge_summaries`: one pass reduces a bin's K
summaries to one before entropy is ever computed, at the coordinator
and at every aggregator alike.  It sums raw counts (exact mode) or
Count-Min counter tables (sketch mode), so *any* partition of the
records, merged in any order or grouping, yields the same summary:
bit-identical in exact mode, within the estimator's tolerance of a
one-pass sketch in sketch mode (conservative update makes a one-pass
sketch slightly tighter than a merged one; point queries never
under-estimate).

In exact mode the summary *is* the grouped-reduction kernel's output —
one :class:`repro.kernels.GroupedRuns` per feature, keyed by OD flow —
on the shard (as the kernel returned it), on the wire (its four int64
arrays, raw) and at the coordinator (``np.frombuffer`` views of the
received bytes); nothing on that path is per-OD Python.  Sketch mode
keeps one object per (OD, feature): a 64 KiB counter table dwarfs it.

Wire format (``RBS3``, the one version; little-endian, every slab
8-byte aligned)::

    b"RBS3" | CRC32 of the body | body
    body   = mode u8, 3 pad, p i32, width i32, depth i32,
             bin i64, n_records i64, sketch_seed i64, packets[p], bytes[p]
    exact  : 4 x ( G, M, group_ids[G], starts[G+1], values[M], counts[M] )
    sketch : n_active, then per OD ascending: od, 4 x ( total,
             n_candidates, table[depth*width], candidates[n] )    all i64

:meth:`ShardBinSummary.from_bytes` views nothing it has not checked.  A
magic other than ``RBS3`` is a version mismatch: plain ``ValueError``
naming both versions (an old checkpoint on ``--resume`` — not a fault
to retry).  The CRC catches bytes damaged in transit; the shape checks
catch what a valid CRC cannot — a declared size the payload does not
hold, offsets that do not tile ``values``, OD ids out of range or
order, non-positive counts, negative counters, trailing bytes.  Both raise
:class:`SummaryCorruptError`, which the supervisor answers by
restarting the shard.  Exact payloads are canonical: the same counts
serialize to the same bytes under any ingestion order, sharding or
merge order.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.flows.features import N_FEATURES
from repro.flows.sketches import CountMinSketch, entropy_from_sketch
from repro.kernels import GroupedRuns, group_reduce
from repro.stream.window import BinAccumulator, BinSummary

__all__ = ["ShardBinSummary", "SummaryCorruptError", "merge_summaries"]

_MAGIC = b"RBS3"
_CRC = struct.Struct("<I")
#: magic + CRC: the body (what the CRC covers) starts here.
_BODY = len(_MAGIC) + _CRC.size
#: mode, n_od_flows, width, depth, bin, n_records, sketch_seed
_HEADER = struct.Struct("<B3xiiiqqq")

_EXACT, _SKETCH = 0, 1

#: what summaries must share to merge, and how a mismatch reads
_MERGE_KEYS = (
    ("bin", "bins"), ("n_od_flows", "ensembles"), ("exact", "modes"),
    ("width", "sketch geometries"), ("depth", "sketch geometries"),
    ("sketch_seed", "sketch geometries"),
)

_NO_RUNS = group_reduce(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


class SummaryCorruptError(ValueError):
    """A wire payload failed its CRC or its shape checks (bytes damaged
    in transit, or a sender whose sizes do not add up)."""


def _i8(values) -> np.ndarray:
    """An array (or a few ints) as one contiguous little-endian int64
    slab; the kernel's int64 arrays pass through uncopied."""
    return np.ascontiguousarray(values, dtype="<i8")


def _merge_feature(runs) -> GroupedRuns:
    """Sum one feature's canonical per-OD run sets from K summaries.

    OD-partitioned shards (the cluster's ``od % K`` split) never share
    an OD, so their per-OD segments are already final: all K are
    interleaved by one ``argsort`` of the OD ids and no value is
    compared.  When any OD repeats (summaries of any other record
    partition) every run goes through one :func:`group_reduce`, whose
    output is the same canonical form, so the merge stays correct for
    any partition and the two branches agree wherever both apply.
    """
    runs = [r for r in runs if r.n_groups]
    if len(runs) < 2:
        return runs[0] if runs else _NO_RUNS
    ids = np.concatenate([r.group_ids for r in runs])
    lengths = np.concatenate([r.lengths() for r in runs])
    values = np.concatenate([r.values for r in runs])
    counts = np.concatenate([r.counts for r in runs])
    order = np.argsort(ids)
    merged_ids = ids[order]
    if (merged_ids[1:] == merged_ids[:-1]).any():
        return group_reduce(np.repeat(ids, lengths), values, counts)
    first = np.cumsum(lengths) - lengths  # each OD's first run, concatenated
    lengths = lengths[order]
    starts = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    gather = np.repeat(first[order] - starts[:-1], lengths)
    gather += np.arange(len(values))
    return GroupedRuns(merged_ids, starts, values[gather], counts[gather])


def _merge_sketches(features) -> "_SketchFeature":
    """Sum one (OD, feature)'s Count-Min tables and totals across the
    summaries that hold it, and union their candidate sets."""
    first = features[0].sketch
    sketch = CountMinSketch(width=first.width, depth=first.depth, seed=first.seed)
    sketch.table = sum(f.sketch.table for f in features)
    sketch.total = sum(f.sketch.total for f in features)
    return _SketchFeature(sketch, set().union(*(f.candidates for f in features)))


class _SketchFeature:
    """One (OD, feature) Count-Min sketch plus its candidate-value set."""

    __slots__ = ("sketch", "candidates")

    def __init__(self, sketch: CountMinSketch, candidates: set[int]) -> None:
        self.sketch = sketch
        self.candidates = candidates

    def entropy(self) -> float:
        # Sorted candidates: float summation order (and hence the
        # estimate's last bits) must not depend on set insertion
        # history, or identical partitions would score differently.
        candidates = np.fromiter(
            sorted(self.candidates), dtype=np.int64, count=len(self.candidates)
        )
        return entropy_from_sketch(self.sketch, candidates)


class ShardBinSummary:
    """One shard's reduction of one time bin, mergeable across shards.

    State: int64 packet/byte counters per OD flow, plus either four
    per-feature :class:`GroupedRuns` keyed by OD (exact mode — the
    kernel's canonical ``(od, value, count)`` runs) or, per active OD,
    four Count-Min sketches with candidate sets, reduced across shards
    by :func:`merge_summaries`.  Arrays may be read-only views of a
    received payload; nothing here writes to them.

    Attributes:
        bin: Global bin index.
        n_od_flows: Ensemble width p (must agree to merge).
        exact: Exact histograms (True) or Count-Min sketches.
        width / depth / sketch_seed: Sketch geometry (sketch mode).
        packets / bytes: ``(p,)`` int64 volume counters.
        n_records: Records reduced into this summary.
    """

    def __init__(
        self,
        bin: int,
        n_od_flows: int,
        exact: bool = True,
        width: int = 2048,
        depth: int = 4,
        sketch_seed: int = 0,
    ) -> None:
        self.bin = int(bin)
        self.n_od_flows = int(n_od_flows)
        self.exact = bool(exact)
        # Sketch geometry is meaningless in exact mode; normalise it to
        # zero so exact payloads stay canonical (byte-identical for the
        # same counts) no matter what sketch knobs the monitor carried.
        self.width = 0 if self.exact else int(width)
        self.depth = 0 if self.exact else int(depth)
        self.sketch_seed = 0 if self.exact else int(sketch_seed)
        self.packets = np.zeros(n_od_flows, dtype=np.int64)
        self.bytes = np.zeros(n_od_flows, dtype=np.int64)
        self.n_records = 0
        #: exact mode: one GroupedRuns per feature, groups = OD flows
        self._runs = [_NO_RUNS] * N_FEATURES if self.exact else None
        #: sketch mode: OD flow -> its four _SketchFeature
        self._sketches: dict[int, list] | None = None if self.exact else {}

    # -- construction ----------------------------------------------------

    @classmethod
    def from_accumulator(
        cls, accumulator: BinAccumulator, bin_index: int
    ) -> "ShardBinSummary":
        """Freeze a :class:`repro.stream.window.BinAccumulator`.

        This is how a shard monitor exports a closed bin: the
        accumulator's pre-entropy state becomes the mergeable summary.
        The summary shares nothing with the accumulator, which the
        stage resets and reuses for the next bin: exact runs are fresh
        kernel output, volumes and sketch counters are copied out.
        """
        if accumulator.exact:
            return cls.from_runs(
                bin_index,
                [accumulator.feature_runs(k) for k in range(N_FEATURES)],
                *accumulator.export_volumes(),
                n_records=accumulator.n_records,
            )
        summary = cls(
            bin_index,
            accumulator.n_od_flows,
            exact=False,
            width=accumulator.width,
            depth=accumulator.depth,
            sketch_seed=accumulator.seed,
        )
        summary.packets, summary.bytes = accumulator.export_volumes()
        summary.n_records = accumulator.n_records
        banks, candidates, active = accumulator.sketch_state()
        ods = np.flatnonzero(active)
        summary._sketches = {od: [] for od in ods.tolist()}
        for bank, runs in zip(banks, candidates):
            values = dict(zip(
                runs.group_ids.tolist(),
                (v.tolist() for v in np.split(runs.values, runs.starts[1:-1])),
            ))
            for od, sketch in zip(ods.tolist(), bank.sketches(ods)):
                summary._sketches[od].append(
                    _SketchFeature(sketch, set(values.get(od, ())))
                )
        return summary

    @classmethod
    def from_runs(
        cls, bin_index: int, runs, packets: np.ndarray, byte_counts: np.ndarray,
        n_records: int,
    ) -> "ShardBinSummary":
        """An exact-mode summary from its parts: four per-feature
        :class:`GroupedRuns` keyed by OD (canonical, int64 counts) and
        the ``(p,)`` int64 packet/byte counters."""
        summary = cls(bin_index, len(packets))
        summary.packets, summary.bytes = packets, byte_counts
        summary.n_records = int(n_records)
        summary._runs = list(runs)
        return summary

    def merge(self, other: "ShardBinSummary") -> "ShardBinSummary":
        """``merge_summaries([self, other])`` (``benchmarks/ledger`` wraps it)."""
        return merge_summaries([self, other])

    # -- scoring hand-off --------------------------------------------------

    @property
    def active_ods(self) -> list[int]:
        """OD flows with any data, sorted."""
        if not self.exact:
            return sorted(self._sketches)
        ids = np.concatenate([runs.group_ids for runs in self._runs])
        return np.unique(ids).tolist()

    def entropy_matrix(self) -> np.ndarray:
        """``(p, 4)`` per-feature sample entropies (zeros for idle ODs).

        Exact mode is one grouped-entropy kernel pass per feature —
        the same arithmetic as :meth:`BinAccumulator.finalize`, bit for
        bit; sketch mode estimates per sketch.
        """
        entropy = np.zeros((self.n_od_flows, N_FEATURES))
        if self.exact:
            for k, runs in enumerate(self._runs):
                entropy[runs.group_ids, k] = runs.entropies()
        else:
            for od, entry in self._sketches.items():
                for k in range(N_FEATURES):
                    entropy[od, k] = entry[k].entropy()
        return entropy

    def to_bin_summary(self) -> BinSummary:
        """Render as the :class:`BinSummary` the detection engine scores."""
        return BinSummary(
            bin=self.bin,
            entropy=self.entropy_matrix(),
            packets=self.packets.astype(np.float64),
            bytes=self.bytes.astype(np.float64),
            n_records=self.n_records,
        )

    # -- wire format -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the one-frame wire format (module docstring;
        canonical in exact mode).  The arrays are joined as they are —
        no per-OD loop — and the CRC runs over the same parts, so any
        bit flipped in transit is caught by :meth:`from_bytes` before
        the summary can reach the merge."""
        parts = [
            _HEADER.pack(
                _EXACT if self.exact else _SKETCH,
                self.n_od_flows,
                self.width,
                self.depth,
                self.bin,
                self.n_records,
                self.sketch_seed,
            ),
            _i8(self.packets),
            _i8(self.bytes),
        ]
        if self.exact:
            for runs in self._runs:
                parts.append(_i8((runs.n_groups, len(runs))))
                parts.extend(
                    map(_i8, (runs.group_ids, runs.starts, runs.values, runs.counts))
                )
        else:
            parts.append(_i8((len(self._sketches),)))
            for od in sorted(self._sketches):
                parts.append(_i8((od,)))
                for feature in self._sketches[od]:
                    candidates = sorted(feature.candidates)
                    parts.append(_i8((feature.sketch.total, len(candidates))))
                    parts.append(_i8(feature.sketch.table))
                    parts.append(_i8(candidates))
        crc = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
        return b"".join([_MAGIC, _CRC.pack(crc), *parts])

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShardBinSummary":
        """Rebuild a summary serialized by :meth:`to_bytes`.

        The arrays of the result are read-only views into ``data``
        (zero-copy).  Raises ``ValueError`` for another wire version
        and :class:`SummaryCorruptError` for a failed CRC or a body
        whose declared shapes do not check out (module docstring).
        """
        view = memoryview(data)
        found = bytes(view[: len(_MAGIC)])
        if found != _MAGIC:
            raise ValueError(
                f"not a ShardBinSummary payload this build can read: found "
                f"wire version {found!r}, expected {_MAGIC!r}"
            )
        if (
            len(view) < _BODY + _HEADER.size
            or zlib.crc32(view[_BODY:]) != _CRC.unpack_from(view, len(_MAGIC))[0]
        ):
            raise SummaryCorruptError(
                "ShardBinSummary payload is truncated or failed its CRC "
                "(bytes corrupted in transit)"
            )
        mode, p, width, depth, bin_index, n_records, sketch_seed = (
            _HEADER.unpack_from(view, _BODY)
        )
        offset = _BODY + _HEADER.size

        def check(ok: bool, what: str) -> None:
            if not ok:
                raise SummaryCorruptError(f"malformed ShardBinSummary payload: {what}")

        def take(n: int) -> np.ndarray:
            """The next ``n`` int64 as a view — after checking the
            payload holds them, so a declared size is never trusted."""
            nonlocal offset
            check(
                0 <= n <= (len(view) - offset) // 8,
                f"{n} values declared, {len(view) - offset} bytes left",
            )
            array = np.frombuffer(view, dtype="<i8", count=n, offset=offset)
            offset += 8 * n
            return array

        check(mode in (_EXACT, _SKETCH), f"unknown mode {mode}")
        packets, byte_counts = take(p), take(p)  # also bounds p itself
        check((packets >= 0).all() and (byte_counts >= 0).all(), "negative volume")
        summary = cls(bin_index, p, mode == _EXACT, width, depth, sketch_seed)
        summary.n_records = n_records
        summary.packets, summary.bytes = packets, byte_counts
        if summary.exact:
            summary._runs = []
            for _ in range(N_FEATURES):
                n_groups, n_runs = take(2).tolist()
                runs = GroupedRuns(
                    take(n_groups), take(n_groups + 1), take(n_runs), take(n_runs)
                )
                ods = runs.group_ids
                check(
                    not n_groups
                    or (ods[0] >= 0 and ods[-1] < p and (ods[1:] > ods[:-1]).all()),
                    "OD ids out of range or order",
                )
                check(
                    runs.starts[0] == 0
                    and runs.starts[-1] == n_runs
                    and (runs.lengths() > 0).all(),
                    "run offsets do not tile the values",
                )
                check(not n_runs or runs.counts.min() > 0, "non-positive count")
                summary._runs.append(runs)
        else:
            check(width >= 8 and depth >= 1, "sketch geometry")
            (n_active,) = take(1).tolist()
            last = -1
            for _ in range(n_active):
                (od,) = take(1).tolist()
                check(last < od < p, "OD ids out of range or order")
                last = od
                entry = []
                for _ in range(N_FEATURES):
                    total, n_candidates = take(2).tolist()
                    table = take(depth * width).reshape(depth, width)
                    check(total >= 0 and (table >= 0).all(), "negative sketch counter")
                    sketch = CountMinSketch(width=width, depth=depth, seed=sketch_seed)
                    sketch.table = table
                    sketch.total = total
                    entry.append(
                        _SketchFeature(sketch, set(take(n_candidates).tolist()))
                    )
                summary._sketches[od] = entry
        check(offset == len(view), "trailing bytes")
        return summary

    def __repr__(self) -> str:
        mode = "exact" if self.exact else f"sketch w={self.width} d={self.depth}"
        return (
            f"ShardBinSummary(bin={self.bin}, active_ods={len(self.active_ods)}, "
            f"records={self.n_records}, {mode})"
        )


def merge_summaries(summaries) -> ShardBinSummary:
    """Reduce a bin's K summaries to one in a single pass (order-free;
    no input is mutated).

    Exact mode concatenates the K run sets of each feature and sorts
    the OD ids once (:func:`_merge_feature`); sketch mode sums each
    OD's Count-Min tables over the summaries that hold it.  The result
    is canonical: the same bytes for any partition, grouping or order
    of the inputs (sketch mode: the same as folding
    :meth:`CountMinSketch.merge` pairwise).

    Raises:
        ValueError: No summary, or summaries of different bins,
            ensembles, modes or sketch geometries.
    """
    summaries = list(summaries)
    if not summaries:
        raise ValueError("merge_summaries needs at least one summary")
    first = summaries[0]
    for other in summaries[1:]:
        for attr, what in _MERGE_KEYS:
            if getattr(other, attr) != getattr(first, attr):
                raise ValueError(
                    f"cannot merge summaries of different {what} "
                    f"({attr} {getattr(first, attr)} != {getattr(other, attr)})"
                )
    if len(summaries) == 1:
        return first
    merged = ShardBinSummary(
        first.bin, first.n_od_flows, first.exact, first.width, first.depth,
        first.sketch_seed,
    )
    merged.packets = sum(s.packets for s in summaries)
    merged.bytes = sum(s.bytes for s in summaries)
    merged.n_records = sum(s.n_records for s in summaries)
    if first.exact:
        merged._runs = [_merge_feature(runs) for runs in zip(*(s._runs for s in summaries))]
    else:
        holders: dict[int, list] = {}
        for summary in summaries:
            for od, entry in summary._sketches.items():
                holders.setdefault(od, []).append(entry)
        merged._sketches = {
            od: entries[0] if len(entries) == 1
            else [_merge_sketches(f) for f in zip(*entries)]
            for od, entries in holders.items()
        }
    return merged
