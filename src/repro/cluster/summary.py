"""Mergeable per-bin shard summaries (the cluster's unit of exchange).

Section 8 of the paper poses distributed deployment as the open systems
problem: monitors at each PoP observe feature histograms locally and a
central point mines anomalies network-wide.  The object that makes this
work is a *mergeable summary* — each shard reduces its slice of the
records for one time bin into a :class:`ShardBinSummary`, ships it to
the coordinator, and the coordinator folds the shards together with an
associative, commutative :meth:`ShardBinSummary.merge` before entropy
is ever computed.  Because the merge happens on raw counts (exact
histograms) or on Count-Min counter tables (sketch mode), *any*
partition of the records across shards yields the same merged summary:
bit-identical in exact mode, within the sketch estimator's tolerance in
sketch mode (conservative update makes a single-pass sketch slightly
tighter than a merged one, but point queries never under-estimate in
either).

Summaries serialize to a compact little-endian wire format
(:meth:`to_bytes` / :meth:`from_bytes`) so worker processes — or, in a
real deployment, PoP monitors — can ship them over queues and sockets
without pickling.  Exact-mode payloads are canonical: two summaries
describing the same counts serialize to identical bytes regardless of
ingestion order or sharding.

The current wire version (``RBS2``) frames the original ``RBS1`` body
with a CRC32 so bytes corrupted in transit raise
:class:`SummaryCorruptError` at the coordinator — which can then retry
the shard — instead of being silently merged into the diagnosis.
``from_bytes`` still accepts bare ``RBS1`` payloads (older monitors,
pre-CRC checkpoints); framing is additive, so the canonical-bytes
property is preserved.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.flows.features import N_FEATURES
from repro.flows.sketches import CountMinSketch, entropy_from_sketch
from repro.kernels import group_reduce, grouped_entropy, merge_histograms
from repro.stream.window import BinAccumulator, BinSummary

__all__ = ["ShardBinSummary", "SummaryCorruptError", "merge_summaries"]

_MAGIC = b"RBS1"
#: v2 frame: magic + CRC32 of the enclosed v1 payload (itself magic'd).
_MAGIC_V2 = b"RBS2"
_CRC = struct.Struct("<I")
#: magic, mode, bin, n_od_flows, n_records, width, depth, sketch_seed
_HEADER = struct.Struct("<4sBqiqiiq")
_OD_HEADER = struct.Struct("<i")
_COUNT = struct.Struct("<i")
_TOTAL = struct.Struct("<q")

_EXACT, _SKETCH = 0, 1


class SummaryCorruptError(ValueError):
    """A wire payload failed its CRC (bytes corrupted in transit)."""


class _ExactFeature:
    """One (OD, feature) histogram in canonical (sorted, grouped) form."""

    __slots__ = ("values", "counts")

    def __init__(self, values: np.ndarray, counts: np.ndarray) -> None:
        self.values = values
        self.counts = counts

    def merge(self, other: "_ExactFeature") -> "_ExactFeature":
        return _ExactFeature(
            *merge_histograms(self.values, self.counts, other.values, other.counts)
        )


class _SketchFeature:
    """One (OD, feature) Count-Min sketch plus its candidate-value set."""

    __slots__ = ("sketch", "candidates")

    def __init__(self, sketch: CountMinSketch, candidates: set[int]) -> None:
        self.sketch = sketch
        self.candidates = candidates

    def merge(self, other: "_SketchFeature") -> "_SketchFeature":
        return _SketchFeature(
            self.sketch.merge(other.sketch), self.candidates | other.candidates
        )

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

    State per active OD flow: four per-feature summaries (exact
    canonical histograms, or Count-Min sketches plus candidate sets)
    and int64 packet/byte counters.  ``merge`` is associative and
    commutative, so a coordinator may fold shards in any order.

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
        self._features: dict[int, list] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def from_accumulator(
        cls, accumulator: BinAccumulator, bin_index: int
    ) -> "ShardBinSummary":
        """Freeze a :class:`repro.stream.window.BinAccumulator`.

        This is how a shard monitor exports a closed bin: the
        accumulator's pre-entropy state becomes the mergeable summary.
        Everything is copied out — the stage resets and reuses the
        accumulator (sketch counter arrays included) for the next bin.
        """
        summary = cls(
            bin_index,
            accumulator.n_od_flows,
            exact=accumulator.exact,
            width=accumulator.width,
            depth=accumulator.depth,
            sketch_seed=accumulator.seed,
        )
        summary.packets, summary.bytes = accumulator.export_volumes()
        summary.n_records = accumulator.n_records
        if accumulator.exact:
            # The kernel's sorted runs ARE the canonical per-OD
            # histograms (values ascending, counts grouped): slice them
            # straight into the summary, one grouped reduction per
            # feature instead of a canonicalisation per (OD, feature).
            for k in range(N_FEATURES):
                runs = accumulator.feature_runs(k)
                for i, od in enumerate(runs.group_ids):
                    values, counts = runs.slice(i)
                    entry = summary._features.setdefault(
                        int(od), [None] * N_FEATURES
                    )
                    entry[k] = _ExactFeature(values.copy(), counts.copy())
            empty = np.zeros(0, dtype=np.int64)
            for entry in summary._features.values():
                for k in range(N_FEATURES):
                    if entry[k] is None:
                        entry[k] = _ExactFeature(empty, empty)
        else:
            banks, candidates, active = accumulator.sketch_state()
            ods = np.flatnonzero(active)
            summary._features = {od: [] for od in ods.tolist()}
            for bank, runs in zip(banks, candidates):
                values = dict(zip(
                    runs.group_ids.tolist(),
                    (v.tolist() for v in np.split(runs.values, runs.starts[1:-1])),
                ))
                for od, sketch in zip(ods.tolist(), bank.sketches(ods)):
                    summary._features[od].append(
                        _SketchFeature(sketch, set(values.get(od, ())))
                    )
        return summary

    # -- algebra ----------------------------------------------------------

    def _check_mergeable(self, other: "ShardBinSummary") -> None:
        if self.bin != other.bin:
            raise ValueError(
                f"cannot merge summaries of different bins ({self.bin} != {other.bin})"
            )
        if self.n_od_flows != other.n_od_flows:
            raise ValueError("cannot merge summaries of different ensembles")
        if self.exact != other.exact:
            raise ValueError("cannot merge exact and sketch summaries")
        if not self.exact and (self.width, self.depth, self.sketch_seed) != (
            other.width,
            other.depth,
            other.sketch_seed,
        ):
            raise ValueError("cannot merge sketches of different geometry")

    def merge(self, other: "ShardBinSummary") -> "ShardBinSummary":
        """Fold two shards' summaries of the same bin (associative,
        commutative; neither input is mutated)."""
        self._check_mergeable(other)
        merged = ShardBinSummary(
            self.bin,
            self.n_od_flows,
            exact=self.exact,
            width=self.width,
            depth=self.depth,
            sketch_seed=self.sketch_seed,
        )
        merged.packets = self.packets + other.packets
        merged.bytes = self.bytes + other.bytes
        merged.n_records = self.n_records + other.n_records
        overlap = self._features.keys() & other._features.keys()
        for od in self._features.keys() | other._features.keys():
            if od in overlap:
                continue
            mine, theirs = self._features.get(od), other._features.get(od)
            merged._features[od] = list(mine if theirs is None else theirs)
        if overlap:
            if self.exact:
                # Row-partitioned shards (trace striping) overlap on
                # every active OD; folding them per (OD, feature) costs
                # hundreds of tiny kernel calls per bin.  Batch all
                # overlapping histograms of one feature into a single
                # grouped reduction instead — its sorted runs are
                # already the canonical form, so the merged bytes are
                # identical to the pairwise path.
                merged._features.update(
                    _batched_exact_merge(self._features, other._features, overlap)
                )
            else:
                for od in overlap:
                    mine, theirs = self._features[od], other._features[od]
                    merged._features[od] = [
                        mine[k].merge(theirs[k]) for k in range(N_FEATURES)
                    ]
        return merged

    # -- scoring hand-off --------------------------------------------------

    @property
    def active_ods(self) -> list[int]:
        """OD flows with any data, sorted."""
        return sorted(self._features)

    def entropy_matrix(self) -> np.ndarray:
        """``(p, 4)`` per-feature sample entropies (zeros for idle ODs).

        Exact mode funnels every OD's counts into one grouped-entropy
        kernel pass per feature; sketch mode estimates per sketch.
        """
        entropy = np.zeros((self.n_od_flows, N_FEATURES))
        if not self._features:
            return entropy
        if self.exact:
            ods = self.active_ods
            for k in range(N_FEATURES):
                counts = [self._features[od][k].counts for od in ods]
                lengths = np.array([len(c) for c in counts], dtype=np.int64)
                starts = np.zeros(len(ods) + 1, dtype=np.int64)
                np.cumsum(lengths, out=starts[1:])
                entropy[ods, k] = grouped_entropy(
                    np.concatenate(counts) if counts else np.zeros(0), starts
                )
        else:
            for od, entry in self._features.items():
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
        """Serialize to the CRC-framed wire format (canonical in exact mode).

        Layout: ``b"RBS2"`` + CRC32 of the v1 body + the v1 body.  The
        CRC covers everything after the frame, so any bit flipped in
        transit is caught by :meth:`from_bytes` before the summary can
        reach the merge.
        """
        body = self._to_bytes_v1()
        return b"".join([_MAGIC_V2, _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF), body])

    def _to_bytes_v1(self) -> bytes:
        """The unframed (legacy ``RBS1``) body."""
        mode = _EXACT if self.exact else _SKETCH
        parts = [
            _HEADER.pack(
                _MAGIC,
                mode,
                self.bin,
                self.n_od_flows,
                self.n_records,
                self.width,
                self.depth,
                self.sketch_seed,
            ),
            self.packets.astype("<i8", copy=False).tobytes(),
            self.bytes.astype("<i8", copy=False).tobytes(),
            _COUNT.pack(len(self._features)),
        ]
        for od in sorted(self._features):
            parts.append(_OD_HEADER.pack(od))
            for feature in self._features[od]:
                if self.exact:
                    parts.append(_COUNT.pack(len(feature.values)))
                    parts.append(feature.values.astype("<i8", copy=False).tobytes())
                    parts.append(feature.counts.astype("<i8", copy=False).tobytes())
                else:
                    candidates = np.fromiter(
                        sorted(feature.candidates),
                        dtype="<i8",
                        count=len(feature.candidates),
                    )
                    parts.append(_TOTAL.pack(feature.sketch.total))
                    parts.append(_COUNT.pack(len(candidates)))
                    parts.append(
                        feature.sketch.table.astype("<i8", copy=False).tobytes()
                    )
                    parts.append(candidates.tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShardBinSummary":
        """Rebuild a summary serialized by :meth:`to_bytes`.

        Accepts both wire versions: CRC-framed ``RBS2`` payloads (the
        frame is verified, :class:`SummaryCorruptError` on mismatch)
        and bare legacy ``RBS1`` bodies, which predate the checksum.
        """
        if data[:4] == _MAGIC_V2:
            (stored_crc,) = _CRC.unpack_from(data, 4)
            data = data[4 + _CRC.size :]
            if zlib.crc32(data) & 0xFFFFFFFF != stored_crc:
                raise SummaryCorruptError(
                    "ShardBinSummary payload failed its CRC "
                    "(bytes corrupted in transit)"
                )
        if data[:4] != _MAGIC:
            raise ValueError("not a ShardBinSummary payload")
        (_, mode, bin_index, p, n_records, width, depth, sketch_seed) = _HEADER.unpack_from(
            data, 0
        )
        offset = _HEADER.size
        summary = cls(
            bin_index,
            p,
            exact=(mode == _EXACT),
            width=width,
            depth=depth,
            sketch_seed=sketch_seed,
        )
        summary.n_records = n_records

        def take_array(n: int) -> np.ndarray:
            nonlocal offset
            array = np.frombuffer(data, dtype="<i8", count=n, offset=offset)
            offset += 8 * n
            return array.astype(np.int64)

        summary.packets = take_array(p)
        summary.bytes = take_array(p)
        (n_active,) = _COUNT.unpack_from(data, offset)
        offset += _COUNT.size
        for _ in range(n_active):
            (od,) = _OD_HEADER.unpack_from(data, offset)
            offset += _OD_HEADER.size
            entry = []
            for _ in range(N_FEATURES):
                if summary.exact:
                    (n,) = _COUNT.unpack_from(data, offset)
                    offset += _COUNT.size
                    entry.append(_ExactFeature(take_array(n), take_array(n)))
                else:
                    (total,) = _TOTAL.unpack_from(data, offset)
                    offset += _TOTAL.size
                    (n_candidates,) = _COUNT.unpack_from(data, offset)
                    offset += _COUNT.size
                    sketch = CountMinSketch(width=width, depth=depth, seed=sketch_seed)
                    sketch.table = take_array(depth * width).reshape(depth, width)
                    sketch.total = total
                    entry.append(
                        _SketchFeature(sketch, set(take_array(n_candidates).tolist()))
                    )
            summary._features[od] = entry
        if offset != len(data):
            raise ValueError("trailing bytes in ShardBinSummary payload")
        return summary

    def __repr__(self) -> str:
        mode = "exact" if self.exact else f"sketch w={self.width} d={self.depth}"
        return (
            f"ShardBinSummary(bin={self.bin}, active_ods={len(self._features)}, "
            f"records={self.n_records}, {mode})"
        )


def _batched_exact_merge(
    a: dict[int, list], b: dict[int, list], overlap: set[int]
) -> dict[int, list]:
    """Merge the exact feature entries of ODs present in *both* maps.

    One :func:`group_reduce` call per feature over every overlapping
    OD's concatenated (value, count) runs, keyed by OD.  The kernel's
    ascending (group, value) runs with positive summed counts are
    exactly the canonical histogram form ``_ExactFeature.merge``
    produces, so this is byte-for-byte the pairwise result.
    """
    ods = np.fromiter(sorted(overlap), dtype=np.int64, count=len(overlap))
    merged: dict[int, list] = {int(od): [None] * N_FEATURES for od in ods}
    empty = np.zeros(0, dtype=np.int64)
    for k in range(N_FEATURES):
        features = [side[int(od)][k] for od in ods for side in (a, b)]
        lengths = np.fromiter(
            (len(f.values) for f in features), dtype=np.int64, count=len(features)
        )
        runs = group_reduce(
            np.repeat(np.repeat(ods, 2), lengths),
            np.concatenate([f.values for f in features]),
            np.concatenate([f.counts for f in features]),
        )
        for entry in merged.values():
            # ODs whose histograms are empty on both sides have no rows,
            # so the kernel omits them: pre-fill, then overwrite.
            entry[k] = _ExactFeature(empty, empty)
        for i, od in enumerate(runs.group_ids):
            values, counts = runs.slice(i)
            # Views, not copies: the runs arrays back the merged
            # summary's histograms directly.
            merged[int(od)][k] = _ExactFeature(values, counts)
    return merged


def merge_summaries(summaries) -> ShardBinSummary:
    """Fold an iterable of same-bin summaries into one (order-free)."""
    result = None
    for summary in summaries:
        result = summary if result is None else result.merge(summary)
    if result is None:
        raise ValueError("merge_summaries needs at least one summary")
    return result
