"""Per-bin shard row blocks (the cluster's unit of exchange).

Section 8 of the paper poses distributed deployment as the open systems
problem: monitors at each PoP observe their traffic locally and a
central point mines anomalies network-wide.  The cluster partitions by
OD flow (shard ``s`` of ``K`` owns every record of the ODs ``od % K ==
s``, :func:`repro.pipeline.sources.shard_ods`), so each shard sees its
ODs whole and finishes them itself: it computes their entropy and
volume rows — the rows of the ``(p, 4)`` matrix scoring reads — and
ships only those, as a :class:`ShardBinSummary` *row block*.  The
coordinator scatters a bin's K blocks into one
:class:`~repro.stream.window.BinSummary` (:func:`merge_summaries`); no
histogram crosses the wire.  Because every OD's entropy depends only on
that OD's records, a block's rows equal the single-process rows bit for
bit, whatever K.  A monitor that saw only part of an OD would need
per-value histograms again.

A block carries the rows of the ODs its shard saw: an all-zero row is
left out, since the coordinator's scatter starts from zeros.

Wire format (``RBS4``, the one version; little-endian, every slab
8-byte aligned)::

    b"RBS4" | CRC32 of the body | body
    body = p i32, shard i32, bin i64, n_records i64, n i64,
           ods[n] i64, entropy[n x 4] f64, packets[n] i64, bytes[n] i64

:meth:`ShardBinSummary.from_bytes` views nothing it has not checked.  A
magic other than ``RBS4`` is a version mismatch: plain ``ValueError``
naming both versions (an old checkpoint on ``--resume`` — not a fault
to retry).  The CRC catches bytes damaged in transit; the shape checks
catch what a valid CRC cannot — a row count the payload does not hold,
OD ids out of range or order, negative volumes or records, entropies
that are negative or not finite.  Both raise
:class:`SummaryCorruptError`, which the supervisor answers by
restarting the shard.  Payloads are canonical: the same rows serialize
to the same bytes under any ingestion order or chunking.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.flows.features import N_FEATURES
from repro.stream.window import BinAccumulator, BinSummary

__all__ = ["ShardBinSummary", "SummaryCorruptError", "merge_summaries"]

_MAGIC = b"RBS4"
_CRC = struct.Struct("<I")
#: magic + CRC: the body (what the CRC covers) starts here.
_BODY = len(_MAGIC) + _CRC.size
#: n_od_flows, shard, bin, n_records, n rows
_HEADER = struct.Struct("<iiqqq")
#: bytes per row: OD id, four entropies, packets, bytes
_ROW = 8 * (1 + N_FEATURES + 2)


class SummaryCorruptError(ValueError):
    """A wire payload failed its CRC or its shape checks (bytes damaged
    in transit, or a sender whose sizes do not add up)."""


class ShardBinSummary:
    """One shard's entropy and volume rows of one time bin.

    Arrays may be read-only views of a received payload; nothing here
    writes to them.

    Attributes:
        bin: Global bin index.
        n_od_flows: Ensemble width p (must agree to merge).
        shard: The sending shard (0 for a merged block).
        ods: ``(n,)`` int64 OD ids, ascending.
        entropy: ``(n, 4)`` float64 sample entropies of those ODs.
        packets / bytes: ``(n,)`` int64 volumes of those ODs.
        n_records: Records reduced into this block.
    """

    def __init__(
        self,
        bin: int,
        n_od_flows: int,
        shard: int = 0,
        ods: np.ndarray | None = None,
        entropy: np.ndarray | None = None,
        packets: np.ndarray | None = None,
        bytes: np.ndarray | None = None,
        n_records: int = 0,
    ) -> None:
        self.bin = int(bin)
        self.n_od_flows = int(n_od_flows)
        self.shard = int(shard)
        empty = np.zeros(0, dtype=np.int64)
        self.ods = empty if ods is None else ods
        self.entropy = np.zeros((0, N_FEATURES)) if entropy is None else entropy
        self.packets = empty if packets is None else packets
        self.bytes = empty if bytes is None else bytes
        self.n_records = int(n_records)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_bin_summary(cls, summary: BinSummary, shard: int = 0) -> "ShardBinSummary":
        """The rows of ``summary`` that are not all zero."""
        live = (
            (summary.packets != 0) | (summary.bytes != 0)
            | (summary.entropy != 0).any(axis=1)
        )
        ods = np.flatnonzero(live)
        return cls(
            summary.bin, len(live), shard, ods, summary.entropy[ods],
            summary.packets[ods].astype(np.int64),
            summary.bytes[ods].astype(np.int64), summary.n_records,
        )

    @classmethod
    def from_accumulator(
        cls, accumulator: BinAccumulator, bin_index: int, shard: int = 0
    ) -> "ShardBinSummary":
        """A closed bin of a :class:`repro.stream.window.BinAccumulator`:
        the rows :meth:`BinAccumulator.finalize` computes (exact or
        sketch mode), for the ODs the accumulator saw."""
        return cls.from_bin_summary(accumulator.finalize(bin_index), shard)

    def merge(self, other: "ShardBinSummary", n_shards: int = 1) -> "ShardBinSummary":
        """``merge_summaries([self, other], n_shards)`` (``benchmarks/ledger`` wraps it)."""
        return merge_summaries([self, other], n_shards)

    # -- scoring hand-off --------------------------------------------------

    def to_bin_summary(self) -> BinSummary:
        """Scatter the rows into the :class:`BinSummary` the detection
        engine scores (zeros for the ODs this block does not carry)."""
        p = self.n_od_flows
        entropy = np.zeros((p, N_FEATURES))
        packets = np.zeros(p)
        byte_counts = np.zeros(p)
        entropy[self.ods] = self.entropy
        packets[self.ods] = self.packets
        byte_counts[self.ods] = self.bytes
        return BinSummary(
            bin=self.bin, entropy=entropy, packets=packets, bytes=byte_counts,
            n_records=self.n_records,
        )

    # -- wire format -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the one-frame wire format (module docstring).
        The CRC runs over the same parts, so any bit flipped in transit
        is caught by :meth:`from_bytes` before the block is scattered."""
        parts = [
            _HEADER.pack(self.n_od_flows, self.shard, self.bin, self.n_records,
                         len(self.ods)),
            np.ascontiguousarray(self.ods, dtype="<i8"),
            np.ascontiguousarray(self.entropy, dtype="<f8"),
            np.ascontiguousarray(self.packets, dtype="<i8"),
            np.ascontiguousarray(self.bytes, dtype="<i8"),
        ]
        crc = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
        return b"".join([_MAGIC, _CRC.pack(crc), *parts])

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShardBinSummary":
        """Rebuild a block serialized by :meth:`to_bytes`.

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
        p, shard, bin_index, n_records, n = _HEADER.unpack_from(view, _BODY)

        def check(ok, what: str) -> None:
            if not ok:
                raise SummaryCorruptError(f"malformed ShardBinSummary payload: {what}")

        held = len(view) - _BODY - _HEADER.size
        check(0 <= n <= p and held == n * _ROW,
              f"{n} rows of {p} OD flows declared, {held} bytes of rows held")
        check(shard >= 0 and n_records >= 0, "negative shard id or record count")
        offset = _BODY + _HEADER.size

        def take(dtype: str, count: int) -> np.ndarray:
            nonlocal offset
            array = np.frombuffer(view, dtype=dtype, count=count, offset=offset)
            offset += 8 * count
            return array

        ods = take("<i8", n)
        entropy = take("<f8", n * N_FEATURES).reshape(n, N_FEATURES)
        packets, byte_counts = take("<i8", n), take("<i8", n)
        check(not n or (ods[0] >= 0 and ods[-1] < p), "OD ids out of range")
        check((ods[1:] > ods[:-1]).all(), "OD ids out of order")
        check((packets >= 0).all() and (byte_counts >= 0).all(), "negative volume")
        check(np.isfinite(entropy).all() and (entropy >= 0).all(),
              "entropy negative or not finite")
        return cls(bin_index, p, shard, ods, entropy, packets, byte_counts, n_records)

    def __repr__(self) -> str:
        return (
            f"ShardBinSummary(bin={self.bin}, shard={self.shard}, "
            f"rows={len(self.ods)}, records={self.n_records})"
        )


def merge_summaries(summaries, n_shards: int = 1) -> ShardBinSummary:
    """Scatter a bin's blocks from shards of ``n_shards`` into one block
    (order-free; no input is mutated).

    Every block must come from a distinct shard and carry only ODs that
    shard owns (``od % n_shards == shard``), so the blocks' rows are
    disjoint and the result — shard 0, rows ascending by OD, records
    summed — is the same for any arrival order or shard count.

    Raises:
        ValueError: No block; blocks of different bins or ensembles;
            two blocks from one shard; or a block carrying an OD its
            shard does not own.
    """
    summaries = list(summaries)
    if not summaries:
        raise ValueError("merge_summaries needs at least one summary")
    first = summaries[0]
    senders = set()
    for block in summaries:
        if (block.bin, block.n_od_flows) != (first.bin, first.n_od_flows):
            raise ValueError(
                f"cannot merge blocks of different bins or ensembles (bin "
                f"{first.bin} of {first.n_od_flows} OD flows != bin "
                f"{block.bin} of {block.n_od_flows})"
            )
        if block.shard in senders:
            raise ValueError(f"two blocks of bin {block.bin} from shard {block.shard}")
        senders.add(block.shard)
        foreign = block.ods % n_shards != block.shard
        if foreign.any():
            od = int(block.ods[foreign][0])
            raise ValueError(
                f"shard {block.shard} of {n_shards} sent OD {od}, which "
                f"shard {od % n_shards} owns"
            )
    ods = np.concatenate([block.ods for block in summaries])
    order = np.argsort(ods)

    def rows(attr: str) -> np.ndarray:
        return np.concatenate([getattr(block, attr) for block in summaries])[order]

    return ShardBinSummary(
        first.bin, first.n_od_flows, 0, ods[order], rows("entropy"),
        rows("packets"), rows("bytes"), sum(s.n_records for s in summaries),
    )
