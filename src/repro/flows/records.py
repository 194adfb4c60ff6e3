"""Flow records: the unit of measurement exported by routers (paper Section 2).

Two representations are provided:

* :class:`FlowRecord` — a single five-tuple record with volume counters,
  convenient for construction and inspection.
* :class:`FlowRecordBatch` — a columnar (struct-of-arrays) container
  holding many records in parallel numpy arrays.  Everything downstream
  (binning, sampling, OD aggregation, histogramming) operates on batches
  so that realistic record counts stay fast.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Iterator

import numpy as np

from repro.net.addressing import anonymize_array, format_ip

__all__ = [
    "PROTO_TCP",
    "PROTO_UDP",
    "PROTO_ICMP",
    "COLUMN_SPEC",
    "FlowRecord",
    "FlowRecordBatch",
]

PROTO_TCP = 6
PROTO_UDP = 17
PROTO_ICMP = 1

_COLUMNS = (
    ("src_ip", np.int64),
    ("dst_ip", np.int64),
    ("src_port", np.int64),
    ("dst_port", np.int64),
    ("protocol", np.int64),
    ("packets", np.int64),
    ("bytes", np.int64),
    ("timestamp", np.float64),
    ("ingress_pop", np.int64),
)

#: Public (name, dtype) schema of a batch, in storage order — the
#: contract the columnar trace store (:mod:`repro.io.trace`) serializes.
COLUMN_SPEC = _COLUMNS


@dataclass(frozen=True)
class FlowRecord:
    """A single sampled flow record (NetFlow-style).

    Attributes:
        src_ip / dst_ip: Addresses as ints.
        src_port / dst_port: Transport ports.
        protocol: IP protocol number (6=TCP, 17=UDP, 1=ICMP).
        packets / bytes: Sampled volume counters.
        timestamp: Flow start, seconds since the trace epoch.
        ingress_pop: Index of the PoP the record was sampled at.
    """

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int = PROTO_TCP
    packets: int = 1
    bytes: int = 0
    timestamp: float = 0.0
    ingress_pop: int = 0

    def __post_init__(self) -> None:
        if self.packets < 0 or self.bytes < 0:
            raise ValueError("volume counters must be non-negative")
        if not 0 <= self.src_port <= 0xFFFF or not 0 <= self.dst_port <= 0xFFFF:
            raise ValueError("port out of range")

    def __str__(self) -> str:
        return (
            f"{format_ip(self.src_ip)}:{self.src_port} -> "
            f"{format_ip(self.dst_ip)}:{self.dst_port} "
            f"proto={self.protocol} pkts={self.packets} bytes={self.bytes} "
            f"t={self.timestamp:.1f} pop={self.ingress_pop}"
        )


class FlowRecordBatch:
    """Columnar batch of flow records.

    All columns are numpy arrays of equal length.  Batches are
    immutable-by-convention: transformations return new batches.
    """

    __slots__ = tuple(name for name, _ in _COLUMNS)

    def __init__(self, **columns: np.ndarray) -> None:
        n = None
        for name, dtype in _COLUMNS:
            col = columns.get(name)
            if col is None:
                col = np.zeros(0 if n is None else n, dtype=dtype)
            col = np.asarray(col, dtype=dtype)
            if col.ndim != 1:
                raise ValueError(f"column {name} must be 1-D")
            if n is None:
                n = len(col)
            elif len(col) != n:
                raise ValueError(
                    f"column {name} has length {len(col)}, expected {n}"
                )
            object.__setattr__(self, name, col)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("FlowRecordBatch columns are read-only")

    # -- construction --------------------------------------------------

    @classmethod
    def empty(cls) -> "FlowRecordBatch":
        """A batch with zero records."""
        return cls()

    @classmethod
    def from_records(cls, records: Iterable[FlowRecord]) -> "FlowRecordBatch":
        """Build a batch from an iterable of :class:`FlowRecord`."""
        records = list(records)
        columns = {
            name: np.array([getattr(r, name) for r in records], dtype=dtype)
            for name, dtype in _COLUMNS
        }
        return cls(**columns)

    @classmethod
    def concat(cls, batches: Iterable["FlowRecordBatch"]) -> "FlowRecordBatch":
        """Concatenate several batches.

        A single non-empty input is returned as-is (batches are
        immutable-by-convention, so sharing is safe) — the hot path when
        a chunker's pending list holds exactly one piece.
        """
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        columns = {
            name: np.concatenate([getattr(b, name) for b in batches])
            for name, _ in _COLUMNS
        }
        return cls(**columns)

    # -- basic container protocol --------------------------------------

    def __len__(self) -> int:
        return len(self.src_ip)

    def __iter__(self) -> Iterator[FlowRecord]:
        for i in range(len(self)):
            yield self.record(i)

    def record(self, i: int) -> FlowRecord:
        """Materialise record ``i`` as a :class:`FlowRecord`."""
        kwargs = {}
        for name, _ in _COLUMNS:
            value = getattr(self, name)[i]
            kwargs[name] = float(value) if name == "timestamp" else int(value)
        return FlowRecord(**kwargs)

    # -- transformations ------------------------------------------------

    def select(self, mask_or_index: np.ndarray | slice) -> "FlowRecordBatch":
        """Select rows by boolean mask, integer index array, or slice.

        Slices produce *view* columns (no copies) — what re-chunking a
        stream (:func:`repro.stream.iter_record_chunks`) relies on; masks and
        index arrays copy, as numpy fancy indexing always does.  A
        boolean mask is turned into row indices once and every column
        is gathered with ``take``, instead of nine boolean-index passes
        that each rescan the mask.

        Raises:
            IndexError: A boolean mask whose length is not the batch's.
        """
        if isinstance(mask_or_index, np.ndarray) and mask_or_index.dtype == bool:
            if mask_or_index.shape != (len(self),):
                raise IndexError(
                    f"boolean mask of shape {mask_or_index.shape} does not "
                    f"match a batch of {len(self)} records"
                )
            rows = np.flatnonzero(mask_or_index)
            columns = {name: getattr(self, name).take(rows) for name, _ in _COLUMNS}
        else:
            columns = {
                name: getattr(self, name)[mask_or_index] for name, _ in _COLUMNS
            }
        return FlowRecordBatch(**columns)

    def with_columns(self, **overrides: np.ndarray) -> "FlowRecordBatch":
        """Return a copy with some columns replaced."""
        columns = {name: getattr(self, name) for name, _ in _COLUMNS}
        for name, value in overrides.items():
            if name not in columns:
                raise KeyError(f"unknown column {name!r}")
            columns[name] = value
        return FlowRecordBatch(**columns)

    def anonymized(self, bits: int) -> "FlowRecordBatch":
        """Apply address anonymisation (mask low ``bits`` of both IPs)."""
        if bits == 0:
            return self
        return self.with_columns(
            src_ip=anonymize_array(self.src_ip, bits),
            dst_ip=anonymize_array(self.dst_ip, bits),
        )

    def sort_by_time(self) -> "FlowRecordBatch":
        """Return a copy sorted by timestamp (stable)."""
        order = np.argsort(self.timestamp, kind="stable")
        return self.select(order)

    # -- summaries -------------------------------------------------------

    @property
    def total_packets(self) -> int:
        """Sum of the packet counters."""
        return int(self.packets.sum())

    @property
    def total_bytes(self) -> int:
        """Sum of the byte counters."""
        return int(self.bytes.sum())

    def __repr__(self) -> str:
        return (
            f"FlowRecordBatch(n={len(self)}, packets={self.total_packets}, "
            f"bytes={self.total_bytes})"
        )


# Consistency guard: FlowRecord fields and batch columns must agree.
assert tuple(f.name for f in fields(FlowRecord)) == tuple(n for n, _ in _COLUMNS)
