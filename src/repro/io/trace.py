"""Columnar flow-record trace store with zero-copy mmap replay.

The measurement pipeline consumes NetFlow-style records at network-wide
scale; regenerating them synthetically for every run (and in every
cluster worker) made record *production* the end-to-end bottleneck once
the kernel-backed reduction crossed ~2M records/s.  This module makes a
trace a first-class on-disk artifact: write it once, replay it as many
times as needed — from one process or from every shard of a cluster —
at memory-bandwidth speed.

File layout (all integers little-endian)::

    offset 0   : magic  b"RPROTRC1"
    offset 8   : uint64 header length H (JSON bytes, space-padded to 8)
    offset 16  : header JSON (version, n_records, n_bins, bin grid,
                 column dtype table, network + provenance metadata)
    offset 16+H: bin-offset index, int64[n_bins + 1] — records of bin b
                 occupy rows [index[b], index[b+1])
    then       : the nine FlowRecordBatch columns, each one contiguous
                 packed array of n_records values, in column order
    then       : five derived columns — the resolved OD index and, per
                 feature, the record's bin-local run index in the
                 kernel's canonical (od, value) grouped order —
                 declared by the header's ``derived`` table (column
                 names, dtypes, CRCs, anonymization depth), same slab
                 layout as the base columns

:class:`TraceWriter` is the one writer — synthesised records reach a
file through :meth:`repro.pipeline.ScenarioSource.write_trace`
(``repro trace write``), which drives it — and it always derives
those columns: they are what :mod:`repro.stream.replay` consumes to
skip longest-prefix OD attribution and the per-bin (od, value) sort
during detection replay, and what cluster workers read as their shard
filter.  Records with equal (od, value) get the same run id, so the
file does not depend on how the sort orders ties.  There is one format
version, 2: :class:`TraceReader` opens nothing else, and a header
without the derived table or the column checksums is refused at open
with a :class:`TraceError` naming ``repro trace write``, which
regenerates the file from the scenario and seed in its ``meta``.

Because every column is a single contiguous slab, a reader can
``mmap`` the file and hand out :class:`FlowRecordBatch` chunks whose
columns are array *views* into the mapping — no copies, no
deserialization, RSS bounded by the touched pages regardless of trace
size.

Fault tolerance: the writer records a CRC32 per column slab in the
header (``column_crcs`` for the base slabs, ``derived.crcs`` for the
derived ones), and :func:`verify_trace` / ``repro trace info
--verify`` recompute them to catch silent corruption.  A trace cut off
mid-write — a capture that lost power, a copy that died — normally
fails the size check, but ``TraceReader(path, allow_partial=True)``
(and ``--allow-partial`` on the CLI) instead recovers every bin whose
rows survive in *all nine* base column slabs: truncation eats the file
tail, so the damage lands at the end of the last slabs and the
recoverable prefix is the minimum complete row count across columns,
rounded down to a whole bin.  The derived slabs sit after the base
nine, so a recovered tail has always lost them: the reader does not
map them, detection from stored columns refuses it
(:func:`repro.stream.replay.check_derived`), and its records replay
instead.  The writer validates that every appended record's timestamp
falls inside its declared bin (so replay re-bins records exactly where
the index says they are); records within a bin are stored in append
order — time-sorted when written from the synthetic stream, and
order-independent for the downstream reduction either way.

:class:`TraceWriter` keeps its own memory bounded too: appended batches
are spooled column-wise to temporary files and concatenated into the
final single file on close, so writing a trace never holds more than
one bin in RAM (run ids are bin-local, so derivation needs the whole
bin).
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zlib
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro import telemetry as tel
from repro.flows.binning import BIN_SECONDS, TimeBins
from repro.flows.features import FEATURES
from repro.flows.records import COLUMN_SPEC, FlowRecordBatch
from repro.kernels import sort_order

__all__ = [
    "TraceError",
    "TraceInfo",
    "TraceWriter",
    "TraceReader",
    "derive_columns",
    "trace_info",
    "verify_trace",
]

MAGIC = b"RPROTRC1"
#: The one format version, written and read: the base slabs plus the
#: derived columns (resolved OD index + per-feature bin-local run
#: indices) declared by the header's ``derived`` table.
FORMAT_VERSION = 2

#: Wire dtypes per column, little-endian (int64 columns -> "<i8",
#: the timestamp column -> "<f8"), derived from the batch schema.
_WIRE_DTYPES = tuple(
    (name, "<f8" if dtype == np.float64 else "<i8") for name, dtype in COLUMN_SPEC
)

#: Derived (precomputed) columns, stored after the base slabs: the
#: record's resolved OD flow, then — per feature — the record's run
#: index in its bin's canonical (od, value)-sorted grouped order
#: (-1 for zero-packet records the kernel drops).  Replay rebuilds the
#: kernel's exact per-bin histograms from these with one ``bincount``
#: per feature: no longest-prefix attribution, no sort.
DERIVED_COLUMNS = ("od",) + tuple(f"runid_{name}" for name in FEATURES)
_DERIVED_DTYPES = tuple((name, "<i8") for name in DERIVED_COLUMNS)
_ITEM_SIZE = 8

#: Telemetry page-fault proxy: one probe per 4 KiB page of int64 items.
_PAGE_STRIDE = 4096 // _ITEM_SIZE


class TraceError(ValueError):
    """A trace file is missing, truncated, or malformed.

    Subclasses ``ValueError`` so existing CLI error handling (exit code
    2 with a one-line message) applies without special cases.
    """


class TraceInfo:
    """Parsed header of a trace file (cheap; no column data touched).

    Attributes:
        path: The trace file.
        n_records: Readable records (equals ``declared_records`` unless
            the trace was recovered from a truncated tail).
        n_bins: Readable complete time bins.
        bins: The :class:`TimeBins` grid records were binned on.
        network: Generating topology name ("" when unknown).
        meta: Free-form provenance dict (generator seed, record caps,
            config fingerprint, ...).
        synthesis: Record-synthesis scheme a generated trace was written
            under (``meta["synthesis"]``; 1 when the key is missing,
            i.e. the file predates it).  The stored records replay
            unchanged under any build, but ``meta`` seeds regenerate
            them only under a build of the same scheme
            (:data:`repro.traffic.generator.SYNTHESIS_SCHEME`).
        bin_counts: ``(n_bins,)`` records per bin.
        declared_records: Record count the header claims the file holds.
        truncated: The file tail is missing and this info describes the
            recovered complete-bin prefix (``allow_partial=True``).
        dropped_records: Declared records lost to the truncation.
        column_crcs: Per-column CRC32s of the nine base slabs.
        derived: The header's derived-column table: column names and
            dtypes, their slab CRC32s (``crcs``) and the anonymization
            depth the run ids were computed under
            (``anonymization_bits``).  A truncated tail has lost those
            slabs; the table still describes the file as written.
    """

    def __init__(
        self,
        path: Path,
        header: dict,
        bin_offsets: np.ndarray,
        truncated: bool = False,
    ) -> None:
        self.path = path
        self.declared_records = int(header["n_records"])
        # Under partial recovery the offsets describe the readable
        # complete-bin prefix, not the full declared grid.
        self.n_records = int(bin_offsets[-1])
        self.n_bins = len(bin_offsets) - 1
        self.truncated = bool(truncated)
        self.dropped_records = self.declared_records - self.n_records
        self.column_crcs = [int(c) for c in header["column_crcs"]]
        self.version = int(header["version"])
        self.derived = dict(header["derived"])
        grid = header["bins"]
        self.bins = TimeBins(
            n_bins=self.n_bins, width=float(grid["width"]), start=float(grid["start"])
        )
        self.network = str(header.get("network", ""))
        self.meta = dict(header.get("meta", {}))
        self.synthesis = int(self.meta.get("synthesis", 1))
        self.bin_offsets = bin_offsets
        self.bin_counts = np.diff(bin_offsets)

    def ensure_compatible(
        self,
        network: str | None = None,
        min_bins: int | None = None,
        bin_width: float | None = None,
        start: float | None = None,
    ) -> None:
        """Validate this trace against a consumer's expectations.

        The one compatibility check every replay entry point shares
        (engine, cluster runner, CLI) — raising here beats silently
        re-binning another network's (or another grid's) records.

        Args:
            network: Topology name the consumer is configured for
                (skipped when either side is unknown/empty).
            min_bins: Bins the consumer intends to stream.
            bin_width / start: The consumer's bin grid; replaying onto
                a different grid would re-bin records by timestamp and
                silently change every per-bin feature.

        Raises:
            ValueError: On any mismatch, naming trace and expectation.
        """
        if network and self.network and self.network.lower() != network.lower():
            raise ValueError(
                f"trace {self.path} was recorded on {self.network!r}, "
                f"not {network!r}"
            )
        if min_bins is not None and min_bins > self.n_bins:
            raise ValueError(
                f"trace {self.path} covers {self.n_bins} bins, "
                f"cannot stream {min_bins}"
            )
        if bin_width is not None and bin_width != self.bins.width:
            raise ValueError(
                f"trace {self.path} was binned on {self.bins.width:g}s bins, "
                f"consumer expects {bin_width:g}s"
            )
        if start is not None and start != self.bins.start:
            raise ValueError(
                f"trace {self.path} starts at t={self.bins.start:g}, "
                f"consumer expects t={start:g}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceInfo({self.path.name}: {self.n_records} records, "
            f"{self.n_bins} bins, network={self.network!r})"
        )


def _pad_header(payload: bytes) -> bytes:
    """Space-pad the header JSON to an 8-byte boundary.

    Padding with trailing spaces keeps ``json.loads`` happy while the
    column slabs that follow stay 8-byte aligned for aliasing-free
    ``frombuffer`` views.
    """
    pad = (-len(payload)) % _ITEM_SIZE
    return payload + b" " * pad


def derive_columns(
    batch: FlowRecordBatch, router, anonymization_bits: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Precompute one bin's derived columns: ``(ods, runids)``.

    ``ods`` is the longest-prefix OD attribution the feature stage would
    resolve for each record; ``runids[k]`` is, per record, the index of
    the record's ``(od, anonymized value)`` run in the bin's canonical
    grouped order for feature ``k`` — the exact order
    :func:`repro.kernels.group_reduce` produces, so replay can rebuild
    each feature's count runs with one ``bincount`` instead of a sort.
    Records with equal ``(od, value)`` share one run id, so the ids do
    not depend on the order :func:`repro.kernels.sort_order` leaves
    ties in.  Zero-packet records (dropped by the kernel) get run id -1.

    ``batch`` must be one whole bin: run indices are bin-local.
    """
    ods = np.asarray(
        router.resolve_ods_mixed(batch.ingress_pop, batch.dst_ip), dtype=np.int64
    )
    anon = batch.anonymized(anonymization_bits) if anonymization_bits else batch
    weights = np.asarray(batch.packets, dtype=np.int64)
    keep = weights > 0
    all_kept = bool(keep.all())
    kept_idx = None if all_kept else np.flatnonzero(keep)
    runids: list[np.ndarray] = []
    for name in FEATURES:
        values = np.asarray(getattr(anon, name), dtype=np.int64)
        g = ods if all_kept else ods[kept_idx]
        v = values if all_kept else values[kept_idx]
        order = sort_order(g, v)
        gs, vs = g[order], v[order]
        new_run = np.empty(len(gs), dtype=bool)
        if len(gs):
            new_run[0] = True
            np.logical_or(gs[1:] != gs[:-1], vs[1:] != vs[:-1], out=new_run[1:])
        rid_sorted = np.cumsum(new_run) - 1
        rid = np.full(len(batch), -1, dtype=np.int64)
        if all_kept:
            rid[order] = rid_sorted
        else:
            rid[kept_idx[order]] = rid_sorted
        runids.append(rid)
    return ods, runids


class TraceWriter:
    """Stream record batches into a columnar trace file.

    Batches must arrive in nondecreasing bin order (several appends per
    bin are fine; bins with no records are fine).  Each appended batch
    is spooled to per-column temp files next to the target path, and
    each bin's derived columns are spooled when the next bin starts, so
    writer RSS stays bounded by one bin; :meth:`close` assembles the
    final single file and removes the spools.

    Deriving the OD column needs the backbone the records were sampled
    on: ``topology``, or else the registered topology named by
    ``network`` (:func:`repro.net.topology.topology_by_name`).

    A trace stores records, not the recipe: it replays unchanged under
    any build.  Writers of *synthesised* traces record the seeds and
    the generator's ``"synthesis"`` scheme in ``meta``; regenerating
    the same records from those seeds holds within one scheme only
    (see :attr:`TraceInfo.synthesis`).

    Usage::

        with TraceWriter(path, n_bins=72, network="abilene") as writer:
            for b, batch in enumerate(per_bin_batches):
                writer.append(b, batch)
        info = writer.info
    """

    def __init__(
        self,
        path: str | Path,
        n_bins: int,
        bin_width: float = BIN_SECONDS,
        start: float = 0.0,
        network: str = "",
        meta: dict | None = None,
        topology=None,
    ) -> None:
        from repro.net.routing import Router
        from repro.net.topology import topology_by_name

        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        if topology is None:
            topology = topology_by_name(network)
        self.path = Path(path)
        self.n_bins = int(n_bins)
        self.bin_width = float(bin_width)
        self.start = float(start)
        self.network = network or topology.name
        self.meta = dict(meta or {})
        self._router = Router(topology)
        self._anon_bits = int(topology.anonymization_bits)
        #: Open bin's batches, buffered until the bin closes: run
        #: indices are bin-local, so derivation needs the whole bin.
        self._pending: list[FlowRecordBatch] = []
        self._pending_bin = -1
        n_columns = len(_WIRE_DTYPES) + len(_DERIVED_DTYPES)
        self._bin_counts = np.zeros(self.n_bins, dtype=np.int64)
        self._last_bin = -1
        self._n_records = 0
        self._closed = False
        self.info: TraceInfo | None = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._spool_paths = [
            self.path.with_name(f".{self.path.name}.col{k}.tmp")
            for k in range(n_columns)
        ]
        self._spools = [p.open("wb") for p in self._spool_paths]
        # Incremental per-column CRC32s, updated as bytes are spooled;
        # spool order equals final slab order, so these are the slab
        # checksums verify_trace() recomputes.
        self._crcs = [0] * n_columns

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()

    # -- writing ---------------------------------------------------------

    def append(self, bin_index: int, batch: FlowRecordBatch) -> None:
        """Append one bin's records.

        Every record's timestamp must fall inside bin ``bin_index`` on
        the writer's grid — otherwise replay (which re-bins records by
        timestamp) would place it in a different bin than the index
        claims, silently dropping it as late.
        """
        if self._closed:
            raise ValueError("writer is closed")
        b = int(bin_index)
        if not 0 <= b < self.n_bins:
            raise ValueError(f"bin index {b} outside [0, {self.n_bins})")
        if b < self._last_bin:
            raise ValueError(
                f"bins must arrive in nondecreasing order (got {b} after {self._last_bin})"
            )
        self._last_bin = b
        if len(batch) == 0:
            return
        lo = self.start + b * self.bin_width
        hi = lo + self.bin_width
        ts_min, ts_max = float(batch.timestamp.min()), float(batch.timestamp.max())
        if ts_min < lo or ts_max >= hi:
            raise ValueError(
                f"batch timestamps [{ts_min:.3f}, {ts_max:.3f}] fall outside "
                f"bin {b}'s range [{lo:.3f}, {hi:.3f})"
            )
        for k, (spool, (name, dtype)) in enumerate(zip(self._spools, _WIRE_DTYPES)):
            column = np.ascontiguousarray(getattr(batch, name), dtype=dtype)
            view = memoryview(column).cast("B")
            spool.write(view)
            self._crcs[k] = zlib.crc32(view, self._crcs[k])
        if b != self._pending_bin:
            self._flush_derived()
            self._pending_bin = b
        self._pending.append(batch)
        self._bin_counts[b] += len(batch)
        self._n_records += len(batch)

    def _flush_derived(self) -> None:
        """Derive and spool the buffered bin's od/runid columns."""
        if not self._pending:
            return
        if len(self._pending) == 1:
            batch = self._pending[0]
        else:
            batch = FlowRecordBatch.concat(self._pending)
        self._pending = []
        ods, runids = derive_columns(batch, self._router, self._anon_bits)
        base = len(_WIRE_DTYPES)
        for j, column in enumerate([ods, *runids]):
            column = np.ascontiguousarray(column, dtype="<i8")
            view = memoryview(column).cast("B")
            self._spools[base + j].write(view)
            self._crcs[base + j] = zlib.crc32(view, self._crcs[base + j])

    def abort(self) -> None:
        """Drop everything written so far (no final file is produced)."""
        self._closed = True
        for spool in self._spools:
            spool.close()
        for spool_path in self._spool_paths:
            spool_path.unlink(missing_ok=True)

    def close(self) -> TraceInfo:
        """Assemble the final trace file; returns its parsed info."""
        if self._closed:
            if self.info is None:
                raise ValueError("writer was aborted")
            return self.info
        self._closed = True
        self._flush_derived()
        for spool in self._spools:
            spool.close()
        bin_offsets = np.zeros(self.n_bins + 1, dtype="<i8")
        np.cumsum(self._bin_counts, out=bin_offsets[1:])
        n_base = len(_WIRE_DTYPES)
        header = {
            "version": FORMAT_VERSION,
            "n_records": self._n_records,
            "n_bins": self.n_bins,
            "bins": {"width": self.bin_width, "start": self.start},
            "columns": [{"name": n, "dtype": d} for n, d in _WIRE_DTYPES],
            "column_crcs": [crc & 0xFFFFFFFF for crc in self._crcs[:n_base]],
            "network": self.network,
            "meta": self.meta,
            "derived": {
                "columns": [{"name": n, "dtype": d} for n, d in _DERIVED_DTYPES],
                "crcs": [crc & 0xFFFFFFFF for crc in self._crcs[n_base:]],
                "anonymization_bits": self._anon_bits,
            },
        }
        payload = _pad_header(json.dumps(header, sort_keys=True).encode())
        tmp_path = self.path.with_name(f".{self.path.name}.assembling.tmp")
        try:
            with tmp_path.open("wb") as out:
                out.write(MAGIC)
                out.write(struct.pack("<Q", len(payload)))
                out.write(payload)
                out.write(memoryview(bin_offsets))
                for spool_path in self._spool_paths:
                    with spool_path.open("rb") as spool:
                        shutil.copyfileobj(spool, out, length=1 << 22)
            os.replace(tmp_path, self.path)
        finally:
            tmp_path.unlink(missing_ok=True)
            for spool_path in self._spool_paths:
                spool_path.unlink(missing_ok=True)
        self.info = TraceInfo(self.path, header, bin_offsets.astype(np.int64))
        return self.info


def _check_format(path: Path, header: dict) -> None:
    """Refuse any header but a version-2 one with both column tables and
    every slab's checksum, naming the command that regenerates it."""
    version, derived = header.get("version"), header.get("derived")
    crcs = header.get("column_crcs") or ()
    problem = None
    if version != FORMAT_VERSION:
        problem = f"trace format version {version!r}"
    elif not isinstance(derived, dict) or not {
        "columns", "crcs", "anonymization_bits"
    } <= set(derived):
        problem = "no derived-column table"
    elif (len(crcs), len(derived["crcs"])) != (len(_WIRE_DTYPES), len(_DERIVED_DTYPES)):
        problem = "no checksum for every column slab"
    if problem:
        raise TraceError(
            f"{path}: {problem}; this reader opens only version-{FORMAT_VERSION} "
            f"traces with derived columns and checksums — regenerate it with "
            f"`repro trace write` from the scenario and seed in its meta"
        )
    tables = (
        ("column table", header["columns"], _WIRE_DTYPES),
        ("derived column table", derived["columns"], _DERIVED_DTYPES),
    )
    for what, columns, expected in tables:
        declared = [(c["name"], c["dtype"]) for c in columns]
        if declared != list(expected):
            raise TraceError(
                f"{path}: {what} {declared} does not match {list(expected)}"
            )


def _read_header(
    path: Path, allow_partial: bool = False
) -> tuple[dict, np.ndarray, int, int, bool]:
    """Parse and validate a trace header.

    Returns ``(header, offsets, data_start, declared_records,
    truncated)``.  ``offsets`` covers the *readable* bins: the full
    declared grid normally, or — for a truncated file under
    ``allow_partial`` — the longest complete-bin prefix whose rows
    survive in every column slab (``truncated=True``; column ``k``'s
    slab still starts at ``data_start + k * declared_records * 8``).
    """
    try:
        size = path.stat().st_size
        with path.open("rb") as handle:
            magic = handle.read(len(MAGIC))
            if magic != MAGIC:
                raise TraceError(
                    f"{path}: not a trace file (bad magic {magic!r}; "
                    f"expected {MAGIC!r})"
                )
            raw_len = handle.read(8)
            if len(raw_len) != 8:
                raise TraceError(f"{path}: truncated trace (header length missing)")
            (header_len,) = struct.unpack("<Q", raw_len)
            if header_len > size:
                raise TraceError(
                    f"{path}: corrupt trace (header length {header_len} exceeds "
                    f"file size {size})"
                )
            payload = handle.read(header_len)
            if len(payload) != header_len:
                raise TraceError(f"{path}: truncated trace (incomplete header)")
            try:
                header = json.loads(payload)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}: corrupt trace header ({exc})") from None
            _check_format(path, header)
            n_bins = int(header["n_bins"])
            n_records = int(header["n_records"])
            if n_bins < 1 or n_records < 0:
                raise TraceError(f"{path}: corrupt trace (n_bins={n_bins}, "
                                 f"n_records={n_records})")
            index_start = len(MAGIC) + 8 + header_len
            index_bytes = (n_bins + 1) * _ITEM_SIZE
            data_start = index_start + index_bytes
            n_columns = len(_WIRE_DTYPES) + len(_DERIVED_DTYPES)
            expected = data_start + n_records * _ITEM_SIZE * n_columns
            truncated = size != expected
            if truncated and not (allow_partial and data_start <= size < expected):
                # Padded files, or truncation that ate the index itself,
                # are unrecoverable; plain truncation is recoverable but
                # only on request.
                hint = (
                    "; pass allow_partial=True (--allow-partial) to "
                    "recover its complete bins"
                    if data_start <= size < expected
                    else ""
                )
                raise TraceError(
                    f"{path}: truncated or padded trace (file is {size} bytes, "
                    f"header implies {expected}){hint}"
                )
            handle.seek(index_start)
            offsets = np.frombuffer(
                handle.read(index_bytes), dtype="<i8"
            ).astype(np.int64)
            if (
                offsets[0] != 0
                or offsets[-1] != n_records
                or np.any(np.diff(offsets) < 0)
            ):
                raise TraceError(f"{path}: corrupt bin-offset index")
            if truncated:
                # Rows available per column: truncation eats the file
                # tail, so column k (whose slab starts k * n_records
                # rows into the data region) keeps the first
                # (size - slab_start) / 8 of its rows.  Only rows
                # present in EVERY column are usable, and only whole
                # bins of them.  Derived slabs sit after the base nine,
                # so any truncation loses them first: a recovered trace
                # is the base-column prefix only.
                avail = [
                    max(
                        0,
                        min(
                            n_records,
                            (size - data_start - k * n_records * _ITEM_SIZE)
                            // _ITEM_SIZE,
                        ),
                    )
                    for k in range(len(_WIRE_DTYPES))
                ]
                rows = min(avail)
                last_full = int(np.searchsorted(offsets, rows, side="right")) - 1
                if last_full < 1:
                    raise TraceError(
                        f"{path}: truncated trace has no complete bins to "
                        f"recover (only {rows} of {n_records} records "
                        f"survive in every column)"
                    )
                offsets = offsets[: last_full + 1]
            return header, offsets, data_start, n_records, truncated
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc


class TraceReader:
    """Memory-mapped, zero-copy reader for a columnar trace file.

    Columns are exposed as read-only memory-mapped arrays; every batch
    the reader yields holds *views* into those mappings
    (``np.shares_memory`` with the file mapping), so replaying a trace
    of any size keeps RSS bounded by the pages the OS chooses to cache.

    Usage::

        with TraceReader(path) as reader:
            for chunk in reader.iter_chunks(chunk_records=8192):
                engine.ingest(chunk)

    ``allow_partial=True`` opts into reading a truncated trace: the
    reader exposes the longest complete-bin prefix present in every
    column slab (see :func:`_read_header`) instead of raising
    :class:`TraceError`; ``reader.info.truncated`` reports which case
    applied, and column maps keep the *declared* slab stride so the
    surviving rows line up exactly where the writer put them.
    """

    def __init__(
        self,
        path: str | Path,
        allow_partial: bool = False,
        readahead: bool = False,
    ) -> None:
        self.path = Path(path)
        header, offsets, data_start, declared, truncated = _read_header(
            self.path, allow_partial=allow_partial
        )
        self.info = TraceInfo(self.path, header, offsets, truncated=truncated)
        self._columns: dict[str, np.ndarray] = {}
        self._derived_columns: dict[str, np.ndarray] = {}
        #: False until this reader has completed one full chunk sweep;
        #: used to label telemetry spans cold vs warm (page-fault proxy).
        self._swept = False
        n = self.info.n_records
        for k, (name, dtype) in enumerate(_WIRE_DTYPES):
            self._columns[name] = np.memmap(
                self.path,
                dtype=dtype,
                mode="r",
                offset=data_start + k * declared * _ITEM_SIZE,
                shape=(n,),
            )
        if not self.info.truncated:
            base = len(_WIRE_DTYPES)
            for j, (name, dtype) in enumerate(_DERIVED_DTYPES):
                self._derived_columns[name] = np.memmap(
                    self.path,
                    dtype=dtype,
                    mode="r",
                    offset=data_start + (base + j) * declared * _ITEM_SIZE,
                    shape=(n,),
                )
        if readahead and hasattr(os, "posix_fadvise"):
            # Kick off sequential readahead for the whole file so a cold
            # replay overlaps page-ins with compute instead of paying
            # one major fault per first-touch page.
            fd = os.open(self.path, os.O_RDONLY)
            try:
                os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_WILLNEED)
            finally:
                os.close(fd)

    # -- basic facts ------------------------------------------------------

    @property
    def n_records(self) -> int:
        """Total records in the trace."""
        return self.info.n_records

    @property
    def n_bins(self) -> int:
        """Number of bins the trace covers."""
        return self.info.n_bins

    @property
    def bins(self) -> TimeBins:
        """The bin grid records were produced on."""
        return self.info.bins

    @property
    def network(self) -> str:
        """Generating topology name ("" when unknown)."""
        return self.info.network

    @property
    def meta(self) -> dict:
        """Provenance metadata recorded by the writer."""
        return self.info.meta

    def column(self, name: str) -> np.ndarray:
        """One whole column as a read-only memory-mapped array."""
        return self._columns[name]

    def derived_column(self, name: str) -> np.ndarray:
        """One derived column (``od`` or ``runid_<feature>``) as a
        read-only memory-mapped array.

        Raises:
            KeyError: For a tail recovered from a truncated file, which
                lost its derived slabs.
        """
        return self._derived_columns[name]

    def read_derived_bin(self, b: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """One bin's ``(ods, runids)`` derived columns as zero-copy views.

        ``runids`` is a list in :data:`repro.flows.features.FEATURES`
        order, matching what :func:`derive_columns` computes.
        """
        lo, hi = self.bin_range(b)
        ods = self._derived_columns["od"][lo:hi]
        runids = [
            self._derived_columns[f"runid_{name}"][lo:hi] for name in FEATURES
        ]
        return ods, runids

    def __len__(self) -> int:
        return self.n_records

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Drop the column mappings (views already handed out survive)."""
        self._columns = {}
        self._derived_columns = {}

    # -- slicing ----------------------------------------------------------

    def _batch(self, start: int, stop: int) -> FlowRecordBatch:
        return FlowRecordBatch(
            **{name: col[start:stop] for name, col in self._columns.items()}
        )

    def bin_range(self, b: int) -> tuple[int, int]:
        """Row range ``[start, stop)`` of bin ``b``."""
        if not 0 <= b < self.n_bins:
            raise ValueError(f"bin index out of range: {b}")
        offsets = self.info.bin_offsets
        return int(offsets[b]), int(offsets[b + 1])

    def read_bin(self, b: int) -> FlowRecordBatch:
        """One bin's records as a zero-copy view batch."""
        return self._batch(*self.bin_range(b))

    def iter_chunks(
        self,
        chunk_records: int = 8192,
        bins: Sequence[int] | None = None,
    ) -> Iterator[FlowRecordBatch]:
        """Yield the trace as time-ordered view batches.

        Args:
            chunk_records: Upper bound on records per yielded chunk.
            bins: Bin indices to replay (default: every bin, which
                streams the whole record range in one contiguous sweep).

        Yields:
            Non-empty :class:`FlowRecordBatch` view chunks in record order.
        """
        if chunk_records < 1:
            raise ValueError("chunk_records must be positive")
        if not self._columns:
            raise ValueError("reader is closed")
        if bins is None:
            spans = [(0, self.n_records)]
        else:
            spans = [self.bin_range(int(b)) for b in bins]
        # Telemetry labels chunk production cold vs warm per reader
        # sweep — an mmap page-fault proxy.  With telemetry on, each
        # chunk's pages are touched (one read per 4 KiB page) inside
        # the span, so fault time is attributed here instead of leaking
        # into whatever stage first reads the columns.
        instrumented = tel.enabled()
        label = "trace.chunk.warm" if self._swept else "trace.chunk.cold"
        for start, stop in spans:
            for lo in range(start, stop, chunk_records):
                with tel.span(label):
                    chunk = self._batch(lo, min(lo + chunk_records, stop))
                    if instrumented:
                        for name in self._columns:
                            col = getattr(chunk, name)
                            if len(col):
                                col[::_PAGE_STRIDE].max()
                if len(chunk):
                    tel.count("trace.records_replayed", len(chunk))
                    yield chunk
        self._swept = True


def trace_info(path: str | Path, allow_partial: bool = False) -> TraceInfo:
    """Parse a trace header without mapping the columns.

    ``allow_partial=True`` describes a truncated trace's recoverable
    complete-bin prefix instead of raising (``info.truncated`` tells
    which happened).
    """
    path = Path(path)
    header, offsets, _, _, truncated = _read_header(path, allow_partial=allow_partial)
    return TraceInfo(path, header, offsets, truncated=truncated)


#: The name the benchmark ledger's set-up (``benchmarks/ledger``) still
#: calls on a freshly written trace; it reads the header and nothing else.
upgrade_trace = trace_info


def verify_trace(path: str | Path, chunk_bytes: int = 1 << 22) -> dict[str, dict]:
    """Recompute each column slab's CRC32 and compare with the header.

    Catches silent corruption a size check can't: a flipped bit in the
    middle of a slab leaves the file length (and often the replay)
    plausible while every downstream histogram is wrong.

    Returns:
        ``{column_name: {"stored": int, "computed": int, "ok": bool}}``.

    Raises:
        TraceError: If the trace is unreadable or truncated.
    """
    path = Path(path)
    header, _, data_start, declared, _ = _read_header(path)
    columns = [name for name, _ in _WIRE_DTYPES + _DERIVED_DTYPES]
    stored = [int(c) for c in header["column_crcs"] + header["derived"]["crcs"]]
    results: dict[str, dict] = {}
    slab_bytes = declared * _ITEM_SIZE
    with path.open("rb") as handle:
        for k, name in enumerate(columns):
            handle.seek(data_start + k * slab_bytes)
            crc = 0
            remaining = slab_bytes
            while remaining:
                block = handle.read(min(chunk_bytes, remaining))
                if not block:
                    raise TraceError(f"{path}: short read in column {name!r}")
                crc = zlib.crc32(block, crc)
                remaining -= len(block)
            crc &= 0xFFFFFFFF
            results[name] = {
                "stored": int(stored[k]),
                "computed": crc,
                "ok": crc == int(stored[k]),
            }
    return results
