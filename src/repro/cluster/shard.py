"""Shard-side ingestion: one shard's OD flows in, per-bin row blocks out.

:func:`shard_summaries` is the one shard-side entry point — "the
blocks shard *s* of *K* ships from bin *r* on" — and the cluster worker
calls nothing else.  The shard owns every record of its OD flows
(``od % K == s``), so it finishes them itself: each closed bin becomes
a :class:`ShardBinSummary` row block of its ODs' entropy and volume
rows.  It has two paths that ship the same bytes:

* **records** — a :class:`ShardMonitor` over the source's
  ``shard_batches``: the process-local half of the distributed
  deployment sketched in the paper's Section 8.  Everything about
  ingestion — chunked batches, bin rollover, gap bins, late-record
  discard, OD attribution, collector anonymisation — is inherited from
  :class:`repro.stream.window.StreamFeatureStage`; only the bin-close
  hand-off differs, shipping :meth:`BinAccumulator.finalize`'s rows for
  the ODs the shard saw.  Scenario sources and sketch mode take this
  path.
* **stored run ids** — an exact-mode shard over a trace
  (:class:`repro.pipeline.TraceSource`).  Every trace stores, per
  record, its resolved OD and, per feature, its run id in the bin's
  canonical ``(od, value)`` order (:mod:`repro.io.trace`).  The shard
  picks its rows by the stored OD and hands them to
  :func:`repro.stream.replay.bin_summary_from_derived`, the
  precomputed replay's own reduction: one weighted ``bincount`` of the
  run ids per feature and the grouped-entropy kernel.  Entropy needs
  only the run ids, so no feature value is read or anonymised, nothing
  is sorted and no longest-prefix lookup runs.

Both paths close the same bins — from the shard's first non-empty bin
at or after ``resume_bin`` through its last, gap bins shipped empty —
with byte-identical ``to_bytes()`` and the same ``reduce.records`` /
``reduce.bins_closed`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro import telemetry as tel
from repro.cluster.summary import ShardBinSummary
from repro.flows.features import FEATURES
from repro.io.trace import TraceReader
from repro.pipeline.sources import shard_ods
from repro.stream.chunks import DEFAULT_CHUNK_RECORDS
from repro.stream.replay import bin_summary_from_derived, check_derived
from repro.stream.window import BinAccumulator, StreamFeatureStage, _check_ods

__all__ = ["ShardMonitor", "ShardPass", "shard_summaries"]


@dataclass
class ShardMonitor(StreamFeatureStage):
    """A per-shard feature stage emitting row blocks.

    Same constructor knobs as :class:`StreamFeatureStage` (topology,
    bin grid, sketch geometry, ``exact``), plus:

    Attributes:
        shard_id: This shard's identity, echoed to the coordinator.

    ``ingest`` / ``flush`` return
    :class:`ShardBinSummary` row blocks (one per closed bin, gap bins
    included) ready to serialize with ``to_bytes()``.
    """

    shard_id: int = 0

    def _finalize(self, accumulator: BinAccumulator, bin_index: int) -> ShardBinSummary:
        return ShardBinSummary.from_accumulator(accumulator, bin_index, self.shard_id)


class ShardPass:
    """One shard's pass over its source (see :func:`shard_summaries`).

    Iterating yields the row blocks to ship, in bin order.  Once the
    iteration is exhausted, ``n_records`` is every record the shard owns
    in the source's bins — the same for a pass resumed mid-run as for
    one from bin 0, so a restarted shard reports its whole load — and
    ``late_records`` those it dropped as late.
    """

    def __init__(self) -> None:
        self.n_records = 0
        self.late_records = 0
        self._summaries: Iterator[ShardBinSummary] = iter(())

    def __iter__(self) -> Iterator[ShardBinSummary]:
        return self._summaries


def shard_summaries(
    source,
    shard_id: int,
    n_shards: int,
    resume_bin: int = 0,
    *,
    exact: bool = True,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    width: int = 2048,
    depth: int = 4,
    sketch_seed: int = 0,
) -> ShardPass:
    """The row blocks shard ``shard_id`` of ``n_shards`` ships from bin
    ``resume_bin`` on.

    The shard owns every record of the OD flows ``od % n_shards ==
    shard_id``.  An exact-mode shard over a trace builds its blocks
    from the trace's stored run ids; every other shard runs a
    :class:`ShardMonitor` over ``source.shard_batches`` (module
    docstring).  Bins before ``resume_bin`` are skipped, never shipped.

    Args:
        source: A :class:`repro.pipeline.RecordSource`.
        exact: Exact histograms (True) or Count-Min sketches.
        chunk_records / width / depth / sketch_seed: The record path's
            chunking and sketch geometry.

    Raises:
        ValueError: A trace whose run ids were derived under another
            anonymization depth than the source topology's (exact
            mode; :func:`repro.stream.replay.check_derived`).
    """
    scan = ShardPass()
    if exact and source.spec.kind == "trace":
        scan._summaries = _stored_run_summaries(
            scan, source, shard_id, n_shards, resume_bin
        )
    else:
        monitor = ShardMonitor(
            source.topology,
            bin_width=source.spec.bin_width,
            start=source.spec.bin_start,
            width=width,
            depth=depth,
            sketch_seed=sketch_seed,
            exact=exact,
            shard_id=shard_id,
        )
        chunks = source.shard_batches(
            shard_id, n_shards, router=monitor.router, chunk_records=chunk_records
        )
        scan._summaries = _record_summaries(scan, monitor, chunks, resume_bin)
    return scan


def _record_summaries(
    scan: ShardPass, monitor: ShardMonitor, chunks, resume_bin: int
) -> Iterator[ShardBinSummary]:
    # Fast-forward on resume: chunks entirely before the resume bin
    # only feed bins whose summaries would be dropped anyway; they
    # still count towards the shard's load.
    resume_time = monitor.start + resume_bin * monitor.bin_width
    for chunk, ods in tel.timed_iter(chunks, "stage.source"):
        scan.n_records += len(chunk)
        if resume_bin > 0 and len(chunk) and chunk.timestamp.max() < resume_time:
            continue
        for summary in monitor.ingest(chunk, ods=ods):
            if summary.bin >= resume_bin:
                yield summary
    for summary in monitor.flush():
        if summary.bin >= resume_bin:
            yield summary
    scan.late_records = monitor.late_records


def _stored_run_summaries(
    scan: ShardPass, source, shard_id: int, n_shards: int, resume_bin: int
) -> Iterator[ShardBinSummary]:
    topology = source.topology
    p = topology.n_od_flows
    with tel.span("stage.source"):
        reader = TraceReader(source.spec.trace_path)
        check_derived(reader.info, topology)
        first_bin = min(resume_bin, source.spec.n_bins)
        offsets = reader.info.bin_offsets[:source.spec.n_bins + 1]
        od = np.asarray(reader.derived_column("od"))
        span = od[:offsets[-1]]
        _check_ods(span, p)
        # Indices of the shard's records (``od % n_shards == shard_id``,
        # looked up in a p-entry table: numpy's integer ``%`` costs
        # three times the gather), and where each bin's share of them
        # starts from the resume bin on.  All of them count towards
        # the shard's load, whatever the resume bin.
        owned = np.zeros(p, dtype=bool)
        owned[shard_ods(p, n_shards, shard_id)] = True
        rows = np.flatnonzero(owned[span])
        scan.n_records = len(rows)
        offsets = offsets[first_bin:]
        bounds = np.searchsorted(rows, offsets)
        packets = np.asarray(reader.column("packets"))
        byte_counts = np.asarray(reader.column("bytes"))
        runids = [np.asarray(reader.derived_column(f"runid_{name}")) for name in FEATURES]
    nonempty = np.flatnonzero(np.diff(bounds))
    if not len(nonempty):
        return
    for i in range(int(nonempty[0]), int(nonempty[-1]) + 1):
        with tel.span("stage.reduce"):
            index = rows[bounds[i]:bounds[i + 1]]
            summary = bin_summary_from_derived(
                first_bin + i, od.take(index), [r.take(index) for r in runids],
                packets.take(index), byte_counts.take(index), p,
            )
            block = ShardBinSummary.from_bin_summary(summary, shard_id)
            tel.count("reduce.records", len(index))
        tel.count("reduce.bins_closed")
        yield block
