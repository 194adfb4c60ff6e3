"""Chunked record ingestion: bounded-memory iteration over flow records.

Collectors hand the engine flow records in whatever batch sizes the
export protocol produced.  :func:`iter_record_chunks` re-chunks any
iterable of :class:`repro.flows.records.FlowRecordBatch` into batches of
at most ``chunk_records`` rows, preserving record order, so downstream
stages see a predictable memory envelope regardless of the source.

Two matching sources cover the reproduction's workloads:

* :func:`synthetic_record_stream` materialises one bin at a time from a
  :class:`repro.traffic.generator.TrafficGenerator` (one vectorised
  pass per OD flow over a group of bins), so an arbitrarily long
  synthetic trace can be streamed without ever holding more than one
  bin group of records;
* :func:`trace_record_stream` replays a columnar trace file written by
  :mod:`repro.io.trace` as zero-copy memory-mapped views — the fast
  path once a trace has been recorded.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.flows.records import FlowRecordBatch

__all__ = ["iter_record_chunks", "synthetic_record_stream", "trace_record_stream"]

DEFAULT_CHUNK_RECORDS = 8192


def iter_record_chunks(
    source: FlowRecordBatch | Iterable[FlowRecordBatch],
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> Iterator[FlowRecordBatch]:
    """Yield batches of at most ``chunk_records`` records, in order.

    Args:
        source: A single batch or any iterable of batches (a generator
            works; it is consumed lazily, so memory stays bounded by the
            largest incoming batch plus one chunk).
        chunk_records: Upper bound on records per emitted chunk.

    Yields:
        Non-empty :class:`FlowRecordBatch` chunks of at most
        ``chunk_records`` rows covering exactly the source records in
        their original order.  A batch that already fits the bound while
        nothing is pending is forwarded *as-is*, and a larger batch is
        carved into slice *views* (no column copies) — so a view-backed
        source such as a memory-mapped trace replays without forcing
        any column into fresh memory.  Copies happen only when a chunk
        must stitch together rows from more than one source batch.
        Chunk boundaries, though never exceeding the bound, depend on
        how the source was batched.
    """
    if chunk_records < 1:
        raise ValueError("chunk_records must be positive")
    if isinstance(source, FlowRecordBatch):
        source = (source,)
    pending: list[FlowRecordBatch] = []
    pending_rows = 0
    for batch in source:
        n = len(batch)
        if n == 0:
            continue
        if pending_rows == 0 and n <= chunk_records:
            yield batch
            continue
        start = 0
        while start < n:
            take = min(n - start, chunk_records - pending_rows)
            piece = batch if take == n else batch.select(slice(start, start + take))
            pending.append(piece)
            pending_rows += take
            start += take
            if pending_rows == chunk_records:
                # concat() forwards a lone piece untouched, so carving
                # one big batch into full chunks never copies columns.
                yield FlowRecordBatch.concat(pending)
                pending, pending_rows = [], 0
    if pending_rows:
        yield FlowRecordBatch.concat(pending)


def synthetic_record_stream(
    generator,
    bins: Sequence[int],
    ods: Sequence[int] | None = None,
    max_records_per_od: int = 400,
    seed: int = 0,
    bin_group: int = 64,
) -> Iterator[FlowRecordBatch]:
    """Materialise a synthetic flow-record trace one bin at a time.

    Args:
        generator: A :class:`repro.traffic.generator.TrafficGenerator`
            (defines the topology, bin grid and per-OD traffic).
        bins: Bin indices to stream, in increasing order.
        ods: OD flows to include (default: all).
        max_records_per_od: Cap on records materialised per (OD, bin) —
            the knob trading trace size for fidelity.
        seed: Extra seed mixed into the per-bin record draw.
        bin_group: Bins materialised per pass.  Each OD flow's model
            is built once per group and its records for the whole group
            drawn in one vectorised pass; memory is bounded by one
            group of records.  The records do not depend on it.

    Yields:
        One time-sorted :class:`FlowRecordBatch` per bin, in ``bins``
        order.  Every draw is a counter-based function of ``(generator
        seed, seed, od, bin, record index)``
        (:func:`repro.traffic.generator.record_uniforms`), so a cluster
        shard materialising only its OD slice, a different
        ``bin_group`` or a stream resumed at a later bin yields records
        bit-identical to a whole-trace sweep — and a trace written by
        :meth:`repro.pipeline.ScenarioSource.write_trace` replays
        bit-identical to the inline scenario stream built on it.
    """
    if bin_group < 1:
        raise ValueError("bin_group must be positive")
    if ods is None:
        ods = range(generator.topology.n_od_flows)
    ods = [int(od) for od in ods]
    bins = [int(b) for b in bins]
    for g in range(0, len(bins), bin_group):
        group = bins[g : g + bin_group]
        yield from generator.materialize_bin_group(
            ods, group, max_records=max_records_per_od, salt=seed
        )


def trace_record_stream(
    trace,
    bins: Sequence[int] | None = None,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> Iterator[FlowRecordBatch]:
    """Replay a recorded columnar trace as zero-copy record chunks.

    Args:
        trace: A trace path or an open
            :class:`repro.io.trace.TraceReader`.
        bins: Bin indices to replay (default: the whole trace).
        chunk_records: Upper bound on records per yielded chunk.

    Yields:
        Time-ordered :class:`FlowRecordBatch` chunks whose columns are
        views into the file mapping.
    """
    from repro.io.trace import TraceReader

    if isinstance(trace, (str, Path)):
        with TraceReader(trace) as reader:
            yield from reader.iter_chunks(chunk_records=chunk_records, bins=bins)
    else:
        yield from trace.iter_chunks(chunk_records=chunk_records, bins=bins)
