"""Precomputed-trace detection replay: derived columns -> bin summaries.

Warm mmap replay streams records ~40x faster than the exact detection
path consumes them; the committed telemetry shows why — the per-bin
(od, value) sort inside :func:`repro.kernels.group_reduce` is the
single hottest span.  Every trace (:mod:`repro.io.trace`) stores
what that sort produces: per record, the resolved OD index and — per
feature — the record's run index in the bin's canonical (od, value)
grouped order.  Records sharing an (od, value) key share one run id and
are summed, so the order the sort leaves them in is unobservable and
nothing about it is stored.  With those columns the whole per-bin reduction
collapses to one weighted ``bincount`` per feature (run ids are dense
and already in canonical order), one scatter for the run -> OD map,
and the same vectorized grouped-entropy pass the kernel uses, so the
emitted :class:`~repro.stream.window.BinSummary` is bit-identical to
what :class:`~repro.stream.window.StreamFeatureStage` computes from
raw records — detections from either path match byte for byte.

A tail recovered from a truncated file (``allow_partial``) has lost
its derived slabs: :func:`check_derived` refuses it with a
:class:`~repro.io.trace.TraceError`, and its records replay instead.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro import telemetry as tel
from repro.flows.features import N_FEATURES
from repro.io.trace import TraceError, TraceReader
from repro.kernels import group_sums, grouped_entropy
from repro.net.topology import Topology
from repro.stream.window import BinSummary

__all__ = [
    "bin_summary_from_derived",
    "check_derived",
    "derived_runs",
    "iter_precomputed_summaries",
]


def check_derived(info, topology: Topology) -> None:
    """Refuse a trace whose run ids cannot stand in for ``topology``'s
    grouped reduction.

    Args:
        info: The trace's :class:`~repro.io.trace.TraceInfo`.

    Raises:
        TraceError: The trace is a tail recovered from a truncated file,
            which lost its derived columns.
        ValueError: The run ids were computed under another
            anonymization depth than ``topology``'s.
    """
    if info.truncated:
        raise TraceError(
            f"{info.path} was recovered from a truncated file and lost its "
            f"derived detection columns; replay its records instead"
        )
    stored_bits = int(info.derived["anonymization_bits"])
    if stored_bits != int(topology.anonymization_bits):
        raise ValueError(
            f"{info.path} derived its run ids under {stored_bits}-bit "
            f"anonymization, but {topology.name} uses "
            f"{topology.anonymization_bits}"
        )


def derived_runs(
    rid: np.ndarray,
    ods: np.ndarray,
    weights: np.ndarray,
    values: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """One feature's count runs from its stored run ids.

    ``rid`` holds the (non-negative) run id of each record in the bin's
    canonical (od, value) order, aligned with ``ods`` and the record
    weights.  One weighted ``bincount`` sums each run, one scatter maps
    run -> OD, and — when ``values`` is given — one more maps run ->
    value.  Runs no record here reaches (another shard's, when the
    records are one shard's slice of the bin) have count zero and are
    compacted away.

    Returns:
        ``(group_ids, starts, counts, run_values)``: the distinct ODs
        ascending, CSR offsets of each OD's runs, the float64 run sums
        (integer weights sum exactly) and the runs' values (None when
        ``values`` is None) — the layout of
        :class:`repro.kernels.GroupedRuns`.
    """
    counts = np.bincount(rid, weights=weights)
    # Every run with a non-zero count is written; the rest are dropped.
    od_of_run = np.empty(len(counts), dtype=np.int64)
    od_of_run[rid] = ods
    run_values = None
    if values is not None:
        run_values = np.empty(len(counts), dtype=np.int64)
        run_values[rid] = values
    if not counts.all():
        live = np.flatnonzero(counts > 0)
        counts, od_of_run = counts[live], od_of_run[live]
        if run_values is not None:
            run_values = run_values[live]
    new_group = np.empty(len(counts), dtype=bool)
    new_group[0] = True
    np.not_equal(od_of_run[1:], od_of_run[:-1], out=new_group[1:])
    group_starts = np.flatnonzero(new_group)
    starts = np.append(group_starts, len(counts)).astype(np.int64)
    return od_of_run[group_starts], starts, counts, run_values


def bin_summary_from_derived(
    bin_index: int,
    ods: np.ndarray,
    runids: list[np.ndarray],
    packets: np.ndarray,
    byte_counts: np.ndarray,
    n_od_flows: int,
) -> BinSummary:
    """Build one bin's summary from its derived columns.

    Equivalent to feeding the bin's records through an exact-mode
    :class:`~repro.stream.window.BinAccumulator`: per feature, the run
    ids already encode the kernel's canonical (od, value) grouped order,
    so the count runs come from one weighted ``bincount`` (integer
    weights sum exactly in float64), the run -> OD boundaries from one
    scatter + diff, and the entropies from the same
    :func:`repro.kernels.grouped_entropy` pass — identical inputs,
    identical float arithmetic, bit-identical summary.
    """
    entropy = np.zeros((n_od_flows, N_FEATURES))
    n = len(ods)
    if n:
        packets = np.asarray(packets)
        # Zero-packet records carry run id -1 (the kernel drops them);
        # the mask is shared by all four features.
        if packets.min() == 0:
            valid = np.asarray(runids[0]) >= 0
            od_v = np.asarray(ods)[valid]
            w_v = packets[valid]
        else:
            valid = None
            od_v = ods
            w_v = packets
        for k in range(N_FEATURES):
            rid = np.asarray(runids[k])
            if valid is not None:
                rid = rid[valid]
            if not len(rid):
                continue
            group_ids, starts, counts, _ = derived_runs(rid, od_v, w_v)
            entropy[group_ids, k] = grouped_entropy(counts, starts)
        pk = group_sums(ods, packets, n_od_flows)
        by = group_sums(ods, byte_counts, n_od_flows)
    else:
        pk = np.zeros(n_od_flows, dtype=np.int64)
        by = np.zeros(n_od_flows, dtype=np.int64)
    return BinSummary(
        bin=bin_index,
        entropy=entropy,
        packets=pk.astype(np.float64),
        bytes=by.astype(np.float64),
        n_records=n,
    )


def iter_precomputed_summaries(
    reader: TraceReader, topology: Topology
) -> Iterator[BinSummary]:
    """Yield exact-mode bin summaries straight from a trace.

    Exactly the bins the record-level stage would close: from the first
    non-empty bin through the last (gap bins in between yield empty
    summaries; leading/trailing empty bins never close).

    Raises:
        TraceError: The trace is a tail recovered from a truncated file,
            which lost its derived columns.
        ValueError: The run ids were computed under another
            anonymization depth than ``topology``'s.
    """
    check_derived(reader.info, topology)
    nonempty = np.flatnonzero(reader.info.bin_counts)
    if not len(nonempty):
        return
    for b in range(int(nonempty[0]), int(nonempty[-1]) + 1):
        with tel.span("replay.derived"):
            lo, hi = reader.bin_range(b)
            ods, runids = reader.read_derived_bin(b)
            summary = bin_summary_from_derived(
                b,
                ods,
                runids,
                reader.column("packets")[lo:hi],
                reader.column("bytes")[lo:hi],
                topology.n_od_flows,
            )
        tel.count("trace.records_replayed", int(hi - lo))
        yield summary
