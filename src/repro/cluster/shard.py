"""Shard-side ingestion: records in, mergeable bin summaries out.

A :class:`ShardMonitor` is the process-local half of the distributed
deployment sketched in the paper's Section 8: it consumes the shard's
slice of the flow-record stream (any partition works — by OD flow, by
ingress PoP, by collector) and emits one :class:`ShardBinSummary` per
closed time bin instead of a scored entropy matrix.  Everything about
ingestion — chunked batches, bin rollover, gap bins, late-record
discard, OD attribution, collector anonymisation — is inherited from
:class:`repro.stream.window.StreamFeatureStage`; only the bin-close
hand-off differs, deferring entropy to the coordinator's merge point so
the shard ships raw mergeable counts.  Since the accumulator's grouped
store already reduces each feature's counts to canonical sorted runs
(:mod:`repro.kernels`), that export *is* the kernel output: four
``GroupedRuns``, handed over as returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.summary import ShardBinSummary
from repro.stream.window import BinAccumulator, StreamFeatureStage

__all__ = ["ShardMonitor"]


@dataclass
class ShardMonitor(StreamFeatureStage):
    """A per-shard feature stage emitting mergeable summaries.

    Same constructor knobs as :class:`StreamFeatureStage` (topology,
    bin grid, sketch geometry, ``exact``), plus:

    Attributes:
        shard_id: This shard's identity, echoed to the coordinator.

    ``ingest`` / ``ingest_histograms`` / ``flush`` return
    :class:`ShardBinSummary` objects (one per closed bin, gap bins
    included) ready to serialize with ``to_bytes()``.
    """

    shard_id: int = 0

    def _finalize(self, accumulator: BinAccumulator, bin_index: int) -> ShardBinSummary:
        return ShardBinSummary.from_accumulator(accumulator, bin_index)
