"""Sharded multi-process detection (the paper's Section 8 systems problem).

Record ingestion shards across processes; each shard reduces its slice
of every time bin into a serializable, mergeable summary; a central
coordinator aligns the shards by bin, folds the summaries with an
associative/commutative merge, and drives the streaming detection
engine — so a cluster of monitors produces the same network-wide
diagnosis as one process reading the whole trace.

* :mod:`repro.cluster.summary` — :class:`ShardBinSummary`, the
  mergeable per-bin unit of exchange and its wire format.
* :mod:`repro.cluster.shard` — :class:`ShardMonitor`, the shard-side
  ingestion stage.
* :mod:`repro.cluster.coordinator` — :class:`ClusterCoordinator`, the
  bin-aligned central merge point.
* :mod:`repro.cluster.transport` — :class:`SummaryTransport`
  implementations: per-worker pipes and framed TCP sockets
  (``repro worker --connect`` for off-box workers).
* :mod:`repro.cluster.aggregator` — :class:`TierMerge`, the
  order-invariant tree-merge behind declarative aggregator tiers
  (``--tiers AxB``), keeping coordinator fan-in flat as shards grow.
* :mod:`repro.cluster.supervisor` — :class:`Supervisor`, the pure
  state machine deciding restarts, deadlines and degraded completion
  (see :mod:`repro.resilience`).
* :mod:`repro.cluster.runner` — :func:`run_cluster_source`, cluster
  mode's one entry point: the ``multiprocessing`` driver behind
  ``repro cluster`` and ``DetectionPipeline.run(mode="cluster")``,
  running the supervisor's commands (plus checkpoint/resume).
"""

from repro.cluster.aggregator import AggregatorSpec, TierMerge, parse_tiers
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.runner import run_cluster_source
from repro.cluster.shard import ShardMonitor
from repro.cluster.summary import ShardBinSummary, SummaryCorruptError, merge_summaries
from repro.cluster.transport import (
    FrameError,
    PipeTransport,
    SummaryTransport,
    TcpTransport,
    parse_hostport,
)

__all__ = [
    "AggregatorSpec",
    "ClusterCoordinator",
    "FrameError",
    "PipeTransport",
    "ShardBinSummary",
    "ShardMonitor",
    "SummaryCorruptError",
    "SummaryTransport",
    "TcpTransport",
    "TierMerge",
    "merge_summaries",
    "parse_hostport",
    "parse_tiers",
    "run_cluster_source",
]
