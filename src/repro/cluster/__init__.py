"""Sharded multi-process detection (the paper's Section 8 systems problem).

Record ingestion shards across processes; each shard reduces its slice
of every time bin into a serializable, mergeable summary; a central
coordinator aligns the shards by bin, reduces each bin's K summaries in
one pass, and drives the streaming detection engine — so a cluster of
monitors produces the same network-wide diagnosis as one process
reading the whole trace.

* :mod:`repro.cluster.summary` — :class:`ShardBinSummary`, the
  mergeable per-bin unit of exchange and its wire format, and
  :func:`merge_summaries`, the one K-way merge.
* :mod:`repro.cluster.shard` — :func:`shard_summaries`, the summaries
  one shard ships: a :class:`ShardMonitor` (the shard-side ingestion
  stage) over its records, or, in exact mode over a trace, runs built
  straight from the trace's stored run ids.
* :mod:`repro.cluster.coordinator` — :class:`ClusterCoordinator`, the
  central merge point, on top of ``BinAligner``, the one bin-alignment
  rule (aggregators drive it too).
* :mod:`repro.cluster.transport` — :class:`SummaryTransport`
  implementations: per-worker pipes and framed TCP sockets
  (``repro worker --connect`` for off-box workers).
* :mod:`repro.cluster.supervisor` — :class:`Supervisor`, the pure
  state machine deciding restarts, deadlines and degraded completion
  (see :mod:`repro.resilience`).
* :mod:`repro.cluster.runner` — :func:`run_cluster_source`, cluster
  mode's one entry point: the ``multiprocessing`` driver behind
  ``repro run --mode cluster`` and ``DetectionPipeline.run(mode="cluster")``,
  running the supervisor's commands (plus checkpoint/resume) and, with
  ``--tiers AxB`` (:func:`parse_tiers`), A aggregator processes that
  each merge a B-worker subtree.
"""

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.runner import AggregatorSpec, parse_tiers, run_cluster_source
from repro.cluster.shard import ShardMonitor, shard_summaries
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
    "merge_summaries",
    "parse_hostport",
    "parse_tiers",
    "run_cluster_source",
    "shard_summaries",
]
