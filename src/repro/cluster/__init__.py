"""Sharded multi-process detection (the paper's Section 8 systems problem).

Record ingestion shards across processes by OD flow; each shard owns
its OD flows whole, so it reduces every time bin of them to their
entropy and volume rows and ships those as a serializable row block; a
central coordinator aligns the shards by bin, scatters each bin's K
blocks into one entropy matrix, and drives the streaming detection
engine — so a cluster of monitors produces the same network-wide
diagnosis as one process reading the whole trace.

* :mod:`repro.cluster.summary` — :class:`ShardBinSummary`, the per-bin
  row block and its wire format, and :func:`merge_summaries`, the
  scatter that refuses a block carrying an OD its shard does not own.
* :mod:`repro.cluster.shard` — :func:`shard_summaries`, the blocks
  one shard ships: a :class:`ShardMonitor` (the shard-side ingestion
  stage) over its records, or, in exact mode over a trace, rows built
  straight from the trace's stored run ids.
* :mod:`repro.cluster.coordinator` — :class:`ClusterCoordinator`, the
  central merge point, on top of ``BinAligner``, the one bin-alignment
  rule.
* :mod:`repro.cluster.transport` — :class:`WorkerLinks`, one framed
  socket per worker: a private ``socketpair`` for a local worker, a
  dialled-in TCP link for a remote ``repro worker --connect``.
* :mod:`repro.cluster.supervisor` — :class:`Supervisor`, the pure
  state machine deciding restarts, deadlines and degraded completion
  (see :mod:`repro.resilience`).
* :mod:`repro.cluster.runner` — :func:`run_cluster_source`, cluster
  mode's one entry point: the ``multiprocessing`` driver behind
  ``repro run --mode cluster`` and ``DetectionPipeline.run(mode="cluster")``,
  running the supervisor's commands (plus checkpoint/resume).
"""

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.runner import run_cluster_source
from repro.cluster.shard import ShardMonitor, shard_summaries
from repro.cluster.summary import ShardBinSummary, SummaryCorruptError, merge_summaries
from repro.cluster.transport import FrameError, WorkerLinks, parse_hostport

__all__ = [
    "ClusterCoordinator",
    "FrameError",
    "ShardBinSummary",
    "ShardMonitor",
    "SummaryCorruptError",
    "WorkerLinks",
    "merge_summaries",
    "parse_hostport",
    "run_cluster_source",
    "shard_summaries",
]
