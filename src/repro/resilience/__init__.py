"""Fault tolerance for the long-running, distributed deployment.

The paper's Section 8 monitor is meant to run for weeks across many
collection points; this package supplies the machinery that lets the
sharded pipeline (:mod:`repro.cluster`) survive the faults such a
deployment actually sees, without giving up the exact-mode determinism
contract (cluster detections bit-identical to an unsharded run):

* :mod:`repro.resilience.policy` — :class:`ResiliencePolicy`, the
  supervision knobs (bounded retries, exponential backoff, per-bin and
  whole-run deadlines, ``strict``/``degrade`` completion) and
  :class:`ShardHealth`, the per-shard state the cluster supervisor
  (:mod:`repro.cluster.supervisor`) publishes into report provenance;
* :mod:`repro.resilience.checkpoint` — append-only checkpoint files of
  closed-bin merged summaries (byte-canonical wire payloads, each CRC
  framed) so a killed run resumes from the last closed bin instead of
  bin 0;
* :mod:`repro.resilience.chaos` — a deterministic fault plan (kill a
  shard at a bin, stall its heartbeats, corrupt its summary bytes,
  truncate a trace tail) injected through worker hooks, driving the
  chaos tests and the CI chaos-smoke job.

Everything here is *dormant by default*: the supervisor hooks sit at
message and bin boundaries of the cluster coordinator loop, never on
the streaming hot path, and ``tools/check_perf.py`` gates the cost of
the disabled hooks alongside telemetry's.
"""

from repro.resilience.chaos import Fault, FaultPlan, corrupt_payload, truncate_tail
from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointState,
    CheckpointWriter,
    load_checkpoint,
    run_fingerprint,
)
from repro.resilience.policy import ResiliencePolicy, ShardHealth

__all__ = [
    "CheckpointError",
    "CheckpointState",
    "CheckpointWriter",
    "Fault",
    "FaultPlan",
    "ResiliencePolicy",
    "ShardHealth",
    "corrupt_payload",
    "load_checkpoint",
    "run_fingerprint",
    "truncate_tail",
]
