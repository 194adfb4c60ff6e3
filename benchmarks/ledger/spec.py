"""Names of the ledger benchmark: workloads, metrics, units, bounds, sizes.

The one place the names live.  ``BENCHMARK.json`` at the repository
root is the same table in the driver's format (``test_ledger.py``
checks the two agree); ``run.py`` validates every name it writes
against :data:`NAME_RE`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: name -> why the workload is in the ledger (one line each).
WORKLOADS = {
    "stream-exact": (
        "canonical online path: LPM attribution + per-bin group_reduce sort "
        "dominate; a kernel or attribution gain must show here"
    ),
    "stream-sketch": (
        "same stream/kernels layers, SketchBank update+query dominate and "
        "bin close is ~10x heavier; a gain for exact that costs sketch shows"
    ),
    "batch-exact": (
        "the paper's offline method: 4 whole-trace sorts instead of one per "
        "bin, every histogram resident; the memory contrast to streaming"
    ),
    "precomputed-replay": (
        "bypasses net and the sort (stored od/run-id columns): scoring, "
        "bincount replay and io do the work; LPM/sort changes predict flat"
    ),
    "cluster-2shard": (
        "two worker processes over one trace: spawn, shard scan, summary "
        "export/pipe/merge, coordinator wait; where the cluster tax is judged"
    ),
    "synth-inline": (
        "default `repro run <scenario>` with no trace: traffic+scenarios "
        "record synthesis is ~80% of wall; a generator gain shows only here"
    ),
}

#: Exact-histogram workloads over the shared trace: their verdicts must
#: equal ``stream-exact``'s bin for bin (the repo's mode-parity contract).
PARITY_WORKLOADS = ("batch-exact", "precomputed-replay", "cluster-2shard")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    bound: float | None = None  # allowed worsening (share of the base)


#: What a user of the system sees.  Bounds are sized from the spreads
#: measured on the 2-core reference box (see README "Measured baseline").
END_TO_END = (
    Metric("records_per_s", "records/s", "higher", 0.20),
    Metric("verdict_ms_p50", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)

#: Deterministic per seed, so any change is a change in behaviour.  They
#: are end-to-end in meaning but vary with the seed (and may be 0), which
#: the driver's end_to_end section cannot hold; BENCHMARK.json lists them
#: under per_layer and ``compare.py`` holds them to a bound of 0.
QUALITY = (
    Metric("detection_f1", "ratio", "higher", 0.0),
    Metric("entropy_recall", "ratio", "higher", 0.0),
)


def _layer(prefix: str, *fields: tuple[str, str, str]) -> tuple[Metric, ...]:
    return tuple(Metric(f"{prefix}.{n}", u, b) for n, u, b in fields)


PER_LAYER = (
    *QUALITY,
    # The latency tail.  With 24 scored bins a pass, the p95 is the cost
    # of the one or two dearest bins of that seed's schedule: it moves
    # by a third from seed to seed, so it cannot carry a bound.
    Metric("verdict_ms_p95", "ms", "lower"),
    Metric("verdict_samples", "count", "higher"),
    *_layer("net.attribute", ("busy_s", "s", "lower"), ("records", "count", "lower")),
    *_layer("traffic.synth", ("busy_s", "s", "lower"), ("records", "count", "higher")),
    *_layer(
        "io",
        ("write.busy_s", "s", "lower"),
        ("derive.busy_s", "s", "lower"),
        ("trace.bytes", "bytes", "lower"),
        ("replay.busy_s", "s", "lower"),
        ("replay.records", "count", "higher"),
        ("replay.bytes", "bytes", "lower"),
    ),
    *_layer(
        "flows",
        ("anonymize.busy_s", "s", "lower"),
        ("sketch.update_s", "s", "lower"),
        ("sketch.query_s", "s", "lower"),
        ("sketch.updates", "count", "lower"),
        ("sketch.verdict_agreement", "ratio", "higher"),
        ("aggregate.self_s", "s", "lower"),
    ),
    *_layer(
        "kernels",
        ("group_reduce.busy_s", "s", "lower"),
        ("group_reduce.calls", "count", "lower"),
        ("group_reduce.rows", "count", "lower"),
        ("grouped_entropy.busy_s", "s", "lower"),
        ("merge_histograms.busy_s", "s", "lower"),
    ),
    *_layer(
        "stream",
        ("ingest.busy_s", "s", "lower"),
        ("ingest.self_s", "s", "lower"),
        ("chunks", "count", "lower"),
        ("finalize.busy_s", "s", "lower"),
        ("bins_closed", "count", "higher"),
        ("replay.busy_s", "s", "lower"),
        ("late_records", "count", "lower"),
    ),
    *_layer(
        "pipeline",
        ("bank.observe_s", "s", "lower"),
        ("bank.bins_scored", "count", "higher"),
        ("bank.observe_max_ms", "ms", "lower"),
        ("glue.self_s", "s", "lower"),
    ),
    *_layer(
        "core",
        ("multiway.observe_s", "s", "lower"),
        ("multiway.warm_up_s", "s", "lower"),
        ("volume.observe_s", "s", "lower"),
        ("identify.busy_s", "s", "lower"),
        ("classifier.assign_s", "s", "lower"),
    ),
    *_layer(
        "cluster",
        ("shard_scan.busy_s", "s", "lower"),
        ("export.busy_s", "s", "lower"),
        ("to_bytes.busy_s", "s", "lower"),
        ("bytes_shipped", "bytes", "lower"),
        ("from_bytes.busy_s", "s", "lower"),
        ("merge.busy_s", "s", "lower"),
        ("to_bin_summary.busy_s", "s", "lower"),
        ("coordinator.busy_s", "s", "lower"),
        ("coordinator.wait_share", "ratio", "lower"),
        ("first_summary_s", "s", "lower"),
        ("shard_skew", "ratio", "lower"),
        ("restarts", "count", "lower"),
        ("worker_peak_rss_mb", "MiB", "lower"),
    ),
    # Harness: how far the per-layer numbers can be trusted.
    Metric("traced_wall_s", "s", "lower"),
    Metric("trace_overhead_pct", "%", "lower"),
    Metric("missing_targets", "count", "lower"),
)


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``ledger`` is what the driver and the committed
    numbers use; ``smoke`` only proves every metric is emitted."""

    trace_bins: int
    trace_records_per_od: int
    synth_bins: int
    synth_records_per_od: int
    replay_passes: int  # engine passes per precomputed-replay sample
    setups: int  # input builds per run (setup_s is their median)
    min_passes: int  # timed passes a run makes even when --seconds is short


SCALES = {
    "ledger": Scale(72, 60, 36, 60, 5, 3, 3),
    "smoke": Scale(36, 10, 18, 10, 2, 1, 1),
}

SCENARIO = "mixed-anomaly-day"
NETWORK = "abilene"
N_SHARDS = 2
N_COMPONENTS = 6
