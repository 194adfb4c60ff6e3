"""Benchmarks the networked cluster: transports, tiers, and sharding.

One version-2 trace (stored OD attribution) is shared by every
configuration, and the same detection verdicts must come out of all of
them — the scaling curve is only meaningful if the answers are
bit-identical.  The sweep covers:

* flat pipe clusters at 1/2/4 workers (the committed scaling curve),
* a 2-worker loopback-TCP cluster (framed-socket transport overhead),
* a ``2x2`` aggregator tree over pipes (tree-merge overhead).

The curve is persisted as ``results/cluster_net.json`` and gated by
``tools/check_perf.py --min-cluster-speedup``: with >= 2 CPUs the
2-worker pipe cluster must beat the 1-worker run by the floor; on a
1-core host the gate only requires that forking does not re-open the
historical 0.72x inversion (``SINGLE_CORE_FLOOR``).

Every configuration is timed best-of-``REPEATS``: cluster runs are
short (~0.3s) and fork/page-cache jitter on shared runners is easily
+-20%, which would otherwise swamp the ratios being gated.
"""

import os

from _util import emit, run_once, write_json_result

from repro.cluster import run_cluster_source
from repro.flows.binning import TimeBins
from repro.io import write_trace
from repro.net.topology import abilene
from repro.pipeline import TraceSource
from repro.stream import StreamConfig
from repro.traffic.generator import TrafficGenerator

N_BINS = 20
WARMUP_BINS = 14
MAX_RECORDS_PER_OD = 120
SEED = 23
REPEATS = 3
#: Cores needed before the parallel speedup floor is enforced.
MIN_CORES_FOR_SPEEDUP = 2
SPEEDUP_FLOOR = 1.2
#: On a single core, 2-worker wall time tracks *total* work, so the
#: honest requirement is "no inversion": stay well above the 0.72x
#: regression this benchmark exists to pin down.
SINGLE_CORE_FLOOR = 0.75

#: (label, run_cluster_source overrides) — label doubles as the JSON key.
CONFIGS = (
    ("pipe.1", {"n_shards": 1}),
    ("pipe.2", {"n_shards": 2}),
    ("pipe.4", {"n_shards": 4}),
    ("tcp.2", {"n_shards": 2, "transport": "tcp"}),
    ("tiers.2x2", {"tiers": "2x2"}),
)


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _write_shared_trace(path):
    generator = TrafficGenerator(
        abilene(), TimeBins(n_bins=N_BINS), seed=SEED
    )
    return write_trace(
        path, generator, max_records_per_od=MAX_RECORDS_PER_OD, seed=SEED,
        derive=True,
    )


def _run(trace_path, **overrides):
    return run_cluster_source(
        TraceSource(trace_path, network="abilene", n_bins=N_BINS),
        config=StreamConfig(
            warmup_bins=WARMUP_BINS,
            n_components=6,
            refit_every=0,
            exact_histograms=True,
        ),
        **overrides,
    )


def _best_of(trace_path, overrides):
    best = None
    for _ in range(REPEATS):
        result = _run(trace_path, **overrides)
        if best is None or result.records_per_sec > best.records_per_sec:
            best = result
    return best


def test_cluster_net_scaling(benchmark, tmp_path):
    trace_path = tmp_path / "shared.trace"
    info = _write_shared_trace(trace_path)

    results = {}
    label0, overrides0 = CONFIGS[0]
    results[label0] = run_once(benchmark, _best_of, trace_path, overrides0)
    for label, overrides in CONFIGS[1:]:
        results[label] = _best_of(trace_path, overrides)

    baseline = results[label0]
    detections = {
        label: [(d.bin, d.detected_by_entropy, d.detected_by_volume)
                for d in r.report.detections]
        for label, r in results.items()
    }
    cores = _available_cores()
    rates = {label: r.records_per_sec for label, r in results.items()}
    lines = [
        f"Networked cluster scaling ({info.n_records} records, {N_BINS} bins, "
        f"v2 trace, exact histograms, {cores} core(s), best of {REPEATS})",
    ]
    for label, _ in CONFIGS:
        result = results[label]
        lines.append(
            f"  {label:>9}: {result.records_per_sec:12,.0f} records/s "
            f"({result.elapsed:.2f}s, x{rates[label] / rates[label0]:.2f} "
            f"vs {label0}, {result.report.counts()['total']} detections)"
        )
    emit("cluster_net", "\n".join(lines))
    write_json_result(
        "cluster_net",
        {
            "workload": {
                "network": "abilene",
                "n_bins": N_BINS,
                "warmup_bins": WARMUP_BINS,
                "max_records_per_od": MAX_RECORDS_PER_OD,
                "n_records": info.n_records,
                "mode": "exact",
                "trace_version": 2,
            },
            "cpus": cores,
            "repeats": REPEATS,
            "records_per_sec": {label: rates[label] for label, _ in CONFIGS},
            "speedup_vs_pipe_1": {
                label: rates[label] / rates["pipe.1"]
                for label, _ in CONFIGS if label != "pipe.1"
            },
        },
    )

    # Contract: every transport and tier shape lands the same verdicts
    # as the single-worker run.
    for label, _ in CONFIGS[1:]:
        assert results[label].n_records == baseline.n_records, label
        assert detections[label] == detections[label0], label
    speedup = rates["pipe.2"] / rates["pipe.1"]
    if cores >= MIN_CORES_FOR_SPEEDUP:
        assert speedup >= SPEEDUP_FLOOR, (
            f"2-worker throughput {rates['pipe.2']:,.0f} records/s is below "
            f"{SPEEDUP_FLOOR}x the 1-worker {rates['pipe.1']:,.0f} records/s"
        )
    else:
        assert speedup >= SINGLE_CORE_FLOOR, (
            f"2-worker throughput re-opens the shared-trace inversion: "
            f"x{speedup:.2f} < x{SINGLE_CORE_FLOOR} on a single core"
        )
