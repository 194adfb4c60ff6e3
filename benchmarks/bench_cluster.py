"""Benchmarks the sharded cluster runner's ingest-throughput scaling.

Runs the same synthetic workload through :func:`repro.cluster.run_cluster_source`
at 1, 2 and 4 workers and records the records/sec curve — the number
that matters for the distributed deployment is how ingest scales when
record materialisation and per-shard reduction fan out across
processes while the coordinator's merge+diagnose stays serial.

Exact-histogram mode keeps every run bit-deterministic, so the
benchmark also re-asserts the cluster's core contract: the detected
bins are identical at every worker count.

The curve is persisted as ``results/cluster_scaling.json``.  The
>= 1.5x speedup assertion at 4 workers only fires when the host
actually has 4 CPUs to scale onto (CI runners do; a 1-core container
cannot beat Amdahl by forking).
"""

import os

from _util import emit, run_once, write_json_result

from repro.cluster import run_cluster_source
from repro.pipeline import SyntheticSource
from repro.stream import StreamConfig

WORKERS = (1, 2, 4)
N_BINS = 20
WARMUP_BINS = 14
MAX_RECORDS_PER_OD = 120
SEED = 23
#: Cores needed before the 4-worker speedup floor is enforced.
MIN_CORES_FOR_SPEEDUP = 4
SPEEDUP_FLOOR = 1.5


def _run(n_shards):
    return run_cluster_source(
        SyntheticSource(
            network="abilene",
            n_bins=N_BINS,
            seed=SEED,
            max_records_per_od=MAX_RECORDS_PER_OD,
        ),
        n_shards=n_shards,
        config=StreamConfig(
            warmup_bins=WARMUP_BINS,
            n_components=6,
            refit_every=0,
            exact_histograms=True,
        ),
    )


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def test_cluster_scaling(benchmark):
    results = {}
    results[WORKERS[0]] = run_once(benchmark, _run, WORKERS[0])
    for workers in WORKERS[1:]:
        results[workers] = _run(workers)

    baseline = results[WORKERS[0]]
    detections = {
        w: [(d.bin, d.detected_by_entropy, d.detected_by_volume)
            for d in r.report.detections]
        for w, r in results.items()
    }
    cores = _available_cores()
    rates = {w: r.records_per_sec for w, r in results.items()}
    lines = [
        f"Cluster ingest scaling ({baseline.n_records} records, {N_BINS} bins, "
        f"exact histograms, {cores} cores)",
    ]
    for workers in WORKERS:
        result = results[workers]
        lines.append(
            f"  {workers} worker(s): {result.records_per_sec:12,.0f} records/s "
            f"({result.elapsed:.2f}s, speedup x{rates[workers] / rates[1]:.2f}, "
            f"{result.report.counts()['total']} detections)"
        )
    emit("cluster", "\n".join(lines))
    write_json_result(
        "cluster_scaling",
        {
            "workload": {
                "network": "abilene",
                "n_bins": N_BINS,
                "warmup_bins": WARMUP_BINS,
                "max_records_per_od": MAX_RECORDS_PER_OD,
                "n_records": baseline.n_records,
                "mode": "exact",
            },
            "available_cores": cores,
            "records_per_sec": {str(w): rates[w] for w in WORKERS},
            "speedup_vs_1": {str(w): rates[w] / rates[1] for w in WORKERS},
        },
    )

    # Contract: same workload, same detections, at every worker count.
    for workers in WORKERS[1:]:
        assert results[workers].n_records == baseline.n_records
        assert detections[workers] == detections[1]
    # Scaling: only enforceable where there are cores to scale onto.
    if cores >= MIN_CORES_FOR_SPEEDUP:
        assert rates[4] >= SPEEDUP_FLOOR * rates[1], (
            f"4-worker throughput {rates[4]:,.0f} records/s is below "
            f"{SPEEDUP_FLOOR}x the 1-worker {rates[1]:,.0f} records/s"
        )
