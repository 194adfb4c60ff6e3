"""Benchmarks the networked cluster: transports, tiers, and sharding.

One version-2 trace (stored OD attribution) is shared by every
configuration, and the same detection verdicts must come out of all of
them — the scaling curve is only meaningful if the answers are
bit-identical.  The sweep covers:

* flat pipe clusters at 1/2/4 workers (the committed scaling curve),
* a 2-worker loopback-TCP cluster (framed-socket transport overhead),
* a ``2x2`` aggregator tree over pipes (tree-merge overhead),
* an in-process fan-in sweep (``test_fan_in_sweep``, no processes):
  the coordinator's per-bin cost — ``from_bytes`` of K shard payloads,
  one ``merge_summaries`` and ``to_bin_summary`` — at K = 2 to 64 on
  Abilene (p = 121) and GÉANT (p = 484), against one detector
  ``observe``, and for A x B trees the coordinator's and the slowest
  aggregator's share.  It is what settles when ``--tiers`` pays
  (``results/fan_in.{json,txt}``).

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
import statistics
import time

from _util import emit, run_once, write_json_result

from repro.cluster import (
    ShardBinSummary,
    ShardMonitor,
    merge_summaries,
    run_cluster_source,
)
from repro.pipeline import ScenarioSource, TraceSource
from repro.stream import StreamConfig, StreamingDetectionEngine

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
    return ScenarioSource(
        "baseline-diurnal", n_bins=N_BINS, seed=SEED,
        max_records_per_od=MAX_RECORDS_PER_OD,
    ).write_trace(path)


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


#: Fan-in sweep grid: shard counts, and per network its records per
#: OD-bin (GÉANT has 4x the ODs, so half the records keep it quick).
FAN_IN_K = (2, 4, 8, 16, 32, 64)
FAN_IN_NETWORKS = (("abilene", 60), ("geant", 30))
FAN_IN_BINS = 24
FAN_IN_WARMUP = 16
FAN_IN_REPEATS = 5
#: A x B tree splits timed per K.
FAN_IN_TREES = {
    4: ((2, 2),),
    8: ((2, 4),),
    16: ((2, 8), (4, 4), (8, 2)),
    64: ((2, 32), (4, 16), (8, 8), (16, 4)),
}


def _shard_payloads(source, n_shards, config):
    """``payloads[bin][shard]``: the wire summaries K shard monitors
    ship over ``source``'s ``od % K`` split."""
    payloads = [[None] * n_shards for _ in range(source.spec.n_bins)]
    for shard in range(n_shards):
        monitor = ShardMonitor(
            source.topology, bin_width=source.spec.bin_width,
            start=source.spec.bin_start, exact=config.exact_histograms,
            shard_id=shard,
        )
        summaries = []
        for chunk, ods in source.shard_batches(shard, n_shards, router=monitor.router):
            summaries += monitor.ingest(chunk, ods=ods)
        for summary in summaries + monitor.flush():
            payloads[summary.bin][shard] = summary.to_bytes()
    return payloads


def _best(fn, repeats=FAN_IN_REPEATS):
    """``(fastest wall seconds, result)`` of ``repeats`` calls."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _decode_merge(payloads):
    return merge_summaries([ShardBinSummary.from_bytes(p) for p in payloads])


def _flat_bin(payloads):
    """Per-stage times of one flat coordinator bin, and its merge."""
    t_decode, parts = _best(lambda: [ShardBinSummary.from_bytes(p) for p in payloads])
    t_merge, merged = _best(lambda: merge_summaries(parts))
    t_render, _ = _best(merged.to_bin_summary)
    return {"from_bytes": t_decode, "merge": t_merge, "to_bin_summary": t_render}, merged


def _tree_bin(payloads, n_aggregators, fan_in):
    """One bin through an A x B tree: the coordinator's time, the
    slowest aggregator's time, and the coordinator's merged bytes.
    Aggregator ``a`` holds shards ``a*B .. a*B+B-1``, as the runner
    lays them out."""
    aggregator_s, upstream = [], []
    for a in range(n_aggregators):
        children = payloads[a * fan_in:(a + 1) * fan_in]
        t, payload = _best(lambda: _decode_merge(children).to_bytes())
        aggregator_s.append(t)
        upstream.append(payload)

    def coordinator():
        merged = _decode_merge(upstream)
        merged.to_bin_summary()
        return merged

    t, merged = _best(coordinator)
    return t, max(aggregator_s), merged.to_bytes()


def _ms(seconds):
    return round(1e3 * statistics.median(seconds), 3)


def test_fan_in_sweep():
    config = StreamConfig(warmup_bins=FAN_IN_WARMUP, refit_every=0, exact_histograms=True)
    started = time.perf_counter()
    rows = []
    for network, max_records in FAN_IN_NETWORKS:
        source = ScenarioSource(
            "baseline-diurnal", network=network, n_bins=FAN_IN_BINS, seed=SEED,
            max_records_per_od=max_records,
        )
        observe_s = None
        for k in FAN_IN_K:
            payloads = _shard_payloads(source, k, config)
            stages = {"from_bytes": [], "merge": [], "to_bin_summary": []}
            flat = []
            for bin_payloads in payloads:
                times, merged = _flat_bin(bin_payloads)
                for name, t in times.items():
                    stages[name].append(t)
                flat.append(merged)
            if observe_s is None:
                engine = StreamingDetectionEngine(
                    source.topology, config, bin_width=source.spec.bin_width,
                    start=source.spec.bin_start,
                )
                observe_s = []
                for merged in flat:
                    summary = merged.to_bin_summary()
                    t0 = time.perf_counter()
                    engine.observe_summary(summary)
                    if summary.bin >= FAN_IN_WARMUP:
                        observe_s.append(time.perf_counter() - t0)
            row = {
                "network": network,
                "p": source.topology.n_od_flows,
                "k": k,
                "records": sum(m.n_records for m in flat),
                **{f"{name}_ms": _ms(t) for name, t in stages.items()},
                "coordinator_ms": _ms([sum(ts) for ts in zip(*stages.values())]),
                "observe_ms": _ms(observe_s),
                "trees": [],
            }
            for n_aggregators, fan_in in FAN_IN_TREES.get(k, ()):
                coordinator_s, slowest_s = [], []
                for bin_payloads, merged in zip(payloads, flat):
                    t_coord, t_agg, tree_bytes = _tree_bin(
                        bin_payloads, n_aggregators, fan_in
                    )
                    # Contract: a tree merges to the flat merge's bytes.
                    assert tree_bytes == merged.to_bytes(), (network, k, n_aggregators)
                    coordinator_s.append(t_coord)
                    slowest_s.append(t_agg)
                # With a core per merge process the tree runs at its
                # slowest stage; it beats the flat coordinator when
                # that stage is the faster one.
                bottleneck = max(_ms(coordinator_s), _ms(slowest_s))
                row["trees"].append({
                    "split": f"{n_aggregators}x{fan_in}",
                    "coordinator_ms": _ms(coordinator_s),
                    "slowest_aggregator_ms": _ms(slowest_s),
                    "bottleneck_ms": bottleneck,
                    "beats_flat": bottleneck < row["coordinator_ms"],
                    "merge_processes": 1 + n_aggregators,
                })
            rows.append(row)
    crossover = {}
    for network, _ in FAN_IN_NETWORKS:
        wins = [
            (row["k"], tree) for row in rows if row["network"] == network
            for tree in row["trees"] if tree["beats_flat"]
        ]
        if wins:
            k, tree = min(wins, key=lambda w: (w[0], w[1]["merge_processes"]))
            crossover[network] = {
                "k": k, "split": tree["split"],
                "merge_processes": tree["merge_processes"],
            }
    elapsed = time.perf_counter() - started
    cores = _available_cores()

    lines = [
        f"Coordinator fan-in, in-process ({cores} core(s); per-bin medians over "
        f"{FAN_IN_BINS} bins, best of {FAN_IN_REPEATS}; exact mode, od % K split)",
        f"  {'network':>8} {'p':>4} {'K':>3} {'from_bytes':>11} {'merge':>8} "
        f"{'render':>8} {'flat coord':>11} {'observe':>8}  (ms)",
    ]
    for row in rows:
        lines.append(
            f"  {row['network']:>8} {row['p']:>4} {row['k']:>3} "
            f"{row['from_bytes_ms']:>11.3f} {row['merge_ms']:>8.3f} "
            f"{row['to_bin_summary_ms']:>8.3f} {row['coordinator_ms']:>11.3f} "
            f"{row['observe_ms']:>8.3f}"
        )
    lines.append(
        "  trees: coordinator / slowest aggregator (ms) vs the flat coordinator; "
        "a tree wins when its slower stage beats flat, given a core per "
        "merge process"
    )
    for row in rows:
        for tree in row["trees"]:
            lines.append(
                f"  {row['network']:>8} K={row['k']:<3} {tree['split']:>5}: "
                f"{tree['coordinator_ms']:.3f} / {tree['slowest_aggregator_ms']:.3f} "
                f"vs {row['coordinator_ms']:.3f}  "
                f"{'wins' if tree['beats_flat'] else 'loses'} "
                f"({tree['merge_processes']} merge processes + {row['k']} workers)"
            )
    for network, win in crossover.items():
        lines.append(
            f"  crossover {network}: a tree first wins at K = {win['k']} "
            f"({win['split']}, {win['merge_processes']} merge processes); "
            f"this host has {cores} core(s)"
        )
    lines.append(f"  sweep wall: {elapsed:.1f} s")
    emit("fan_in", "\n".join(lines))
    write_json_result("fan_in", {
        "cpus": cores,
        "crossover": crossover,
        "bins": FAN_IN_BINS,
        "repeats": FAN_IN_REPEATS,
        "rows": rows,
    })
    assert elapsed < 60, f"fan-in sweep took {elapsed:.0f} s (budget 60 s)"
