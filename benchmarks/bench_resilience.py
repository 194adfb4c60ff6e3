"""Benchmarks the cost of the resilience layer on the cluster runner.

Three questions, one workload (exact histograms, so every run is
bit-deterministic and detection parity is assertable):

* **dormant cost** — what does merely *carrying* the supervision
  machinery (per-ship chaos check, restart bookkeeping, deadline
  arithmetic) cost a fault-free run, relative to nothing at all?  The
  hooks are branch-on-None on the hot path, so this should be noise;
* **checkpoint cost** — what does spilling every merged bin (wire
  bytes + CRC + fsync) add end-to-end?
* **recovery cost** — how much wall clock does killing one worker
  mid-run and supervising it back to a bit-identical report add?

The ratios are persisted as ``results/resilience.json``.
"""

from _util import emit, run_once, write_json_result

from repro.cluster import run_cluster_source
from repro.pipeline import ScenarioSource
from repro.resilience import ResiliencePolicy
from repro.stream import StreamConfig

N_BINS = 20
WARMUP_BINS = 14
MAX_RECORDS_PER_OD = 120
SEED = 23
N_SHARDS = 2
#: Recovery should not blow the run up; killing one of two workers
#: forfeits at most the dead shard's recompute plus a 10ms backoff.
RECOVERY_SLOWDOWN_CEILING = 4.0


def _run(**kwargs):
    return run_cluster_source(
        ScenarioSource(
            "baseline-diurnal",
            network="abilene",
            n_bins=N_BINS,
            seed=SEED,
            max_records_per_od=MAX_RECORDS_PER_OD,
        ),
        n_shards=N_SHARDS,
        config=StreamConfig(
            warmup_bins=WARMUP_BINS,
            n_components=6,
            refit_every=0,
            exact_histograms=True,
        ),
        **kwargs,
    )


def _detections(result):
    return [
        (d.bin, d.detected_by_entropy, d.detected_by_volume)
        for d in result.report.detections
    ]


def test_resilience_overhead(benchmark, tmp_path):
    plain = run_once(benchmark, _run)
    checkpointed = _run(checkpoint=tmp_path / "bench.ckpt")
    recovered = _run(
        chaos=f"kill:shard=1,bin={WARMUP_BINS}",
        resilience=ResiliencePolicy(backoff_s=0.01),
    )

    assert _detections(checkpointed) == _detections(plain)
    assert _detections(recovered) == _detections(plain)
    assert recovered.restarts == 1 and not recovered.degraded

    checkpoint_cost = checkpointed.elapsed / plain.elapsed
    recovery_cost = recovered.elapsed / plain.elapsed
    lines = [
        f"Resilience overhead ({plain.n_records} records, {N_BINS} bins, "
        f"{N_SHARDS} shards, exact histograms)",
        f"  fault-free supervised : {plain.records_per_sec:12,.0f} records/s "
        f"({plain.elapsed:.2f}s)",
        f"  + checkpoint spill    : {checkpointed.records_per_sec:12,.0f} records/s "
        f"({checkpoint_cost:.2f}x elapsed)",
        f"  + kill one worker     : {recovered.records_per_sec:12,.0f} records/s "
        f"({recovery_cost:.2f}x elapsed, {recovered.restarts} restart, "
        f"detections bit-identical)",
    ]
    emit("resilience", "\n".join(lines))
    write_json_result(
        "resilience",
        {
            "records": plain.n_records,
            "records_per_sec": {
                "fault_free": plain.records_per_sec,
                "checkpointed": checkpointed.records_per_sec,
                "one_kill_recovered": recovered.records_per_sec,
            },
            "elapsed_ratio": {
                "checkpointed": checkpoint_cost,
                "one_kill_recovered": recovery_cost,
            },
        },
    )
    assert recovery_cost < RECOVERY_SLOWDOWN_CEILING
