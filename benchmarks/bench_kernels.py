"""Micro-benchmark: grouped-reduction kernel vs the per-OD loop paths.

Measures the two reductions the old hot path did per (OD, feature) —
mask-and-Counter histogramming and per-histogram entropy — against the
:mod:`repro.kernels` grouped kernel doing all ODs in one pass, on a
synthetic workload shaped like one streaming bin (heavy-tailed values,
packet weights, ~p active ODs).  Also times batched
:class:`repro.flows.sketches.SketchBank` updates against one
:meth:`CountMinSketch.add_histogram` call per OD.

Persists median-of-N rates and speedups to ``results/kernels.json``.
"""

import numpy as np

from _util import emit, rate_summary, run_once, timed_repeats, write_json_result

from repro.core.entropy import sample_entropy
from repro.flows.sketches import CountMinSketch, SketchBank
from repro.kernels import group_reduce

N_RECORDS = 400_000
N_GROUPS = 121
REPEATS = 5
SEED = 7


def _workload():
    rng = np.random.default_rng(SEED)
    groups = rng.integers(0, N_GROUPS, size=N_RECORDS)
    values = (rng.zipf(1.2, size=N_RECORDS) % 60_000).astype(np.int64)
    weights = rng.integers(1, 20, size=N_RECORDS)
    return groups, values, weights


def _counter_reference(groups, values, weights):
    """The seed-style path: mask + Counter histogram + entropy per group."""
    from collections import Counter

    entropies = {}
    for g in np.unique(groups):
        mask = groups == g
        counts = Counter()
        for v, w in zip(values[mask].tolist(), weights[mask].tolist()):
            counts[v] += w
        entropies[int(g)] = sample_entropy(
            np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        )
    return entropies


def _kernel_path(groups, values, weights):
    runs = group_reduce(groups, values, weights)
    return dict(zip(runs.group_ids.tolist(), runs.entropies().tolist()))


def _sketch_loop(groups, values, weights):
    sketches = {}
    runs = group_reduce(groups, values, weights)
    for i, g in enumerate(runs.group_ids):
        sketch = sketches.setdefault(
            int(g), CountMinSketch(width=2048, depth=4, seed=0)
        )
        sketch.add_histogram(*runs.slice(i))
    return sketches


def _sketch_bank(groups, values, weights):
    bank = SketchBank(N_GROUPS, width=2048, depth=4, seed=0)
    runs = group_reduce(groups, values, weights)
    bank.update(runs.group_ids, runs.starts, runs.values, runs.counts)
    return bank


def test_grouped_kernel_vs_counter_loop(benchmark):
    groups, values, weights = _workload()

    kernel_result = run_once(benchmark, _kernel_path, groups, values, weights)
    _, kernel_times = timed_repeats(_kernel_path, REPEATS, groups, values, weights)
    counter_result, counter_times = timed_repeats(
        _counter_reference, REPEATS, groups, values, weights
    )
    # Check what is timed: every group's bank table and total equal the
    # per-OD loop's, bit for bit.
    bank = _sketch_bank(groups, values, weights)
    loop = _sketch_loop(groups, values, weights)
    ids = np.arange(N_GROUPS)
    for g, got in zip(ids.tolist(), bank.sketches(ids)):
        want = loop.get(g, CountMinSketch(width=2048, depth=4, seed=0))
        np.testing.assert_array_equal(got.table, want.table)
        assert got.total == want.total
    _, bank_times = timed_repeats(_sketch_bank, REPEATS, groups, values, weights)
    _, loop_times = timed_repeats(_sketch_loop, REPEATS, groups, values, weights)

    # Same histograms, same entropies (up to summation order).
    assert set(kernel_result) == set(counter_result)
    for g, h in counter_result.items():
        assert abs(kernel_result[g] - h) < 1e-9

    kernel_rate = rate_summary(N_RECORDS, kernel_times)
    counter_rate = rate_summary(N_RECORDS, counter_times)
    bank_rate = rate_summary(N_RECORDS, bank_times)
    loop_rate = rate_summary(N_RECORDS, loop_times)
    entropy_speedup = kernel_rate["median"] / counter_rate["median"]
    sketch_speedup = bank_rate["median"] / loop_rate["median"]

    emit(
        "kernels",
        "\n".join(
            [
                "Grouped-reduction kernel vs per-OD loops "
                f"({N_RECORDS} records, {N_GROUPS} groups, median of {REPEATS})",
                f"  kernel (reduce+entropy) : {kernel_rate['median']:12,.0f} records/s",
                f"  Counter loop            : {counter_rate['median']:12,.0f} records/s"
                f"  ({entropy_speedup:.1f}x speedup)",
                f"  SketchBank batched      : {bank_rate['median']:12,.0f} records/s",
                f"  per-OD sketch loop      : {loop_rate['median']:12,.0f} records/s"
                f"  ({sketch_speedup:.1f}x speedup)",
            ]
        ),
    )
    write_json_result(
        "kernels",
        {
            "n_records": N_RECORDS,
            "n_groups": N_GROUPS,
            "records_per_sec": {
                "kernel_grouped_entropy": kernel_rate,
                "counter_loop": counter_rate,
                "sketch_bank": bank_rate,
                "sketch_loop": loop_rate,
            },
            "speedup": {
                "grouped_entropy_vs_counter": entropy_speedup,
                "sketch_bank_vs_loop": sketch_speedup,
            },
        },
    )
    # The kernel must beat the loop clearly even on noisy CI runners.
    assert entropy_speedup > 1.5
