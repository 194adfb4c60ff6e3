"""Shared helpers for the pytest-benchmark harness.

Each benchmark runs its workload under pytest-benchmark (timing the
run) and saves a report to ``benchmarks/results/<name>.txt`` in
addition to printing it, so the rows survive pytest's output capturing.
It also persists a machine-readable ``results/<name>.json`` via
:func:`write_json_result` so the perf trajectory can be tracked across
commits without parsing prose.  The paper's tables and figures are not
benchmarks here: ``paper_claims.py`` checks them as scorecard rows.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def emit(name: str, report: str) -> None:
    """Print a report and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(report + "\n")
    print(f"\n{report}\n")


def peak_rss_bytes() -> int:
    """This process's resident-set high-water mark, in bytes.

    ``ru_maxrss`` is the kernel's own peak — no sampling thread needed —
    reported in KiB on Linux and bytes on macOS (same heuristic as
    :func:`repro.telemetry.sample_rss_bytes`).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1 if maxrss > 1 << 32 else 1024
    return int(maxrss) * scale


def write_json_result(name: str, payload: dict) -> Path:
    """Persist a machine-readable result as ``results/<name>.json``.

    Keys are sorted and the layout is stable so diffs across commits
    stay meaningful; the path is returned for logging.  Every payload
    gains a ``peak_rss_bytes`` key so the memory envelope is tracked
    alongside throughput (``tools/check_quality.py`` and
    ``tools/check_perf.py`` ignore unknown keys).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = dict(payload)
    payload.setdefault("peak_rss_bytes", peak_rss_bytes())
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def stage_profile(func, *args, **kwargs):
    """Run ``func`` once under a fresh telemetry session.

    Returns ``(result, stages)`` where ``stages`` maps span label to
    ``{"calls", "total_s", "self_s"}`` — the per-stage breakdown the
    perf benchmarks persist next to their timed rates, so a regression
    in ``tools/check_perf.py`` can be localised to a stage instead of
    re-profiled by hand.  The timed repeats stay telemetry-disabled;
    this single instrumented run is extra, and telemetry is disabled
    again on exit.
    """
    from repro import telemetry

    session = telemetry.enable(poll=False)
    try:
        result = func(*args, **kwargs)
        snapshot = session.snapshot()
    finally:
        telemetry.disable()
    stages = {
        label: {
            "calls": stats["count"],
            "total_s": round(stats["total_s"], 6),
            "self_s": round(stats["self_s"], 6),
        }
        for label, stats in snapshot["spans"].items()
    }
    return result, stages


def timed_repeats(func, repeats: int = 3, *args, **kwargs):
    """Run ``func`` ``repeats`` times; returns (first_result, elapsed list).

    Perf benchmarks use this so the persisted JSON reports a median
    with min/max spread rather than one noisy sample.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    result = None
    elapsed = []
    for i in range(repeats):
        start = time.perf_counter()
        out = func(*args, **kwargs)
        elapsed.append(time.perf_counter() - start)
        if i == 0:
            result = out
    return result, elapsed


def rate_summary(n_items: int, elapsed: list[float]) -> dict:
    """Median-of-N items/sec with min/max spread, for JSON results.

    Single-run numbers made before/after comparisons untrustworthy;
    every rate in the persisted JSON now carries its spread.  The
    layout is consumed by ``tools/check_perf.py`` (which also accepts
    the old scalar form for pre-spread baselines).
    """
    rates = sorted(n_items / t for t in elapsed)
    return {
        "median": statistics.median(rates),
        "min": rates[0],
        "max": rates[-1],
        "n_repeats": len(rates),
    }


def run_once(benchmark, func, *args, **kwargs):
    """Run a workload exactly once under the benchmark timer.

    The workloads are deterministic and often expensive (cluster runs,
    the quality grid), so one timed round is the right trade-off;
    pytest-benchmark still records the wall time.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
