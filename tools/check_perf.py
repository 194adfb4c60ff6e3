#!/usr/bin/env python
"""Throughput regression gates for the performance benchmarks.

Two gates, each comparing a freshly generated
``benchmarks/results/*.json`` against the committed baseline
(``git show HEAD:...`` by default) and failing — exit code 1 — on a
drop larger than the allowed fraction (default 20%):

* **streaming** — exact-mode and sketch-mode engine ingest
  (``streaming.json``, one gate each);
* **trace replay** — warm replay ingest of the columnar trace
  store (``trace.json``).  Skipped with a note when no fresh
  ``trace.json`` exists (so streaming-only runs keep working);
* **precomputed detection** — exact detection from a warm version-2
  trace's derived columns (``trace_detect.json``): an *absolute*
  records/s floor (``--min-detect-rate``, default 10M) plus the usual
  relative gate once a baseline is committed.  Skipped with a note
  when no fresh ``trace_detect.json`` exists;
* **pipeline** — stream-mode end-to-end scenario ingest of the unified
  ``DetectionPipeline`` (``pipeline.json``, the ``baseline-diurnal``
  row).  Skipped with a note when no fresh ``pipeline.json`` exists;
* **cluster scaling** — the networked-cluster curve
  (``cluster_net.json``): the 2-worker cluster must beat the
  1-worker run by ``--min-cluster-speedup`` when the recording host
  had >= 2 CPUs; on a 1-core host the requirement degrades to "no
  shared-trace inversion" (the 2-worker rate must stay above
  ``SINGLE_CORE_CLUSTER_FLOOR`` of 1-worker — the historical
  regression this gate pins down was 0.72x).  Skipped with a note when
  no fresh ``cluster_net.json`` exists; ``--cluster-only`` runs just
  this gate (for CI jobs that generate only the cluster benchmark).

A fourth gate bounds the cost of the *dormant* instrumentation hooks
(``--max-telemetry-overhead``, default 2%): benchmarks run with
telemetry off, no chaos plan, and no checkpoint, so the best fresh
streaming-exact repeat against the committed baseline median is
exactly what the disabled ``telemetry.span``/``count`` call sites plus
the resilience supervision call sites (the worker's per-ship chaos
check, the coordinator's ``on_bin_merged`` spill hook) cost on the
streaming hot path.  When a throughput gate
fails and both JSONs carry the benchmarks' ``stages`` breakdown, a
per-stage delta table is printed so the regression is localised to a
stage (source, reduce, score, kernels) instead of re-profiled by hand.

Run after the benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_streaming.py
    PYTHONPATH=src python -m pytest benchmarks/bench_trace.py
    PYTHONPATH=src python -m pytest benchmarks/bench_pipeline.py
    python tools/check_perf.py

Slow or heavily-shared runners can skip the gates by exporting
``REPRO_SKIP_PERF_GATE=1`` (the check prints what it *would* have
compared and exits 0).  Baselines in the old single-run scalar format
and the current median/min/max spread format are both accepted.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
FRESH_DEFAULT = RESULTS_DIR / "streaming.json"
TRACE_FRESH_DEFAULT = RESULTS_DIR / "trace.json"
TRACE_DETECT_FRESH_DEFAULT = RESULTS_DIR / "trace_detect.json"
PIPELINE_FRESH_DEFAULT = RESULTS_DIR / "pipeline.json"
CLUSTER_FRESH_DEFAULT = RESULTS_DIR / "cluster_net.json"
BASELINE_GIT_PATH = "benchmarks/results/streaming.json"
TRACE_BASELINE_GIT_PATH = "benchmarks/results/trace.json"
TRACE_DETECT_BASELINE_GIT_PATH = "benchmarks/results/trace_detect.json"
PIPELINE_BASELINE_GIT_PATH = "benchmarks/results/pipeline.json"
#: Absolute floor for exact detection from a warm precomputed trace
#: (records/s median).  Unlike the relative gates this holds even when
#: the committed baseline itself regresses; slow shared runners lower
#: it with ``--min-detect-rate``.
DETECT_FLOOR_DEFAULT = 10_000_000.0
#: The pipeline gate's reference row: the clean-background scenario's
#: stream-mode ingest (the least detection-count-sensitive number).
PIPELINE_GATE_SCENARIO = "baseline-diurnal"
#: Minimum 2-worker/1-worker ratio on a 1-core host: two processes on
#: one core cannot beat Amdahl, but they must not re-open the 0.72x
#: shared-trace inversion either (disjoint OD split + stored
#: attribution keep the measured ratio around 0.8-0.96).
SINGLE_CORE_CLUSTER_FLOOR = 0.75
SKIP_ENV = "REPRO_SKIP_PERF_GATE"


def _rate(entry) -> float:
    """A records/sec number from either JSON layout.

    Spread entries (``{"median": ..., "min": ..., "max": ...}``) yield
    the median; pre-spread baselines stored a bare float.
    """
    if isinstance(entry, dict):
        return float(entry["median"])
    return float(entry)


def _load_baseline(spec: str, git_path: str = BASELINE_GIT_PATH) -> dict:
    if spec == "git:HEAD":
        payload = subprocess.run(
            ["git", "show", f"HEAD:{git_path}"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(payload)
    return json.loads(Path(spec).read_text())


def _fmt_s(value) -> str:
    return "-" if value is None else f"{float(value) * 1000:,.1f}ms"


def _stage_table(fresh_stages: dict, base_stages: dict) -> str:
    """Per-stage delta table localising a throughput regression.

    Rendered only when a gate fails and both the fresh and committed
    JSONs carry the ``stages`` breakdown the benchmarks persist (one
    instrumented run alongside the uninstrumented timed repeats).
    """
    labels = sorted(set(fresh_stages) | set(base_stages))
    lines = [
        "  per-stage delta (single instrumented run, total time per span):",
        f"    {'span':<26} {'baseline':>10} {'fresh':>10} {'delta':>8}",
    ]
    for label in labels:
        base = base_stages.get(label, {}).get("total_s")
        fresh = fresh_stages.get(label, {}).get("total_s")
        if base is None:
            delta = "new"
        elif fresh is None:
            delta = "gone"
        elif base > 0:
            delta = f"{(fresh - base) / base:+.0%}"
        else:
            delta = "-"
        lines.append(
            f"    {label:<26} {_fmt_s(base):>10} {_fmt_s(fresh):>10} {delta:>8}"
        )
    return "\n".join(lines)


def _gate(
    name: str,
    fresh_rate: float,
    base_rate: float,
    max_regression: float,
    fresh_stages: dict | None = None,
    base_stages: dict | None = None,
) -> bool:
    floor = (1.0 - max_regression) * base_rate
    ok = fresh_rate >= floor
    verdict = "OK" if ok else "REGRESSION"
    print(
        f"perf gate [{verdict}]: {name} {fresh_rate:,.0f} records/s "
        f"vs baseline {base_rate:,.0f} (floor {floor:,.0f}, "
        f"-{max_regression:.0%} allowed)"
    )
    if not ok and fresh_stages and base_stages:
        print(_stage_table(fresh_stages, base_stages))
    return ok


def _telemetry_overhead_gate(fresh: dict, baseline: dict, max_overhead: float) -> bool:
    """Gate the cost of the dormant instrumentation hooks on the hot path.

    The benchmarks run with telemetry off, no chaos plan, and no
    checkpoint, so the fresh streaming-exact rate already pays for
    every dormant ``telemetry.span``/``count`` call site and every
    resilience supervision call site (chaos checks, the checkpoint
    spill hook).  Comparing the best fresh repeat (least scheduler
    noise) against the committed baseline median bounds that overhead:
    hooks costing more than ``max_overhead`` of throughput fail the
    gate.
    """
    entry = fresh["records_per_sec"]["streaming_exact"]
    fresh_best = float(entry["max"]) if isinstance(entry, dict) else float(entry)
    base_rate = _rate(baseline["records_per_sec"]["streaming_exact"])
    floor = (1.0 - max_overhead) * base_rate
    ok = fresh_best >= floor
    verdict = "OK" if ok else "REGRESSION"
    observed = max(0.0, 1.0 - fresh_best / base_rate) if base_rate else 0.0
    print(
        f"dormant-hook overhead gate [{verdict}]: streaming exact "
        f"(telemetry + resilience hooks disabled) "
        f"best-of-repeats {fresh_best:,.0f} records/s vs baseline "
        f"{base_rate:,.0f} ({observed:.1%} slower, {max_overhead:.0%} allowed)"
    )
    return ok


def _cluster_gate(fresh: dict, min_speedup: float) -> bool:
    """Gate the networked-cluster scaling curve.

    ``cluster_net.json`` records the host's CPU count alongside the
    curve, so the gate is runner-scaled: with cores to scale onto the
    2-worker cluster must actually go faster; on a 1-core host it
    must merely stay clear of the historical shared-trace inversion.
    """
    rates = fresh["records_per_sec"]
    speedup = float(rates["workers.2"]) / float(rates["workers.1"])
    cpus = int(fresh.get("cpus", 1))
    if cpus >= 2:
        floor, basis = min_speedup, f"{cpus}-core floor"
    else:
        floor, basis = SINGLE_CORE_CLUSTER_FLOOR, "1-core no-inversion floor"
    ok = speedup >= floor
    verdict = "OK" if ok else "REGRESSION"
    print(
        f"perf gate [{verdict}]: cluster 2-worker speedup x{speedup:.2f} "
        f"vs {basis} x{floor:.2f} "
        f"(workers.2 {float(rates['workers.2']):,.0f} records/s, "
        f"workers.1 {float(rates['workers.1']):,.0f})"
    )
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fresh",
        default=str(FRESH_DEFAULT),
        help="freshly generated streaming.json (default: benchmarks/results/)",
    )
    parser.add_argument(
        "--baseline",
        default="git:HEAD",
        help="committed baseline: 'git:HEAD' (default) or a file path",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="allowed fractional drop in records/sec (default 0.20)",
    )
    parser.add_argument(
        "--max-telemetry-overhead",
        type=float,
        default=0.02,
        help="allowed fractional ingest cost of the disabled telemetry "
        "hooks, best fresh repeat vs baseline median (default 0.02)",
    )
    parser.add_argument(
        "--trace-fresh",
        default=str(TRACE_FRESH_DEFAULT),
        help="freshly generated trace.json (default: benchmarks/results/)",
    )
    parser.add_argument(
        "--trace-baseline",
        default="git:HEAD",
        help="committed trace baseline: 'git:HEAD' (default) or a file path",
    )
    parser.add_argument(
        "--trace-detect-fresh",
        default=str(TRACE_DETECT_FRESH_DEFAULT),
        help="freshly generated trace_detect.json (default: benchmarks/results/)",
    )
    parser.add_argument(
        "--trace-detect-baseline",
        default="git:HEAD",
        help="committed trace_detect baseline: 'git:HEAD' (default) or a "
        "file path",
    )
    parser.add_argument(
        "--min-detect-rate",
        type=float,
        default=DETECT_FLOOR_DEFAULT,
        help="absolute records/s floor for exact detection from a warm "
        f"precomputed trace (default {DETECT_FLOOR_DEFAULT:,.0f}; lower it "
        "on slow shared runners)",
    )
    parser.add_argument(
        "--telemetry-delta",
        metavar="PATH",
        help="also write the per-stage span delta tables (fresh vs "
        "baseline, every benchmark that carries a stages breakdown) to "
        "this file — pass/fail independent, meant for CI artifacts",
    )
    parser.add_argument(
        "--pipeline-fresh",
        default=str(PIPELINE_FRESH_DEFAULT),
        help="freshly generated pipeline.json (default: benchmarks/results/)",
    )
    parser.add_argument(
        "--pipeline-baseline",
        default="git:HEAD",
        help="committed pipeline baseline: 'git:HEAD' (default) or a file path",
    )
    parser.add_argument(
        "--cluster-fresh",
        default=str(CLUSTER_FRESH_DEFAULT),
        help="freshly generated cluster_net.json (default: benchmarks/results/)",
    )
    parser.add_argument(
        "--min-cluster-speedup",
        type=float,
        default=1.2,
        help="required 2-worker/1-worker cluster throughput ratio when the "
        "recording host had >= 2 CPUs (default 1.2); 1-core hosts use the "
        f"no-inversion floor x{SINGLE_CORE_CLUSTER_FLOOR:.2f} instead",
    )
    parser.add_argument(
        "--cluster-only",
        action="store_true",
        help="run only the cluster-scaling gate (CI jobs that generate "
        "just benchmarks/bench_cluster_net.py results)",
    )
    args = parser.parse_args(argv)

    if os.environ.get(SKIP_ENV):
        print(f"perf gate skipped ({SKIP_ENV} set)")
        return 0

    def _cluster_section() -> bool:
        cluster_fresh_path = Path(args.cluster_fresh)
        if not cluster_fresh_path.exists():
            print("perf gate: no fresh cluster_net.json; cluster-scaling "
                  "gate skipped (run benchmarks/bench_cluster_net.py to "
                  "enable it)")
            return True
        return _cluster_gate(
            json.loads(cluster_fresh_path.read_text()),
            args.min_cluster_speedup,
        )

    if args.cluster_only:
        return 0 if _cluster_section() else 1

    try:
        fresh = json.loads(Path(args.fresh).read_text())
    except OSError as exc:
        print(f"perf gate: cannot read fresh results: {exc}", file=sys.stderr)
        return 1
    try:
        baseline = _load_baseline(args.baseline)
    except (OSError, subprocess.CalledProcessError, json.JSONDecodeError) as exc:
        print(f"perf gate: cannot load baseline ({args.baseline}): {exc}",
              file=sys.stderr)
        return 1

    #: (section title, fresh stages, baseline stages) for the optional
    #: --telemetry-delta artifact.
    delta_sections: list[tuple[str, dict, dict]] = []

    def _collect_delta(name: str, fresh_stages, base_stages) -> None:
        if fresh_stages and base_stages:
            delta_sections.append((name, fresh_stages, base_stages))

    ok = True
    for name, key in (
        ("streaming exact", "streaming_exact"),
        ("streaming sketch", "streaming_sketch"),
    ):
        fresh_stages = fresh.get("stages", {}).get(key)
        base_stages = baseline.get("stages", {}).get(key)
        _collect_delta(name, fresh_stages, base_stages)
        ok &= _gate(
            name,
            _rate(fresh["records_per_sec"][key]),
            _rate(baseline["records_per_sec"][key]),
            args.max_regression,
            fresh_stages=fresh_stages,
            base_stages=base_stages,
        )
    ok &= _telemetry_overhead_gate(fresh, baseline, args.max_telemetry_overhead)

    trace_fresh_path = Path(args.trace_fresh)
    if not trace_fresh_path.exists():
        print("perf gate: no fresh trace.json; trace replay gate skipped "
              "(run benchmarks/bench_trace.py to enable it)")
    else:
        trace_fresh = json.loads(trace_fresh_path.read_text())
        try:
            trace_base = _load_baseline(args.trace_baseline, TRACE_BASELINE_GIT_PATH)
        except (OSError, subprocess.CalledProcessError, json.JSONDecodeError):
            print("perf gate: no committed trace baseline yet; trace replay "
                  "gate records fresh numbers only")
            trace_base = None
        if trace_base is not None:
            _collect_delta(
                "trace replay (warm)",
                trace_fresh.get("stages", {}).get("replay_mmap_warm"),
                trace_base.get("stages", {}).get("replay_mmap_warm"),
            )
            ok &= _gate(
                "trace replay (warm)",
                _rate(trace_fresh["records_per_sec"]["replay_mmap_warm"]),
                _rate(trace_base["records_per_sec"]["replay_mmap_warm"]),
                args.max_regression,
                fresh_stages=trace_fresh.get("stages", {}).get("replay_mmap_warm"),
                base_stages=trace_base.get("stages", {}).get("replay_mmap_warm"),
            )

    detect_fresh_path = Path(args.trace_detect_fresh)
    if not detect_fresh_path.exists():
        print("perf gate: no fresh trace_detect.json; precomputed-detection "
              "gate skipped (run benchmarks/bench_trace.py to enable it)")
    else:
        detect_fresh = json.loads(detect_fresh_path.read_text())
        detect_rate = _rate(
            detect_fresh["records_per_sec"]["detect_precomputed_warm"]
        )
        # Absolute floor first: the acceptance bar for the precomputed
        # path, independent of whatever the baseline happens to hold.
        floor_ok = detect_rate >= args.min_detect_rate
        verdict = "OK" if floor_ok else "REGRESSION"
        print(
            f"perf gate [{verdict}]: precomputed detection "
            f"{detect_rate:,.0f} records/s vs absolute floor "
            f"{args.min_detect_rate:,.0f}"
        )
        ok &= floor_ok
        try:
            detect_base = _load_baseline(
                args.trace_detect_baseline, TRACE_DETECT_BASELINE_GIT_PATH
            )
        except (OSError, subprocess.CalledProcessError, json.JSONDecodeError):
            print("perf gate: no committed trace_detect baseline yet; "
                  "relative precomputed-detection gate records fresh "
                  "numbers only")
            detect_base = None
        if detect_base is not None:
            _collect_delta(
                "precomputed detection (warm)",
                detect_fresh.get("stages", {}).get("detect_precomputed_warm"),
                detect_base.get("stages", {}).get("detect_precomputed_warm"),
            )
            ok &= _gate(
                "precomputed detection (warm)",
                detect_rate,
                _rate(detect_base["records_per_sec"]["detect_precomputed_warm"]),
                args.max_regression,
                fresh_stages=detect_fresh.get("stages", {})
                .get("detect_precomputed_warm"),
                base_stages=detect_base.get("stages", {})
                .get("detect_precomputed_warm"),
            )

    pipeline_fresh_path = Path(args.pipeline_fresh)
    if not pipeline_fresh_path.exists():
        print("perf gate: no fresh pipeline.json; pipeline gate skipped "
              "(run benchmarks/bench_pipeline.py to enable it)")
    else:
        pipeline_fresh = json.loads(pipeline_fresh_path.read_text())
        try:
            pipeline_base = _load_baseline(
                args.pipeline_baseline, PIPELINE_BASELINE_GIT_PATH
            )
        except (OSError, subprocess.CalledProcessError, json.JSONDecodeError):
            print("perf gate: no committed pipeline baseline yet; pipeline "
                  "gate records fresh numbers only")
            pipeline_base = None
        if pipeline_base is not None:
            row = PIPELINE_GATE_SCENARIO
            _collect_delta(
                f"pipeline stream mode ({row})",
                pipeline_fresh.get("stages", {}).get(row, {}).get("stream"),
                pipeline_base.get("stages", {}).get(row, {}).get("stream"),
            )
            ok &= _gate(
                f"pipeline stream mode ({row})",
                _rate(pipeline_fresh["records_per_sec"][row]["stream"]),
                _rate(pipeline_base["records_per_sec"][row]["stream"]),
                args.max_regression,
                fresh_stages=pipeline_fresh.get("stages", {})
                .get(row, {})
                .get("stream"),
                base_stages=pipeline_base.get("stages", {}).get(row, {}).get("stream"),
            )

    ok &= _cluster_section()

    if args.telemetry_delta:
        sections = [
            f"== {name} ==\n{_stage_table(fresh_stages, base_stages)}"
            for name, fresh_stages, base_stages in delta_sections
        ] or ["(no benchmark carried a stages breakdown on both sides)"]
        delta_path = Path(args.telemetry_delta)
        delta_path.parent.mkdir(parents=True, exist_ok=True)
        delta_path.write_text(
            "Per-stage span deltas, fresh vs committed baseline\n\n"
            + "\n\n".join(sections)
            + "\n"
        )
        print(f"wrote telemetry delta: {delta_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
