"""The ledger benchmark: six workloads, end-to-end + per-layer metrics.

Two ways in, one measurement underneath:

* the driver's contract — one workload per call, metrics on the last
  line of standard output as one JSON object::

      python3 benchmarks/ledger/run.py --workload stream-exact --seed 11 \\
          --seconds 10 --trace 0

* the whole ledger — all six workloads untraced, then traced, every
  metric printed as ``workload metric value unit`` and a results JSON
  written under ``benchmarks/ledger/out/``::

      python3 benchmarks/ledger/run.py --seed 11

Exit status is non-zero only on a harness error (an import that fails,
a child that dies); failed operations are counted, not fatal.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
if os.path.join(REPO, "src") not in sys.path:
    sys.path.insert(0, os.path.join(REPO, "src"))  # the program under test

import spec  # noqa: E402
import workloads  # noqa: E402

SCHEMA = "repro.ledger/1"
PERCENTILES = (50, 90, 95, 99, 99.9)
MIN_BEYOND = 10  # samples a reported percentile must have beyond it
#: glibc gives freed heap back to the kernel and takes it again, and
#: whether the re-faulted pages of numpy's large scratch arrays come
#: back as transparent huge pages is a per-process lottery: on the
#: reference box it moves stream-sketch between 1.0 s and 1.5 s a pass
#: (no other workload moves).  The measuring child keeps its heap
#: (no trim, grow in 256 MiB steps), which takes the lottery out; the
#: same environment is applied to whatever commit is measured.
CHILD_ENV = {
    "MALLOC_TOP_PAD_": str(256 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}

# -- statistics -----------------------------------------------------------


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p``-th percentile of ``n``."""
    return n - math.ceil(n * p / 100) if n else 0


def highest_supported_percentile(n: int) -> float | None:
    """The highest of :data:`PERCENTILES` with >= 10 samples beyond it."""
    ok = [p for p in PERCENTILES if samples_beyond(n, p) >= MIN_BEYOND]
    return max(ok) if ok else None


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile (no interpolation: a measured sample)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


def summary(samples, unit: str, value=None) -> dict:
    """A metric entry: the value (median unless given) with its raw samples."""
    samples = [float(s) for s in samples]
    return {
        "value": float(statistics.median(samples) if value is None else value),
        "unit": unit,
        "n": len(samples),
        "min": min(samples),
        "max": max(samples),
        "samples": samples,
    }


# -- checks ---------------------------------------------------------------


def _differing_bins(a: list, b: list) -> set[int]:
    """Bins whose verdict differs between two runs (SPE to 1e-9 relative)."""
    left = {v[0]: v for v in a}
    right = {v[0]: v for v in b}
    bad = set(left) ^ set(right)
    for bin_index in set(left) & set(right):
        x, y = left[bin_index], right[bin_index]
        same_spe = math.isclose(x[4], y[4], rel_tol=1e-9, abs_tol=0.0)
        if tuple(x[1:4]) != tuple(y[1:4]) or not same_spe:
            bad.add(bin_index)
    return bad


def check_ops(workload: str, passes: list, inputs, reference) -> dict:
    """Relational output check: one operation = one scored bin of one run.

    A bin fails if its verdict differs between runs of this workload,
    or (exact workloads over the shared trace) from ``stream-exact``'s;
    a run whose record/bin counts, late records, restarts or degraded
    flag are off fails all its bins.  No committed digest is involved,
    so a calibration change alters detections without editing this.
    """
    scored = inputs.n_bins - inputs.warmup_bins
    runs = [run for p in passes for run in p["runs"]]
    first = runs[0]
    expected_records = inputs.trace_records or first["n_records"]
    parity = workload in spec.PARITY_WORKLOADS and reference is not None
    attempted = failed = 0
    notes: list[str] = []
    for index, run in enumerate(runs):
        attempted += scored
        problems = [
            f"{key}={run[key]!r} (expected {want!r})"
            for key, want in (
                ("n_records", expected_records),
                ("n_bins_scored", scored),
                ("late_records", 0),
                ("restarts", 0),
                ("degraded", False),
            )
            if run[key] != want
        ]
        if expected_records <= 0:
            problems.append("no records ingested")
        if problems:
            failed += scored
            notes.append(f"run {index}: " + "; ".join(problems))
            continue
        bad = _differing_bins(run["verdicts"], first["verdicts"])
        if parity:
            bad |= _differing_bins(run["verdicts"], reference)
        if bad:
            failed += len(bad)
            notes.append(f"run {index}: bins {sorted(bad)} differ")
    return {"attempted": attempted, "failed": failed, "notes": notes[:20]}


def quality(verdicts: list, inputs) -> tuple[float, float]:
    """Bin-level F1 of ``detected`` verdicts, and entropy-channel recall,
    against the scenario's planted events over the scored bins."""
    planted = {b for b in inputs.labels if b >= inputs.warmup_bins}
    flagged = {v[0] for v in verdicts if v[1] or v[2]}
    by_entropy = {v[0] for v in verdicts if v[1]}
    hits = len(planted & flagged)
    denominator = len(planted) + len(flagged)
    f1 = 2 * hits / denominator if denominator else 0.0
    recall = len(planted & by_entropy) / len(planted) if planted else 0.0
    return f1, recall


def flag_agreement(verdicts: list, reference: list | None) -> float:
    """Share of scored bins whose two flags equal ``stream-exact``'s."""
    if not reference:
        return 0.0
    ours = {v[0]: v[1:3] for v in verdicts}
    return sum(ours.get(v[0]) == v[1:3] for v in reference) / len(reference)


# -- metric assembly ------------------------------------------------------


def end_to_end_metrics(inputs, child: dict) -> dict:
    passes = child["passes"]
    pooled = [x for p in passes for x in p["latencies_ms"]]
    verdict = summary(
        [percentile(p["latencies_ms"], 50) for p in passes], "ms",
        value=percentile(pooled, 50),
    )
    verdict["pooled_n"] = len(pooled)
    return {
        "records_per_s": summary(
            [p["n_records"] / p["wall_s"] for p in passes], "records/s"
        ),
        "verdict_ms_p50": verdict,
        "peak_rss_mb": summary([child["peak_rss_mb"]], "MiB"),
        "setup_s": summary(inputs.setup_samples, "s"),
    }


def per_layer_metrics(inputs, child: dict, reference) -> tuple[dict, list]:
    units = {m.name: m.unit for m in spec.PER_LAYER}
    passes, traced = child["passes"], child["traced"]
    values = {
        name: statistics.median(row["layers"][name] for row in traced)
        for name in traced[0]["layers"]
    }
    first = passes[0]["runs"][0]
    f1, recall = quality(first["verdicts"], inputs)
    pooled = [x for p in passes for x in p["latencies_ms"]]
    plain_wall = statistics.median(p["wall_s"] for p in passes)
    traced_wall = statistics.median(row["pass"]["wall_s"] for row in traced)
    missing = sorted({name for row in traced for name in row["missing"]})
    values.update({
        "detection_f1": f1,
        "entropy_recall": recall,
        "io.write.busy_s": statistics.median(inputs.write_samples or [0.0]),
        "io.derive.busy_s": statistics.median(inputs.derive_samples or [0.0]),
        "io.trace.bytes": inputs.trace_bytes,
        "flows.sketch.verdict_agreement": flag_agreement(first["verdicts"], reference),
        "stream.late_records": first["late_records"],
        "verdict_ms_p95": percentile(pooled, 95),
        "verdict_samples": len(pooled),
        "pipeline.bank.bins_scored": first["n_bins_scored"],
        "cluster.worker_peak_rss_mb": child["worker_peak_rss_mb"],
        "traced_wall_s": traced_wall,
        "trace_overhead_pct": (traced_wall / plain_wall - 1.0) * 100.0,
        "missing_targets": len(missing),
    })
    for name in units:
        values.setdefault(name, 0.0)  # a layer this workload never enters
    out = {n: {"value": float(values[n]), "unit": units[n]} for n in units}
    out["verdict_ms_p95"].update(
        beyond=samples_beyond(len(pooled), 95),
        highest_supported_percentile=highest_supported_percentile(len(pooled)),
    )
    return out, missing


# -- running --------------------------------------------------------------


def run_child(job: dict, workdir: str) -> dict:
    """Measure one workload in a fresh interpreter (clean RSS and
    allocator; default start method for the cluster workers)."""
    job_path = os.path.join(workdir, "job.pkl")
    result_path = os.path.join(workdir, "result.pkl")
    with open(job_path, "wb") as fh:
        pickle.dump(job, fh)
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", job_path, result_path],
        env={**os.environ, **CHILD_ENV},
    )
    if done.returncode != 0:
        raise RuntimeError(f"{job['workload']} child exited with {done.returncode}")
    with open(result_path, "rb") as fh:
        return pickle.load(fh)  # written by our own child just above


class Session:
    """One seed's inputs, built lazily and shared by its workloads."""

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.trace_inputs = self._synth = self._reference = None

    def inputs(self, workload: str):
        if workload == "synth-inline":
            if self._synth is None:
                self._synth = workloads.build_synth_inputs(self.seed, self.scale)
            return self._synth
        if self.trace_inputs is None:
            self.trace_inputs = workloads.build_trace_inputs(
                self.seed, self.scale, self.workdir
            )
        return self.trace_inputs

    def reference(self, workload: str, trace: bool):
        """``stream-exact``'s verdicts over the shared trace, for the
        workloads checked against them: the parity workloads always,
        ``stream-sketch`` for its traced ``verdict_agreement``."""
        if not (workload in spec.PARITY_WORKLOADS or (trace and workload == "stream-sketch")):
            return None
        if self._reference is None:
            row = workloads.stream_exact(self.inputs(workload))
            self._reference = row["runs"][0]["verdicts"]
        return self._reference

    def measure(self, workload: str, seconds: float, trace: bool) -> dict:
        """One child run of one workload -> its metrics and op counts."""
        inputs = self.inputs(workload)
        reference = self.reference(workload, trace)
        smoke = self.scale == "smoke"
        job = {
            "workload": workload,
            "inputs": inputs,
            "seconds": seconds,
            "trace": trace,
            "min_passes": spec.SCALES[self.scale].min_passes,
            "warm_up": not smoke,
            "spans_path": os.path.join(OUT, f"trace-{workload}.json"),
        }
        # Smoke inputs cost less than an interpreter start, so a smoke
        # run stays in this process (its RSS is not a measurement).
        child = workloads.measure(job) if smoke else run_child(job, self.workdir)
        passes = child["passes"] + [row["pass"] for row in child["traced"]]
        if workload == "stream-exact":
            reference = passes[0]["runs"][0]["verdicts"]  # agrees with itself
        out = {"ops": check_ops(workload, passes, inputs, reference)}
        if trace:
            out["per_layer"], out["missing_targets"] = per_layer_metrics(
                inputs, child, reference
            )
            for name in out["missing_targets"]:
                print(f"warning: {workload}: wrap target missing: {name}", file=sys.stderr)
        else:
            out["end_to_end"] = end_to_end_metrics(inputs, child)
            first = child["passes"][0]["runs"][0]
            f1, recall = quality(first["verdicts"], inputs)
            out["quality"] = {
                "detection_f1": {"value": f1, "unit": "ratio"},
                "entropy_recall": {"value": recall, "unit": "ratio"},
            }
        return out


def provenance(seed: int, scale: str, seconds: float) -> dict:
    import numpy
    import scipy

    def first_line(path: str, key: str) -> str | None:
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        revision = None  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "ram_total": first_line("/proc/meminfo", "MemTotal"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "cluster_worker_start_method": multiprocessing.get_start_method(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def validate_names(results: dict) -> None:
    """Refuse to write a workload or metric name outside NAME_RE."""
    for workload, row in results["workloads"].items():
        names = [workload]
        for section in ("end_to_end", "quality", "per_layer"):
            names.extend(row.get(section, {}))
        for name in names:
            if not spec.NAME_RE.match(name):
                raise ValueError(f"invalid name {name!r} in results")


def print_metrics(workload: str, row: dict) -> None:
    for section in ("end_to_end", "quality", "per_layer"):
        for name, entry in row.get(section, {}).items():
            extra = ""
            if "pooled_n" in entry:
                extra = f"  (n={entry['pooled_n']} pooled over {entry['n']} passes)"
            elif "beyond" in entry:
                extra = (f"  ({entry['beyond']} samples beyond; highest supported "
                         f"percentile: {entry['highest_supported_percentile']})")
            elif entry.get("n", 1) > 1:
                extra = f"  (n={entry['n']}, min {entry['min']:.6g}, max {entry['max']:.6g})"
            print(f"{workload} {name} {entry['value']:.6g} {entry['unit']}{extra}")
    ops = row["ops"]
    share = ops["failed"] / ops["attempted"]
    print(f"{workload} failed_ops {ops['failed']} of {ops['attempted']} ({share:.2%})")
    for note in ops["notes"]:
        print(f"{workload}   {note}")


def run_ledger(args, workdir: str) -> int:
    """All requested workloads, untraced then traced; write the results file."""
    session = Session(args.seed, args.scale, workdir)
    results = {
        "schema": SCHEMA,
        "provenance": provenance(args.seed, args.scale, args.seconds),
        "workloads": {},
    }
    for workload in args.workload or list(spec.WORKLOADS):
        row = session.measure(workload, args.seconds, trace=False)
        traced = session.measure(workload, args.seconds, trace=True)
        row["per_layer"] = traced["per_layer"]
        row["missing_targets"] = traced["missing_targets"]
        row["ops"] = {
            "attempted": row["ops"]["attempted"] + traced["ops"]["attempted"],
            "failed": row["ops"]["failed"] + traced["ops"]["failed"],
            "notes": row["ops"]["notes"] + traced["ops"]["notes"],
        }
        results["workloads"][workload] = row
        print_metrics(workload, row)
    shared = session.trace_inputs  # None when only synth-inline ran
    results["provenance"].update(
        trace_records=shared.trace_records if shared else 0,
        trace_bytes=shared.trace_bytes if shared else 0,
    )
    validate_names(results)
    path = args.out or os.path.join(OUT, f"ledger-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)
    print(f"wrote {path}")
    return 0


def run_driver(args, workdir: str) -> int:
    """The driver's contract: one workload, one JSON object on the last line."""
    (workload,) = args.workload
    session = Session(args.seed, args.scale, workdir)
    row = session.measure(workload, args.seconds, trace=bool(args.trace))
    print_metrics(workload, row)
    section = row["per_layer"] if args.trace else row["end_to_end"]
    ops = row["ops"]
    print(json.dumps({
        "correct": ops["failed"] == 0,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in section.items()
        },
    }))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:  # internal: see run_child
        return workloads.child_main(*argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(spec.WORKLOADS),
                        help="run only this workload (repeatable in ledger mode)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per child run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass: proves every metric is emitted")
    parser.add_argument("--out", default=None, help="results file (ledger mode)")
    args = parser.parse_args(argv)
    args.scale = "smoke" if args.smoke else "ledger"
    if args.seconds is None:
        if args.smoke:
            args.seconds = 0.0
        else:
            with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
                args.seconds = float(json.load(fh)["run_seconds"])
    driver = args.trace is not None
    if driver and (not args.workload or len(args.workload) != 1):
        parser.error("--trace needs exactly one --workload")
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run_driver(args, workdir) if driver else run_ledger(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
