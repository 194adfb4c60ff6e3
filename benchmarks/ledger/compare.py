"""Compare two ledger results files against the benchmark's own bounds.

    python3 benchmarks/ledger/compare.py A.json B.json

``A`` is the base.  For every (workload, end-to-end metric) the
relative worsening of ``B`` against ``A`` is judged:

* ``within``     — no worse than the metric's bound;
* ``worse``      — worse by more than the bound;
* ``unresolved`` — the repeats of either side spread wider than the
  bound (quartile distance over median), so the two medians cannot be
  told apart at that resolution.

One row per workload; every ratio is printed with its base.  Exit 1 on
any ``worse``, 2 when the files cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys

import spec

#: (results section, metric) pairs compared, in print order.
COMPARED = [("end_to_end", m) for m in spec.END_TO_END] + [
    ("quality", m) for m in spec.QUALITY
]


def spread(entry: dict) -> float:
    """Quartile distance of a metric's repeats as a share of their median.

    Fewer than four repeats have no quartiles (``peak_rss_mb`` is read
    once, ``setup_s`` three times): their spread is not judged.
    """
    samples = entry.get("samples", ())
    if len(samples) < 4:
        return 0.0
    middle = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(middle) if middle else 0.0


def judge(metric: spec.Metric, base: dict, other: dict) -> tuple[str, float]:
    """``(status, worsening)``; worsening is a share of the base value,
    positive when ``other`` is worse."""
    a, b = base["value"], other["value"]
    if a == b:
        worsening = 0.0
    elif a == 0:
        worsening = float("inf") if (b < a) == (metric.better == "higher") else float("-inf")
    else:
        worsening = (a - b) / abs(a) if metric.better == "higher" else (b - a) / abs(a)
    if metric.bound > 0 and max(spread(base), spread(other)) > metric.bound:
        return "unresolved", worsening
    return ("worse" if worsening > metric.bound else "within"), worsening


def compare(a: dict, b: dict) -> tuple[list[str], int]:
    """Rows to print and the number of ``worse`` verdicts."""
    rows, worse = [], 0
    for workload, base_row in a["workloads"].items():
        other_row = b["workloads"].get(workload)
        if other_row is None:
            raise KeyError(f"workload {workload!r} missing from the second file")
        cells = []
        for section, metric in COMPARED:
            status, worsening = judge(
                metric, base_row[section][metric.name], other_row[section][metric.name]
            )
            worse += status == "worse"
            base = base_row[section][metric.name]
            cells.append(
                f"{metric.name} {status} {worsening:+.1%} of {base['value']:.4g} "
                f"{base['unit']} (bound {metric.bound:.0%})"
            )
        rows.append(f"{workload}: " + " | ".join(cells))
    return rows, worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(argv[0]) as fa, open(argv[1]) as fb:
            rows, worse = compare(json.load(fa), json.load(fb))
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot compare: {exc!r}", file=sys.stderr)
        return 2
    print("\n".join(rows))
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
