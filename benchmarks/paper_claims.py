"""The paper scorecard: the cube-path claims as rows that can fail.

Runs the experiments behind paper Table 3, Figure 5 and Figure 7
(``repro.experiments.table3_breakdown``, ``fig5_detection_rate``,
``fig7_known_clusters``) and checks each claim that
``benchmarks/bench_table3.py``, ``bench_fig5.py`` and ``bench_fig7.py``
assert, one row per assert, with the same bound.  Each row records:

* ``claim`` — a stable id, ``<figure>.<subject>.<quantity>``;
* ``paper`` — the paper's own number where the experiment's docstring
  states one (``null`` where the paper's claim is a shape, not a
  number);
* ``ours`` — the value this checkout measures;
* ``tolerance`` — the bound ``ours`` must meet, as ``{"op", "bound"}``;
* ``pass``.

Usage (from the repository root; ~2 minutes on 2 vCPUs)::

    PYTHONPATH=src python benchmarks/paper_claims.py

It writes ``benchmarks/results/paper_claims.json`` and exits 1 if any
row fails.  Each figure's rows are also a pytest test
(``python -m pytest benchmarks/paper_claims.py``), which is how
``tools/mutants.py`` runs one figure's check against a mutant.
"""

from __future__ import annotations

import json
import operator
import sys
import time
from pathlib import Path

from repro.experiments import fig5_detection_rate, fig7_known_clusters, table3_breakdown

RESULT_PATH = Path(__file__).parent / "results" / "paper_claims.json"

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}

#: Table 3 types the paper found only via entropy (its docstring).
_ENTROPY_ONLY = ("port_scan", "network_scan", "point_multipoint")


def _row(claim: str, ours, op: str, bound, paper=None) -> dict:
    return {
        "claim": claim,
        "paper": paper,
        "ours": ours,
        "tolerance": {"op": op, "bound": bound},
        "pass": bool(_OPS[op](ours, bound)),
    }


def table3_rows() -> list[dict]:
    """Scans, worms and point-to-multipoint: at most one found in
    volume, more found in entropy; alpha flows found in volume."""
    rows = {r.label: r for r in table3_breakdown.run().rows}
    out = []
    for label in ("port_scan", "network_scan", "worm", "point_multipoint"):
        paper = 0 if label in _ENTROPY_ONLY else None
        out.append(_row(f"table3.{label}.found_in_volume",
                        rows[label].found_in_volume, "<=", 1, paper))
        out.append(_row(f"table3.{label}.additional_in_entropy",
                        rows[label].additional_in_entropy, ">", 0))
    out.append(_row("table3.alpha.found_in_volume",
                    rows["alpha"].found_in_volume, ">", 0))
    return out


def fig5_rows() -> list[dict]:
    """Full-intensity attacks are always caught; the worm is nearly
    invisible to volume but entropy sustains it one decade of thinning
    down; entropy extends DDoS detection where volume collapses."""
    result = fig5_detection_rate.run()

    def rate(trace, thin, alpha, which):
        return dict(result.curve(trace, alpha, which))[thin]

    out = [
        _row(f"fig5.{trace}.combined_rate.thin1.alpha0.999",
             rate(trace, 1, 0.999, "combined"), ">=", 1.0)
        for trace in ("dos", "ddos", "worm")
    ]
    out.append(_row("fig5.worm.volume_rate.thin1.alpha0.995",
                    rate("worm", 1, 0.995, "volume"), "<", 0.2))
    out.append(_row("fig5.worm.combined_rate.thin10.alpha0.995",
                    rate("worm", 10, 0.995, "combined"), ">", 0.4))
    out.append(_row("fig5.ddos.combined_over_volume.thin1000.alpha0.995",
                    rate("ddos", 1000, 0.995, "combined"), ">",
                    rate("ddos", 1000, 0.995, "volume")))
    return out


def fig7_rows() -> list[dict]:
    """k = 3 clustering recovers the known types: at most 5 % of the
    points misassigned (paper: 4 of 296)."""
    result = fig7_known_clusters.run()
    return [_row("fig7.misassigned_share",
                 result.n_misassigned / result.n_points, "<=", 0.05,
                 paper=4 / 296)]


FIGURES = {"table3": table3_rows, "fig5": fig5_rows, "fig7": fig7_rows}


def _check(rows: list[dict]) -> None:
    failed = [r for r in rows if not r["pass"]]
    assert not failed, json.dumps(failed, indent=1)


def test_table3():
    _check(table3_rows())


def test_fig5():
    _check(fig5_rows())


def test_fig7():
    _check(fig7_rows())


def main() -> int:
    rows = []
    total = time.perf_counter()
    for name, build in FIGURES.items():
        t0 = time.perf_counter()
        rows += build()
        print(f"{name}: {time.perf_counter() - t0:.1f} s")
    for r in rows:
        tol = r["tolerance"]
        print(f"  [{'pass' if r['pass'] else 'FAIL'}] {r['claim']}: "
              f"{r['ours']:.4g} {tol['op']} {tol['bound']:.4g}"
              + ("" if r["paper"] is None else f" (paper {r['paper']:.4g})"))
    RESULT_PATH.parent.mkdir(exist_ok=True)
    RESULT_PATH.write_text(json.dumps({"rows": rows}, indent=2) + "\n")
    failed = sum(not r["pass"] for r in rows)
    print(f"{len(rows) - failed} of {len(rows)} claims hold "
          f"({time.perf_counter() - total:.1f} s); wrote {RESULT_PATH}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
