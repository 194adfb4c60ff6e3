"""The paper scorecard: every paper experiment's claims as rows that can fail.

Runs each experiment of the registry
:data:`repro.experiments.EXPERIMENTS` (Tables 2-8, Figures 1-10, the
Section 5 anonymisation check, and three extensions beyond the paper)
over the shared dataset cache (:mod:`repro.experiments.cache`, so the
3-week Abilene and 1-week GÉANT sets are built once) and checks each
claim as one row with a fixed bound.  A claim that holds over a loop
(every k, every dataset curve) is one row on its worst case.  Each row
records:

* ``claim`` — a stable id, ``<experiment>.<subject>.<quantity>``, whose
  prefix is the experiment's registry name;
* ``paper`` — the paper's own number where the experiment's docstring
  or claim gives one (``null`` where the paper's claim is a shape, not
  a number, and always for an extension);
* ``ours`` — the value this checkout measures;
* ``tolerance`` — the bound ``ours`` must meet, as ``{"op", "bound"}``
  (``"~"`` adds ``"rel"``: within that fraction of ``bound``);
* ``extension`` — true for experiments that are not in the paper
  (ablations, classical baselines, the dispersion-metric ablation);
* ``pass``.

Usage (from the repository root; ~3 minutes on 2 vCPUs)::

    PYTHONPATH=src python benchmarks/paper_claims.py

It writes ``benchmarks/results/paper_claims.json`` and exits 1 if any
row fails.  Each experiment's rows are also a pytest test
(``python -m pytest benchmarks/paper_claims.py::test_fig7``), which is
how ``tools/mutants.py`` runs one experiment's check against a mutant.
"""

from __future__ import annotations

import json
import operator
import sys
import time
from pathlib import Path

from repro.experiments import EXPERIMENTS, EXTENSIONS, load

RESULT_PATH = Path(__file__).parent / "results" / "paper_claims.json"

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq}

#: Table 3 types the paper found only via entropy (its docstring).
_ENTROPY_ONLY = ("port_scan", "network_scan", "point_multipoint")


def _row(claim: str, ours, op: str, bound, paper=None, rel: float | None = None) -> dict:
    tolerance = {"op": op, "bound": bound}
    if rel is not None:
        tolerance["rel"] = rel
        holds = abs(ours - bound) <= rel * abs(bound)
    else:
        holds = _OPS[op](ours, bound)
    return {"claim": claim, "paper": paper, "ours": ours,
            "tolerance": tolerance, "pass": bool(holds)}


#: Registry name -> ``rows(result)``: the claims of that experiment.
CLAIMS = {}


def claims(name: str):
    """Register the decorated function as experiment ``name``'s rows."""
    def register(rows):
        CLAIMS[name] = rows
        return rows
    return register


@claims("table2")
def table2_rows(result) -> list[dict]:
    """Both networks detect anomalies, and entropy alone finds more
    than a fifth of them."""
    out = []
    for network, counts in (("abilene", result.abilene), ("geant", result.geant)):
        out.append(_row(f"table2.{network}.total", counts["total"], ">", 0))
        out.append(_row(f"table2.{network}.entropy_only_share",
                        counts["entropy_only"] / counts["total"], ">", 0.2))
    return out


@claims("table3")
def table3_rows(result) -> list[dict]:
    """Scans, worms and point-to-multipoint: at most one found in
    volume, more found in entropy; alpha flows found in volume."""
    rows = {r.label: r for r in result.rows}
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


@claims("table4")
def table4_rows(result) -> list[dict]:
    """The rebuilt traces carry the paper's intensities (DOS 3.47e5,
    DDOS 2.75e4, worm 141 pps, within 1 %) and their structure."""
    by_name = {r.name: r for r in result}
    exp = load("table4")
    return [
        _row("table4.intensities_match_paper", int(exp.verify_intensities(result)),
             "==", 1),
        _row("table4.ddos.n_sources", by_name["ddos"].n_sources, ">", 100),
        _row("table4.worm.n_destinations", by_name["worm"].n_destinations, ">", 1000),
    ]


@claims("table5")
def table5_rows(result) -> list[dict]:
    """DOS thinned 1000x is 347 pps, ~14 % of the average OD flow; the
    unthinned worm is 6.3 % of it (the paper's Table 5 anchors)."""
    cells = {(c.trace, c.thinning): c for c in result.cells}
    dos = cells[("dos", 1000)]
    return [
        _row("table5.dos.thin1000.pps", dos.pps, "~", 347.0, paper=347.0, rel=0.05),
        _row("table5.dos.thin1000.percent_of_od.lower", dos.percent_of_od, ">", 8,
             paper=14),
        _row("table5.dos.thin1000.percent_of_od.upper", dos.percent_of_od, "<", 25,
             paper=14),
        _row("table5.worm.thin1.percent_of_od", cells[("worm", 1)].percent_of_od,
             "<", 10, paper=6.3),
    ]


@claims("table6")
def table6_rows(result) -> list[dict]:
    """Each label sits where the paper's Table 6 puts it (mean residual
    entropy per axis: srcIP, srcPort, dstIP, dstPort)."""
    mean = {r.label: r.mean for r in result.rows}
    return [
        _row("table6.alpha.mean_src_ip", mean["alpha"][0], "<", 0),
        _row("table6.alpha.mean_dst_ip", mean["alpha"][2], "<", 0),
        _row("table6.port_scan.mean_dst_port", mean["port_scan"][3], ">", 0.3),
        _row("table6.port_scan.mean_dst_ip", mean["port_scan"][2], "<", 0),
        _row("table6.network_scan.mean_src_port", mean["network_scan"][1], ">", 0.3),
        _row("table6.point_multipoint.mean_dst_ip", mean["point_multipoint"][2], ">", 0.3),
    ]


@claims("table7")
def table7_rows(result) -> list[dict]:
    """Ten Abilene clusters, most led by a majority label, with at
    least five distinct leading labels."""
    clusters = result.clusters
    consistent = sum(c.plurality_count >= max(1, c.size // 2) for c in clusters)
    return [
        _row("table7.n_clusters", len(clusters), ">=", 8, paper=10),
        _row("table7.consistent_share", consistent / len(clusters), ">=", 0.7),
        _row("table7.distinct_plurality_labels",
             len({c.plurality_label for c in clusters}), ">=", 5),
    ]


@claims("table8")
def table8_rows(result) -> list[dict]:
    """Ten GÉANT clusters, most matching an Abilene region."""
    matched = sum(r.abilene_match > 0 for r in result.rows)
    return [
        _row("table8.n_clusters", len(result.rows), ">=", 8, paper=10),
        _row("table8.matched_share", matched / len(result.rows), ">=", 0.6),
    ]


@claims("fig1")
def fig1_rows(result) -> list[dict]:
    """A port scan disperses destination ports and concentrates
    destination addresses."""
    return [
        _row("fig1.dst_port.support_ratio",
             len(result.dst_port_anomalous) / len(result.dst_port_normal), ">", 5),
        _row("fig1.dst_ip.peak_ratio",
             result.dst_ip_anomalous.max() / result.dst_ip_normal.max(), ">", 2),
    ]


@claims("fig2")
def fig2_rows(result) -> list[dict]:
    """The scan is invisible in bytes, a spike in H(dstPort) and a dip
    in H(dstIP)."""
    z = result.z_scores
    return [
        _row("fig2.bytes.abs_z", abs(z["bytes"]), "<", 4),
        _row("fig2.dst_port_entropy.z", z["H(dstPort)"], ">", 4),
        _row("fig2.dst_ip_entropy.z", z["H(dstIP)"], "<", -3),
    ]


@claims("fig4")
def fig4_rows(result) -> list[dict]:
    """Entropy and volume detect largely disjoint anomaly sets."""
    out = []
    for metric, quad in (("bytes", result.quadrants_bytes),
                         ("packets", result.quadrants_packets)):
        exclusive = quad["entropy_only"] + quad["volume_only"]
        out.append(_row(f"fig4.{metric}.detected", exclusive + quad["both"], ">", 0))
        out.append(_row(f"fig4.{metric}.exclusive", exclusive, ">=",
                        0.5 * quad["both"]))
    out.append(_row("fig4.bytes.entropy_only", result.quadrants_bytes["entropy_only"],
                    ">", 0))
    return out


@claims("fig5")
def fig5_rows(result) -> list[dict]:
    """Full-intensity attacks are always caught; the worm is nearly
    invisible to volume but entropy sustains it one decade of thinning
    down (paper: ~0.8 at 0.63 % intensity); entropy extends DDoS
    detection where volume collapses."""

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
                    rate("worm", 10, 0.995, "combined"), ">", 0.4, paper=0.8))
    out.append(_row("fig5.ddos.combined_over_volume.thin1000.alpha0.995",
                    rate("ddos", 1000, 0.995, "combined"), ">",
                    rate("ddos", 1000, 0.995, "volume")))
    return out


@claims("fig6")
def fig6_rows(result) -> list[dict]:
    """A DDoS split over all 11 origins is always caught at 1000x
    thinning (~2.5 pps per OD flow); full-rate splits are caught at
    every k; some split is still caught at 10^4x thinning."""
    ks = range(2, 12)
    return [
        _row("fig6.k11.rate.thin1000.alpha0.999",
             dict(result.curve(11, 0.999)).get(1000), "==", 1.0, paper=1.0),
        _row("fig6.min_over_k.rate.thin1.alpha0.995",
             min(dict(result.curve(k, 0.995)).get(1, 0) for k in ks), "==", 1.0),
        _row("fig6.max_over_k.rate.thin10000.alpha0.995",
             max(dict(result.curve(k, 0.995)).get(10_000, 0.0) for k in ks), ">", 0.3),
    ]


@claims("fig7")
def fig7_rows(result) -> list[dict]:
    """k = 3 clustering recovers the known types: at most 5 % of the
    points misassigned (paper: 4 of 296)."""
    return [_row("fig7.misassigned_share",
                 result.n_misassigned / result.n_points, "<=", 0.05,
                 paper=4 / 296)]


@claims("fig8")
def fig8_rows(result) -> list[dict]:
    """Abilene anomalies form clusters bounded in at least two axes."""
    tight = sum(v >= 2 for v in result.tight_axes_per_cluster.values())
    return [
        _row("fig8.n_points", len(result.points), ">", 50),
        _row("fig8.tight_cluster_share", tight / len(result.tight_axes_per_cluster),
             ">=", 0.7),
    ]


@claims("fig9")
def fig9_rows(result) -> list[dict]:
    """Most GÉANT clusters are clumps or bands, not diffuse."""
    localized = sum(kind != "diffuse" for kind in result.kinds.values())
    return [_row("fig9.localized_share", localized / len(result.kinds), ">=", 0.5)]


@claims("fig10")
def fig10_rows(result) -> list[dict]:
    """All four curves (2 datasets x 2 algorithms) knee in the paper's
    8-12 regime (ours a little earlier), with trace(W) falling in k."""
    exp = load("fig10")
    knees = [exp.knee_of(curve) for curve in result.curves.values()]
    rises = []
    for curve in result.curves.values():
        w = [curve[k][0] for k in sorted(curve)]
        rises += [b - a for a, b in zip(w, w[1:])]
    return [
        _row("fig10.n_curves", len(result.curves), "==", 4),
        _row("fig10.knee.min", min(knees), ">=", 3, paper=8),
        _row("fig10.knee.max", max(knees), "<=", 12, paper=12),
        _row("fig10.trace_w.max_rise", max(rises), "<=", 1e-6),
    ]


@claims("anonymization")
def anonymization_rows(result) -> list[dict]:
    """/21 anonymisation loses only a small fraction of detections
    (paper: 128 of 132)."""
    return [
        _row("anonymization.detections_raw", result.detections_raw, ">", 0, paper=132),
        _row("anonymization.kept_share",
             result.detections_anonymized / result.detections_raw, ">=", 0.75,
             paper=128 / 132),
    ]


@claims("ablations")
def ablations_rows(result) -> list[dict]:
    """Both normalisations find a comparable population; detections are
    stable around m = 10; the clustering algorithm barely matters."""
    norm = result.normalization.detections
    lo, hi = sorted(norm.values())
    d = result.subspace_dim.detections_by_m
    rates = result.clustering.agreements.values()
    return [
        _row("ablations.normalization.modes_are_variance_and_raw",
             int(set(norm) == {"variance", "raw"}), "==", 1),
        _row("ablations.normalization.detection_ratio", hi / max(lo, 1), "<=", 2),
        _row("ablations.subspace_dim.m8_vs_m10",
             abs(d[8] - d[10]) / max(d[10], 1), "<=", 0.3),
        _row("ablations.subspace_dim.m14_vs_m10",
             abs(d[14] - d[10]) / max(d[10], 1), "<=", 0.3),
        _row("ablations.clustering.min_rand", min(rates), ">", 0.6),
        _row("ablations.clustering.pairs_above_0.9", sum(r > 0.9 for r in rates), ">=", 3),
    ]


@claims("baseline_comparison")
def baseline_rows(result) -> list[dict]:
    """Volume + entropy has the best F1, beats every classical baseline
    on precision, and carries the low-volume recall."""
    rows = {r.name: r for r in result.rows}
    combined = rows["volume+entropy"]
    classical = ("ewma(volume)", "holt-winters(volume)", "wavelet(volume)")
    return [
        _row("baseline_comparison.combined.f1", combined.counts.f1, ">=",
             max(r.counts.f1 for r in result.rows)),
        _row("baseline_comparison.classical.max_precision",
             max(rows[n].counts.precision for n in classical), "<",
             combined.counts.precision),
        _row("baseline_comparison.low_volume_recall_gain",
             combined.low_volume_recall - rows["subspace(volume)"].low_volume_recall,
             ">", 0.3),
    ]


@claims("ablation_metrics")
def ablation_metrics_rows(result) -> list[dict]:
    """Entropy is in the top band of dispersion metrics."""
    entropy = next(r for r in result.rows if r.metric == "entropy")
    best_f1 = max(r.counts.f1 for r in result.rows)
    return [
        _row("ablation_metrics.entropy.f1_over_best", entropy.counts.f1 / best_f1,
             ">=", 0.75),
        _row("ablation_metrics.entropy.recall", entropy.counts.recall, ">", 0.2),
    ]


def rows(name: str) -> list[dict]:
    """Run experiment ``name`` and check its claims."""
    out = CLAIMS[name](load(name).run())
    for r in out:
        r["extension"] = name in EXTENSIONS
    return out


def _check(checked: list[dict]) -> None:
    failed = [r for r in checked if not r["pass"]]
    assert not failed, json.dumps(failed, indent=1)


def _test(name: str):
    def test():
        _check(rows(name))
    test.__name__ = f"test_{name}"
    return test


for _name in EXPERIMENTS:
    globals()[f"test_{_name}"] = _test(_name)


def main() -> int:
    checked = []
    total = time.perf_counter()
    for name in EXPERIMENTS:
        t0 = time.perf_counter()
        checked += rows(name)
        print(f"{name}: {time.perf_counter() - t0:.1f} s", flush=True)
    for r in checked:
        tol = r["tolerance"]
        bound = f"{tol['op']} {tol['bound']:.4g}" + (
            f" (±{tol['rel']:.0%})" if "rel" in tol else "")
        print(f"  [{'pass' if r['pass'] else 'FAIL'}] {r['claim']}: {r['ours']:.4g} {bound}"
              + ("" if r["paper"] is None else f" (paper {r['paper']:.4g})")
              + (" [extension]" if r["extension"] else ""))
    RESULT_PATH.parent.mkdir(exist_ok=True)
    RESULT_PATH.write_text(json.dumps({"rows": checked}, indent=2) + "\n")
    failed = sum(not r["pass"] for r in checked)
    print(f"{len(checked) - failed} of {len(checked)} claims hold "
          f"({time.perf_counter() - total:.1f} s); wrote {RESULT_PATH}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
