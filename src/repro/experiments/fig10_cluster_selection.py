"""Figure 10: choosing the number of clusters.

The paper plots intra-cluster variation trace(W) and inter-cluster
variation trace(B) against the number of clusters, for both clustering
algorithms (k-means and hierarchical agglomerative) on both datasets
(Abilene and Geant anomalies).  All eight curves agree: a knee around
8-12 clusters, after which adding clusters explains little more — the
basis for fixing k=10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.clustering import choose_k_curves
from repro.experiments.cache import get_abilene_diagnosis, get_geant_diagnosis

__all__ = ["Fig10Result", "run", "format_report", "knee_of"]

DEFAULT_K_VALUES = (2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 25)


@dataclass
class Fig10Result:
    """trace(W)/trace(B) curves per (dataset, algorithm)."""

    curves: dict[tuple[str, str], dict[int, tuple[float, float]]] = field(
        default_factory=dict
    )


def knee_of(curve: dict[int, tuple[float, float]], fraction: float = 0.85) -> int:
    """Smallest k at which trace(W) has fallen by ``fraction`` of its range."""
    ks = sorted(curve)
    w = np.array([curve[k][0] for k in ks])
    if w[0] == w[-1]:
        return ks[0]
    drop = (w[0] - w) / (w[0] - w[-1])
    return ks[int(np.searchsorted(drop, fraction))]


def run(k_values: tuple[int, ...] = DEFAULT_K_VALUES, rng_seed: int = 0) -> Fig10Result:
    """Compute all eight variation curves."""
    points = {}
    for name, getter in (("abilene", get_abilene_diagnosis), ("geant", get_geant_diagnosis)):
        report = getter()
        anomalies = [a for a in report.anomalies if a.detected_by_entropy]
        points[name] = np.vstack([a.unit_vector for a in anomalies])

    curves = {}
    for name, X in points.items():
        ks = tuple(k for k in k_values if k <= len(X))
        for algo in ("hierarchical", "kmeans"):
            curves[(name, algo)] = choose_k_curves(
                X, ks, algorithm=algo, linkage="average", rng=rng_seed
            )
    return Fig10Result(curves=curves)


def format_report(result: Fig10Result) -> str:
    """All curves + knee positions."""
    lines = ["Figure 10 — selecting the number of clusters (trace(W) / trace(B))"]
    for (dataset, algo), curve in result.curves.items():
        knee = knee_of(curve)
        lines.append(f"{dataset}/{algo}  (knee ~ k={knee}):")
        for k in sorted(curve):
            w, b = curve[k]
            lines.append(f"   k={k:>2}  within={w:9.3f}  between={b:9.3f}")
    return "\n".join(lines)
