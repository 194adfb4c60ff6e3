"""Figure 8: Abilene anomalies form clusters in entropy space.

The paper's Figure 8 shows two 2-D projections — (H~srcIP, H~srcPort)
and (H~dstIP, H~dstPort) — of all anomalies detected in one week of
Abilene, with clustering symbols.  The qualitative content: anomalies
spread very irregularly, forming clear clusters that are narrowly
bounded in at least two dimensions.

We report the projected coordinates with cluster assignments plus a
dispersion diagnostic per cluster (how tightly bounded each cluster is
per axis).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.cache import get_abilene_diagnosis

__all__ = ["Fig8Result", "run", "format_report"]


@dataclass
class Fig8Result:
    """Entropy-space positions + clusters of Abilene anomalies.

    Attributes:
        points: ``(n, 4)`` unit-normalised entropy vectors
            (srcIP, srcPort, dstIP, dstPort).
        clusters: Cluster index per anomaly.
        tight_axes_per_cluster: For each cluster, the number of axes on
            which its std is < 0.15 (the "narrowly bounded" check).
    """

    points: np.ndarray
    clusters: np.ndarray
    tight_axes_per_cluster: dict[int, int]


def run(tight_std: float = 0.15) -> Fig8Result:
    """Extract entropy-space positions from the Abilene diagnosis."""
    report = get_abilene_diagnosis()
    anomalies = [a for a in report.anomalies if a.detected_by_entropy]
    points = np.vstack([a.unit_vector for a in anomalies])
    clusters = np.array([a.cluster for a in anomalies])
    tight = {}
    for c in np.unique(clusters):
        sub = points[clusters == c]
        if len(sub) >= 2:
            tight[int(c)] = int((sub.std(axis=0) < tight_std).sum())
        else:
            tight[int(c)] = 4
    return Fig8Result(points=points, clusters=clusters, tight_axes_per_cluster=tight)


def format_report(result: Fig8Result) -> str:
    """Cluster positions in the two paper projections."""
    lines = [
        f"Figure 8 — Abilene anomalies in entropy space ({len(result.points)} points)",
        f"{'cluster':>8} {'n':>5} {'srcIP':>7} {'srcPort':>8} {'dstIP':>7} "
        f"{'dstPort':>8} {'tight axes':>11}",
    ]
    for c in sorted(set(result.clusters.tolist())):
        sub = result.points[result.clusters == c]
        mean = sub.mean(axis=0)
        lines.append(
            f"{c:>8} {len(sub):>5} {mean[0]:>7.2f} {mean[1]:>8.2f} "
            f"{mean[2]:>7.2f} {mean[3]:>8.2f} {result.tight_axes_per_cluster[c]:>11}"
        )
    return "\n".join(lines)
