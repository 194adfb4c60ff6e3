"""Figure 9: Geant anomalies in entropy space (3-D views, 10 clusters).

The paper's Figure 9 shows the Geant anomalies in four 3-D projections
of entropy space with 10-cluster hierarchical clustering; clusters
appear as tight "clumps" (bounded in three dimensions) or "bands"
(bounded in two).  We reproduce the clustering and classify each
cluster as clump/band/diffuse by counting its tightly-bounded axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.cache import get_geant_diagnosis

__all__ = ["Fig9Result", "run", "format_report"]


@dataclass
class Fig9Result:
    """Geant anomalies with 10-way clustering.

    Attributes:
        points: ``(n, 4)`` unit vectors.
        clusters: Cluster per anomaly.
        kinds: Per-cluster geometry: "clump" (tight in >=3 axes),
            "band" (tight in 2), "diffuse" otherwise.
    """

    points: np.ndarray
    clusters: np.ndarray
    kinds: dict[int, str]


def run(tight_std: float = 0.2) -> Fig9Result:
    """Cluster the Geant detections and classify cluster geometry."""
    report = get_geant_diagnosis()
    anomalies = [a for a in report.anomalies if a.detected_by_entropy]
    points = np.vstack([a.unit_vector for a in anomalies])
    clusters = np.array([a.cluster for a in anomalies])
    kinds = {}
    for c in np.unique(clusters):
        sub = points[clusters == c]
        tight = int((sub.std(axis=0) < tight_std).sum()) if len(sub) > 1 else 4
        kinds[int(c)] = "clump" if tight >= 3 else ("band" if tight == 2 else "diffuse")
    return Fig9Result(points=points, clusters=clusters, kinds=kinds)


def format_report(result: Fig9Result) -> str:
    """Cluster geometry table for the 3-D views."""
    lines = [
        f"Figure 9 — Geant anomalies in entropy space ({len(result.points)} points, "
        f"{len(result.kinds)} clusters)",
        f"{'cluster':>8} {'n':>5} {'geometry':>9}  centre (srcIP, srcPort, dstIP, dstPort)",
    ]
    for c in sorted(result.kinds):
        sub = result.points[result.clusters == c]
        mean = sub.mean(axis=0)
        lines.append(
            f"{c:>8} {len(sub):>5} {result.kinds[c]:>9}  "
            f"({mean[0]:+.2f}, {mean[1]:+.2f}, {mean[2]:+.2f}, {mean[3]:+.2f})"
        )
    return "\n".join(lines)
