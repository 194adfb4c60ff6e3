"""Ablations on the design choices docs/ARCHITECTURE.md calls out.

Three studies beyond the paper's headline experiments:

* **normalisation** — unit-energy scaling of the unfolded matrix
  computed on raw vs. mean-centred blocks (the paper's wording admits
  both readings; docs/ARCHITECTURE.md, "Paper experiments", explains
  our default).
* **subspace dimension** — detections vs. the number of normal
  components m (the paper picked m=10 at the variance knee).
* **clustering robustness** — the paper claims results are insensitive
  to the clustering algorithm; we quantify via the Rand agreement rate
  between k-means and hierarchical clusterings (and across linkages).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.clustering import agreement_rate, hierarchical, kmeans
from repro.core.multiway import MultiwaySubspaceDetector
from repro.experiments.cache import get_abilene, get_abilene_diagnosis

__all__ = [
    "NormalizationAblation",
    "SubspaceDimAblation",
    "ClusteringAblation",
    "Ablations",
    "run",
    "run_normalization",
    "run_subspace_dim",
    "run_clustering",
    "format_report",
]


@dataclass
class NormalizationAblation:
    """Detections and variance profile under each normalisation mode."""

    detections: dict[str, int] = field(default_factory=dict)
    variance_at_10: dict[str, float] = field(default_factory=dict)


def run_normalization(alpha: float = 0.999) -> NormalizationAblation:
    """Compare "variance" vs "raw" unit-energy normalisation."""
    cube = get_abilene().cube
    result = NormalizationAblation()
    for mode in ("variance", "raw"):
        det = MultiwaySubspaceDetector(normalization=mode, identify=False)
        det.fit(cube.entropy)
        result.detections[mode] = int(det.score(cube.entropy).n_detections)
        result.variance_at_10[mode] = float(det.model.pca.variance_captured(10))
    return result


@dataclass
class SubspaceDimAblation:
    """Detections as a function of the normal-subspace dimension m."""

    detections_by_m: dict[int, int] = field(default_factory=dict)
    variance_by_m: dict[int, float] = field(default_factory=dict)
    knee_85: int = 0


def run_subspace_dim(
    m_values: tuple[int, ...] = (2, 4, 6, 8, 10, 14, 20, 30),
    alpha: float = 0.999,
) -> SubspaceDimAblation:
    """Sweep the number of normal components."""
    cube = get_abilene().cube
    result = SubspaceDimAblation()
    for m in m_values:
        det = MultiwaySubspaceDetector(n_components=m, identify=False)
        det.fit(cube.entropy)
        result.detections_by_m[m] = int(det.score(cube.entropy).n_detections)
        result.variance_by_m[m] = float(det.model.pca.variance_captured(m))
    det = MultiwaySubspaceDetector(identify=False).fit(cube.entropy)
    result.knee_85 = int(det.model.pca.knee(0.85))
    return result


@dataclass
class ClusteringAblation:
    """Pairwise Rand agreement between clustering configurations."""

    agreements: dict[tuple[str, str], float] = field(default_factory=dict)
    k: int = 10


def run_clustering(k: int = 10, rng_seed: int = 0) -> ClusteringAblation:
    """Cluster the same anomalies with every algorithm/linkage pair."""
    report = get_abilene_diagnosis()
    anomalies = [a for a in report.anomalies if a.detected_by_entropy]
    X = np.vstack([a.unit_vector for a in anomalies])
    k = min(k, len(X))
    labelings = {
        "kmeans": kmeans(X, k, rng=rng_seed).labels,
        "hier/single": hierarchical(X, k, linkage="single").labels,
        "hier/average": hierarchical(X, k, linkage="average").labels,
        "hier/complete": hierarchical(X, k, linkage="complete").labels,
        "hier/ward": hierarchical(X, k, linkage="ward").labels,
    }
    result = ClusteringAblation(k=k)
    names = sorted(labelings)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            result.agreements[(a, b)] = agreement_rate(labelings[a], labelings[b])
    return result


@dataclass
class Ablations:
    """The three studies, as ``repro experiment ablations`` runs them."""

    normalization: NormalizationAblation
    subspace_dim: SubspaceDimAblation
    clustering: ClusteringAblation


def run() -> Ablations:
    """Run all three ablations."""
    return Ablations(run_normalization(), run_subspace_dim(), run_clustering())


def format_report(result: Ablations) -> str:
    """All three ablations in one report."""
    norm, dims, clust = result.normalization, result.subspace_dim, result.clustering
    lines = ["Ablations"]
    lines.append("1. unit-energy normalisation mode:")
    for mode in norm.detections:
        lines.append(
            f"   {mode:<9} detections={norm.detections[mode]:>5}  "
            f"variance@10PCs={norm.variance_at_10[mode]:.3f}"
        )
    lines.append("2. normal-subspace dimension (paper: m=10, 85% variance knee):")
    for m, n in dims.detections_by_m.items():
        lines.append(
            f"   m={m:>2}  detections={n:>5}  variance={dims.variance_by_m[m]:.3f}"
        )
    lines.append(f"   85%-variance knee at m={dims.knee_85}")
    lines.append(
        f"3. clustering algorithm agreement (Rand index, k={clust.k}; "
        "paper: results insensitive to algorithm):"
    )
    for (a, b), rate in clust.agreements.items():
        lines.append(f"   {a:<14} vs {b:<14} {rate:.3f}")
    return "\n".join(lines)
