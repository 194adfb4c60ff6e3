"""Anomaly classification in entropy space (paper Section 7).

Each detected anomaly is a point in four-dimensional *entropy space*
with coordinates ``h_tilde = [H~(srcIP), H~(srcPort), H~(dstIP),
H~(dstPort)]`` — the per-feature residual-entropy displacement of the
identified OD flow.  Points are rescaled to unit norm ("to focus on the
relationship between entropies rather than their absolute values"),
clustered, and clusters are summarised by a +/0/- *signature* per
feature (paper Tables 7 and 8): ``+`` when the cluster mean on that
axis is positive and more than ``z`` standard deviations from zero,
``-`` when negative and more than ``z`` away, ``0`` otherwise.

The signature is what makes clusters *meaningful*: e.g. a port scan is
(srcIP -, srcPort 0/-, dstIP -, dstPort +) — concentrated source and
victim, dispersed destination ports.  :func:`signature_label` encodes
the paper's Table 6 semantics as a nearest-template rule so Geant-style
clusters can be auto-annotated from Abilene knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.clustering import ClusteringResult
from repro.flows.features import FEATURES, N_FEATURES

__all__ = [
    "ANOMALY_LABELS",
    "unit_normalize",
    "ClusterSummary",
    "summarize_clusters",
    "signature_string",
    "signature_label",
    "label_statistics",
    "plurality_label",
]

#: Canonical anomaly labels (paper Table 1 plus bookkeeping labels).
ANOMALY_LABELS = (
    "alpha",
    "dos",
    "ddos",
    "flash_crowd",
    "port_scan",
    "network_scan",
    "worm",
    "outage",
    "point_multipoint",
    "unknown",
    "false_alarm",
)


def unit_normalize(points: np.ndarray) -> np.ndarray:
    """Rescale each row to unit Euclidean norm (zero rows left as zero).

    Each row is first divided by its largest magnitude, so the norm is
    taken of entries in [-1, 1] and neither underflows (a row near
    1e-162 squares to a subnormal) nor overflows; only an all-zero row
    stays zero.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be 2-D")
    scale = np.abs(points).max(axis=1, initial=0.0, keepdims=True)
    scaled = points / np.where(scale > 0, scale, 1.0)
    norms = np.linalg.norm(scaled, axis=1, keepdims=True)
    return scaled / np.where(norms > 0, norms, 1.0)


@dataclass
class ClusterSummary:
    """Statistics of one cluster in entropy space.

    Attributes:
        cluster: Cluster index.
        size: Number of anomalies in the cluster.
        mean: ``(4,)`` mean position.
        std: ``(4,)`` per-axis standard deviation.
        signature: Per-axis code in {+, 0, -} (see module docstring).
        plurality_label: Most common ground-truth label among members
            (empty string when labels were not supplied).
        plurality_count: How many members carry the plurality label.
        n_unknown: Members labelled "unknown".
        members: Indices of member anomalies.
    """

    cluster: int
    size: int
    mean: np.ndarray
    std: np.ndarray
    signature: tuple[str, ...]
    plurality_label: str = ""
    plurality_count: int = 0
    n_unknown: int = 0
    members: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def signature_str(self) -> str:
        """Signature as a compact string like ``"-0-+"``."""
        return "".join(self.signature)


def _axis_code(mean: float, std: float, z: float) -> str:
    """+/0/- code for one axis."""
    if std == 0:
        std = 1e-12
    if mean > z * std:
        return "+"
    if mean < -z * std:
        return "-"
    return "0"


def summarize_clusters(
    points: np.ndarray,
    clustering: ClusteringResult,
    labels: list[str] | None = None,
    z: float = 3.0,
) -> list[ClusterSummary]:
    """Summarise every cluster (paper Tables 7/8 rows), largest first.

    Args:
        points: ``(n, 4)`` unit-normalised entropy vectors.
        clustering: Result of k-means or hierarchical clustering on
            ``points``.
        labels: Optional ground-truth label per point; enables the
            plurality-label and unknown-count columns.
        z: Signature threshold in standard-deviation units (the paper
            uses 3 for Abilene's Table 7 and 2 for Geant's Table 8).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.shape[1] != N_FEATURES:
        raise ValueError(f"points must have {N_FEATURES} columns")
    summaries = []
    for c in range(clustering.k):
        members = clustering.members(c)
        if members.size == 0:
            continue
        sub = points[members]
        mean = sub.mean(axis=0)
        std = sub.std(axis=0)
        signature = tuple(
            _axis_code(float(mean[i]), float(std[i]), z) for i in range(N_FEATURES)
        )
        plurality = ""
        plurality_count = 0
        n_unknown = 0
        if labels is not None:
            member_labels = [labels[i] for i in members]
            n_unknown = sum(1 for lab in member_labels if lab == "unknown")
            counts: dict[str, int] = {}
            for lab in member_labels:
                counts[lab] = counts.get(lab, 0) + 1
            plurality, plurality_count = max(counts.items(), key=lambda kv: kv[1])
        summaries.append(
            ClusterSummary(
                cluster=c,
                size=int(members.size),
                mean=mean,
                std=std,
                signature=signature,
                plurality_label=plurality,
                plurality_count=plurality_count,
                n_unknown=n_unknown,
                members=members,
            )
        )
    summaries.sort(key=lambda s: s.size, reverse=True)
    return summaries


def signature_string(signature: tuple[str, ...]) -> str:
    """Readable signature, e.g. ``"srcIP:- srcPort:0 dstIP:- dstPort:+"``."""
    names = ("srcIP", "srcPort", "dstIP", "dstPort")
    return " ".join(f"{n}:{s}" for n, s in zip(names, signature))


#: Entropy-space templates per anomaly type, distilled from the paper's
#: Table 6 (asterisked means) and Section 7.3.2 prose.  Order matches
#: FEATURES = (src_ip, src_port, dst_ip, dst_port).
_TEMPLATES: dict[str, np.ndarray] = {
    # Alpha: concentrated src and dst addresses (and usually ports).
    "alpha": np.array([-0.5, -0.25, -0.5, -0.45]),
    # DOS: concentrated destination address; sources may disperse (DDOS).
    "dos": np.array([-0.05, -0.2, -0.6, -0.1]),
    "ddos": np.array([0.45, 0.2, -0.6, -0.1]),
    # Flash crowd: dispersed source ports, concentrated destination.
    "flash_crowd": np.array([0.2, 0.5, -0.4, 0.1]),
    # Port scan: concentrated srcIP/dstIP, strongly dispersed dstPort.
    "port_scan": np.array([-0.35, 0.05, -0.45, 0.7]),
    # Network scan: dispersed srcPort, dispersed dstIP, concentrated dstPort.
    "network_scan": np.array([-0.2, 0.55, 0.35, -0.35]),
    "worm": np.array([-0.3, 0.4, 0.55, -0.4]),
    # Outage: dispersed source and destination addresses.
    "outage": np.array([0.5, 0.3, 0.5, 0.25]),
    # Point to multipoint: dispersed destination addresses and ports.
    "point_multipoint": np.array([-0.2, -0.15, 0.65, 0.65]),
}


def signature_label(mean: np.ndarray) -> str:
    """Nearest-template label for a cluster-mean entropy vector.

    This encodes the paper's "rely on the Abilene cluster locations to
    obtain a label for Geant clusters" step as a cosine-similarity
    nearest template over Table 6 semantics.
    """
    mean = np.asarray(mean, dtype=np.float64)
    if mean.shape != (N_FEATURES,):
        raise ValueError(f"mean must be a {N_FEATURES}-vector")
    norm = np.linalg.norm(mean)
    if norm == 0:
        return "unknown"
    unit = mean / norm
    best_label, best_sim = "unknown", -np.inf
    for label, template in _TEMPLATES.items():
        sim = float(unit @ (template / np.linalg.norm(template)))
        if sim > best_sim:
            best_label, best_sim = label, sim
    # A weak best match means the cluster sits in a region no known
    # anomaly occupies — the paper's "new anomaly type" case.
    if best_sim < 0.5:
        return "unknown"
    return best_label


def label_statistics(
    points: np.ndarray, labels: list[str]
) -> dict[str, tuple[int, np.ndarray, np.ndarray]]:
    """Per-label (count, mean, std) in entropy space (paper Table 6)."""
    points = np.asarray(points, dtype=np.float64)
    if len(labels) != points.shape[0]:
        raise ValueError("labels length must match points")
    stats: dict[str, tuple[int, np.ndarray, np.ndarray]] = {}
    for label in sorted(set(labels)):
        mask = np.array([lab == label for lab in labels])
        sub = points[mask]
        stats[label] = (int(mask.sum()), sub.mean(axis=0), sub.std(axis=0))
    return stats


def plurality_label(labels: list[str]) -> tuple[str, int]:
    """Most common label and its count ('' for an empty list)."""
    if not labels:
        return "", 0
    counts: dict[str, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    label, count = max(counts.items(), key=lambda kv: kv[1])
    return label, count


# Re-export the feature order for callers formatting tables.
FEATURE_NAMES = FEATURES
