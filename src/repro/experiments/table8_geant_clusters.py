"""Table 8: the 10 Geant anomaly clusters and their Abilene correspondence.

The paper clusters the Geant detections (10 clusters, hierarchical),
summarises each cluster's +/0/- signature (at 2 standard deviations,
vs. 3 for Abilene), and maps each Geant cluster to the Abilene cluster
occupying a similar region of entropy space — or marks it "none" when
it sits in a region never seen in Abilene (new anomaly types: outage
dips, single-port point-to-multipoint, small uncoordinated DOS).

Correspondence here is computed as cosine similarity between cluster
means, with a threshold below which a Geant cluster matches no Abilene
cluster.  Each cluster is also auto-annotated via the Table-6 template
rule (:func:`repro.core.classify.signature_label`) — the codified
version of the paper's "spot-check five anomalies" step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.classify import ClusterSummary, signature_label, summarize_clusters
from repro.experiments.cache import get_abilene_diagnosis, get_geant_diagnosis

__all__ = ["Table8Row", "Table8Result", "run", "format_report"]


@dataclass
class Table8Row:
    """One Geant cluster with its Abilene correspondence."""

    summary: ClusterSummary
    abilene_match: int  # 1-based Abilene cluster index, or -1 for "none"
    similarity: float
    auto_label: str
    truth_label: str


@dataclass
class Table8Result:
    """All Table-8 rows."""

    rows: list[Table8Row] = field(default_factory=list)
    n_anomalies: int = 0


def run(n_clusters: int = 10, match_threshold: float = 0.80) -> Table8Result:
    """Cluster Geant detections and map clusters onto Abilene's."""
    geant_report = get_geant_diagnosis(n_clusters=n_clusters)
    abilene_report = get_abilene_diagnosis(n_clusters=n_clusters)

    # Re-summarise Geant clusters at the paper's z=2 threshold.
    anomalies = [a for a in geant_report.anomalies if a.detected_by_entropy]
    points = np.vstack([a.unit_vector for a in anomalies])
    labels = [a.label or "unknown" for a in anomalies]
    geant_clusters = summarize_clusters(
        points, geant_report.clustering, labels=labels, z=2.0
    )

    abilene_means = [c.mean for c in abilene_report.clusters]
    rows = []
    for summary in geant_clusters:
        best, best_sim = -1, -np.inf
        for i, mean in enumerate(abilene_means):
            denom = np.linalg.norm(summary.mean) * np.linalg.norm(mean)
            sim = float(summary.mean @ mean / denom) if denom > 0 else -1.0
            if sim > best_sim:
                best, best_sim = i, sim
        matched = best + 1 if best_sim >= match_threshold else -1
        rows.append(
            Table8Row(
                summary=summary,
                abilene_match=matched,
                similarity=best_sim,
                auto_label=signature_label(summary.mean),
                truth_label=summary.plurality_label,
            )
        )
    return Table8Result(rows=rows, n_anomalies=len(anomalies))


def format_report(result: Table8Result) -> str:
    """Table-8 layout."""
    lines = [
        f"Table 8 — anomaly clusters in Geant data ({result.n_anomalies} anomalies)",
        f"{'#':>2} {'size':>5}  {'srcIP':>5} {'srcPort':>7} {'dstIP':>5} {'dstPort':>7}  "
        f"{'abilene#':>8} {'auto label':<17} {'ground truth':<16}",
    ]
    for i, row in enumerate(result.rows, start=1):
        s = row.summary
        match = str(row.abilene_match) if row.abilene_match > 0 else "none"
        lines.append(
            f"{i:>2} {s.size:>5}  {s.signature[0]:>5} {s.signature[1]:>7} "
            f"{s.signature[2]:>5} {s.signature[3]:>7}  {match:>8} "
            f"{row.auto_label:<17} {row.truth_label:<16}"
        )
    return "\n".join(lines)
