"""Table 7: the 10 Abilene anomaly clusters.

The paper clusters all Abilene detections into 10 clusters
(hierarchical agglomerative) and tabulates, per cluster: size, the
plurality ground-truth label, how many members are of the plurality
label, how many are unknown, and the +/0/- signature on each entropy
axis.  Findings to reproduce: clusters are internally consistent (the
plurality label dominates), distinct labels lead distinct clusters, and
each cluster occupies a distinct region in entropy space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.classify import ClusterSummary
from repro.experiments.cache import get_abilene_diagnosis

__all__ = ["Table7Result", "run", "format_report"]


@dataclass
class Table7Result:
    """Cluster summaries, largest first."""

    clusters: list[ClusterSummary] = field(default_factory=list)
    n_anomalies: int = 0


def run(n_clusters: int = 10) -> Table7Result:
    """Cluster the Abilene detections and summarise (Table 7)."""
    report = get_abilene_diagnosis(n_clusters=n_clusters)
    return Table7Result(
        clusters=report.clusters,
        n_anomalies=int(len(report.entropy_bins)),
    )


def format_report(result: Table7Result) -> str:
    """Table-7 layout."""
    lines = [
        f"Table 7 — anomaly clusters in Abilene data ({result.n_anomalies} anomalies)",
        f"{'#':>2} {'size':>5}  {'plurality':<18} {'n_plur':>6} {'unk':>4}  "
        f"{'srcIP':>5} {'srcPort':>7} {'dstIP':>5} {'dstPort':>7}",
    ]
    for i, c in enumerate(result.clusters, start=1):
        lines.append(
            f"{i:>2} {c.size:>5}  {c.plurality_label:<18} {c.plurality_count:>6} "
            f"{c.n_unknown:>4}  {c.signature[0]:>5} {c.signature[1]:>7} "
            f"{c.signature[2]:>5} {c.signature[3]:>7}"
        )
    return "\n".join(lines)
