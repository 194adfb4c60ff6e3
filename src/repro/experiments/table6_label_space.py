"""Table 6: where each anomaly type lives in entropy space.

The paper's Table 6 gives, per manually-assigned label, the mean +/-
standard deviation of the anomalies' positions along each residual-
entropy axis, with asterisks marking means more than one (two) standard
deviations from zero.  It is the evidence that labels occupy distinct,
semantically sensible regions (port scans: dispersed dstPort and
concentrated dstIP; network scans: dispersed srcPort, concentrated
dstPort; etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.classify import label_statistics
from repro.experiments.cache import get_abilene_diagnosis

__all__ = ["Table6Row", "Table6Result", "run", "format_report"]


@dataclass
class Table6Row:
    """One label's distribution in entropy space."""

    label: str
    count: int
    mean: np.ndarray
    std: np.ndarray

    def stars(self, axis: int) -> str:
        """'' / '*' / '**' as the mean exceeds 1 / 2 stds from zero."""
        std = self.std[axis] if self.std[axis] > 0 else 1e-12
        ratio = abs(self.mean[axis]) / std
        if ratio > 2:
            return "**"
        if ratio > 1:
            return "*"
        return ""


@dataclass
class Table6Result:
    """All Table-6 rows."""

    rows: list[Table6Row] = field(default_factory=list)


def run() -> Table6Result:
    """Compute per-label entropy-space statistics on Abilene detections."""
    report = get_abilene_diagnosis()
    anomalies = [a for a in report.anomalies if a.detected_by_entropy]
    points = np.vstack([a.unit_vector for a in anomalies])
    labels = [a.label or "unknown" for a in anomalies]
    stats = label_statistics(points, labels)
    rows = [
        Table6Row(label=label, count=count, mean=mean, std=std)
        for label, (count, mean, std) in stats.items()
    ]
    rows.sort(key=lambda r: r.count, reverse=True)
    return Table6Result(rows=rows)


def format_report(result: Table6Result) -> str:
    """Table-6 layout: center +/- std per axis, with asterisks."""
    lines = [
        "Table 6 — label distributions in entropy space (center +/- std)",
        f"{'Label':<18} {'n':>5}  "
        + "  ".join(f"{name:^16}" for name in ("H~srcIP", "H~srcPort", "H~dstIP", "H~dstPort")),
    ]
    for row in result.rows:
        cells = []
        for axis in range(4):
            cells.append(
                f"{row.mean[axis]:+.2f}±{row.std[axis]:.2f}{row.stars(axis):<2}"
            )
        lines.append(f"{row.label:<18} {row.count:>5}  " + "  ".join(f"{c:^16}" for c in cells))
    return "\n".join(lines)
