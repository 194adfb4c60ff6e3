"""Table 2: detections in entropy and volume metrics, both networks.

The paper's Table 2 counts, for Geant and Abilene, how many anomalous
timebins were found only by volume metrics, only by entropy, and by
both — the quantitative statement that the two metric families
complement each other (small overlap).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.detector import AnomalyDiagnosis, DiagnosisReport
from repro.experiments.cache import get_abilene, get_geant

__all__ = ["Table2Result", "run", "format_report"]


@dataclass
class Table2Result:
    """Per-network detection counts (Table 2 rows)."""

    abilene: dict[str, int]
    geant: dict[str, int]
    abilene_report: DiagnosisReport
    geant_report: DiagnosisReport
    abilene_weeks: float
    geant_weeks: float


def run(alpha: float = 0.999) -> Table2Result:
    """Diagnose both labeled datasets and tabulate detection overlap."""
    abilene = get_abilene()
    geant = get_geant()
    diag = AnomalyDiagnosis(alpha=alpha, identify=False)
    rep_a = diag.diagnose(abilene.cube, classify=False)
    rep_g = diag.diagnose(geant.cube, classify=False)
    return Table2Result(
        abilene=rep_a.counts(),
        geant=rep_g.counts(),
        abilene_report=rep_a,
        geant_report=rep_g,
        abilene_weeks=abilene.cube.n_bins / 2016,
        geant_weeks=geant.cube.n_bins / 2016,
    )


def format_report(result: Table2Result) -> str:
    """Table-2 layout: volume-only / entropy-only / both / total."""
    lines = [
        "Table 2 — number of detections in entropy and volume metrics",
        f"{'Network':<10} {'VolumeOnly':>11} {'EntropyOnly':>12} {'Both':>6} {'Total':>7}",
    ]
    for name, counts, weeks in (
        ("Geant", result.geant, result.geant_weeks),
        ("Abilene", result.abilene, result.abilene_weeks),
    ):
        lines.append(
            f"{name:<10} {counts['volume_only']:>11} {counts['entropy_only']:>12} "
            f"{counts['both']:>6} {counts['total']:>7}   ({weeks:.1f} weeks)"
        )
    return "\n".join(lines)
