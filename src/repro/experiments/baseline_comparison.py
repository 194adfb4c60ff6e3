"""Baseline comparison: subspace + entropy vs classical volume detectors.

The paper's related work (Section 2) argues that volume-based schemes
— time-series forecasting a la Brutlag [4], signal analysis a la
Barford et al. [3] — catch large volume changes but miss the
distributional anomalies entropy exposes.  This experiment makes the
claim quantitative on the labeled Abilene dataset: every detector is
scored against ground truth (precision / recall / per-type recall).

Expected shape: the classical baselines behave like the volume
subspace (good on alphas/DOS/outages, blind to scans and
point-to-multipoint); only the entropy pipeline reaches the low-volume
types.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.baselines import EWMADetector, HoltWintersDetector, WaveletVarianceDetector, detect_matrix
from repro.core.detector import AnomalyDiagnosis
from repro.core.metrics import ConfusionCounts, score_detections
from repro.experiments.cache import get_abilene

__all__ = ["BaselineRow", "BaselineComparison", "run", "format_report"]

_LOW_VOLUME_TYPES = ("port_scan", "network_scan", "worm", "point_multipoint")


@dataclass
class BaselineRow:
    """Scores for one detector."""

    name: str
    counts: ConfusionCounts
    low_volume_recall: float
    n_detections: int


@dataclass
class BaselineComparison:
    """All detector rows."""

    rows: list[BaselineRow] = field(default_factory=list)


def _recall_on(events, detected: set[int]) -> float:
    if not events:
        return 0.0
    return sum(1 for e in events if e.bin in detected) / len(events)


def run(alpha: float = 0.999) -> BaselineComparison:
    """Score subspace volume / multiway entropy / EWMA / HW / wavelet."""
    data = get_abilene()
    cube = data.cube
    truth_bins = [e.bin for e in data.schedule.events]
    low_volume = [e for e in data.schedule.events if e.label in _LOW_VOLUME_TYPES]

    diag = AnomalyDiagnosis(alpha=alpha, identify=False)
    volume_bins = set(int(b) for b in diag.detect_volume(cube))
    entropy_bins = {d.bin for d in diag.detect_entropy(cube)}

    detectors = {
        "ewma(volume)": EWMADetector(alpha=0.2, n_sigmas=5.0),
        "holt-winters(volume)": HoltWintersDetector(),
        "wavelet(volume)": WaveletVarianceDetector(),
    }
    flagged = {
        name: set(np.flatnonzero(detect_matrix(det, cube.packets)).tolist())
        for name, det in detectors.items()
    }
    flagged["subspace(volume)"] = volume_bins
    flagged["multiway(entropy)"] = entropy_bins
    flagged["volume+entropy"] = volume_bins | entropy_bins

    rows = []
    for name in (
        "ewma(volume)",
        "holt-winters(volume)",
        "wavelet(volume)",
        "subspace(volume)",
        "multiway(entropy)",
        "volume+entropy",
    ):
        detected = flagged[name]
        rows.append(
            BaselineRow(
                name=name,
                counts=score_detections(detected, truth_bins, cube.n_bins),
                low_volume_recall=_recall_on(low_volume, detected),
                n_detections=len(detected),
            )
        )
    return BaselineComparison(rows=rows)


def format_report(result: BaselineComparison) -> str:
    """Precision / recall table across detectors."""
    lines = [
        "Baseline comparison on labeled Abilene (bin-level vs ground truth)",
        f"{'Detector':<22} {'Flags':>6} {'Prec':>6} {'Recall':>7} "
        f"{'F1':>6} {'LowVolRecall':>13}",
    ]
    for row in result.rows:
        lines.append(
            f"{row.name:<22} {row.n_detections:>6} {row.counts.precision:>6.2f} "
            f"{row.counts.recall:>7.2f} {row.counts.f1:>6.2f} "
            f"{row.low_volume_recall:>13.2f}"
        )
    return "\n".join(lines)
