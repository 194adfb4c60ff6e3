"""Ablation: entropy vs alternative dispersion metrics (paper Section 3).

The paper asserts that entropy "works well in practice" among the
metrics capturing concentration/dispersal.  We rebuild the multiway
tensor under each registered dispersion metric (on a reduced slice of
the Abilene dataset — metric evaluation is per-histogram) and compare
detection quality against ground truth.

Expected shape: entropy and its close relatives (Renyi-2 / Simpson /
Gini) land in the same quality band; raw distinct counts are noisier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dispersion import DISPERSION_METRICS, metric_rows
from repro.core.metrics import ConfusionCounts, score_detections
from repro.core.multiway import MultiwaySubspaceDetector
from repro.experiments.cache import get_abilene
from repro.flows.features import N_FEATURES

__all__ = ["MetricRow", "MetricAblation", "run", "format_report"]


@dataclass
class MetricRow:
    """Detection quality for one dispersion metric."""

    metric: str
    counts: ConfusionCounts
    n_detections: int


@dataclass
class MetricAblation:
    """All metric rows plus the evaluated slice."""

    rows: list[MetricRow] = field(default_factory=list)
    n_bins: int = 0
    n_od_flows: int = 0


def run(
    days: float = 4.0,
    n_ods: int = 40,
    alpha: float = 0.999,
    metrics: tuple[str, ...] | None = None,
) -> MetricAblation:
    """Evaluate each metric on a slice of the Abilene dataset.

    Histograms for the slice are regenerated from the dataset's
    generator and re-summarised under each metric; scheduled events are
    re-applied (sampled, as in the dataset build).
    """
    data = get_abilene()
    n_bins = int(days * 288)
    ods = list(range(0, data.cube.n_od_flows, max(1, data.cube.n_od_flows // n_ods)))[
        :n_ods
    ]
    metrics = metrics or tuple(DISPERSION_METRICS)
    events_by_od = data.schedule.events_by_od()

    # Regenerate per-(od, feature) histograms once; summarise per metric.
    tensors = {m: np.zeros((n_bins, len(ods), N_FEATURES)) for m in metrics}
    truth_bins = set()
    for j, od in enumerate(ods):
        stream = data.generator.od_stream(od)
        events = [e for e in events_by_od.get(od, ()) if e.bin < n_bins]
        for e in events:
            truth_bins.add(e.bin)
        for k in range(N_FEATURES):
            counts = stream.histograms[k][:n_bins]
            rows_by_metric = {m: metric_rows(counts, m) for m in metrics}
            # Re-apply this OD's events at histogram level.
            for e in events:
                from repro.anomalies.injector import combined_counts

                row = counts[e.bin]
                if e.outage is not None or e.surge is not None:
                    scaler = e.outage or e.surge
                    new_row = scaler.apply_to_counts(row)
                else:
                    sampled = e.trace.thin(
                        data.generator.histogram_sampling, seed=e.bin
                    )
                    new_row = combined_counts(row, sampled.contributions[k])
                for m in metrics:
                    rows_by_metric[m][e.bin] = DISPERSION_METRICS[m](new_row)
            for m in metrics:
                tensors[m][:, j, k] = rows_by_metric[m]
        data.generator.evict_stream(od)

    # Events at bins of ODs outside the slice are not ground truth here.
    all_rows = []
    for m in metrics:
        det = MultiwaySubspaceDetector(identify=False)
        det.fit(tensors[m])
        result = det.score(tensors[m])
        detected = np.flatnonzero(result.spe > det.model.threshold(alpha))
        counts = score_detections(detected, truth_bins, n_bins)
        all_rows.append(
            MetricRow(metric=m, counts=counts, n_detections=len(detected))
        )
    return MetricAblation(rows=all_rows, n_bins=n_bins, n_od_flows=len(ods))


def format_report(result: MetricAblation) -> str:
    """Quality table across dispersion metrics."""
    lines = [
        f"Dispersion-metric ablation ({result.n_bins} bins x "
        f"{result.n_od_flows} OD flows)",
        f"{'Metric':<12} {'Flags':>6} {'Prec':>6} {'Recall':>7} {'F1':>6}",
    ]
    for row in result.rows:
        lines.append(
            f"{row.metric:<12} {row.n_detections:>6} {row.counts.precision:>6.2f} "
            f"{row.counts.recall:>7.2f} {row.counts.f1:>6.2f}"
        )
    return "\n".join(lines)
