"""Table 3: anomaly types found in volume vs. additional in entropy.

The paper manually inspected all 444 Abilene detections and tabulated,
per anomaly type, how many were found by volume metrics and how many
*additional* ones only entropy exposed.  Headline findings: port scans,
network scans and point-to-multipoint transfers were detected *only*
via entropy (all low-volume), and ~10% of detections were false alarms.

Our ground truth comes from the dataset's schedule instead of manual
inspection (docs/ARCHITECTURE.md, "Paper experiments"): every detected
bin is matched against the scheduled event at that bin; detections at
clean bins are false alarms.
The table also reports each type's detection (recall) rate, which the
paper could not measure on wild data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.detector import AnomalyDiagnosis
from repro.experiments.cache import get_abilene

__all__ = ["Table3Row", "Table3Result", "run", "format_report"]

_LABEL_ORDER = (
    "alpha",
    "dos",
    "ddos",
    "flash_crowd",
    "port_scan",
    "network_scan",
    "worm",
    "outage",
    "point_multipoint",
)


@dataclass
class Table3Row:
    """One anomaly type's detection breakdown."""

    label: str
    scheduled: int
    found_in_volume: int
    additional_in_entropy: int
    missed: int

    @property
    def recall(self) -> float:
        """Fraction of scheduled events detected by either metric."""
        if self.scheduled == 0:
            return 0.0
        return (self.found_in_volume + self.additional_in_entropy) / self.scheduled


@dataclass
class Table3Result:
    """The full Table-3 breakdown."""

    rows: list[Table3Row] = field(default_factory=list)
    false_alarms: int = 0
    total_detections: int = 0


def run(alpha: float = 0.999) -> Table3Result:
    """Diagnose the Abilene dataset and score against ground truth."""
    data = get_abilene()
    diag = AnomalyDiagnosis(alpha=alpha, identify=False)
    report = diag.diagnose(data.cube, classify=False)
    volume_bins = set(int(b) for b in report.volume_bins)
    entropy_bins = set(int(b) for b in report.entropy_bins)
    detected_bins = volume_bins | entropy_bins

    rows = []
    for label in _LABEL_ORDER:
        events = [e for e in data.schedule.events if e.label == label]
        in_volume = sum(1 for e in events if e.bin in volume_bins)
        additional = sum(
            1 for e in events if e.bin in entropy_bins and e.bin not in volume_bins
        )
        missed = sum(1 for e in events if e.bin not in detected_bins)
        rows.append(
            Table3Row(
                label=label,
                scheduled=len(events),
                found_in_volume=in_volume,
                additional_in_entropy=additional,
                missed=missed,
            )
        )
    scheduled_bins = {e.bin for e in data.schedule.events}
    false_alarms = len(detected_bins - scheduled_bins)
    return Table3Result(
        rows=rows,
        false_alarms=false_alarms,
        total_detections=len(detected_bins),
    )


def format_report(result: Table3Result) -> str:
    """Table-3 layout plus recall and the false-alarm rate."""
    lines = [
        "Table 3 — range of anomalies found in Abilene (vs ground truth)",
        f"{'Label':<18} {'Sched':>6} {'InVolume':>9} {'AddlEntropy':>12} "
        f"{'Missed':>7} {'Recall':>7}",
    ]
    for row in result.rows:
        lines.append(
            f"{row.label:<18} {row.scheduled:>6} {row.found_in_volume:>9} "
            f"{row.additional_in_entropy:>12} {row.missed:>7} {row.recall:>6.0%}"
        )
    lines.append(f"{'false alarms':<18} {'':>6} {'':>9} {'':>12} {'':>7} "
                 f"n={result.false_alarms}")
    fa_rate = result.false_alarms / max(result.total_detections, 1)
    lines.append(
        f"total detected bins: {result.total_detections}  "
        f"(false-alarm share {fa_rate:.0%}; paper reports ~10%)"
    )
    return "\n".join(lines)
