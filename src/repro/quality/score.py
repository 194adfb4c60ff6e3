"""Detection scoring: match pipeline verdicts against ground truth.

A scenario run leaves two bin-indexed sequences — the scheduled
ground-truth events (:class:`repro.scenarios.ScenarioEvent`) and the
scored verdicts (:class:`repro.pipeline.report.StreamDetection`).  The
scorer matches them per detection channel (``entropy``, ``volume``,
``any``) with a greedy one-to-one bin matching under a tolerance
window, and reduces the matching to the usual retrieval quartet plus
three pipeline-specific measures:

* **precision / recall / F1** — over bins; a run with no events and no
  detections is vacuously perfect (that is the ``baseline-diurnal``
  false-alarm floor).
* **detection latency** — matched detection bin minus event bin, in
  bins; negative only when the tolerance window admits an early flag.
* **OD accuracy** — entropy channel only: of the matched events, the
  fraction whose target OD flow appears among the detection's
  identified flows (the paper's identification step).
* **cluster misassignment** — entropy channel only: of the matched
  events whose detection the online classifier assigned a cluster, how
  many disagree with the event's ground-truth label under the best
  one-to-one cluster → label map (the paper's Fig 7 metric, per run:
  cluster ids are local to one run's classifier).

Scores are plain counter bundles, so per-workload scores combine
exactly (:meth:`DetectorScore.merge`) into grid-cell or fleet-level
aggregates without re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = [
    "CHANNELS",
    "DetectorScore",
    "match_bins",
    "score_report",
]

#: Scored detection channels: the entropy (multiway SPE) method, the
#: volume baseline, and their union.
CHANNELS = ("entropy", "volume", "any")


def match_bins(
    event_bins, detection_bins, tolerance: int = 1
) -> list[tuple[int, int]]:
    """Greedy one-to-one matching of event bins to detection bins.

    Events are visited in bin order; each takes the unused detection
    bin inside ``[event - tolerance, event + tolerance]`` that is (in
    preference order) not earlier than the event, closest, earliest —
    so an on-time flag always beats an early one and ties break
    deterministically.

    Returns:
        ``(event_index, detection_bin)`` pairs, one per matched event.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    free = sorted(set(int(b) for b in detection_bins))
    order = sorted(range(len(event_bins)), key=lambda i: int(event_bins[i]))
    pairs = []
    for i in order:
        e = int(event_bins[i])
        candidates = [d for d in free if abs(d - e) <= tolerance]
        if not candidates:
            continue
        d = min(candidates, key=lambda d: (d < e, abs(d - e), d))
        free.remove(d)
        pairs.append((i, d))
    pairs.sort()
    return pairs


@dataclass(frozen=True)
class DetectorScore:
    """One channel's scored outcome, as exact counters.

    Derived rates (precision/recall/F1/latency/OD accuracy) are
    properties of the counters, so scores from independent workloads
    merge losslessly before the rates are read.

    Attributes:
        detector: Channel name (one of :data:`CHANNELS`).
        tp: Events matched to a detection.
        fp: Detection bins left unmatched.
        fn: Events left unmatched.
        latency_total: Summed latency (bins) over the matches.
        od_total: Matches eligible for OD identification scoring.
        od_matched: Eligible matches whose event OD was identified.
        cluster_total: Matches whose detection carries a cluster
            (entropy channel only).
        cluster_errors: Of those, the events whose label the best
            one-to-one cluster → label map gets wrong.
    """

    detector: str
    tp: int = 0
    fp: int = 0
    fn: int = 0
    latency_total: int = 0
    od_total: int = 0
    od_matched: int = 0
    cluster_total: int = 0
    cluster_errors: int = 0

    @property
    def precision(self) -> float:
        """Matched fraction of detections (vacuously 1.0)."""
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 1.0

    @property
    def recall(self) -> float:
        """Matched fraction of events (vacuously 1.0)."""
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 1.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    @property
    def mean_latency_bins(self) -> float | None:
        """Mean bins from event to matched detection (None if no match)."""
        return self.latency_total / self.tp if self.tp else None

    @property
    def od_accuracy(self) -> float | None:
        """Identified-OD fraction of eligible matches (None if none)."""
        return self.od_matched / self.od_total if self.od_total else None

    def merge(self, other: "DetectorScore") -> "DetectorScore":
        """Exact counter-wise combination of two scored outcomes."""
        if other.detector != self.detector:
            raise ValueError(
                f"cannot merge {self.detector!r} with {other.detector!r}"
            )
        return DetectorScore(
            detector=self.detector,
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
            latency_total=self.latency_total + other.latency_total,
            od_total=self.od_total + other.od_total,
            od_matched=self.od_matched + other.od_matched,
            cluster_total=self.cluster_total + other.cluster_total,
            cluster_errors=self.cluster_errors + other.cluster_errors,
        )

    def to_dict(self) -> dict:
        """JSON-ready view: counters plus rounded derived rates."""
        out = {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "precision": round(self.precision, 6),
            "recall": round(self.recall, 6),
            "f1": round(self.f1, 6),
        }
        latency = self.mean_latency_bins
        out["latency_bins"] = None if latency is None else round(latency, 6)
        od = self.od_accuracy
        out["od_accuracy"] = None if od is None else round(od, 6)
        out["cluster_total"] = self.cluster_total
        out["cluster_errors"] = self.cluster_errors
        return out


def _channel_detections(report, channel):
    if channel == "entropy":
        return [d for d in report.detections if d.detected_by_entropy]
    if channel == "volume":
        return [d for d in report.detections if d.detected_by_volume]
    if channel == "any":
        return [d for d in report.detections if d.detected]
    raise ValueError(f"unknown channel {channel!r}; expected one of {CHANNELS}")


def _misassigned(clusters, labels) -> int:
    """Disagreements under the best one-to-one cluster → label map.

    Unequal numbers of clusters and labels leave the unmapped side's
    members counted as errors.
    """
    cluster_ids, rows = np.unique(np.asarray(clusters), return_inverse=True)
    label_ids, cols = np.unique(np.asarray(labels), return_inverse=True)
    table = np.zeros((len(cluster_ids), len(label_ids)), dtype=np.int64)
    np.add.at(table, (rows, cols), 1)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return len(clusters) - int(table[rows, cols].sum())


def score_report(
    events, report, tolerance_bins: int = 1
) -> dict[str, DetectorScore]:
    """Score one run's report against its ground-truth events.

    Args:
        events: The scenario's :class:`ScenarioEvent` schedule (the
            source's ``events``).
        report: The run's :class:`StreamingReport` (any mode).
        tolerance_bins: Bin slack of the matching window.

    Returns:
        ``{channel: DetectorScore}`` over :data:`CHANNELS`.
    """
    events = list(events)
    event_bins = [e.bin for e in events]
    scores = {}
    for channel in CHANNELS:
        detections = _channel_detections(report, channel)
        by_bin = {d.bin: d for d in detections}
        pairs = match_bins(event_bins, by_bin, tolerance_bins)
        latency = sum(d - event_bins[i] for i, d in pairs)
        od_total = od_matched = cluster_errors = 0
        classified = []
        if channel == "entropy":
            # OD identification and classification are the entropy
            # method's deliverables; the volume baseline never names a
            # flow or a type.
            od_total = len(pairs)
            for i, d in pairs:
                flows = by_bin[d].flows
                if any(f.od == events[i].od for f in flows):
                    od_matched += 1
            classified = [(i, d) for i, d in pairs if by_bin[d].cluster >= 0]
            cluster_errors = _misassigned(
                [by_bin[d].cluster for _, d in classified],
                [events[i].label for i, _ in classified],
            )
        scores[channel] = DetectorScore(
            detector=channel,
            tp=len(pairs),
            fp=len(by_bin) - len(pairs),
            fn=len(events) - len(pairs),
            latency_total=latency,
            od_total=od_total,
            od_matched=od_matched,
            cluster_total=len(classified),
            cluster_errors=cluster_errors,
        )
    return scores
