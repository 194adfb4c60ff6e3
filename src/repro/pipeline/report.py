"""Per-bin verdicts and run reports shared by every deployment mode.

:class:`StreamDetection` is the verdict one scored bin produces and
:class:`StreamingReport` the accumulated outcome of a run — whichever
mode (batch, stream, cluster) produced it.  Both historically lived in
:mod:`repro.stream.engine`; they moved here when the scoring core was
extracted into :class:`repro.pipeline.bank.DetectorBank` so that the
cluster coordinator and the batch driver could share them without
importing the streaming engine.  ``repro.stream.engine`` re-exports
them, so existing imports keep working.

Reports carry free-form provenance ``meta`` (scenario name, source
kind, trace path, deployment mode) end-to-end:
:meth:`StreamingReport.to_diagnosis_report` copies it onto the batch
:class:`repro.core.detector.DiagnosisReport`, so exported reports from
different modes are distinguishable and comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.classify import summarize_clusters
from repro.core.clustering import ClusteringResult
from repro.core.detector import DiagnosedAnomaly, DiagnosisReport
from repro.core.identification import IdentifiedFlow
from repro.core.online import OnlineClassifier
from repro.flows.features import N_FEATURES

__all__ = ["StreamDetection", "StreamingReport"]


@dataclass
class StreamDetection:
    """Verdict for one scored (post-warm-up) bin.

    Attributes:
        bin: Global bin index.
        spe_entropy: Multiway SPE of the bin, clean bins included (0
            only when the bank runs no entropy detector).
        threshold: Q threshold the SPE was compared against.
        detected_by_entropy: Multiway SPE exceeded the threshold.
        detected_by_volume: Packet or byte row exceeded its threshold.
        flows: Identified OD flows (entropy detections only).
        entropy_vector: ``(4,)`` displacement of the primary flow.
        unit_vector: Unit-normalised version (zero when unidentified).
        cluster: Online-classifier cluster (-1 when not classified).
        n_records: Records aggregated into the bin.
    """

    bin: int
    spe_entropy: float
    threshold: float
    detected_by_entropy: bool
    detected_by_volume: bool
    flows: list[IdentifiedFlow] = field(default_factory=list)
    entropy_vector: np.ndarray = field(default_factory=lambda: np.zeros(N_FEATURES))
    unit_vector: np.ndarray = field(default_factory=lambda: np.zeros(N_FEATURES))
    cluster: int = -1
    n_records: int = 0

    @property
    def detected(self) -> bool:
        """Flagged by either method."""
        return self.detected_by_entropy or self.detected_by_volume

    @property
    def primary_od(self) -> int | None:
        """OD flow of the strongest identified component."""
        return self.flows[0].od if self.flows else None


@dataclass
class StreamingReport:
    """Accumulated outcome of a detection run (any mode).

    ``meta`` is free-form provenance — scenario name, source kind,
    trace path, deployment mode — set by whoever drove the run and
    propagated into :meth:`to_diagnosis_report`.
    """

    detections: list[StreamDetection]
    n_bins_scored: int
    n_bins_warmup: int
    n_records: int
    late_records: int
    classifier: OnlineClassifier | None = None
    meta: dict = field(default_factory=dict)

    @property
    def entropy_bins(self) -> np.ndarray:
        """Bins flagged by the multiway entropy method."""
        return np.array(
            sorted(d.bin for d in self.detections if d.detected_by_entropy),
            dtype=np.int64,
        )

    @property
    def volume_bins(self) -> np.ndarray:
        """Bins flagged by the volume baseline."""
        return np.array(
            sorted(d.bin for d in self.detections if d.detected_by_volume),
            dtype=np.int64,
        )

    def counts(self) -> dict[str, int]:
        """Table-2 style counts over the scored stream."""
        volume = set(self.volume_bins.tolist())
        entropy = set(self.entropy_bins.tolist())
        return {
            "volume_only": len(volume - entropy),
            "entropy_only": len(entropy - volume),
            "both": len(volume & entropy),
            "total": len(volume | entropy),
        }

    def to_diagnosis_report(
        self, labels_by_bin: dict[int, str] | None = None
    ) -> DiagnosisReport:
        """Render the run as a batch-compatible :class:`DiagnosisReport`.

        Entropy detections come first (with vectors and online cluster
        assignments), then volume-only bins as vectorless events —
        mirroring :meth:`repro.core.detector.AnomalyDiagnosis.diagnose`.
        Provenance ``meta`` carries over.
        """
        volume_set = set(self.volume_bins.tolist())
        anomalies: list[DiagnosedAnomaly] = []
        clustered: list[DiagnosedAnomaly] = []
        for det in self.detections:
            if not det.detected:
                continue
            label = labels_by_bin.get(det.bin, "unknown") if labels_by_bin else ""
            anom = DiagnosedAnomaly(
                bin=det.bin,
                od=det.primary_od if det.primary_od is not None else -1,
                detected_by_volume=det.bin in volume_set,
                detected_by_entropy=det.detected_by_entropy,
                entropy_vector=det.entropy_vector,
                unit_vector=det.unit_vector,
                spe_entropy=det.spe_entropy if det.detected_by_entropy else 0.0,
                cluster=det.cluster,
                label=label,
            )
            anomalies.append(anom)
            if det.detected_by_entropy and det.cluster >= 0:
                clustered.append(anom)
        report = DiagnosisReport(
            anomalies=anomalies,
            volume_bins=self.volume_bins,
            entropy_bins=self.entropy_bins,
            meta=dict(self.meta),
        )
        if self.classifier is not None and len(clustered) >= 1 and self.classifier.n_clusters:
            points = np.vstack([a.unit_vector for a in clustered])
            labels = np.array([a.cluster for a in clustered], dtype=np.int64)
            centers = self.classifier.centroids
            inertia = float(((points - centers[labels]) ** 2).sum())
            clustering = ClusteringResult(
                labels=labels,
                centers=centers,
                k=self.classifier.n_clusters,
                inertia=inertia,
                algorithm="online-nearest-centroid",
            )
            member_labels = (
                [a.label or "unknown" for a in clustered]
                if labels_by_bin is not None
                else None
            )
            report.clustering = clustering
            report.clusters = summarize_clusters(
                points, clustering, labels=member_labels
            )
        return report
