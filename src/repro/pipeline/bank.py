"""DetectorBank: the per-bin scoring core of every mode.

The paper's method scores each closed time bin twice — the multiway
entropy subspace (Section 4.2) and the volume baseline (Lakhina 2004),
one subspace model per metric — and classifies entropy detections in
entropy space.  The bank holds exactly those three online detectors
(:mod:`repro.core.online`) plus the online classifier, so batch mode,
the streaming engine and the cluster coordinator all configure
*one* bank rather than re-implementing the loop, and every consumer
receives the same :class:`repro.pipeline.report.StreamDetection` shape.

The bank also owns warm-up: until ``config.warmup_bins`` summaries have
been observed (or :meth:`DetectorBank.warm_up_cube` seeded it from a
historical cube), bins are buffered silently; afterwards every observed
:class:`repro.stream.window.BinSummary` yields one verdict.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry as tel
from repro.core.online import (
    OnlineClassifier,
    OnlineMultiwayDetector,
    OnlineVolumeDetector,
)
from repro.pipeline.report import StreamDetection, StreamingReport

__all__ = ["DetectorBank"]


class DetectorBank:
    """The paper's two detectors plus the online classifier.

    Usage (the whole scoring loop of every mode)::

        bank = DetectorBank(config)
        for summary in closed_bins:
            verdict = bank.observe(summary)          # None during warm-up
        report = bank.finish(n_records=..., late_records=...)

    Args:
        config: A :class:`repro.stream.engine.StreamConfig`.  Every
            detector's sliding window is ``config.warmup_bins`` long.
    """

    def __init__(self, config) -> None:
        cfg = self.config = config
        self.entropy = OnlineMultiwayDetector(
            window=cfg.warmup_bins,
            refit_every=cfg.refit_every,
            n_components=cfg.n_components,
            alpha=cfg.alpha,
            drift_reset_after=cfg.drift_reset_after,
            calibration_margin=cfg.calibration_margin,
        )
        self.packets, self.bytes = (
            OnlineVolumeDetector(
                window=cfg.warmup_bins,
                refit_every=cfg.refit_every,
                n_components=cfg.n_components,
                alpha=cfg.alpha,
                drift_reset_after=cfg.drift_reset_after,
                transform=cfg.volume_transform,
                detrend=cfg.volume_detrend,
                calibration_margin=cfg.volume_calibration_margin,
            )
            for _ in range(2)
        )
        self.classifier = OnlineClassifier()
        self.detections: list[StreamDetection] = []
        self._warmup_summaries: list = []
        self.n_bins_scored = 0
        self.n_bins_warmup = 0

    # -- warm-up ---------------------------------------------------------

    @property
    def is_warm(self) -> bool:
        """Whether every detector's model is fitted."""
        return self.entropy.is_warm and self.packets.is_warm and self.bytes.is_warm

    def warm_up_cube(self, cube) -> None:
        """Fit every detector on a historical :class:`TrafficCube`."""
        self._warm_up(cube.entropy, cube.packets, cube.bytes)
        self.n_bins_warmup = cube.n_bins

    def seed_classifier(self, centroids: np.ndarray) -> None:
        """Seed the online classifier with offline cluster centroids."""
        self.classifier = OnlineClassifier(centroids)

    def _warm_up(self, entropy, packets, bytes_) -> None:
        self.entropy.warm_up(entropy)
        self.packets.warm_up(packets)
        self.bytes.warm_up(bytes_)

    def _warm_up_from_buffer(self) -> None:
        tensor = np.stack([s.entropy for s in self._warmup_summaries])
        packets = np.vstack([s.packets for s in self._warmup_summaries])
        bytes_ = np.vstack([s.bytes for s in self._warmup_summaries])
        self._warm_up(tensor, packets, bytes_)
        self.n_bins_warmup = len(self._warmup_summaries)
        self._warmup_summaries.clear()

    # -- scoring ---------------------------------------------------------

    def observe(self, summary) -> StreamDetection | None:
        """Score one closed bin summary; None while still warming up.

        Raises:
            ValueError: Non-finite entropy, packets or bytes (a NaN
                scores as clean and would poison the next refit).
        """
        for values in (summary.entropy, summary.packets, summary.bytes):
            if not np.isfinite(values).all():
                raise ValueError(f"bin {summary.bin} summary holds non-finite values")
        # One counter tick per observed bin in every mode — the bank is
        # the funnel batch, stream and cluster all converge on, which
        # is what lets `--progress` work everywhere.
        tel.count("pipeline.bins_closed")
        tel.count("pipeline.records", int(summary.n_records))
        if not self.is_warm:
            self._warmup_summaries.append(summary)
            if len(self._warmup_summaries) >= self.config.warmup_bins:
                with tel.span("stage.score"):
                    self._warm_up_from_buffer()
            return None
        self.n_bins_scored += 1
        with tel.span("stage.score"):
            return self._score(summary)

    def _score(self, summary) -> StreamDetection:
        # The verdict reports the threshold the bin was scored against,
        # not one a refit inside observe() may have moved.
        threshold = self.entropy.threshold
        hit = self.entropy.observe(summary.entropy)
        # Both volume models see every bin: each keeps its own buffer
        # and Holt state, so neither may be skipped when the other hits.
        packet_hit, _ = self.packets.observe(summary.packets)
        byte_hit, _ = self.bytes.observe(summary.bytes)
        detection = StreamDetection(
            bin=summary.bin,
            spe_entropy=self.entropy.last_spe,
            threshold=threshold,
            detected_by_entropy=hit is not None,
            detected_by_volume=packet_hit or byte_hit,
            flows=hit.flows if hit is not None else [],
            n_records=summary.n_records,
        )
        if hit is not None and hit.flows:
            vec = hit.flows[0].displacement
            norm = float(np.linalg.norm(vec))
            detection.entropy_vector = vec
            if norm > 0:
                detection.unit_vector = vec / norm
                detection.cluster = self.classifier.assign(detection.unit_vector)
        self.detections.append(detection)
        return detection

    # -- reporting -------------------------------------------------------

    def finish(
        self,
        n_records: int = 0,
        late_records: int = 0,
        meta: dict | None = None,
    ) -> StreamingReport:
        """Bundle the accumulated verdicts into a report."""
        return StreamingReport(
            detections=list(self.detections),
            n_bins_scored=self.n_bins_scored,
            n_bins_warmup=self.n_bins_warmup,
            n_records=n_records,
            late_records=late_records,
            classifier=self.classifier,
            meta=dict(meta or {}),
        )
