"""DetectorBank: the pluggable per-bin scoring core of every mode.

The paper's method scores each closed time bin twice — the multiway
entropy subspace (Section 4.2) and the volume baseline (Lakhina 2004) —
and classifies entropy detections in entropy space.  That scoring logic
used to live inside :class:`repro.stream.engine.StreamingDetectionEngine`;
it is extracted here so the batch driver, the streaming engine and the
cluster coordinator all configure *one* bank rather than re-implementing
the loop.

Detectors are pluggable: each is registered under a name
(:func:`register_detector`) and declares a ``channel`` — ``"entropy"``
detectors contribute the SPE/threshold/identified flows of a verdict,
``"volume"`` detectors OR into the volume flag — so a bank can run
entropy-only, volume-only, both (the default), or a custom detector,
while every consumer keeps receiving the same
:class:`repro.pipeline.report.StreamDetection` shape.

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

__all__ = [
    "BinDetector",
    "DetectorBank",
    "DetectorVerdict",
    "detector_names",
    "register_detector",
]

#: name -> detector class; the bank builds its detectors from here.
_DETECTOR_REGISTRY: dict[str, type] = {}

DEFAULT_DETECTORS = ("entropy", "volume")


def register_detector(name: str):
    """Class decorator registering a :class:`BinDetector` under ``name``."""

    def decorate(cls):
        if name in _DETECTOR_REGISTRY:
            raise ValueError(f"detector {name!r} is already registered")
        _DETECTOR_REGISTRY[name] = cls
        cls.name = name
        return cls

    return decorate


def detector_names() -> tuple[str, ...]:
    """Registered detector names, sorted."""
    return tuple(sorted(_DETECTOR_REGISTRY))


class DetectorVerdict:
    """One detector's contribution to a bin verdict."""

    __slots__ = ("hit", "spe", "threshold", "flows")

    def __init__(self, hit=False, spe=0.0, threshold=0.0, flows=None):
        self.hit = bool(hit)
        self.spe = float(spe)
        self.threshold = float(threshold)
        self.flows = flows if flows is not None else []


class BinDetector:
    """Interface of one pluggable per-bin detector.

    Attributes:
        channel: ``"entropy"`` (contributes SPE/threshold/flows and the
            entropy flag) or ``"volume"`` (contributes the volume flag).
    """

    channel = "volume"
    name = ""

    def warm_up(self, entropy: np.ndarray, packets: np.ndarray,
                bytes_: np.ndarray) -> None:
        """Fit on a warm-up window: ``(t, p, 4)`` entropy tensor plus
        ``(t, p)`` packet/byte matrices."""
        raise NotImplementedError

    @property
    def is_warm(self) -> bool:
        raise NotImplementedError

    def observe(self, summary) -> DetectorVerdict:
        """Score one closed :class:`~repro.stream.window.BinSummary`."""
        raise NotImplementedError


@register_detector("entropy")
class EntropyMultiwayDetector(BinDetector):
    """The multiway entropy subspace method, online form.

    Wraps :class:`repro.core.online.OnlineMultiwayDetector`: frozen
    multiway subspace with a sliding refit buffer, Q-statistic
    threshold, and greedy multi-attribute identification.
    """

    channel = "entropy"

    def __init__(self, config) -> None:
        cfg = config
        self.detector = OnlineMultiwayDetector(
            window=cfg.window or cfg.warmup_bins,
            refit_every=cfg.refit_every,
            n_components=cfg.n_components,
            alpha=cfg.alpha,
            normalization=cfg.normalization,
            identify=cfg.identify,
            drift_reset_after=cfg.drift_reset_after,
            calibration_margin=cfg.calibration_margin,
        )

    def warm_up(self, entropy, packets, bytes_) -> None:
        self.detector.warm_up(entropy)

    @property
    def is_warm(self) -> bool:
        return self.detector.is_warm

    def observe(self, summary) -> DetectorVerdict:
        threshold = self.detector.threshold
        hit = self.detector.observe(summary.entropy)
        return DetectorVerdict(
            hit=hit is not None,
            spe=self.detector.last_spe,
            threshold=threshold,
            flows=hit.flows if hit is not None else [],
        )


@register_detector("volume")
class VolumeBaselineDetector(BinDetector):
    """The volume baseline: one online subspace model per metric.

    A bin is volume-detected when either the packet or the byte row
    exceeds its model's threshold, exactly like the batch baseline.
    """

    channel = "volume"

    def __init__(self, config) -> None:
        cfg = config
        self._metrics = {
            name: OnlineVolumeDetector(
                window=cfg.window or cfg.warmup_bins,
                refit_every=cfg.refit_every,
                n_components=cfg.n_components,
                alpha=cfg.alpha,
                drift_reset_after=cfg.drift_reset_after,
                transform=cfg.volume_transform,
                detrend=cfg.volume_detrend,
                calibration_margin=cfg.volume_calibration_margin,
            )
            for name in ("packets", "bytes")
        }

    def warm_up(self, entropy, packets, bytes_) -> None:
        self._metrics["packets"].warm_up(packets)
        self._metrics["bytes"].warm_up(bytes_)

    @property
    def is_warm(self) -> bool:
        return all(m.is_warm for m in self._metrics.values())

    def observe(self, summary) -> DetectorVerdict:
        packet_hit, _ = self._metrics["packets"].observe(summary.packets)
        byte_hit, _ = self._metrics["bytes"].observe(summary.bytes)
        return DetectorVerdict(hit=packet_hit or byte_hit)


class DetectorBank:
    """A configured set of per-bin detectors plus the online classifier.

    Usage (the whole scoring loop of every mode)::

        bank = DetectorBank(config)                  # entropy + volume
        for summary in closed_bins:
            verdict = bank.observe(summary)          # None during warm-up
        report = bank.finish(n_records=..., late_records=...)

    Args:
        config: A :class:`repro.stream.engine.StreamConfig`.
        detectors: Names from the registry, in scoring order.  Defaults
            to ``("entropy", "volume")`` — the paper's two methods.
    """

    def __init__(self, config, detectors: tuple[str, ...] = DEFAULT_DETECTORS) -> None:
        names = tuple(detectors)
        if not names:
            raise ValueError("detector bank needs at least one detector")
        unknown = [n for n in names if n not in _DETECTOR_REGISTRY]
        if unknown:
            raise ValueError(
                f"unknown detector(s) {unknown}; registered: {detector_names()}"
            )
        if len(set(names)) != len(names):
            raise ValueError("detector names must be unique")
        self.config = config
        self.names = names
        self.detectors = {name: _DETECTOR_REGISTRY[name](config) for name in names}
        self.classifier = OnlineClassifier(spawn_distance=config.spawn_distance)
        self.detections: list[StreamDetection] = []
        self._warmup_summaries: list = []
        self.n_bins_scored = 0
        self.n_bins_warmup = 0

    # -- warm-up ---------------------------------------------------------

    @property
    def is_warm(self) -> bool:
        """Whether every detector's model is fitted."""
        return all(d.is_warm for d in self.detectors.values())

    def warm_up_cube(self, cube) -> None:
        """Fit every detector on a historical :class:`TrafficCube`."""
        self._warm_up(cube.entropy, cube.packets, cube.bytes)
        self.n_bins_warmup = cube.n_bins

    def seed_classifier(self, centroids: np.ndarray) -> None:
        """Seed the online classifier with offline cluster centroids."""
        self.classifier = OnlineClassifier(
            centroids, spawn_distance=self.config.spawn_distance
        )

    def _warm_up(self, entropy, packets, bytes_) -> None:
        for detector in self.detectors.values():
            detector.warm_up(entropy, packets, bytes_)

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
        entropy_verdict = DetectorVerdict()
        volume_hit = False
        for name in self.names:
            verdict = self.detectors[name].observe(summary)
            if self.detectors[name].channel == "entropy":
                entropy_verdict = verdict
            else:
                volume_hit = volume_hit or verdict.hit
        detection = StreamDetection(
            bin=summary.bin,
            spe_entropy=entropy_verdict.spe,
            threshold=entropy_verdict.threshold,
            detected_by_entropy=entropy_verdict.hit,
            detected_by_volume=volume_hit,
            flows=entropy_verdict.flows,
            n_records=summary.n_records,
        )
        if entropy_verdict.hit and entropy_verdict.flows:
            vec = entropy_verdict.flows[0].displacement
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
