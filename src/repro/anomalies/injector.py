"""Superimposing anomalies onto synthetic traffic cubes.

The injector combines an :class:`AnomalyTrace` with the *exact*
background histogram of a target (OD flow, bin) — regenerated
deterministically by the traffic generator — and recomputes the bin's
entropies and volume counters.  Outages apply their multiplicative dip
instead.

Two usage patterns:

* :func:`inject_trace` / :func:`inject_outage` — modify a cube copy in
  place for one event; used when building labeled datasets.
* :class:`InjectionScorer` — the fast path for the paper's injection
  sweeps (Figures 5 and 6): fit detectors once on the clean cube, then
  score thousands of hypothetical injections by recomputing only the
  target row.  See docs/ARCHITECTURE.md, "Paper experiments", for the
  fixed-subspace note.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anomalies.base import AnomalyTrace, OutageEvent
from repro.core.entropy import sample_entropy
from repro.core.multiway import MultiwaySubspaceDetector
from repro.core.subspace import SubspaceDetector
from repro.flows.features import N_FEATURES
from repro.flows.odflows import TrafficCube
from repro.traffic.generator import TrafficGenerator

__all__ = [
    "combined_counts",
    "injected_bin_state",
    "outage_bin_state",
    "inject_trace",
    "inject_outage",
    "InjectionScorer",
]


def combined_counts(background: np.ndarray, contribution) -> np.ndarray:
    """Background histogram + one feature's anomaly contribution.

    Background ranks beyond the histogram's length are treated as novel
    values (the background sample happened not to contain them).
    """
    out = np.asarray(background, dtype=np.int64).copy()
    overflow = []
    for rank, count in contribution.on_background.items():
        if rank < len(out):
            out[rank] += count
        else:
            overflow.append(count)
    parts = [out, contribution.novel]
    if overflow:
        parts.append(np.array(overflow, dtype=np.int64))
    return np.concatenate(parts)


def injected_bin_state(
    background_histograms: tuple[np.ndarray, ...],
    background_packets: float,
    background_bytes: float,
    trace: AnomalyTrace,
) -> tuple[np.ndarray, float, float]:
    """Entropy 4-vector and volumes of a bin after injecting ``trace``."""
    entropy = np.empty(N_FEATURES)
    for k in range(N_FEATURES):
        counts = combined_counts(background_histograms[k], trace.contributions[k])
        entropy[k] = sample_entropy(counts)
    return (
        entropy,
        background_packets + trace.packets,
        background_bytes + trace.bytes,
    )


def outage_bin_state(
    background_histograms: tuple[np.ndarray, ...],
    background_bytes: float,
    outage,
    background_packets: float | None = None,
) -> tuple[np.ndarray, float, float]:
    """Entropy 4-vector and volumes of a bin under a multiplicative event.

    ``outage`` is any object with ``apply_to_counts`` —
    :class:`repro.anomalies.base.OutageEvent` (traffic dip) or
    :class:`repro.anomalies.base.TrafficSurge` (uniform scale-up).

    The histograms live on the *sampled* packet scale while the cube's
    volume counters are pre-sampling, so the multiplicative factor is
    measured on the histograms (scale-invariant) and applied to the
    supplied volumes.  When ``background_packets`` is omitted the
    sampled histogram mass itself is scaled (legacy behaviour for
    histogram-only callers).
    """
    entropy = np.empty(N_FEATURES)
    new_mass = 0.0
    old_mass = 0.0
    for k in range(N_FEATURES):
        counts = outage.apply_to_counts(background_histograms[k])
        entropy[k] = sample_entropy(counts)
        new_mass += counts.sum()
        old_mass += background_histograms[k].sum()
    factor = new_mass / old_mass if old_mass else 0.0
    if background_packets is None:
        background_packets = old_mass / N_FEATURES
    return entropy, background_packets * factor, background_bytes * factor


def inject_trace(
    cube: TrafficCube,
    generator: TrafficGenerator,
    od: int,
    b: int,
    trace: AnomalyTrace,
    sampled: bool = True,
) -> None:
    """Inject one trace into ``cube`` (modified in place) at (od, bin).

    Args:
        sampled: When True (default), the anomaly is real traffic: its
            packets pass through the network's flow sampling before
            reaching the histograms (thinned by the generator's
            sampling factor), while volume counters grow by the full
            packet count.  ``sampled=False`` reproduces the paper's
            injection protocol — unsampled attack packets superimposed
            directly on the sampled background histograms.
    """
    stream = generator.od_stream(od)
    hists = tuple(h[b] for h in stream.histograms)
    sampling = generator.histogram_sampling
    hist_trace = trace
    if sampled and sampling > 1:
        hist_trace = trace.thin(sampling, seed=b)
    entropy, _, _ = injected_bin_state(hists, 0.0, 0.0, hist_trace)
    cube.entropy[b, od, :] = entropy
    cube.packets[b, od] += trace.packets
    cube.bytes[b, od] += trace.bytes


def inject_outage(
    cube: TrafficCube,
    generator: TrafficGenerator,
    ods: list[int],
    b: int,
    outage: OutageEvent,
) -> None:
    """Apply an outage to several OD flows at bin ``b`` (in place).

    Real outages hit all OD flows sharing the failed equipment, so the
    natural argument is ``router.link_load_ods(link)``.
    """
    for od in ods:
        stream = generator.od_stream(od)
        hists = tuple(h[b] for h in stream.histograms)
        entropy, packets, byte_count = outage_bin_state(
            hists, cube.bytes[b, od], outage, background_packets=cube.packets[b, od]
        )
        cube.entropy[b, od, :] = entropy
        cube.packets[b, od] = packets
        cube.bytes[b, od] = byte_count


@dataclass
class ScoreOutcome:
    """Detection outcome for one hypothetical injection."""

    detected_volume: bool
    detected_entropy: bool
    spe_entropy: float
    spe_bytes: float
    spe_packets: float

    @property
    def detected_any(self) -> bool:
        """Detected by volume or entropy (the paper's combined curve)."""
        return self.detected_volume or self.detected_entropy


class InjectionScorer:
    """Fast scoring of injections against detectors fit on clean traffic.

    Fits three detectors on the clean cube — multiway entropy, bytes
    subspace, packets subspace — then evaluates hypothetical injections
    by recomputing a single bin's state and projecting the modified
    observation onto the frozen residual subspaces.  This keeps the
    cost of one scored injection at O(p·m) instead of a full refit.

    Injection follows the *paper's protocol*: anomaly packets extracted
    from unsampled traces are superimposed directly onto the sampled
    background histograms (Section 6.3.1 — traces are thinned to vary
    intensity, not sampled).  Real in-network anomalies are handled by
    :func:`inject_trace` / the dataset scheduler, which sample the
    anomaly like any other traffic.
    """

    def __init__(
        self,
        cube: TrafficCube,
        generator: TrafficGenerator,
        n_components: int | None = 10,
        alphas: tuple[float, ...] = (0.999, 0.995),
    ) -> None:
        self.cube = cube
        self.generator = generator
        self.alphas = alphas
        self.entropy_detector = MultiwaySubspaceDetector(
            n_components=n_components, identify=False
        ).fit(cube.entropy)
        self.bytes_detector = SubspaceDetector(n_components=n_components).fit(cube.bytes)
        self.packets_detector = SubspaceDetector(n_components=n_components).fit(
            cube.packets
        )
        self._thresholds = {
            alpha: (
                self.entropy_detector.model.threshold(alpha),
                self.bytes_detector.model.threshold(alpha),
                self.packets_detector.model.threshold(alpha),
            )
            for alpha in alphas
        }
        # Histogram rows for (od, bin) pairs already visited: sweeps
        # revisit the same bin for every OD and thinning factor, and a
        # cached row avoids regenerating the OD's full stream each time.
        self._hist_cache: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}

    def _hists(self, od: int, b: int) -> tuple[np.ndarray, ...]:
        key = (od, b)
        hists = self._hist_cache.get(key)
        if hists is None:
            stream = self.generator.od_stream(od)
            hists = tuple(h[b].copy() for h in stream.histograms)
            self._hist_cache[key] = hists
        return hists

    def _bin_states(
        self, b: int, injections: list[tuple[int, AnomalyTrace]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Modified (entropy row, packets row, bytes row) for bin ``b``."""
        entropy_row = self.cube.entropy[b].copy()
        packets_row = self.cube.packets[b].copy()
        bytes_row = self.cube.bytes[b].copy()
        for od, trace in injections:
            hists = self._hists(od, b)
            entropy, packets, byte_count = injected_bin_state(
                hists, packets_row[od], bytes_row[od], trace
            )
            entropy_row[od] = entropy
            packets_row[od] = packets
            bytes_row[od] = byte_count
        return entropy_row, packets_row, bytes_row

    def score(
        self,
        b: int,
        injections: list[tuple[int, AnomalyTrace]],
        alpha: float = 0.999,
    ) -> ScoreOutcome:
        """Score a set of simultaneous injections at bin ``b``.

        Args:
            b: Target bin.
            injections: ``[(od, trace), ...]`` — one entry for single-OD
                experiments, k entries for the multi-OD DDOS sweeps.
            alpha: Detection confidence level (must be one of the
                configured ``alphas``).
        """
        if alpha not in self._thresholds:
            raise ValueError(f"alpha {alpha} not configured")
        thr_entropy, thr_bytes, thr_packets = self._thresholds[alpha]
        entropy_row, packets_row, bytes_row = self._bin_states(b, injections)
        spe_entropy = float(
            self.entropy_detector.score(entropy_row[None, :, :]).spe[0]
        )
        spe_bytes = float(self.bytes_detector.model.spe(bytes_row[None, :])[0])
        spe_packets = float(self.packets_detector.model.spe(packets_row[None, :])[0])
        return ScoreOutcome(
            detected_volume=(spe_bytes > thr_bytes) or (spe_packets > thr_packets),
            detected_entropy=spe_entropy > thr_entropy,
            spe_entropy=spe_entropy,
            spe_bytes=spe_bytes,
            spe_packets=spe_packets,
        )

    def entropy_vector(
        self, b: int, od: int, trace: AnomalyTrace
    ) -> np.ndarray:
        """Residual-entropy displacement of one injection (for Fig. 7).

        Returns the injected bin's normalised residual restricted to the
        target OD flow's four coordinates — the anomaly's position in
        entropy space.
        """
        entropy_row, _, _ = self._bin_states(b, [(od, trace)])
        det = self.entropy_detector
        Hn = det._normalize(entropy_row[None, :, :])
        residual = det.model.residual(Hn)[0]
        p = det.n_od_flows
        return residual[[od + p * k for k in range(N_FEATURES)]]
