"""Online extensions (paper Section 8, "ongoing work").

The paper closes by noting that online extensions of the methods are
being studied.  This module provides three:

* :class:`OnlineMultiwayDetector` — freeze a multiway subspace model
  trained on a historical window and score new entropy observations
  bin-by-bin in O(p·m) per bin, with optional periodic refit from a
  sliding buffer.
* :class:`OnlineVolumeDetector` — the same frozen-model streaming
  treatment for a single ``(t, p)`` volume matrix (bytes or packets),
  i.e. the online form of the volume baseline (Lakhina et al. 2004
  [24]) the paper contrasts entropy detections against.
* :class:`OnlineClassifier` — incremental nearest-centroid assignment
  of newly detected anomalies to existing clusters, spawning a new
  cluster when an anomaly is farther than ``spawn_distance`` from every
  centroid (so genuinely new anomaly types surface as new clusters
  rather than polluting old ones).

Both detectors refit from a sliding buffer of clean observations:
volume and entropy ensembles are diurnally nonstationary, so a model
frozen forever drifts out of its own threshold (every bin starts to
flag).  Detected bins are excluded from the buffer so anomalies cannot
poison the normal model, with a drift-reset escape hatch for genuine
regime changes.  That window, refit and threshold policy is one shared
core (:class:`_SlidingSubspace`); the two detectors only say how the
buffer is fitted and how a row is scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.identification import IdentifiedFlow, identify_flows, od_gram_pinv
from repro.core.multiway import MultiwaySubspaceDetector
from repro.core.subspace import SubspaceModel
from repro.flows.features import N_FEATURES

__all__ = [
    "OnlineDetection",
    "OnlineMultiwayDetector",
    "OnlineVolumeDetector",
    "OnlineClassifier",
]


@dataclass
class OnlineDetection:
    """One online detection: bin counter, SPE, and identified flows."""

    bin: int
    spe: float
    flows: list[IdentifiedFlow]


class _SlidingSubspace:
    """Sliding-window subspace scoring shared by both online detectors.

    Owns the clean-row buffer (the last ``window`` rows the model may
    learn from, kept as a ring: an absorbed bin overwrites the oldest
    row in place, and the rows are put in window order only when a fit
    runs), the refit cadence (every ``refit_every`` clean bins; 0
    freezes the model), the consecutive-hit drift reset and the
    threshold rule.  Subclasses supply :meth:`_fit_model` (fit the
    buffer, return a :class:`~repro.core.subspace.SubspaceModel`) and
    :meth:`_spe` (score rows against it).

    The threshold is Q_alpha of the fitted model.  The Jackson-Mudholkar
    Q_alpha underestimates out-of-sample SPE when the window is short
    relative to the dimension (the PCA partially fits the noise), so a
    positive ``calibration_margin`` floors it at margin * the maximum
    SPE the fitted model assigns to its own (clean) window — an
    in-sample, everything-in-window-is-normal calibration.  0 disables
    it (pure Q_alpha, the paper's threshold).

    Anomalous bins are excluded from the buffer so attacks cannot
    poison the normal model — but under genuine concept drift that
    policy locks up (every bin looks anomalous and the buffer never
    advances).  After ``drift_reset_after`` *consecutive* detections
    the detector assumes drift, absorbs the bin, refits and starts
    counting again from zero.  0 disables the reset.
    """

    def __init__(
        self,
        window: int,
        refit_every: int,
        n_components: int | None,
        alpha: float,
        drift_reset_after: int,
        calibration_margin: float,
    ) -> None:
        if window < 8:
            raise ValueError("window too small to fit a subspace")
        if n_components is not None and n_components < 1:
            raise ValueError(f"n_components must be >= 1 or None, got {n_components}")
        if refit_every < 0:
            raise ValueError(f"refit_every must be >= 0, got {refit_every}")
        if drift_reset_after < 0:
            raise ValueError(f"drift_reset_after must be >= 0, got {drift_reset_after}")
        self.window = window
        self.refit_every = refit_every
        self.n_components = n_components
        self.alpha = alpha
        self.drift_reset_after = drift_reset_after
        self.calibration_margin = calibration_margin
        self._model: SubspaceModel | None = None
        self._threshold = 0.0
        #: Ring of clean rows; ``_head`` indexes the oldest one.
        self._buffer: np.ndarray | None = None
        self._head = 0
        self._since_refit = 0
        self._consecutive_hits = 0

    @property
    def is_warm(self) -> bool:
        """Whether the detector has been fitted."""
        return self._model is not None

    @property
    def threshold(self) -> float:
        """Current detection threshold (Q_alpha, calibration-floored)."""
        if self._model is None:
            raise RuntimeError("call warm_up() first")
        return self._threshold

    @staticmethod
    def _history(history, shape: str) -> np.ndarray:
        """Validate a warm-up history with the dimensions ``shape`` names,
        e.g. ``"(t, p)"``."""
        history = np.asarray(history, dtype=np.float64)
        if history.ndim != shape.count(",") + 1:
            raise ValueError(f"history must be {shape}")
        if history.shape[0] < 8:
            raise ValueError("history too short")
        return history

    def _check_fit_rows(self, rows: int) -> None:
        """Refuse a fit whose buffer leaves no residual subspace.

        ``rows`` centred observations span at most ``rows - 1``
        dimensions; with fewer than ``n_components + 2`` rows the normal
        subspace fills that span, Q_alpha collapses to ~0 and every
        later bin alarms.  ``n_components=None`` (variance-threshold
        selection) is exempt.
        """
        if self.n_components is not None and rows < self.n_components + 2:
            raise ValueError(
                f"warm-up fits {rows} rows, fewer than n_components + 2 = "
                f"{self.n_components + 2}: no residual subspace would remain"
            )

    def _seed(self, rows: np.ndarray) -> None:
        """Seed the buffer with the trailing window of ``rows`` and fit."""
        self._check_fit_rows(min(len(rows), self.window))
        self._buffer = rows[-self.window :].copy()
        self._head = 0
        self._fit()

    def _row(self, observation) -> np.ndarray:
        """One observation as float64, checked against the buffer's rows."""
        if self._model is None or self._buffer is None:
            raise RuntimeError("call warm_up() first")
        row = np.asarray(observation, dtype=np.float64)
        if row.shape != self._buffer.shape[1:]:
            raise ValueError(
                f"observation shape {row.shape} != {self._buffer.shape[1:]}"
            )
        return row

    def _window_rows(self) -> np.ndarray:
        """The buffered rows in window order (oldest first), as a copy."""
        return np.concatenate(
            (self._buffer[self._head:], self._buffer[:self._head]), axis=0
        )

    def _fit(self) -> None:
        """Fit the buffer; compute everything that depends only on the fit."""
        rows = self._window_rows()
        self._model = self._fit_model(rows)
        self._threshold = self._model.threshold(self.alpha)
        if self.calibration_margin:
            window_spe = self._spe(rows)
            self._threshold = max(
                self._threshold, float(self.calibration_margin * window_spe.max())
            )
        self._since_refit = 0

    def _advance(self, rows: np.ndarray, hit: bool) -> None:
        """Account one scored bin (``rows``: its one-row buffer block).

        A clean bin slides into the buffer and refits when
        ``refit_every`` clean bins have passed; a hit stays out, unless
        it completes ``drift_reset_after`` consecutive hits — then it is
        absorbed and the model refits at once.
        """
        if hit:
            self._consecutive_hits += 1
            if (
                not self.drift_reset_after
                or self._consecutive_hits < self.drift_reset_after
            ):
                return
            self._consecutive_hits = 0
        else:
            self._consecutive_hits = 0
        self._buffer[self._head] = rows[0]
        self._head = (self._head + 1) % len(self._buffer)
        self._since_refit += 1
        if hit or (self.refit_every and self._since_refit >= self.refit_every):
            self._fit()


class OnlineMultiwayDetector(_SlidingSubspace):
    """Streaming wrapper around the multiway subspace method.

    Usage::

        online = OnlineMultiwayDetector(window=2016)
        online.warm_up(history_tensor)            # (t0, p, 4)
        for new_bin in stream:                    # (p, 4) each
            hit = online.observe(new_bin)
            if hit is not None:
                ...

    Window, refit, drift-reset and threshold semantics are those of
    :class:`_SlidingSubspace`.  Blocks are variance-normalised, and
    everything that depends only on the fitted model is computed once
    per fit (:meth:`warm_up` and every refit), never per bin: the
    threshold and the ``(p, 4, 4)`` identification blocks
    (:func:`repro.core.identification.od_gram_pinv`) every alarm
    against this fit shares.  :attr:`last_spe` holds the SPE of the
    most recently observed bin, clean bins included.
    """

    def __init__(
        self,
        window: int = 2016,
        refit_every: int = 288,
        n_components: int | None = 10,
        alpha: float = 0.999,
        drift_reset_after: int = 12,
        calibration_margin: float = 0.0,
    ) -> None:
        super().__init__(
            window, refit_every, n_components, alpha, drift_reset_after,
            calibration_margin,
        )
        self._detector = MultiwaySubspaceDetector(
            n_components=n_components, alpha=alpha, identify=False
        )
        self._seen = 0
        self._gram_pinv: np.ndarray | None = None
        self.last_spe = 0.0

    def _fit_model(self, buffer: np.ndarray) -> SubspaceModel:
        model = self._detector.fit(buffer).model
        self._gram_pinv = od_gram_pinv(model.normal_basis, self._detector.n_od_flows)
        return model

    def _spe(self, rows: np.ndarray) -> np.ndarray:
        return self._detector.score(rows).spe

    def warm_up(self, history: np.ndarray) -> None:
        """Fit on a historical ``(t, p, k)`` tensor and seed the buffer."""
        history = self._history(history, "(t, p, k)")
        self._seed(history)
        self._seen = history.shape[0]

    def observe(self, bin_entropy: np.ndarray) -> OnlineDetection | None:
        """Score one new ``(p, k)`` bin; returns a detection or None.

        An alarm's flows are identified against the model and threshold
        the bin was scored with, before any drift-reset refit.
        """
        tensor = self._row(bin_entropy)[None, :, :]
        threshold = self._threshold
        bin_index = self._seen
        self._seen += 1
        spe = self.last_spe = float(self._spe(tensor)[0])
        if spe <= threshold:
            self._advance(tensor, hit=False)
            return None
        model = self._model
        flows = identify_flows(
            self._detector._normalize(tensor)[0] - model.pca.mean,
            model.normal_basis,
            self._detector.n_od_flows,
            threshold=threshold,
            gram_pinv=self._gram_pinv,
        )
        self._advance(tensor, hit=True)
        return OnlineDetection(bin=bin_index, spe=spe, flows=flows)


class OnlineVolumeDetector(_SlidingSubspace):
    """Streaming subspace detection on one ``(t, p)`` volume matrix.

    The online counterpart of the volume baseline
    (:meth:`repro.core.detector.AnomalyDiagnosis.detect_volume` runs
    one of these per metric, batch-fitted).  Window, refit, drift-reset
    and threshold semantics are those of :class:`_SlidingSubspace`,
    shared with :class:`OnlineMultiwayDetector`.

    Volume ensembles are much less stationary than entropy ensembles —
    diurnal load both shifts the mean and (Poisson-like) inflates the
    noise as rates rise — so a model frozen on a sub-diurnal window
    flags every later bin.  Three optional stabilisers address this; by
    default all are off, which makes the detector score *exactly* like
    the batch baseline on in-window data:

    * ``transform="sqrt"`` — variance-stabilise counts before PCA.
    * ``detrend="holt"`` — score residuals against a per-OD Holt
      (level + trend) one-step forecast instead of raw rows.
    * ``calibration_margin > 0`` — floor the threshold at
      margin * the max SPE over the whole fitted window (in-sample:
      the same rows the model was fitted on).
    """

    def __init__(
        self,
        window: int = 2016,
        refit_every: int = 288,
        n_components: int | None = 10,
        alpha: float = 0.999,
        drift_reset_after: int = 12,
        transform: str = "none",
        detrend: str = "none",
        holt_level: float = 0.4,
        holt_trend: float = 0.2,
        calibration_margin: float = 0.0,
    ) -> None:
        super().__init__(
            window, refit_every, n_components, alpha, drift_reset_after,
            calibration_margin,
        )
        if transform not in ("none", "sqrt"):
            raise ValueError(f"unknown transform {transform!r}")
        if detrend not in ("none", "holt"):
            raise ValueError(f"unknown detrend {detrend!r}")
        self.transform = transform
        self.detrend = detrend
        self.holt_level = holt_level
        self.holt_trend = holt_trend
        self._level: np.ndarray | None = None
        self._trend: np.ndarray | None = None
        self._residual_scale: np.ndarray | None = None

    def _fit_model(self, buffer: np.ndarray) -> SubspaceModel:
        self._residual_scale = np.maximum(buffer.std(axis=0), 1e-9)
        return SubspaceModel.fit(buffer, n_components=self.n_components)

    def _spe(self, rows: np.ndarray) -> np.ndarray:
        return self._model.spe(rows)

    def _transform(self, rows: np.ndarray) -> np.ndarray:
        if self.transform == "sqrt":
            return np.sqrt(np.maximum(rows, 0.0))
        return rows

    def _holt_update(self, row: np.ndarray) -> np.ndarray:
        """One-step Holt forecast residual; advances the state.

        The state update is *winsorized*: each OD's residual is clipped
        at 4 standard deviations (of the window's forecast residuals)
        before it enters the level/trend estimate.  An attack spike on
        one OD therefore barely moves that OD's forecast, while the
        other ODs keep tracking diurnal curvature — without this, one
        detection freezes the forecast and every following bin deviates
        further (a runaway detection cascade).
        """
        prediction = self._level + self._trend
        residual = row - prediction
        update_residual = residual
        if self._residual_scale is not None:
            bound = 4.0 * self._residual_scale
            update_residual = np.clip(residual, -bound, bound)
        effective = prediction + update_residual
        new_level = self.holt_level * effective + (1 - self.holt_level) * prediction
        self._trend = (
            self.holt_trend * (new_level - self._level)
            + (1 - self.holt_trend) * self._trend
        )
        self._level = new_level
        return residual

    def _holt_batch(self, rows: np.ndarray) -> np.ndarray:
        """Whole-history Holt forecast residuals as one batched recurrence.

        During warm-up no residual scale exists yet, so the Holt update
        is unwinsorized and therefore *linear*: the residual sequence is
        the output of a fixed second-order IIR filter of the input,

            r_t - (2 - a - ab) r_{t-1} + (1 - a) r_{t-2}
                = x_t - 2 x_{t-1} + x_{t-2}

        with level gain ``a`` and trend gain ``b``.  One pass over the
        rows runs that recurrence on every OD column at once, each step
        in ``scipy.signal.lfilter``'s direct-form-II-transposed order
        (so the residuals are that filter's, bit for bit), and the
        closing level/trend state is recovered from the last two
        one-step predictions, so subsequent :meth:`observe` calls
        continue exactly where the per-row Holt loop would have left
        off.  The initial state (level = first row, zero trend)
        corresponds to a constant pre-history, i.e. zero past
        residuals.
        """
        a, b = self.holt_level, self.holt_trend
        x0 = rows[0]
        # Denominator (1, a1, a2) over numerator (1, -2, 1).
        a1, a2 = -(2.0 - a - a * b), 1.0 - a
        # Direct-form II transposed initial state for past inputs
        # [x0, x0] and past outputs [0, 0] (the constant pre-history).
        z0, z1 = -x0, x0
        # One trailing zero-input step yields the next prediction
        # (r = 0 - p), from which the final level/trend state follows.
        fed = np.vstack([rows[1:], np.zeros_like(x0)[None, :]])
        out = np.empty_like(fed)
        for t, x in enumerate(fed):
            y = z0 + x
            z0 = z1 - 2.0 * x - y * a1
            z1 = x - y * a2
            out[t] = y
        residuals = out[:-1]
        prediction_next = -out[-1]
        prediction_last = rows[-1] - residuals[-1]
        self._level = a * rows[-1] + (1.0 - a) * prediction_last
        self._trend = prediction_next - self._level
        return residuals

    def warm_up(self, history: np.ndarray) -> None:
        """Fit on a historical ``(t, p)`` matrix and seed the buffer."""
        rows = self._transform(self._history(history, "(t, p)"))
        if self.detrend == "holt":
            rows = self._holt_batch(rows)  # one row fewer than history
        self._seed(rows)

    def observe(self, row: np.ndarray) -> tuple[bool, float]:
        """Score one new ``(p,)`` volume row; returns (detected, spe).

        Detected rows are excluded from the refit buffer and enter the
        Holt forecast only winsorized (see :meth:`_holt_update`), until
        ``drift_reset_after`` consecutive detections force the drift
        interpretation (absorb + refit).
        """
        residual = self._transform(self._row(row))
        if self.detrend == "holt":
            residual = self._holt_update(residual)
        spe = float(self._spe(residual)[0])
        detected = spe > self._threshold
        self._advance(residual[None, :], detected)
        return detected, spe


class OnlineClassifier:
    """Incremental nearest-centroid classification of anomaly vectors.

    Seeded with the centroids of an offline clustering; each new
    unit-normalised anomaly vector is assigned to the nearest centroid
    (running-mean update) unless it is farther than ``spawn_distance``
    from all of them, in which case it founds a new cluster.
    """

    def __init__(
        self, centroids: np.ndarray | None = None, spawn_distance: float = 0.7
    ) -> None:
        if centroids is None:
            centroids = np.zeros((0, N_FEATURES))
        centroids = np.asarray(centroids, dtype=np.float64)
        if centroids.ndim != 2 or centroids.shape[1] != N_FEATURES:
            raise ValueError(f"centroids must be (k, {N_FEATURES})")
        self._centroids = [c.copy() for c in centroids]
        self._counts = [1] * len(self._centroids)
        self.spawn_distance = spawn_distance

    @property
    def n_clusters(self) -> int:
        """Current number of clusters (can grow over time)."""
        return len(self._centroids)

    @property
    def centroids(self) -> np.ndarray:
        """Current centroids, ``(k, 4)``."""
        if not self._centroids:
            return np.zeros((0, N_FEATURES))
        return np.vstack(self._centroids)

    def assign(self, vector: np.ndarray, update: bool = True) -> int:
        """Assign a vector to a cluster (possibly a brand-new one).

        Args:
            vector: ``(4,)`` unit-normalised entropy vector.
            update: When True (default) the matched centroid moves
                toward the vector by the running-mean rule.

        Returns:
            The assigned cluster index.
        """
        v = np.asarray(vector, dtype=np.float64)
        if v.shape != (N_FEATURES,):
            raise ValueError(f"vector must be a {N_FEATURES}-vector")
        if not self._centroids:
            # Cold start: the first anomaly founds the first cluster.
            self._centroids.append(v.copy())
            self._counts.append(1)
            return 0
        dists = np.linalg.norm(np.vstack(self._centroids) - v, axis=1)
        best = int(np.argmin(dists))
        if dists[best] > self.spawn_distance:
            self._centroids.append(v.copy())
            self._counts.append(1)
            return len(self._centroids) - 1
        if update:
            n = self._counts[best] + 1
            self._centroids[best] += (v - self._centroids[best]) / n
            self._counts[best] = n
        return best
