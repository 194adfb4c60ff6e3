"""The subspace method (paper Section 4.1): PCA split with a Q-statistic.

Given a ``t x p`` data matrix X (rows = observations, columns = OD-flow
metrics), the method:

1. mean-centres the columns,
2. finds principal components; the top ``m`` components span the
   *normal subspace* (typical variation common to the ensemble), the
   rest span the *residual subspace*,
3. decomposes each observation ``x = x_hat + x_tilde`` into normal and
   residual parts, and
4. flags timepoints whose squared prediction error (SPE)
   ``Q = ||x_tilde||^2`` exceeds the Jackson-Mudholkar threshold
   ``Q_alpha`` corresponding to a desired false-alarm rate
   ``1 - alpha``.

This is the machinery of Lakhina et al. 2004 [24], reused here both as
the volume-based baseline detector and as the engine inside the
multiway method.  For the paper's datasets a knee in captured variance
appeared at m ~ 10 (85% of variance); both selection rules are offered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

__all__ = ["PCAModel", "q_threshold", "SubspaceModel", "SubspaceDetector", "DetectionResult"]

DEFAULT_N_COMPONENTS = 10
DEFAULT_ALPHA = 0.999


@dataclass
class PCAModel:
    """Principal components of a mean-centred data matrix.

    Attributes:
        mean: ``(p,)`` column means.
        components: ``(p, p_eff)`` orthonormal PC loadings (columns).
        eigenvalues: ``(p_eff,)`` variances along each PC, descending.
    """

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "PCAModel":
        """Fit by SVD of the centred matrix (robust for t >> p or t < p)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        t, _ = X.shape
        if t < 2:
            raise ValueError("need at least 2 observations")
        mean = X.mean(axis=0)
        centered = X - mean
        # economy SVD: X = U S Vt; eigenvalues of cov are s^2/(t-1)
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        eigenvalues = (s ** 2) / (t - 1)
        return cls(mean=mean, components=vt.T, eigenvalues=eigenvalues)

    @property
    def n_variables(self) -> int:
        """Number of columns p of the fitted matrix."""
        return self.mean.shape[0]

    @property
    def n_effective(self) -> int:
        """Number of retained PCs (min(t-?, p) from the economy SVD)."""
        return self.components.shape[1]

    def variance_captured(self, m: int) -> float:
        """Fraction of total variance captured by the top ``m`` PCs."""
        total = self.eigenvalues.sum()
        if total == 0:
            return 1.0
        return float(self.eigenvalues[:m].sum() / total)

    def knee(self, threshold: float = 0.85) -> int:
        """Smallest m capturing at least ``threshold`` of total variance."""
        total = self.eigenvalues.sum()
        if total == 0:
            return 1
        cum = np.cumsum(self.eigenvalues) / total
        return int(np.searchsorted(cum, threshold) + 1)


def q_threshold(residual_eigenvalues: np.ndarray, alpha: float) -> float:
    """Jackson-Mudholkar (1979) SPE control limit ``Q_alpha``.

    Args:
        residual_eigenvalues: Eigenvalues of the PCs spanning the
            residual subspace (lambda_{m+1} .. lambda_p).
        alpha: Confidence level, e.g. 0.999 for a 0.1% false-alarm rate
            under the null.

    Returns:
        The threshold on ``Q = ||x_tilde||^2``; observations above it
        are declared anomalous.
    """
    lam = np.asarray(residual_eigenvalues, dtype=np.float64)
    lam = lam[lam > 0]
    if lam.size == 0:
        return 0.0
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    scale = lam.max()
    if scale <= 0 or not np.isfinite(scale):
        # Spectrum underflowed to zero (e.g. a constant data matrix).
        return 0.0
    # The Jackson-Mudholkar limit is scale-equivariant
    # (Q_alpha(c * lam) = c * Q_alpha(lam)); normalising by the largest
    # eigenvalue keeps the phi moments away from floating-point under-
    # and overflow for extreme spectra (tiny residuals would otherwise
    # yield phi2**2 == 0 and a NaN threshold that silently disables
    # detection).
    lam = lam / scale
    phi1 = lam.sum()
    phi2 = (lam ** 2).sum()
    phi3 = (lam ** 3).sum()
    h0 = 1.0 - (2.0 * phi1 * phi3) / (3.0 * phi2 ** 2)
    if h0 <= 0:
        # Degenerate spectrum; fall back to h0 -> small positive, which
        # yields a conservative (large) threshold.
        h0 = 1e-4
    # Wichura's AS241 (the stdlib's inverse normal CDF) matches
    # scipy.stats.norm.ppf to a few ulps, exactly at the default 0.999.
    c_alpha = NormalDist().inv_cdf(alpha)
    term = (
        c_alpha * np.sqrt(2.0 * phi2 * h0 ** 2) / phi1
        + 1.0
        + phi2 * h0 * (h0 - 1.0) / phi1 ** 2
    )
    # A (rare) negative base means the normal approximation has broken
    # down; clamp to a tiny positive number, again conservative.
    term = max(term, 1e-12)
    return float(scale * phi1 * term ** (1.0 / h0))


@dataclass
class SubspaceModel:
    """A fitted normal/residual split of a metric ensemble.

    A model is immutable once fitted (every refit builds a new one), so
    :meth:`threshold` memoises Q_alpha per ``alpha``.
    """

    pca: PCAModel
    n_components: int
    _thresholds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.n_components <= self.pca.n_effective:
            raise ValueError(
                f"n_components={self.n_components} outside "
                f"[1, {self.pca.n_effective}]"
            )

    @classmethod
    def fit(
        cls,
        X: np.ndarray,
        n_components: int | None = DEFAULT_N_COMPONENTS,
        variance_threshold: float | None = None,
    ) -> "SubspaceModel":
        """Fit PCA and pick the normal-subspace dimension.

        Either a fixed ``n_components`` (paper default: 10) or the
        smallest dimension capturing ``variance_threshold`` of variance.
        """
        pca = PCAModel.fit(X)
        if variance_threshold is not None:
            m = pca.knee(variance_threshold)
        elif n_components is not None:
            m = n_components
        else:
            raise ValueError("specify n_components or variance_threshold")
        m = max(1, min(m, pca.n_effective - 1)) if pca.n_effective > 1 else 1
        return cls(pca=pca, n_components=m)

    @property
    def normal_basis(self) -> np.ndarray:
        """``(p, m)`` orthonormal basis P of the normal subspace."""
        return self.pca.components[:, : self.n_components]

    @property
    def residual_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the residual subspace."""
        return self.pca.eigenvalues[self.n_components:]

    def residual(self, X: np.ndarray) -> np.ndarray:
        """Residual part ``x_tilde`` of observations (rows).

        Accepts a single ``(p,)`` vector or a ``(t, p)`` matrix.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        centered = X - self.pca.mean
        P = self.normal_basis
        res = centered - (centered @ P) @ P.T
        return res[0] if res.shape[0] == 1 and X.ndim == 1 else res

    def spe(self, X: np.ndarray) -> np.ndarray:
        """Squared prediction error ``||x_tilde||^2`` per observation."""
        res = np.atleast_2d(self.residual(X))
        return (res ** 2).sum(axis=1)

    def threshold(self, alpha: float = DEFAULT_ALPHA) -> float:
        """Q_alpha for this model's residual spectrum (memoised)."""
        q = self._thresholds.get(alpha)
        if q is None:
            q = self._thresholds[alpha] = q_threshold(self.residual_eigenvalues, alpha)
        return q


@dataclass
class DetectionResult:
    """Outcome of running a detector over a data matrix.

    Attributes:
        spe: ``(t,)`` squared prediction errors.
        threshold: The Q_alpha used.
        alpha: Confidence level used.
        anomalous_bins: Indices where ``spe > threshold``.
        residuals: ``(t, p)`` residual vectors (kept for identification
            and classification).
    """

    spe: np.ndarray
    threshold: float
    alpha: float
    residuals: np.ndarray

    @property
    def anomalous_bins(self) -> np.ndarray:
        """Sorted bin indices flagged as anomalous."""
        return np.flatnonzero(self.spe > self.threshold)

    @property
    def n_detections(self) -> int:
        """Number of flagged bins."""
        return int((self.spe > self.threshold).sum())

    def is_anomalous(self, t: int) -> bool:
        """Whether bin ``t`` exceeded the threshold."""
        return bool(self.spe[t] > self.threshold)


class SubspaceDetector:
    """Convenience wrapper: fit once, score any matrix of observations.

    This object also supports the online/fixed-subspace mode used by the
    injection sweeps: fit on a clean matrix, then score modified rows
    against the frozen subspace (see docs/ARCHITECTURE.md, "Paper
    experiments", fixed-subspace note).
    """

    def __init__(
        self,
        n_components: int | None = DEFAULT_N_COMPONENTS,
        variance_threshold: float | None = None,
        alpha: float = DEFAULT_ALPHA,
    ) -> None:
        self.n_components = n_components
        self.variance_threshold = variance_threshold
        self.alpha = alpha
        self.model: SubspaceModel | None = None

    def fit(self, X: np.ndarray) -> "SubspaceDetector":
        """Fit the normal subspace on ``X``."""
        self.model = SubspaceModel.fit(
            X,
            n_components=self.n_components,
            variance_threshold=self.variance_threshold,
        )
        return self

    def _require_model(self) -> SubspaceModel:
        if self.model is None:
            raise RuntimeError("detector is not fitted; call fit() first")
        return self.model

    def detect(self, X: np.ndarray, alpha: float | None = None) -> DetectionResult:
        """Score observations and flag SPE threshold crossings."""
        model = self._require_model()
        a = self.alpha if alpha is None else alpha
        X = np.asarray(X, dtype=np.float64)
        residuals = np.atleast_2d(model.residual(X))
        spe = (residuals ** 2).sum(axis=1)
        return DetectionResult(
            spe=spe, threshold=model.threshold(a), alpha=a, residuals=residuals
        )

    def fit_detect(self, X: np.ndarray, alpha: float | None = None) -> DetectionResult:
        """Fit on ``X`` and score the same matrix (the paper's offline mode)."""
        return self.fit(X).detect(X, alpha=alpha)
