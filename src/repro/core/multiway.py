"""The multiway subspace method (paper Section 4.2).

The entropy data form a three-way tensor ``H(t, p, k)`` — time x OD
flow x feature.  The multiway method:

1. **unfolds** the tensor into a single ``t x 4p`` matrix by arranging
   the four ``t x p`` feature submatrices side by side
   (``[H_srcIP | H_srcPort | H_dstIP | H_dstPort]``),
2. **normalises** each feature submatrix to unit energy so no one
   feature dominates, and
3. applies the standard subspace method to the merged matrix.

Detections are timepoints whose residual ``||h_tilde||^2`` exceeds the
Q threshold; each detection carries the full 4p-dimensional residual
vector, which identification (:mod:`repro.core.identification`) folds
back into per-OD-flow, per-feature entropy displacements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.identification import IdentifiedFlow, identify_flows, od_gram_pinv
from repro.core.subspace import (
    DEFAULT_ALPHA,
    DEFAULT_N_COMPONENTS,
    DetectionResult,
    SubspaceModel,
)
from repro.flows.features import N_FEATURES

__all__ = [
    "unfold",
    "fold_row",
    "normalize_unit_energy",
    "MultiwayDetection",
    "MultiwaySubspaceDetector",
]


def unfold(tensor: np.ndarray) -> np.ndarray:
    """Unfold ``(t, p, k)`` into ``(t, k*p)`` with feature-major blocks.

    Column layout matches the paper: columns ``[0, p)`` are feature 0
    (srcIP) for all p OD flows, columns ``[p, 2p)`` feature 1 (srcPort),
    and so on.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim != 3:
        raise ValueError("expected a 3-way tensor (t, p, k)")
    t, p, k = tensor.shape
    # transpose to (t, k, p) then flatten the last two axes
    return tensor.transpose(0, 2, 1).reshape(t, k * p)


def fold_row(row: np.ndarray, n_od_flows: int) -> np.ndarray:
    """Reshape one unfolded ``(k*p,)`` row back to ``(p, k)``.

    ``fold_row(h, p)[od, k]`` is the feature-``k`` entry of OD flow
    ``od`` — the inverse of :func:`unfold` for a single timepoint.
    """
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1 or row.size % n_od_flows:
        raise ValueError("row length must be a multiple of n_od_flows")
    k = row.size // n_od_flows
    return row.reshape(k, n_od_flows).T


def normalize_unit_energy(
    H: np.ndarray, n_od_flows: int, mode: str = "variance"
) -> tuple[np.ndarray, np.ndarray]:
    """Scale each feature submatrix of an unfolded matrix to unit energy.

    Args:
        H: ``(t, k*p)`` unfolded matrix.
        n_od_flows: Block width p.
        mode: ``"variance"`` (default) scales each block by the Frobenius
            norm of its *mean-centred* values — every feature then
            contributes equal total variance to the PCA, which is the
            paper's stated intent ("so that no one feature dominates").
            ``"raw"`` scales by the Frobenius norm of the raw block, the
            literal reading of "total energy".

    Returns:
        ``(normalized, scales)`` where ``scales`` has one entry per
        feature block (the divisor used); zero-energy blocks get scale 1.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[1] % n_od_flows:
        raise ValueError("H must be (t, k*p) with p = n_od_flows")
    k = H.shape[1] // n_od_flows
    out = H.copy()
    scales = np.ones(k)
    for j in range(k):
        block = out[:, j * n_od_flows : (j + 1) * n_od_flows]
        if mode == "variance":
            energy = np.linalg.norm(block - block.mean(axis=0))
        elif mode == "raw":
            energy = np.linalg.norm(block)
        else:
            raise ValueError(f"unknown normalization mode {mode!r}")
        if energy > 0:
            block /= energy
            scales[j] = energy
    return out, scales


@dataclass
class MultiwayDetection:
    """A detected anomalous timepoint with its identified OD flows.

    Attributes:
        bin: Time-bin index.
        spe: Squared prediction error at that bin.
        residual: Full ``(4p,)`` residual vector ``h_tilde``.
        flows: Identified flows (possibly several), each with its
            4-vector of per-feature entropy displacement ``f_k``.
    """

    bin: int
    spe: float
    residual: np.ndarray
    flows: list[IdentifiedFlow] = field(default_factory=list)

    @property
    def primary_od(self) -> int | None:
        """OD flow of the strongest identified component."""
        return self.flows[0].od if self.flows else None

    def entropy_vector(self, od: int | None = None) -> np.ndarray:
        """Per-feature residual-entropy 4-vector for classification.

        Uses the identified displacement ``f_k`` of the given (or
        primary) flow; falls back to the residual folded onto the
        strongest flow when identification found nothing.
        """
        if self.flows:
            if od is None:
                return self.flows[0].displacement
            for flow in self.flows:
                if flow.od == od:
                    return flow.displacement
            raise KeyError(f"OD flow {od} was not identified in this detection")
        folded = fold_row(self.residual, self.residual.size // N_FEATURES)
        strongest = int(np.argmax((folded ** 2).sum(axis=1)))
        return folded[strongest]


class MultiwaySubspaceDetector:
    """End-to-end multiway detection on an entropy tensor.

    Typical use::

        det = MultiwaySubspaceDetector().fit(cube.entropy)
        detections = det.detect(cube.entropy, alpha=0.999)

    The fitted state (normalisation scales + subspace model) can score
    tensors other than the one fitted on — the fixed-subspace mode used
    by the injection sweeps.  Q_alpha is memoised on the fitted
    :class:`SubspaceModel`, so scoring bin after bin against one fit
    evaluates it once; :meth:`detect` builds the per-OD identification
    blocks (:func:`repro.core.identification.od_gram_pinv`) at most
    once per call and shares them across its detections.
    """

    def __init__(
        self,
        n_components: int | None = DEFAULT_N_COMPONENTS,
        variance_threshold: float | None = None,
        alpha: float = DEFAULT_ALPHA,
        normalization: str = "variance",
        identify: bool = True,
        max_identified_flows: int = 5,
    ) -> None:
        self.n_components = n_components
        self.variance_threshold = variance_threshold
        self.alpha = alpha
        self.normalization = normalization
        self.identify = identify
        self.max_identified_flows = max_identified_flows
        self.model: SubspaceModel | None = None
        self.scales: np.ndarray | None = None
        self.n_od_flows: int | None = None

    # -- fitting ---------------------------------------------------------

    def fit(self, entropy_tensor: np.ndarray) -> "MultiwaySubspaceDetector":
        """Fit normalisation scales and the normal subspace."""
        tensor = np.asarray(entropy_tensor, dtype=np.float64)
        if tensor.ndim != 3:
            raise ValueError("entropy tensor must be (t, p, k)")
        self.n_od_flows = tensor.shape[1]
        H = unfold(tensor)
        Hn, self.scales = normalize_unit_energy(
            H, self.n_od_flows, mode=self.normalization
        )
        self.model = SubspaceModel.fit(
            Hn,
            n_components=self.n_components,
            variance_threshold=self.variance_threshold,
        )
        return self

    def _normalize(self, tensor: np.ndarray) -> np.ndarray:
        """Unfold and apply the *fitted* scales (not refit)."""
        if self.scales is None or self.n_od_flows is None:
            raise RuntimeError("detector is not fitted; call fit() first")
        H = unfold(np.asarray(tensor, dtype=np.float64))
        if H.shape[1] != self.scales.size * self.n_od_flows:
            raise ValueError("tensor shape does not match fitted detector")
        out = H.copy()
        p = self.n_od_flows
        for j, scale in enumerate(self.scales):
            out[:, j * p : (j + 1) * p] /= scale
        return out

    # -- scoring -----------------------------------------------------------

    def score(self, entropy_tensor: np.ndarray) -> DetectionResult:
        """Raw subspace scoring (SPE + residuals) of a tensor."""
        if self.model is None:
            raise RuntimeError("detector is not fitted; call fit() first")
        Hn = self._normalize(entropy_tensor)
        residuals = np.atleast_2d(self.model.residual(Hn))
        spe = (residuals ** 2).sum(axis=1)
        return DetectionResult(
            spe=spe,
            threshold=self.model.threshold(self.alpha),
            alpha=self.alpha,
            residuals=residuals,
        )

    def detect(
        self, entropy_tensor: np.ndarray, alpha: float | None = None
    ) -> list[MultiwayDetection]:
        """Detect anomalous bins and identify the OD flows involved."""
        if self.model is None:
            raise RuntimeError("detector is not fitted; call fit() first")
        a = self.alpha if alpha is None else alpha
        Hn = self._normalize(entropy_tensor)
        residuals = np.atleast_2d(self.model.residual(Hn))
        spe = (residuals ** 2).sum(axis=1)
        threshold = self.model.threshold(a)
        detections = []
        gram_pinv = None
        for b in np.flatnonzero(spe > threshold):
            flows: list[IdentifiedFlow] = []
            if self.identify:
                if gram_pinv is None:
                    gram_pinv = od_gram_pinv(self.model.normal_basis, self.n_od_flows)
                flows = identify_flows(
                    Hn[b] - self.model.pca.mean,
                    self.model.normal_basis,
                    self.n_od_flows,
                    threshold=threshold,
                    max_flows=self.max_identified_flows,
                    gram_pinv=gram_pinv,
                )
            detections.append(
                MultiwayDetection(
                    bin=int(b),
                    spe=float(spe[b]),
                    residual=residuals[b],
                    flows=flows,
                )
            )
        return detections

    def fit_detect(
        self, entropy_tensor: np.ndarray, alpha: float | None = None
    ) -> list[MultiwayDetection]:
        """Fit on the tensor and detect on the same tensor."""
        return self.fit(entropy_tensor).detect(entropy_tensor, alpha=alpha)
