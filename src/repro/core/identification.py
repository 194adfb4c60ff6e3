"""Multi-attribute identification (paper Section 4.2).

Detection says *when* an anomaly happened; identification says *which
OD flow(s)* caused it.  In the multiway setting the state vector ``h``
lives in 4p dimensions (4 features x p OD flows).  For OD flow ``k``
the binary selection matrix ``theta_k`` (4p x 4) picks out its four
feature coordinates; the anomaly hypothesis is::

    h = h_typical + theta_k @ f_k

with ``f_k`` the 4-vector of entropy displacement caused by flow k.
The typical part lives in the normal subspace, so projecting onto the
residual subspace leaves a least-squares problem per candidate; the
flow whose best-fit displacement explains the most residual energy is
selected:

    l = argmin_k  min_{f_k} || C (h - theta_k f_k) ||

where C = I - P P^T is the residual projector.  C is symmetric and
idempotent and ``h_res = C h``, so with ``P_k`` the four rows of P at
OD k's columns (4 x m) the normal equations need no 4p x 4 matrix:

    (C theta_k)^T h_res          = h_res[theta_columns(k)]
    (C theta_k)^T (C theta_k)    = I - P_k P_k^T

The minimiser is ``f_k = G_k h_res[cols]`` with ``G_k = pinv(I - P_k
P_k^T)`` and the remaining energy ``||h_res||^2 - f_k . h_res[cols]``.
:func:`od_gram_pinv` builds every ``G_k`` as one ``(p, 4, 4)`` array —
once per fitted basis — and a greedy round is then one gather, one
batched product and one argmin over all candidates.  Following the
paper we re-apply the method recursively — subtract the identified
component and repeat — until the remaining state drops below the
detection threshold (or a flow cap is reached), which is how
multi-OD-flow anomalies are attributed to several flows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flows.features import N_FEATURES

__all__ = ["IdentifiedFlow", "identify_flows", "od_gram_pinv", "theta_columns"]

MAX_FLOWS_DEFAULT = 5


@dataclass
class IdentifiedFlow:
    """One OD flow implicated in a detection.

    Attributes:
        od: OD-flow index k.
        displacement: Best-fit ``f_k`` — the per-feature entropy change
            attributed to this flow (feature order
            :data:`repro.flows.features.FEATURES`).  This is the vector
            the classification stage clusters (after unit-norm scaling).
        residual_spe: Remaining ``||C h||^2`` *after* subtracting this
            flow's component.
    """

    od: int
    displacement: np.ndarray
    residual_spe: float


def theta_columns(od: int, n_od_flows: int) -> np.ndarray:
    """Column indices of OD flow ``od`` in the unfolded 4p layout."""
    if not 0 <= od < n_od_flows:
        raise ValueError(f"OD index out of range: {od}")
    return od + n_od_flows * np.arange(N_FEATURES)


def od_gram_pinv(normal_basis: np.ndarray, n_od_flows: int) -> np.ndarray:
    """``(p, 4, 4)`` stack of ``pinv(I - P_k P_k^T)``, one block per OD."""
    P = np.asarray(normal_basis, dtype=np.float64)
    blocks = P.reshape(N_FEATURES, n_od_flows, -1).transpose(1, 0, 2)
    gram = np.eye(N_FEATURES) - blocks @ blocks.transpose(0, 2, 1)
    return np.linalg.pinv(gram)


def identify_flows(
    h_centered: np.ndarray,
    normal_basis: np.ndarray,
    n_od_flows: int,
    threshold: float,
    max_flows: int = MAX_FLOWS_DEFAULT,
    candidates: np.ndarray | None = None,
    gram_pinv: np.ndarray | None = None,
) -> list[IdentifiedFlow]:
    """Attribute an anomalous state vector to OD flows, greedily.

    Args:
        h_centered: ``(4p,)`` state vector with the fitted mean already
            subtracted (same normalised units the subspace was fit in).
        normal_basis: ``(4p, m)`` orthonormal basis P of the normal
            subspace.
        n_od_flows: Block width p.
        threshold: Detection threshold on SPE; recursion stops once the
            residual SPE falls below it.
        max_flows: Hard cap on the recursion depth.
        candidates: Optional subset of OD indices to consider (speeds up
            sweeps where the injected flow set is known); defaults to
            all p flows.  Ties go to the earliest candidate.
        gram_pinv: :func:`od_gram_pinv` of ``normal_basis``; callers
            scoring many states against one basis build it once.
            Computed here when omitted.

    Returns:
        Identified flows in discovery order (strongest first).  Can be
        empty when the state is (numerically) below threshold already.
    """
    h = np.asarray(h_centered, dtype=np.float64)
    P = np.asarray(normal_basis, dtype=np.float64)
    p = n_od_flows
    if h.ndim != 1 or h.size != N_FEATURES * p:
        raise ValueError("state vector has wrong length")
    live = np.arange(p) if candidates is None else np.asarray(candidates, dtype=np.intp)
    if live.size and not (0 <= live.min() and live.max() < p):
        raise ValueError("candidate OD index out of range")
    if gram_pinv is None:
        gram_pinv = od_gram_pinv(P, p)

    identified: list[IdentifiedFlow] = []
    current = h.copy()
    h_res = current - P @ (P.T @ current)
    spe = float(h_res @ h_res)
    while spe > threshold and len(identified) < max_flows and live.size:
        ath = h_res.reshape(N_FEATURES, p)[:, live].T
        f = (gram_pinv[live] @ ath[:, :, None])[:, :, 0]
        remaining = np.maximum(spe - (f * ath).sum(axis=1), 0.0)
        best = int(np.argmin(remaining))
        if remaining[best] >= spe - 1e-15:
            # No candidate explains any residual energy; stop rather
            # than loop forever.
            break
        od = int(live[best])
        identified.append(
            IdentifiedFlow(
                od=od, displacement=f[best].copy(), residual_spe=float(remaining[best])
            )
        )
        live = live[live != od]
        current[theta_columns(od, p)] -= f[best]
        h_res = current - P @ (P.T @ current)
        spe = float(h_res @ h_res)
    return identified
