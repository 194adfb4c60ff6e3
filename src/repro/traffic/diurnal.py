"""Temporal traffic models: diurnal/weekly cycles with AR(1) noise.

Backbone OD-flow volumes follow strong daily and weekly periodicities
plus correlated stochastic fluctuation.  Crucially for the subspace
method, the *shape* of the daily cycle is shared across OD flows (this
is what makes normal network-wide traffic low-dimensional, per Lakhina
et al., SIGMETRICS 2004) — so the model composes a small set of global
basis waveforms with per-OD mixing weights, plus per-OD AR(1) noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.flows.binning import BINS_PER_DAY, BINS_PER_WEEK

__all__ = ["DiurnalBasis", "ar1_draws", "ar1_recursion", "ar1_series", "DiurnalModel"]


def ar1_draws(
    n: int, rho: float, sigma: float, rng: np.random.Generator
) -> tuple[float, np.ndarray]:
    """``(start, innovations)`` of a stationary AR(1) series, drawn from
    ``rng`` innovations first."""
    if not 0 <= rho < 1:
        raise ValueError("rho must be in [0, 1)")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    innovations = rng.normal(0.0, sigma * np.sqrt(1 - rho ** 2), size=n)
    return rng.normal(0.0, sigma), innovations


#: Below this many series a Python-float loop per series beats one
#: array op per time step (~0.15 vs ~5 us a step on a 2-vCPU box).
_ARRAY_STEP_SERIES = 24


def ar1_recursion(start, innovations: np.ndarray, rho: float) -> np.ndarray:
    """``x[..., i] = rho * x[..., i - 1] + innovations[..., i]`` from
    ``x[..., -1] = start``, every series side by side.

    Each step is ``scipy.signal.lfilter([1.0], [1.0, -rho], ...)``'s own
    direct-form-II-transposed update (``y = z + x``, ``z = x * 0 - y *
    -rho``), so the result is that filter's, bit for bit, signed zeros
    included.  A few series step in Python floats (numpy scalars cost
    ~15x more per step); many run one array op per time step.
    """
    x = np.asarray(innovations, dtype=np.float64)
    z = np.broadcast_to(rho * np.asarray(start, dtype=np.float64), x.shape[:-1])
    a1 = -float(rho)
    if z.size < _ARRAY_STEP_SERIES:
        out = np.empty_like(x)
        for idx in np.ndindex(z.shape):
            out[idx] = _ar1_floats(float(z[idx]), x[idx].tolist(), a1)
        return out
    steps = np.ascontiguousarray(np.moveaxis(x, -1, 0))
    out = np.empty_like(steps)
    for i, v in enumerate(steps):
        y = z + v
        z = v * 0.0 - y * a1
        out[i] = y
    return np.moveaxis(out, 0, -1)


def _ar1_floats(z: float, innovations: list[float], a1: float) -> list[float]:
    """One series of :func:`ar1_recursion`, stepped in Python floats."""
    out = []
    for v in innovations:
        y = z + v
        z = v * 0.0 - y * a1
        out.append(y)
    return out


def ar1_series(
    n: int, rho: float, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Stationary AR(1) series with autocorrelation ``rho`` and
    marginal standard deviation ``sigma``."""
    return ar1_recursion(*ar1_draws(n, rho, sigma, rng), rho)


@dataclass
class DiurnalBasis:
    """Global daily/weekly waveforms shared by all OD flows.

    Three basis functions over the bin grid:

    0. daily cycle — peaked in working hours,
    1. weekly cycle — weekdays above weekends,
    2. constant — baseline load.

    Per-OD mixing weights over these bases give every OD flow a
    realistic, correlated-but-not-identical temporal profile.
    """

    n_bins: int
    waveforms: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.n_bins <= 0:
            raise ValueError("n_bins must be positive")
        t = np.arange(self.n_bins)
        day_phase = 2 * np.pi * (t % BINS_PER_DAY) / BINS_PER_DAY
        # Peak around 15:00, trough around 03:00.
        daily = 0.5 * (1 + np.sin(day_phase - np.pi / 2))
        week_phase = (t % BINS_PER_WEEK) / BINS_PER_WEEK
        weekday = np.where(week_phase < 5 / 7, 1.0, 0.55)
        constant = np.ones(self.n_bins)
        self.waveforms = np.vstack([daily, weekday, constant])

    @property
    def n_bases(self) -> int:
        """Number of basis waveforms."""
        return self.waveforms.shape[0]

    def mix(self, weights: np.ndarray) -> np.ndarray:
        """Weighted combination of the bases, ``(n_bins,)``."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.n_bases,):
            raise ValueError(f"expected {self.n_bases} weights")
        return weights @ self.waveforms


@dataclass
class DiurnalModel:
    """Per-OD-flow packet-rate model.

    ``rate(t) = mean_pps * profile(t) * exp(noise(t))`` where
    ``profile`` is a normalised mix of the shared bases and ``noise``
    is AR(1).  Rates are in packets/second *after* flow sampling (i.e.
    directly what the cube records).
    """

    mean_pps: float
    basis: DiurnalBasis
    weights: np.ndarray
    noise_rho: float = 0.95
    noise_sigma: float = 0.12

    def __post_init__(self) -> None:
        if self.mean_pps < 0:
            raise ValueError("mean_pps must be non-negative")
        self.weights = np.asarray(self.weights, dtype=np.float64)

    def rates(self, rng: np.random.Generator) -> np.ndarray:
        """Packet rates (pps) per bin, ``(n_bins,)``."""
        profile = self.basis.mix(self.weights)
        mean_profile = profile.mean()
        if mean_profile <= 0:
            raise ValueError("degenerate diurnal profile")
        profile = profile / mean_profile
        noise = ar1_series(self.basis.n_bins, self.noise_rho, self.noise_sigma, rng)
        return self.mean_pps * profile * np.exp(noise - (self.noise_sigma ** 2) / 2)
