"""Feature-distribution models for the synthetic traffic generator.

Backbone traffic feature distributions are heavy-tailed: a few
addresses/ports carry most packets, with a long tail of light talkers.
We model each feature's population as a Zipf-like probability mass
function over an abstract *rank space*; ranks are materialised to real
addresses (from per-PoP pools) or ports only where an experiment needs
them (e.g. flow-record generation), which keeps the hot path numeric.

Port distributions get a realistic head: a block of well-known service
ports with a steep profile, followed by an ephemeral-port tail.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "zipf_pmf",
    "port_pmf",
    "sample_histogram",
    "poisson_histogram_rows",
    "active_support",
    "FLOW_SIZE_CDFS",
    "sample_flow_sizes",
]

#: Empirical flow-size CDFs, ``[(cdf_value, flow_size_bytes), ...]`` in
#: ascending CDF order.  The shapes follow the published web-search and
#: data-mining datacenter workloads widely used for synthetic-traffic
#: generation (cf. PrintQueue's ``generate_flows_by_CDF_sample``): most
#: flows are mice, a small fraction of elephants carries most bytes.
FLOW_SIZE_CDFS: dict[str, tuple[tuple[float, int], ...]] = {
    "web-search": (
        (0.15, 6_144), (0.20, 13_312), (0.30, 19_456), (0.40, 33_792),
        (0.53, 54_272), (0.60, 136_192), (0.70, 683_008),
        (0.80, 1_365_000), (0.90, 3_413_000), (0.97, 6_827_000),
        (1.00, 20_480_000),
    ),
    "data-mining": (
        (0.50, 1_024), (0.60, 2_048), (0.70, 3_072), (0.80, 7_168),
        (0.90, 273_408), (0.95, 2_157_568), (0.99, 68_267_000),
        (1.00, 682_667_000),
    ),
}


def sample_flow_sizes(
    profile: str | tuple[tuple[float, int], ...],
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Inverse-CDF sample of ``n`` flow sizes (bytes) from a size mix.

    ``profile`` is a :data:`FLOW_SIZE_CDFS` key or an explicit
    ``((cdf_value, size_bytes), ...)`` table in ascending CDF order;
    each uniform draw maps to the first CDF point at or above it, like
    the step-sampled synthetic traces of the PrintQueue end hosts.
    """
    if isinstance(profile, str):
        try:
            profile = FLOW_SIZE_CDFS[profile]
        except KeyError:
            known = ", ".join(sorted(FLOW_SIZE_CDFS))
            raise ValueError(
                f"unknown flow-size profile {profile!r}; known: {known}"
            ) from None
    points = np.asarray(profile, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2 or not len(points):
        raise ValueError("flow-size CDF needs (cdf, size) rows")
    cdf, sizes = points[:, 0], points[:, 1]
    if np.any(np.diff(cdf) <= 0) or cdf[-1] < 1.0:
        raise ValueError("flow-size CDF values must ascend to 1.0")
    if n < 0:
        raise ValueError("n must be non-negative")
    picks = cdf.searchsorted(rng.random(n), side="left")
    return sizes[picks].astype(np.int64)


def zipf_pmf(n: int, alpha: float) -> np.ndarray:
    """Zipf(alpha) probability mass function over ranks 1..n.

    ``p_i \\propto i^{-alpha}``.  ``alpha = 0`` gives the uniform
    distribution (maximal entropy); larger alpha concentrates mass on
    the head (lower entropy).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    return weights / weights.sum()


def port_pmf(n: int, head_size: int = 20, head_mass: float = 0.6, tail_alpha: float = 0.5) -> np.ndarray:
    """Port distribution: heavy well-known head + Zipf ephemeral tail.

    The first ``head_size`` ranks (well-known service ports) share
    ``head_mass`` of the probability with a steep Zipf(1.2) profile; the
    remaining ranks (ephemeral ports) share the rest with a flat
    Zipf(``tail_alpha``) profile.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    head_size = min(head_size, n)
    head = zipf_pmf(head_size, 1.2) * head_mass
    if head_size == n:
        return head / head.sum()
    tail = zipf_pmf(n - head_size, tail_alpha) * (1.0 - head_mass)
    return np.concatenate([head, tail])


def sample_histogram(
    pmf: np.ndarray, total: int, rng: np.random.Generator
) -> np.ndarray:
    """Multinomial sample of ``total`` packets over a pmf (one histogram)."""
    if total < 0:
        raise ValueError("total must be non-negative")
    if total == 0:
        return np.zeros(len(pmf), dtype=np.int64)
    return rng.multinomial(total, pmf).astype(np.int64)


def poisson_histogram_rows(
    pmf_rows: np.ndarray, totals: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Vectorised per-bin histograms via the Poissonisation trick.

    Drawing ``N_i ~ Poisson(total_t * p_i)`` independently per cell is
    the standard Poissonisation of a multinomial sample: conditioned on
    the realised row sum it *is* multinomial, and for the large totals
    we use the difference is negligible while being orders of magnitude
    faster than t separate multinomial draws.

    Args:
        pmf_rows: ``(t, n)`` per-bin pmfs (rows may differ over time as
            the distribution drifts) or ``(n,)`` for a static pmf.
        totals: ``(t,)`` expected packet totals per bin.
        rng: Random generator.

    Returns:
        ``(t, n)`` integer histogram matrix.
    """
    totals = np.asarray(totals, dtype=np.float64)
    pmf_rows = np.asarray(pmf_rows, dtype=np.float64)
    if pmf_rows.ndim == 1:
        lam = totals[:, None] * pmf_rows[None, :]
    else:
        if pmf_rows.shape[0] != totals.shape[0]:
            raise ValueError("pmf_rows and totals disagree on t")
        lam = totals[:, None] * pmf_rows
    return rng.poisson(lam).astype(np.int64)


def active_support(
    base_support: int, totals: np.ndarray, mean_total: float | np.ndarray,
    exponent: float = 0.5, minimum: int = 8,
) -> np.ndarray:
    """Number of active feature values per bin, scaling with volume.

    The paper observes that entropy tends to rise with traffic volume
    because more distinct values appear in larger samples.  We reproduce
    that coupling by activating ``base * (total/mean)^exponent`` ranks
    per bin (clipped to ``[minimum, base*2]``).  ``mean_total`` may be an
    array broadcasting against ``totals`` (one mean per row).

    Returns an int array of per-bin support sizes.
    """
    if base_support < 1:
        raise ValueError("base_support must be >= 1")
    totals = np.asarray(totals, dtype=np.float64)
    scale = np.power(np.maximum(totals, 1.0) / np.maximum(mean_total, 1.0), exponent)
    support = np.round(base_support * scale).astype(np.int64)
    return np.clip(support, minimum, base_support * 2)
