"""Tests for the traffic model components: distributions, diurnal, gravity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.binning import BINS_PER_DAY
from repro.net.topology import abilene
from repro.traffic.distributions import (
    active_support,
    poisson_histogram_rows,
    port_pmf,
    sample_histogram,
    zipf_pmf,
)
from repro.traffic.diurnal import (
    DiurnalBasis,
    DiurnalModel,
    ar1_draws,
    ar1_recursion,
    ar1_series,
)
from repro.traffic.gravity import gravity_matrix, od_mean_rates, pop_masses


class TestZipfPmf:
    def test_normalized(self):
        assert zipf_pmf(100, 1.0).sum() == pytest.approx(1.0)

    def test_alpha_zero_is_uniform(self):
        pmf = zipf_pmf(10, 0.0)
        assert np.allclose(pmf, 0.1)

    def test_monotone_decreasing(self):
        pmf = zipf_pmf(50, 1.2)
        assert np.all(np.diff(pmf) <= 0)

    def test_larger_alpha_concentrates(self):
        from repro.core.entropy import entropy_from_probabilities

        h1 = entropy_from_probabilities(zipf_pmf(100, 0.5))
        h2 = entropy_from_probabilities(zipf_pmf(100, 1.5))
        assert h2 < h1

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_pmf(0, 1.0)
        with pytest.raises(ValueError):
            zipf_pmf(10, -0.1)


class TestPortPmf:
    def test_normalized(self):
        assert port_pmf(200).sum() == pytest.approx(1.0)

    def test_head_mass(self):
        pmf = port_pmf(200, head_size=20, head_mass=0.6)
        assert pmf[:20].sum() == pytest.approx(0.6)

    def test_small_n_degenerates_gracefully(self):
        pmf = port_pmf(5)
        assert pmf.sum() == pytest.approx(1.0)
        assert len(pmf) == 5


class TestSampling:
    def test_sample_histogram_total(self):
        rng = np.random.default_rng(0)
        counts = sample_histogram(zipf_pmf(50, 1.0), 10_000, rng)
        assert counts.sum() == 10_000

    def test_sample_histogram_zero(self):
        rng = np.random.default_rng(0)
        assert sample_histogram(zipf_pmf(5, 1.0), 0, rng).sum() == 0

    def test_poisson_rows_shape_and_mean(self):
        rng = np.random.default_rng(0)
        pmf = zipf_pmf(40, 0.8)
        totals = np.full(500, 10_000.0)
        rows = poisson_histogram_rows(pmf, totals, rng)
        assert rows.shape == (500, 40)
        assert rows.sum(axis=1).mean() == pytest.approx(10_000, rel=0.01)

    def test_poisson_rows_time_varying_pmf(self):
        rng = np.random.default_rng(0)
        pmf_rows = np.vstack([zipf_pmf(10, 0.5), zipf_pmf(10, 2.0)])
        rows = poisson_histogram_rows(pmf_rows, np.array([1000.0, 1000.0]), rng)
        assert rows.shape == (2, 10)

    def test_poisson_rows_mismatch_rejected(self):
        with pytest.raises(ValueError):
            poisson_histogram_rows(np.ones((3, 5)) / 5, np.ones(2), np.random.default_rng(0))


class TestActiveSupport:
    def test_scales_with_volume(self):
        totals = np.array([100.0, 400.0])
        sup = active_support(64, totals, 100.0, exponent=0.5)
        assert sup[1] == pytest.approx(2 * sup[0], abs=1)

    def test_clipped(self):
        sup = active_support(64, np.array([1e9, 0.0]), 100.0)
        assert sup[0] == 128  # 2x cap
        assert sup[1] >= 8    # minimum

    def test_exponent_zero_constant(self):
        sup = active_support(64, np.array([10.0, 1e6]), 100.0, exponent=0.0)
        assert sup[0] == sup[1] == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            active_support(0, np.ones(3), 1.0)


class TestAR1:
    def test_zero_sigma_constant_from_start(self):
        series = ar1_series(100, 0.5, 0.0, np.random.default_rng(0))
        assert np.allclose(series, series[0])
        assert series[0] == 0.0

    def test_marginal_std(self):
        series = ar1_series(200_000, 0.9, 2.0, np.random.default_rng(0))
        assert series.std() == pytest.approx(2.0, rel=0.05)

    def test_autocorrelation(self):
        series = ar1_series(100_000, 0.95, 1.0, np.random.default_rng(1))
        ac = np.corrcoef(series[:-1], series[1:])[0, 1]
        assert ac == pytest.approx(0.95, abs=0.02)

    def test_recursion_is_the_scalar_loop_bit_for_bit(self):
        """The loop every series used to run is the oracle: one pass over
        many series must equal it exactly, not to a tolerance."""
        rng = np.random.default_rng(3)
        start, innovations = rng.normal(size=(3, 5)), rng.normal(size=(3, 5, 300))
        got = ar1_recursion(start, innovations, 0.93)
        for idx in np.ndindex(3, 5):
            prev, want = start[idx], []
            for step in innovations[idx]:
                prev = 0.93 * prev + step
                want.append(prev)
            np.testing.assert_array_equal(got[idx], want)

    def test_series_is_its_draws_through_the_recursion(self):
        start, innovations = ar1_draws(50, 0.8, 1.5, np.random.default_rng(4))
        np.testing.assert_array_equal(
            ar1_series(50, 0.8, 1.5, np.random.default_rng(4)),
            ar1_recursion(start, innovations, 0.8),
        )

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ar1_series(10, 1.0, 1.0, rng)
        with pytest.raises(ValueError):
            ar1_series(10, 0.5, -1.0, rng)


class TestDiurnalBasis:
    def test_waveform_shapes(self):
        basis = DiurnalBasis(BINS_PER_DAY * 7)
        assert basis.waveforms.shape == (3, BINS_PER_DAY * 7)

    def test_daily_periodicity(self):
        basis = DiurnalBasis(BINS_PER_DAY * 2)
        daily = basis.waveforms[0]
        assert np.allclose(daily[:BINS_PER_DAY], daily[BINS_PER_DAY:])

    def test_weekend_dip(self):
        basis = DiurnalBasis(BINS_PER_DAY * 7)
        weekly = basis.waveforms[1]
        assert weekly[0] > weekly[-1]  # Monday above Sunday

    def test_mix_validation(self):
        basis = DiurnalBasis(10)
        with pytest.raises(ValueError):
            basis.mix(np.ones(2))

    def test_mix_combination(self):
        basis = DiurnalBasis(10)
        mixed = basis.mix(np.array([0.0, 0.0, 2.0]))
        assert np.allclose(mixed, 2.0)


class TestDiurnalModel:
    def test_rates_positive_and_centered(self):
        basis = DiurnalBasis(BINS_PER_DAY * 7)
        model = DiurnalModel(
            mean_pps=100.0, basis=basis, weights=np.array([1.0, 0.5, 1.0])
        )
        rates = model.rates(np.random.default_rng(0))
        assert np.all(rates > 0)
        assert rates.mean() == pytest.approx(100.0, rel=0.15)


class TestGravity:
    def test_masses_mean_one(self):
        masses = pop_masses(50, np.random.default_rng(0))
        assert masses.mean() == pytest.approx(1.0)

    def test_gravity_matrix_mean_one(self):
        rng = np.random.default_rng(0)
        G = gravity_matrix(pop_masses(10, rng), pop_masses(10, rng))
        assert G.mean() == pytest.approx(1.0)

    def test_gravity_rank_one(self):
        rng = np.random.default_rng(1)
        G = gravity_matrix(pop_masses(6, rng), pop_masses(6, rng))
        assert np.linalg.matrix_rank(G) == 1

    def test_od_mean_rates_shape_and_mean(self):
        rates = od_mean_rates(abilene(), 2068.0, np.random.default_rng(0))
        assert rates.shape == (121,)
        assert rates.mean() == pytest.approx(2068.0, rel=0.3)

    def test_od_rates_floor(self):
        rates = od_mean_rates(
            abilene(), 1000.0, np.random.default_rng(2), floor_fraction=0.05
        )
        assert rates.min() >= 50.0

    def test_negative_masses_rejected(self):
        with pytest.raises(ValueError):
            gravity_matrix(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
