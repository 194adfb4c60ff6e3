"""Tests for the PCA subspace method and Q-statistic."""

from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core.subspace import (
    DetectionResult,
    PCAModel,
    SubspaceDetector,
    SubspaceModel,
    q_threshold,
)


def _low_rank_data(t=300, p=20, rank=3, noise=0.01, seed=0):
    """t x p data: `rank` shared factors + small iid noise."""
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(t, rank))
    loadings = rng.normal(size=(rank, p))
    return factors @ loadings + noise * rng.normal(size=(t, p))


class TestPCAModel:
    def test_eigenvalues_descending(self):
        pca = PCAModel.fit(_low_rank_data())
        assert np.all(np.diff(pca.eigenvalues) <= 1e-9)

    def test_components_orthonormal(self):
        pca = PCAModel.fit(_low_rank_data())
        gram = pca.components.T @ pca.components
        assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-8)

    def test_total_variance_matches_data(self):
        X = _low_rank_data()
        pca = PCAModel.fit(X)
        total = ((X - X.mean(axis=0)) ** 2).sum() / (X.shape[0] - 1)
        assert pca.eigenvalues.sum() == pytest.approx(total, rel=1e-8)

    def test_low_rank_structure_recovered(self):
        pca = PCAModel.fit(_low_rank_data(rank=3, noise=1e-4))
        assert pca.variance_captured(3) > 0.999

    def test_knee(self):
        pca = PCAModel.fit(_low_rank_data(rank=3, noise=1e-4))
        assert pca.knee(0.85) <= 3

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            PCAModel.fit(np.ones(5))
        with pytest.raises(ValueError):
            PCAModel.fit(np.ones((1, 5)))


class TestQThreshold:
    def test_threshold_increases_with_alpha(self):
        lam = np.array([1.0, 0.5, 0.1])
        assert q_threshold(lam, 0.999) > q_threshold(lam, 0.99) > q_threshold(lam, 0.9)

    def test_scales_with_eigenvalues(self):
        lam = np.array([1.0, 0.5, 0.1])
        assert q_threshold(10 * lam, 0.99) == pytest.approx(10 * q_threshold(lam, 0.99))

    def test_zero_spectrum_gives_zero(self):
        assert q_threshold(np.zeros(3), 0.99) == 0.0

    def test_tiny_spectrum_stays_finite(self):
        # Regression: denormal-scale eigenvalues used to underflow the
        # phi moments and return NaN, silently disabling detection.
        tiny = q_threshold(np.array([1e-120, 1e-121]), 0.999)
        assert np.isfinite(tiny) and tiny > 0
        scaled = q_threshold(np.array([1.0, 0.1]), 0.999)
        assert tiny == pytest.approx(1e-120 * scaled, rel=1e-9)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            q_threshold(np.array([1.0]), 1.5)

    @pytest.mark.parametrize("alpha", [0.99, 0.999])
    @pytest.mark.parametrize("k", [5, 10, 40])
    def test_flat_spectrum_is_the_chi_square_quantile(self, k, alpha):
        # k unit eigenvalues: Q is chi-square with k degrees of freedom,
        # and Jackson-Mudholkar lands within 1.2 % of its exact quantile.
        want = stats.chi2.ppf(alpha, k)
        assert q_threshold(np.ones(k), alpha) == pytest.approx(want, rel=0.05)

    @pytest.mark.parametrize("alpha", [0.99, 0.999])
    def test_wishart_residual_spectrum_matches_monte_carlo(self, alpha):
        # The residual spectrum of a 48-bin x 484-OD window of white
        # noise past m = 6 components; Q = sum(lambda_i z_i^2) exactly.
        lam = PCAModel.fit(np.random.default_rng(5).normal(size=(48, 484))).eigenvalues
        lam = lam[6:][lam[6:] > 0]
        z = np.random.default_rng(7).standard_normal((200_000, lam.size))
        want = np.quantile((z ** 2) @ lam, alpha)
        assert q_threshold(lam, alpha) == pytest.approx(want, rel=0.05)

    def test_c_alpha_is_the_normal_quantile(self):
        # c_alpha comes from the stdlib (Wichura AS241): scipy's value
        # exactly at the default alpha, and within 4 ulps elsewhere.
        assert NormalDist().inv_cdf(0.999) == stats.norm.ppf(0.999)
        for alpha in np.linspace(0.5, 1.0, 202)[1:-1]:
            ours = np.float64(NormalDist().inv_cdf(alpha))
            theirs = np.float64(stats.norm.ppf(alpha))
            assert abs(int(ours.view(np.int64)) - int(theirs.view(np.int64))) <= 4, alpha

    def test_controls_false_alarm_rate_on_gaussian_noise(self):
        # On pure Gaussian residuals, crossing rate at alpha should be
        # approximately 1-alpha.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20_000, 10))
        model = SubspaceModel.fit(X, n_components=2)
        spe = model.spe(X)
        thr = model.threshold(0.99)
        rate = (spe > thr).mean()
        assert 0.002 < rate < 0.05


class TestSubspaceModel:
    def test_residual_orthogonal_to_normal_basis(self):
        X = _low_rank_data()
        model = SubspaceModel.fit(X, n_components=3)
        res = model.residual(X)
        proj = res @ model.normal_basis
        assert np.allclose(proj, 0.0, atol=1e-8)

    def test_decomposition_reconstructs(self):
        X = _low_rank_data()
        model = SubspaceModel.fit(X, n_components=3)
        centered = X - model.pca.mean
        P = model.normal_basis
        normal_part = (centered @ P) @ P.T
        assert np.allclose(normal_part + model.residual(X), centered, atol=1e-8)

    def test_spe_is_residual_norm(self):
        X = _low_rank_data()
        model = SubspaceModel.fit(X, n_components=2)
        res = model.residual(X)
        assert np.allclose(model.spe(X), (res ** 2).sum(axis=1))

    def test_variance_threshold_selection(self):
        X = _low_rank_data(rank=3, noise=1e-4)
        model = SubspaceModel.fit(X, variance_threshold=0.85)
        assert 1 <= model.n_components <= 3

    def test_single_vector_scoring(self):
        X = _low_rank_data()
        model = SubspaceModel.fit(X, n_components=3)
        one = model.spe(X[5])
        assert one.shape == (1,)
        assert one[0] == pytest.approx(model.spe(X)[5])

    def test_invalid_n_components(self):
        X = _low_rank_data()
        with pytest.raises(ValueError):
            SubspaceModel(pca=PCAModel.fit(X), n_components=0)


class TestSubspaceDetector:
    def test_detects_injected_spike(self):
        X = _low_rank_data(noise=0.01)
        dirty = X.copy()
        dirty[100, 7] += 5.0
        det = SubspaceDetector(n_components=3, alpha=0.999)
        result = det.fit(X).detect(dirty)
        assert 100 in result.anomalous_bins

    def test_clean_low_noise_data_has_few_detections(self):
        X = _low_rank_data(noise=0.01, t=1000)
        result = SubspaceDetector(n_components=3).fit_detect(X)
        assert result.n_detections <= 10

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            SubspaceDetector().detect(np.ones((5, 5)))

    def test_detection_result_helpers(self):
        result = DetectionResult(
            spe=np.array([0.1, 5.0, 0.2]),
            threshold=1.0,
            alpha=0.999,
            residuals=np.zeros((3, 4)),
        )
        assert list(result.anomalous_bins) == [1]
        assert result.n_detections == 1
        assert result.is_anomalous(1) and not result.is_anomalous(0)

    @given(st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_alpha_monotonicity(self, rank):
        X = _low_rank_data(rank=rank, noise=0.05, seed=rank)
        det = SubspaceDetector(n_components=rank).fit(X)
        strict = det.detect(X, alpha=0.9999)
        loose = det.detect(X, alpha=0.99)
        assert strict.n_detections <= loose.n_detections
