"""Tests for the online extensions (streaming detector, incremental classifier)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import subspace
from repro.core.online import (
    OnlineClassifier,
    OnlineMultiwayDetector,
    OnlineVolumeDetector,
)
from repro.core.subspace import SubspaceModel
from repro.flows.features import N_FEATURES
from repro.pipeline.bank import DetectorBank
from repro.stream.engine import StreamConfig
from repro.stream.window import BinSummary

#: Finite inputs spanning zeros of both signs, negatives and subnormals,
#: bounded so that no intermediate overflows.
_FILTER_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308]),
    st.floats(-1e6, 1e6, allow_subnormal=True),
)


def _tensor(t=600, p=10, noise=0.01, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(4, 7, size=(p, N_FEATURES))
    daily = np.sin(2 * np.pi * np.arange(t) / 288)[:, None, None]
    gains = rng.uniform(0.2, 0.5, size=(p, N_FEATURES))
    return base[None] + daily * gains[None] + noise * rng.normal(size=(t, p, N_FEATURES))


class TestOnlineMultiwayDetector:
    def test_requires_warm_up(self):
        det = OnlineMultiwayDetector(window=100)
        with pytest.raises(RuntimeError):
            det.observe(np.zeros((10, N_FEATURES)))

    def test_clean_stream_rarely_fires(self):
        full = _tensor(t=600)  # one process; first 500 bins warm up
        history, future = full[:500], full[500:]
        det = OnlineMultiwayDetector(window=400, n_components=5, refit_every=0)
        det.warm_up(history)
        hits = sum(det.observe(obs) is not None for obs in future)
        assert hits <= 5

    def test_detects_anomalous_bin(self):
        history = _tensor(t=500)
        det = OnlineMultiwayDetector(window=400, n_components=5)
        det.warm_up(history)
        obs = history[-1].copy()
        obs[4, 2] += 2.0
        obs[4, 3] -= 1.5
        hit = det.observe(obs)
        assert hit is not None
        assert hit.flows and hit.flows[0].od == 4

    def test_bin_counter_advances(self):
        history = _tensor(t=200)
        det = OnlineMultiwayDetector(window=100, n_components=3)
        det.warm_up(history)
        first = det.observe(history[-1])
        second = det.observe(history[-2])
        # Clean observations return None but the counter still advances;
        # force detections to read the counter.
        obs = history[-1].copy()
        obs[0] += 3.0
        hit = det.observe(obs)
        assert hit is not None
        assert hit.bin == 202

    def test_shape_mismatch_rejected(self):
        det = OnlineMultiwayDetector(window=100, n_components=3)
        det.warm_up(_tensor(t=200))
        with pytest.raises(ValueError):
            det.observe(np.zeros((3, N_FEATURES)))

    def test_periodic_refit_keeps_working(self):
        history = _tensor(t=300)
        det = OnlineMultiwayDetector(window=200, n_components=4, refit_every=20)
        det.warm_up(history)
        stream = _tensor(t=60, seed=2)
        for obs in stream:
            det.observe(obs)
        assert det.is_warm

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            OnlineMultiwayDetector(window=2)


class TestKnobRanges:
    """Out-of-range knobs used to be accepted silently: ``SubspaceModel``
    clamped m to 1, a negative ``refit_every`` refitted after every
    clean bin, and a negative ``drift_reset_after`` absorbed every
    detected bin into the normal buffer."""

    @pytest.mark.parametrize("cls", [OnlineMultiwayDetector, OnlineVolumeDetector])
    @pytest.mark.parametrize("knob, value", [
        ("n_components", 0),
        ("n_components", -4),
        ("refit_every", -1),
        ("drift_reset_after", -1),
    ])
    def test_out_of_range_knob_is_refused(self, cls, knob, value):
        with pytest.raises(ValueError, match=f"{knob} must be >= "):
            cls(**{knob: value})

    @pytest.mark.parametrize("cls", [OnlineMultiwayDetector, OnlineVolumeDetector])
    def test_boundary_values_are_accepted(self, cls):
        cls(n_components=None, refit_every=0, drift_reset_after=0)
        cls(n_components=1)


class TestWarmUpLeavesAResidual:
    """A warm-up too short for ``n_components`` used to be accepted: the
    normal basis filled the centred span, Q_alpha fell to ~1e-31 and
    every following bin alarmed.  Both detectors now refuse it."""

    @staticmethod
    def _history(*shape):
        """Random history of ``shape``: ``(t, p, k)`` entropy, ``(t, p)`` volume."""
        return np.random.default_rng(shape[0]).normal(size=shape)

    @pytest.mark.parametrize("t", [8, 10, 11])
    def test_multiway_refuses_a_history_without_residual(self, t):
        det = OnlineMultiwayDetector(window=2016, n_components=10)
        with pytest.raises(ValueError, match=f"{t} rows.*n_components \\+ 2 = 12"):
            det.warm_up(self._history(t, 121, N_FEATURES))
        assert not det.is_warm

    def test_multiway_counts_the_window_not_the_history(self):
        det = OnlineMultiwayDetector(window=11, n_components=10)
        with pytest.raises(ValueError, match="11 rows"):
            det.warm_up(self._history(40, 121, N_FEATURES))

    def test_multiway_accepts_the_smallest_fitting_history(self):
        # One residual dimension: Q_alpha is a real threshold again.
        det = OnlineMultiwayDetector(window=2016, n_components=10)
        det.warm_up(self._history(12, 121, N_FEATURES))
        assert det.threshold > 1e-6

    def test_without_fixed_components_the_guard_is_exempt(self):
        # No fixed dimension to check; the fit itself asks for one.
        for det, shape in ((OnlineMultiwayDetector(n_components=None), (8, 121, N_FEATURES)),
                           (OnlineVolumeDetector(n_components=None), (8, 121))):
            with pytest.raises(ValueError, match="specify n_components"):
                det.warm_up(self._history(*shape))

    @pytest.mark.parametrize("detrend, t", [("none", 11), ("holt", 12)])
    def test_volume_refuses_a_buffer_without_residual(self, detrend, t):
        # Holt residuals drop the first row: t history rows fit t - 1.
        det = OnlineVolumeDetector(n_components=10, detrend=detrend)
        with pytest.raises(ValueError, match="11 rows.*= 12"):
            det.warm_up(self._history(t, 121))
        assert not det.is_warm

    @pytest.mark.parametrize("detrend, t", [("none", 12), ("holt", 13)])
    def test_volume_accepts_the_smallest_fitting_buffer(self, detrend, t):
        det = OnlineVolumeDetector(n_components=10, detrend=detrend)
        det.warm_up(self._history(t, 121))
        assert det.threshold > 1e-6


class TestThresholdOncePerFit:
    """Q_alpha depends only on the fitted model and alpha, so a scored
    stream evaluates it once per fitted model — never per bin — and a
    refit's new model gets its own."""

    @staticmethod
    def _summaries(t=60, p=10, seed=3):
        rng = np.random.default_rng(seed)
        entropy = _tensor(t=t, p=p, seed=seed)
        packets = rng.uniform(1e4, 2e4, size=(t, p))
        return [
            BinSummary(bin=b, entropy=entropy[b], packets=packets[b],
                       bytes=40 * packets[b], n_records=100)
            for b in range(t)
        ]

    @staticmethod
    def _bank(**overrides):
        return DetectorBank(
            StreamConfig(warmup_bins=40, n_components=4, exact_histograms=True, **overrides)
        )

    def test_evaluated_once_per_fitted_model(self, monkeypatch):
        calls, fits = [], []
        real_q = subspace.q_threshold
        real_fit = SubspaceModel.fit.__func__

        def counting_q(lam, alpha):
            calls.append(alpha)
            return real_q(lam, alpha)

        def counting_fit(cls, *args, **kwargs):
            fits.append(1)
            return real_fit(cls, *args, **kwargs)

        monkeypatch.setattr(subspace, "q_threshold", counting_q)
        monkeypatch.setattr(SubspaceModel, "fit", classmethod(counting_fit))
        bank = self._bank(refit_every=0, drift_reset_after=0)
        verdicts = [bank.observe(s) for s in self._summaries()]
        assert sum(v is not None for v in verdicts) == 20
        assert len(fits) == 3  # entropy + packets + bytes, fitted once
        assert len(calls) == len(fits)

    def test_verdict_threshold_follows_the_current_model(self):
        bank = self._bank(refit_every=4, calibration_margin=0.0)
        entropy = bank.entropy
        models = set()
        for summary in self._summaries():
            model = entropy._detector.model
            verdict = bank.observe(summary)
            if verdict is None:
                continue
            models.add(id(model))
            assert verdict.threshold == subspace.q_threshold(
                model.residual_eigenvalues, entropy.alpha
            )
        assert len(models) >= 3  # refits happened while scoring


class TestOnlineClassifier:
    def test_assign_to_nearest(self):
        centroids = np.array(
            [[1.0, 0, 0, 0], [0, 1.0, 0, 0]]
        )
        clf = OnlineClassifier(centroids, spawn_distance=0.8)
        assert clf.assign(np.array([0.95, 0.05, 0, 0])) == 0
        assert clf.assign(np.array([0.05, 0.9, 0, 0])) == 1

    def test_spawn_new_cluster(self):
        centroids = np.array([[1.0, 0, 0, 0]])
        clf = OnlineClassifier(centroids, spawn_distance=0.5)
        new = clf.assign(np.array([0, 0, 0, 1.0]))
        assert new == 1
        assert clf.n_clusters == 2

    def test_running_mean_update(self):
        clf = OnlineClassifier(np.array([[1.0, 0, 0, 0]]), spawn_distance=2.0)
        clf.assign(np.array([0.0, 1.0, 0, 0]))
        # centroid moved halfway toward the new point
        assert np.allclose(clf.centroids[0], [0.5, 0.5, 0, 0])

    def test_update_false_freezes_centroids(self):
        clf = OnlineClassifier(np.array([[1.0, 0, 0, 0]]), spawn_distance=2.0)
        before = clf.centroids.copy()
        clf.assign(np.array([0.0, 1.0, 0, 0]), update=False)
        assert np.array_equal(clf.centroids, before)

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            OnlineClassifier(np.ones((2, 3)))
        clf = OnlineClassifier(np.ones((1, 4)))
        with pytest.raises(ValueError):
            clf.assign(np.ones(3))


class TestBatchedHoltWarmup:
    """The batched warm-up recurrence must match the step loop, and
    equal ``scipy.signal.lfilter``'s second-order filter bit for bit."""

    @staticmethod
    def _loop_reference(detector, rows):
        """The original per-row Holt recurrence (unwinsorized warm-up)."""
        level = rows[0].copy()
        trend = np.zeros_like(level)
        residuals = []
        for row in rows[1:]:
            prediction = level + trend
            residual = row - prediction
            effective = prediction + residual
            new_level = (
                detector.holt_level * effective
                + (1 - detector.holt_level) * prediction
            )
            trend = (
                detector.holt_trend * (new_level - level)
                + (1 - detector.holt_trend) * trend
            )
            level = new_level
            residuals.append(residual)
        return np.vstack(residuals), level, trend

    @pytest.mark.parametrize("t,p", [(8, 2), (50, 7), (288, 121)])
    def test_matches_step_recurrence(self, t, p):
        from repro.core.online import OnlineVolumeDetector

        rng = np.random.default_rng(t * p)
        rows = np.abs(rng.normal(1000.0, 250.0, size=(t, p)))
        detector = OnlineVolumeDetector(
            window=min(t, 48), transform="sqrt", detrend="holt",
            n_components=2, refit_every=0,
        )
        transformed = detector._transform(rows)
        want_res, want_level, want_trend = self._loop_reference(
            detector, transformed
        )
        got = detector._holt_batch(transformed)
        np.testing.assert_allclose(got, want_res, rtol=1e-9, atol=1e-8)
        np.testing.assert_allclose(detector._level, want_level, atol=1e-8)
        np.testing.assert_allclose(detector._trend, want_trend, atol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(2, 40), st.integers(1, 9)),
        gains=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
        data=st.data(),
    )
    def test_recurrence_is_lfilter_bit_for_bit(self, shape, gains, data):
        from scipy.signal import lfilter

        from repro.core.online import OnlineVolumeDetector

        rows = data.draw(arrays(np.float64, shape, elements=_FILTER_FLOATS))
        detector = OnlineVolumeDetector(window=8, detrend="holt", n_components=1)
        detector.holt_level, detector.holt_trend = a, b = gains
        x0 = rows[0]
        fed = np.vstack([rows[1:], np.zeros_like(x0)[None, :]])
        want, _ = lfilter([1.0, -2.0, 1.0], [1.0, -(2.0 - a - a * b), 1.0 - a],
                          fed, axis=0, zi=np.stack([-x0, x0]))
        got = detector._holt_batch(rows)
        np.testing.assert_array_equal(got.view(np.int64), want[:-1].view(np.int64))

    def test_observe_continues_from_batch_state(self):
        """Scoring after warm-up must behave as if the loop had run."""
        from repro.core.online import OnlineVolumeDetector

        rng = np.random.default_rng(11)
        history = np.abs(rng.normal(500.0, 60.0, size=(64, 9)))
        detector = OnlineVolumeDetector(
            window=32, transform="sqrt", detrend="holt",
            n_components=3, refit_every=0,
        )
        detector.warm_up(history)
        # A clean continuation row scores clean; a 50x spike detects.
        clean = history[-1]
        detected, spe = detector.observe(clean)
        assert not detected and spe >= 0.0
        spiked = clean.copy()
        spiked[4] *= 50.0
        detected, spe = detector.observe(spiked)
        assert detected and spe > detector.threshold


class TestVectorizedCentroidDistances:
    def test_assignments_match_scalar_norms(self):
        rng = np.random.default_rng(2)
        centroids = rng.normal(size=(6, N_FEATURES))
        for _ in range(50):
            v = rng.normal(size=N_FEATURES)
            clf = OnlineClassifier(centroids, spawn_distance=1.0)
            got = clf.assign(v, update=False)
            dists = [float(np.linalg.norm(v - c)) for c in centroids]
            best = int(np.argmin(dists))
            want = best if dists[best] <= 1.0 else clf.n_clusters - 1
            assert got == want
