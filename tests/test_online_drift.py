"""Tests for the online detector's concept-drift handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.online import (
    OnlineMultiwayDetector,
    OnlineVolumeDetector,
    _SlidingSubspace,
)
from repro.flows.features import N_FEATURES


def _tensor(t, p=8, noise=0.01, offset=0.0, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(4, 7, size=(p, N_FEATURES))
    daily = np.sin(2 * np.pi * np.arange(t) / 288)[:, None, None]
    gains = rng.uniform(0.2, 0.5, size=(p, N_FEATURES))
    return (
        base[None]
        + offset
        + daily * gains[None]
        + noise * rng.normal(size=(t, p, N_FEATURES))
    )


class TestDriftAbsorption:
    def test_level_shift_recovers_after_reset(self):
        """A permanent level shift must not flag forever."""
        history = _tensor(400)
        det = OnlineMultiwayDetector(
            window=300, n_components=4, refit_every=0, drift_reset_after=10
        )
        det.warm_up(history)
        shifted = _tensor(120, offset=1.5, seed=2)
        hits = [det.observe(obs) is not None for obs in shifted]
        # Early bins flag (the shift is anomalous)...
        assert any(hits[:15])
        # ...but the detector absorbs the new regime and calms down.
        assert sum(hits[-40:]) < 20

    def test_without_reset_lockup_persists(self):
        history = _tensor(400)
        det = OnlineMultiwayDetector(
            window=300, n_components=4, refit_every=0, drift_reset_after=0
        )
        det.warm_up(history)
        shifted = _tensor(80, offset=1.5, seed=2)
        hits = [det.observe(obs) is not None for obs in shifted]
        # No drift handling: the lockup never clears.
        assert sum(hits) > 70

    def test_consecutive_counter_resets_on_clean_bin(self):
        history = _tensor(400)
        det = OnlineMultiwayDetector(
            window=300, n_components=4, refit_every=0, drift_reset_after=5
        )
        det.warm_up(history)
        clean = history[-4:]  # same process as the warm-up data
        spike = clean[0].copy()
        spike[2] += 3.0
        # Alternate spikes and clean bins: never 5 consecutive, so the
        # model must NOT absorb the spikes.
        for i in range(8):
            det.observe(spike if i % 2 == 0 else clean[i % 4])
        final = det.observe(spike)
        assert final is not None  # spikes still flagged

    def test_isolated_anomaly_not_absorbed(self):
        """One-off anomalies must stay excluded from the buffer."""
        history = _tensor(400)
        det = OnlineMultiwayDetector(
            window=300, n_components=4, refit_every=0, drift_reset_after=10
        )
        det.warm_up(history)
        window_before = det._window_rows()
        spike = history[-1].copy()
        spike[0] += 5.0
        assert det.observe(spike) is not None
        # Buffer unchanged by the anomalous observation.
        assert np.array_equal(det._window_rows(), window_before)


class TestDriftCounter:
    """The consecutive-hit counter, pinned on scripted hit/clean
    sequences in both detectors (``refit_every=0``, so every refit is a
    drift reset).  Each hit spikes a different OD, so an absorbed hit
    does not mask the next one."""

    D = 3  # drift_reset_after

    def _run(self, kind, script):
        """Observe ``script`` ("hit"/"clean" steps); returns what each
        step reported as a hit and the drift resets after each step."""
        rng = np.random.default_rng(5)
        p = 10
        shape = (p, N_FEATURES) if kind == "multiway" else (p,)
        cls = OnlineMultiwayDetector if kind == "multiway" else OnlineVolumeDetector
        det = cls(window=40, n_components=3, refit_every=0, drift_reset_after=self.D)
        det.warm_up(100 + rng.normal(size=(40, *shape)))
        models = [det._model]
        reported, resets = [], []
        for i, step in enumerate(script):
            obs = 100 + rng.normal(size=shape)
            if step == "hit":
                obs[i % p] += 50.0
            verdict = det.observe(obs)
            reported.append(verdict is not None if kind == "multiway" else verdict[0])
            models.append(det._model)
            resets.append(sum(a is not b for a, b in zip(models, models[1:])))
        return reported, resets

    @pytest.mark.parametrize("kind", ["multiway", "volume"])
    def test_2d_minus_1_hits_reset_exactly_once(self, kind):
        script = ["hit"] * (2 * self.D - 1)
        reported, resets = self._run(kind, script)
        assert all(reported)
        # The D-th hit resets; the counter restarts from zero, so the
        # D - 1 hits after it do not reach D again.
        assert resets == [0] * (self.D - 1) + [1] * self.D

    @pytest.mark.parametrize("kind", ["multiway", "volume"])
    def test_a_clean_bin_restarts_the_count(self, kind):
        script = ["hit"] * (self.D - 1) + ["clean"] + ["hit"] * (self.D - 1)
        reported, resets = self._run(kind, script)
        assert reported == [step == "hit" for step in script]
        assert resets == [0] * len(script)


class _FitRecorder(_SlidingSubspace):
    """A sliding subspace whose fits record the rows they are handed."""

    class _Model:
        def threshold(self, alpha):
            return 0.0

    def __init__(self, **kwargs):
        super().__init__(n_components=None, alpha=0.999, **kwargs)
        self.fitted, self.scored = [], []

    def _fit_model(self, buffer):
        self.fitted.append(buffer.copy())
        return self._Model()

    def _spe(self, rows):
        self.scored.append(rows.copy())
        return np.zeros(len(rows))


def _concatenating_fits(history, steps, window, refit_every, drift_reset_after):
    """The rows each fit gets from a window that re-concatenates itself
    on every absorbed bin (the policy of ``_SlidingSubspace._advance``)."""
    buffer = history[-window:].copy()
    fits = [buffer]
    since_refit = hits = 0
    for row, hit in steps:
        if hit:
            hits += 1
            if not drift_reset_after or hits < drift_reset_after:
                continue
        hits = 0
        buffer = np.concatenate([buffer[1:], row[None]], axis=0)
        since_refit += 1
        if hit or (refit_every and since_refit >= refit_every):
            fits.append(buffer)
            since_refit = 0
    return fits


class TestRingBuffer:
    @settings(max_examples=60, deadline=None)
    @given(
        window=st.integers(8, 16),
        history_rows=st.integers(8, 24),
        refit_every=st.integers(0, 5),
        drift_reset_after=st.integers(0, 4),
        hits=st.lists(st.booleans(), max_size=60),
        seed=st.integers(0, 2**16),
    )
    def test_fits_see_the_concatenating_window(
        self, window, history_rows, refit_every, drift_reset_after, hits, seed
    ):
        """Any run of clean bins, hits and drift resets hands every fit
        (and the calibration scoring after it) the same rows, in the same
        order, as a window that concatenates on every absorbed bin."""
        rng = np.random.default_rng(seed)
        history = rng.normal(size=(history_rows, 3))
        steps = [(rng.normal(size=3), hit) for hit in hits]
        det = _FitRecorder(window=window, refit_every=refit_every,
                           drift_reset_after=drift_reset_after,
                           calibration_margin=1.0)
        det._seed(history)
        for row, hit in steps:
            det._advance(row[None], hit)
        want = _concatenating_fits(history, steps, window, refit_every,
                                   drift_reset_after)
        assert len(det.fitted) == len(det.scored) == len(want)
        for got, scored, expected in zip(det.fitted, det.scored, want):
            assert np.array_equal(got, expected)
            assert np.array_equal(scored, expected)
