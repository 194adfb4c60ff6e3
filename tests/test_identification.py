"""Tests for multi-attribute OD-flow identification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.identification import (
    IdentifiedFlow,
    identify_flows,
    od_gram_pinv,
    theta_columns,
)
from repro.core.online import OnlineMultiwayDetector
from repro.flows.features import N_FEATURES


def _setup(p=10, m=3, seed=0):
    """Random orthonormal normal basis over 4p dims."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(N_FEATURES * p, m))
    Q, _ = np.linalg.qr(A)
    return Q


class TestThetaColumns:
    def test_layout(self):
        cols = theta_columns(2, 5)
        assert list(cols) == [2, 7, 12, 17]

    def test_bounds(self):
        with pytest.raises(ValueError):
            theta_columns(5, 5)
        with pytest.raises(ValueError):
            theta_columns(-1, 5)


class TestIdentifyFlows:
    def test_recovers_single_flow_displacement(self):
        p, m = 10, 3
        P = _setup(p, m)
        f_true = np.array([1.0, -0.5, 2.0, -1.5])
        h = np.zeros(N_FEATURES * p)
        h[theta_columns(4, p)] = f_true
        flows = identify_flows(h, P, p, threshold=1e-6)
        assert flows and flows[0].od == 4
        # The residual-projected displacement should reproduce the
        # injected change up to the component lost to the normal subspace.
        assert np.allclose(flows[0].displacement, f_true, atol=0.5)

    def test_ranking_prefers_stronger_flow(self):
        p = 8
        P = _setup(p, 2, seed=1)
        h = np.zeros(N_FEATURES * p)
        h[theta_columns(2, p)] = [3.0, 3.0, 3.0, 3.0]
        h[theta_columns(6, p)] = [0.3, 0.3, 0.3, 0.3]
        flows = identify_flows(h, P, p, threshold=1e-9, max_flows=2)
        assert flows[0].od == 2

    def test_recursion_finds_both_flows(self):
        p = 8
        P = _setup(p, 2, seed=2)
        h = np.zeros(N_FEATURES * p)
        h[theta_columns(1, p)] = [2.0, -2.0, 1.0, -1.0]
        h[theta_columns(5, p)] = [-1.5, 1.5, -1.0, 1.0]
        flows = identify_flows(h, P, p, threshold=1e-9, max_flows=4)
        assert {f.od for f in flows} >= {1, 5}

    def test_below_threshold_returns_empty(self):
        p = 6
        P = _setup(p, 2, seed=3)
        h = 1e-6 * np.ones(N_FEATURES * p)
        flows = identify_flows(h, P, p, threshold=10.0)
        assert flows == []

    def test_residual_spe_decreases_monotonically(self):
        p = 8
        P = _setup(p, 2, seed=4)
        rng = np.random.default_rng(0)
        h = rng.normal(size=N_FEATURES * p)
        flows = identify_flows(h, P, p, threshold=1e-12, max_flows=5)
        spes = [f.residual_spe for f in flows]
        assert all(a >= b - 1e-9 for a, b in zip(spes, spes[1:]))

    def test_max_flows_cap(self):
        p = 8
        P = _setup(p, 2, seed=5)
        rng = np.random.default_rng(1)
        h = rng.normal(size=N_FEATURES * p)
        flows = identify_flows(h, P, p, threshold=0.0, max_flows=3)
        assert len(flows) <= 3

    def test_candidate_restriction(self):
        p = 8
        P = _setup(p, 2, seed=6)
        h = np.zeros(N_FEATURES * p)
        h[theta_columns(3, p)] = [2.0, 2.0, 2.0, 2.0]
        flows = identify_flows(
            h, P, p, threshold=1e-9, candidates=np.array([0, 1, 2])
        )
        assert all(f.od in (0, 1, 2) for f in flows)

    def test_wrong_length_rejected(self):
        P = _setup(5, 2)
        with pytest.raises(ValueError):
            identify_flows(np.ones(7), P, 5, threshold=0.1)

    def test_out_of_range_candidate_rejected(self):
        P = _setup(5, 2)
        with pytest.raises(ValueError):
            identify_flows(np.ones(20), P, 5, threshold=0.1, candidates=[0, 5])

    def test_shared_cache_gives_same_result(self, monkeypatch):
        """The ``(p, 4, 4)`` blocks are built once per fit, shared by
        every alarm against that fit, and rebuilt after a refit — and
        an alarm scored with them identifies exactly what a fresh
        build would."""
        import repro.core.online as online

        builds = []

        def counting(normal_basis, n_od_flows):
            builds.append(od_gram_pinv(normal_basis, n_od_flows))
            return builds[-1]

        monkeypatch.setattr(online, "od_gram_pinv", counting)
        passed = []

        def recording(*args, **kwargs):
            passed.append(kwargs["gram_pinv"])
            fresh = identify_flows(*args, **{**kwargs, "gram_pinv": None})
            shared = identify_flows(*args, **kwargs)
            assert [f.od for f in shared] == [f.od for f in fresh]
            for a, b in zip(shared, fresh):
                np.testing.assert_allclose(a.displacement, b.displacement, rtol=1e-12)
            return shared

        monkeypatch.setattr(online, "identify_flows", recording)
        full = _drifting_tensor(t=308)
        history, stream = full[:300], full[300:]
        det = OnlineMultiwayDetector(
            window=200, n_components=3, refit_every=4, drift_reset_after=0
        )
        det.warm_up(history)
        assert len(builds) == 1

        def spike(obs, od):
            obs = obs.copy()
            obs[od] += 1.5
            return obs

        # Three alarms, no refit between them (alarms never enter the buffer).
        for i, od in enumerate((2, 5, 2)):
            assert det.observe(spike(stream[i], od)) is not None
        assert len(builds) == 1
        assert all(g is builds[0] for g in passed)
        # Four clean bins refit; the next alarm uses the new blocks.
        for obs in stream[3:7]:
            assert det.observe(obs) is None
        assert len(builds) == 2
        assert det.observe(spike(stream[7], 6)).flows[0].od == 6
        assert passed[-1] is builds[1]
        np.testing.assert_array_equal(
            builds[1], od_gram_pinv(det._detector.model.normal_basis, 8)
        )


def _drifting_tensor(t, p=8, seed=0):
    """A smooth low-rank entropy tensor ``(t, p, 4)`` with small noise."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(4, 7, size=(p, N_FEATURES))
    daily = np.sin(2 * np.pi * np.arange(t) / 288)[:, None, None]
    gains = rng.uniform(0.2, 0.5, size=(p, N_FEATURES))
    return base[None] + daily * gains[None] + 0.01 * rng.normal(size=(t, p, N_FEATURES))


def _loop_reference(h_centered, normal_basis, n_od_flows, threshold,
                    max_flows=5, candidates=None):
    """The per-OD loop the batched solve replaced, kept verbatim as the
    reference (only its cross-call ``cache`` argument is dropped)."""
    h = np.asarray(h_centered, dtype=np.float64)
    P = np.asarray(normal_basis, dtype=np.float64)
    if candidates is None:
        candidates = np.arange(n_od_flows)

    def project_residual(x):
        return x - P @ (P.T @ x)

    def best_fit(h_res, C_theta, gram_pinv):
        ath = C_theta.T @ h_res
        f = gram_pinv @ ath
        remaining = float(h_res @ h_res) - float(f @ ath)
        return f, max(remaining, 0.0)

    identified = []
    current = h.copy()
    h_res = project_residual(current)
    spe = float(h_res @ h_res)
    cache = {}
    used = set()
    while spe > threshold and len(identified) < max_flows:
        best_od = -1
        best = None
        for od in candidates:
            od = int(od)
            if od in used:
                continue
            entry = cache.get(od)
            if entry is None:
                cols = theta_columns(od, n_od_flows)
                C_theta = -(P @ P[cols].T)
                C_theta[cols, np.arange(N_FEATURES)] += 1.0
                entry = (C_theta, np.linalg.pinv(C_theta.T @ C_theta))
                cache[od] = entry
            fit = best_fit(h_res, entry[0], entry[1])
            if best is None or fit[1] < best[1]:
                best = fit
                best_od = od
        if best_od < 0 or best is None:
            break
        f_k, remaining_spe = best
        if remaining_spe >= spe - 1e-15:
            break
        identified.append(
            IdentifiedFlow(od=best_od, displacement=f_k.copy(), residual_spe=remaining_spe)
        )
        used.add(best_od)
        cols = theta_columns(best_od, n_od_flows)
        current = current.copy()
        current[cols] -= f_k
        h_res = project_residual(current)
        spe = float(h_res @ h_res)
    return identified


@st.composite
def _identification_case(draw):
    """A random orthonormal basis with 1-3 planted flows plus noise.

    ``m`` stops at ``4p - 5``: with four or fewer residual dimensions
    every OD's four columns span the whole residual space, so every
    candidate explains all of it and the argmin is a tie between
    rounding errors — no order of operations can make that well posed.
    """
    p = draw(st.integers(2, 40))
    m = draw(st.integers(1, min(12, 4 * p - 5)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    P, _ = np.linalg.qr(rng.normal(size=(N_FEATURES * p, m)))
    planted = rng.choice(p, size=draw(st.integers(1, min(3, p))), replace=False)
    h = 0.05 * rng.normal(size=N_FEATURES * p)
    for od in planted:
        h[theta_columns(int(od), p)] += rng.normal(0.0, 2.0, size=N_FEATURES)
    candidates = None
    if draw(st.booleans()):
        size = draw(st.integers(1, p))
        candidates = rng.permutation(p)[:size]
    return {
        "h": h,
        "P": P,
        "p": p,
        "threshold": draw(st.sampled_from([0.0, 1e-6, 0.1, 1.0])),
        "max_flows": draw(st.integers(1, 5)),
        "candidates": candidates,
    }


def _assert_same_flows(got, want):
    assert [f.od for f in got] == [f.od for f in want]
    for a, b in zip(got, want):
        scale = max(1.0, float(np.abs(b.displacement).max()))
        np.testing.assert_allclose(a.displacement, b.displacement, rtol=1e-9, atol=1e-9 * scale)
        assert a.residual_spe == pytest.approx(b.residual_spe, rel=1e-9, abs=1e-12)


class TestBatchedSolve:
    @settings(max_examples=150, deadline=None)
    @given(case=_identification_case())
    def test_matches_per_od_loop(self, case):
        args = (case["h"], case["P"], case["p"], case["threshold"])
        kwargs = {"max_flows": case["max_flows"], "candidates": case["candidates"]}
        _assert_same_flows(identify_flows(*args, **kwargs), _loop_reference(*args, **kwargs))

    @settings(max_examples=100, deadline=None)
    @given(case=_identification_case(), perm_seed=st.integers(0, 2**32 - 1))
    def test_od_relabelling_permutes_identified_flows(self, case, perm_seed):
        """Permuting the p OD blocks of P's rows and of h by pi maps
        every identified OD through pi and leaves its SPE unchanged."""
        p, P, h = case["p"], case["P"], case["h"]
        pi = np.random.default_rng(perm_seed).permutation(p)
        # New OD pi[k] holds old OD k's four coordinates.
        rows = np.empty(N_FEATURES * p, dtype=np.intp)
        for k in range(p):
            rows[theta_columns(int(pi[k]), p)] = theta_columns(k, p)
        before = identify_flows(h, P, p, case["threshold"], max_flows=case["max_flows"])
        after = identify_flows(h[rows], P[rows], p, case["threshold"], max_flows=case["max_flows"])
        assert [f.od for f in after] == [int(pi[f.od]) for f in before]
        for a, b in zip(after, before):
            assert a.residual_spe == pytest.approx(b.residual_spe, rel=1e-9, abs=1e-12)
            np.testing.assert_allclose(a.displacement, b.displacement, rtol=1e-9, atol=1e-9)

    def test_gram_blocks_match_per_od_normal_equations(self):
        p = 6
        P = _setup(p, 4, seed=9)
        blocks = od_gram_pinv(P, p)
        assert blocks.shape == (p, N_FEATURES, N_FEATURES)
        for od in range(p):
            cols = theta_columns(od, p)
            C_theta = -(P @ P[cols].T)
            C_theta[cols, np.arange(N_FEATURES)] += 1.0
            np.testing.assert_allclose(
                blocks[od], np.linalg.pinv(C_theta.T @ C_theta), atol=1e-12
            )
