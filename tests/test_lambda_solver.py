"""Threshold order statistic, smoothed objective derivatives, offline
solver, the online state updates and the implicit gradient."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtopk import lambda_solver
from fairtopk.errors import ConfigurationError, FairTopKError
from fairtopk.lambda_solver import (
    exact_lambda,
    implicit_lambda_grad,
    init_lambda_state,
    smoothed_grad,
    smoothed_hess,
    smoothed_objective,
    solve_lambda_exactly_smoothed,
    state_step,
)
from fairtopk.model import FactorizationScorer
from fairtopk.optimizer import TrainConfig


class TestExactLambda:
    def test_order_statistic(self):
        assert exact_lambda(np.array([5.0, 4.0, 3.0, 2.0, 1.0]), 2) == 3.0

    def test_duplicates(self):
        assert exact_lambda(np.array([7.0, 7.0, 7.0]), 1) == 7.0

    def test_sort_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 40))
            s = rng.normal(0, 3, n)
            k = int(rng.integers(1, n))
            assert exact_lambda(s, k) == np.sort(s)[::-1][k]

    def test_k_too_large(self):
        with pytest.raises(ConfigurationError):
            exact_lambda(np.array([1.0, 2.0]), 2)

    def test_negative_k(self):
        with pytest.raises(ConfigurationError, match="k = -1"):
            exact_lambda(np.array([1.0, 2.0, 3.0]), -1)


class TestSmoothedDerivatives:
    def test_grad_positive_for_large_lambda(self):
        cfg = TrainConfig(tau1=1e-2, tau2=1e-4, eps=0.5, k=2)
        assert smoothed_grad(1e6, np.array([0.0, 1.0, 2.0]), cfg) > 0.0

    def test_symmetric_two_point_root(self):
        # two equal scores, K=1, eps=0.5: sigma(-lam/tau1) = 0.75 at the root,
        # so lam = -tau1 * ln 3 (the tau2 term is negligible at tau2 -> 0)
        cfg = TrainConfig(tau1=5e-2, tau2=1e-12, eps=0.5, k=1)
        root = -cfg.tau1 * np.log(3.0)
        assert smoothed_grad(root, np.zeros(2), cfg) == pytest.approx(0.0, abs=1e-9)

    def test_grad_matches_objective_fd(self, rng):
        cfg = TrainConfig(tau1=3e-2, tau2=1e-3, eps=0.5, k=3)
        for _ in range(30):
            s = rng.normal(0, 2, int(rng.integers(4, 20)))
            lam = float(rng.normal(0, 1))
            h = 1e-6
            fd = (smoothed_objective(lam + h, s, cfg)
                  - smoothed_objective(lam - h, s, cfg)) / (2 * h)
            assert smoothed_grad(lam, s, cfg) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_hess_matches_grad_fd(self, rng):
        cfg = TrainConfig(tau1=3e-2, tau2=1e-3, eps=0.5, k=3)
        for _ in range(30):
            s = rng.normal(0, 2, int(rng.integers(4, 20)))
            lam = float(rng.normal(0, 1))
            h = 1e-6
            fd = (smoothed_grad(lam + h, s, cfg)
                  - smoothed_grad(lam - h, s, cfg)) / (2 * h)
            assert smoothed_hess(lam, s, cfg) == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_hess_lower_bound(self, rng):
        cfg = TrainConfig(tau1=1e-2, tau2=1e-4, eps=0.5, k=1)
        for _ in range(50):
            s = rng.normal(0, 3, 10)
            assert smoothed_hess(float(rng.normal(0, 5)), s, cfg) >= cfg.tau2

    def test_hess_saturates_to_tau2(self):
        cfg = TrainConfig(tau1=1e-3, tau2=1e-4, eps=0.5, k=1)
        # lambda far below every score: all sigmoids saturate at 1
        assert smoothed_hess(-100.0, np.array([0.0, 1.0]), cfg) == pytest.approx(
            cfg.tau2, abs=1e-9)


class TestSolver:
    def test_solution_has_small_grad(self, rng):
        cfg = TrainConfig(tau1=1e-2, tau2=1e-4, eps=0.5, k=3)
        for _ in range(20):
            s = rng.normal(0, 2, 12)
            lam = solve_lambda_exactly_smoothed(s, cfg, tol=1e-10)
            assert abs(smoothed_grad(lam, s, cfg)) <= 1e-10
            assert smoothed_hess(lam, s, cfg) > 0.0

    def test_symmetric_two_point_case(self):
        cfg = TrainConfig(tau1=5e-2, tau2=1e-12, eps=0.5, k=1)
        lam = solve_lambda_exactly_smoothed(np.zeros(2), cfg, tol=1e-12)
        assert lam == pytest.approx(-cfg.tau1 * np.log(3.0), abs=1e-8)

    def test_tracks_order_statistic_at_small_smoothing(self, rng):
        cfg = TrainConfig(tau1=1e-3, tau2=1e-6, eps=0.5, k=4)
        for _ in range(30):
            s = rng.normal(0, 2, 20)
            lam = solve_lambda_exactly_smoothed(s, cfg, tol=1e-10)
            target = exact_lambda(s, 4)
            assert abs(lam - target) <= 1e-2 * (s.max() - s.min())

    def test_k_beyond_the_list_counts_as_n_minus_1(self, rng):
        s = rng.normal(0, 2, 8)
        wide, fit = TrainConfig(k=50), TrainConfig(k=7)
        assert solve_lambda_exactly_smoothed(s, wide) == solve_lambda_exactly_smoothed(s, fit)
        assert smoothed_objective(0.3, s, wide) == smoothed_objective(0.3, s, fit)
        assert init_lambda_state(s, wide, 8)[0] == init_lambda_state(s, fit, 8)[0]

    def test_bad_tol(self):
        with pytest.raises(ConfigurationError):
            solve_lambda_exactly_smoothed(np.zeros(3), TrainConfig(), tol=0.0)

    @pytest.mark.parametrize("scores, row", [
        (np.zeros(0), 0),                                        # empty
        (np.array([0.5, np.nan, 1.0]), 0),                       # NaN
        (np.array([0.5, np.inf, 1.0]), 0),                       # +inf
        (np.array([[0.5, 1.0], [-np.inf, -np.inf], [2.0, -np.inf]]), 1),    # no finite score
        (np.array([[0.5, 1.0], [2.0, -np.inf], [np.nan, 1.0]]), 2),
    ])
    def test_bad_scores_name_their_row(self, scores, row):
        with pytest.raises(ConfigurationError, match=f"row {row} "):
            solve_lambda_exactly_smoothed(scores, TrainConfig(k=1))

    def test_minus_inf_is_an_empty_slot(self, rng):
        cfg = TrainConfig(tau1=5e-2, tau2=1e-3, eps=0.5, k=3)
        s = rng.normal(0, 2, 12)
        holed = np.insert(s, [0, 5, 12], -np.inf)
        lam = solve_lambda_exactly_smoothed(holed, cfg, tol=1e-12)
        assert lam == pytest.approx(solve_lambda_exactly_smoothed(s, cfg, tol=1e-12),
                                    rel=0.0, abs=1e-12)
        assert solve_lambda_exactly_smoothed(np.stack([holed, holed]), cfg, tol=1e-12).tolist() \
            == [lam, lam]

    def test_padded_rows_meet_the_stopping_rule(self, rng):
        cfg = TrainConfig(tau1=5e-2, tau2=1e-3, eps=0.5, k=7)
        lists = [rng.normal(0, 2, int(rng.integers(2, 61))) for _ in range(300)]
        scores = np.full((len(lists), 60), -np.inf)
        for r, s in enumerate(lists):
            scores[r, :len(s)] = s
        lam = solve_lambda_exactly_smoothed(scores, cfg, tol=1e-12)
        assert lam.shape == (300,)
        assert max(abs(smoothed_grad(l_, s, cfg)) for l_, s in zip(lam, lists)) <= 1e-12
        # a list alone sums its slopes in other pairwise blocks than its padded row
        np.testing.assert_allclose(
            lam, [solve_lambda_exactly_smoothed(s, cfg, tol=1e-12) for s in lists],
            rtol=0.0, atol=1e-12)

    def test_vector_is_a_one_row_matrix(self, rng):
        cfg = TrainConfig(tau1=1e-2, tau2=1e-4, eps=0.5, k=3)
        for _ in range(20):
            s = rng.normal(0, 2, int(rng.integers(2, 200)))
            lam = solve_lambda_exactly_smoothed(s, cfg, tol=1e-12)
            assert type(lam) is float
            assert solve_lambda_exactly_smoothed(s[None], cfg, tol=1e-12).tolist() == [lam]

    def test_bracket_failure_names_its_row(self, monkeypatch, rng):
        grad = lambda_solver._grad
        # the gradient of row 2 never turns negative, so no bracket holds its root
        monkeypatch.setattr(lambda_solver, "_grad",
                            lambda *a: np.where(np.arange(4) == 2, 1.0, grad(*a)))
        with pytest.raises(FairTopKError, match="threshold bracket failure in row 2"):
            solve_lambda_exactly_smoothed(rng.normal(0, 1, (4, 6)), TrainConfig(k=2))


class TestStateStep:
    def test_zero_eta_keeps_lambda(self):
        cfg = TrainConfig(k=1, gamma4=0.5, eta0=0.0)
        s = np.array([0.0, 1.0, 2.0])
        lam, s_, v = state_step(np.array([0.3, 1.0, 0.0]), s, cfg, 3)
        assert lam == 0.3
        assert v != 0.0
        assert s_ != 1.0

    def test_fixed_point_at_solution(self):
        cfg = TrainConfig(tau1=1e-2, tau2=1e-4, eps=0.5, k=2, gamma4=1.0, eta0=1e-2)
        s = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        lam_star = solve_lambda_exactly_smoothed(s, cfg, tol=1e-14)
        st_ = state_step(np.array([lam_star, smoothed_hess(lam_star, s, cfg), 0.0]), s, cfg, 5)
        assert st_[0] == pytest.approx(lam_star, abs=1e-12)

    def test_full_batch_iteration_converges(self, rng):
        cfg = TrainConfig(tau1=1e-2, tau2=1e-4, eps=0.5, k=3)
        s = rng.normal(0, 1, 15)
        lam_star = solve_lambda_exactly_smoothed(s, cfg, tol=1e-12)
        # fixed step below 2 / max-curvature keeps the scalar descent stable
        cfg = replace(cfg, gamma4=1.0, eta0=1.0 / (cfg.tau2 + 0.25 / cfg.tau1))
        st_ = np.array([float(s.mean()), 1.0, 0.0])
        for _ in range(100_000):
            st_ = state_step(st_, s, cfg, 15)
            if abs(st_[2]) <= 1e-12:
                break
        assert abs(st_[0] - lam_star) <= 1e-6

    def test_init_warm_start_scaling(self):
        cfg = TrainConfig(k=4)
        scores = np.arange(10.0)
        lam, s_, v = init_lambda_state(scores, cfg, n_total=20)
        # batch covers half the list, so the warm start is the batch's
        # K/2-quantile order statistic
        assert lam == exact_lambda(scores, 2)
        assert s_ == pytest.approx(cfg.tau2 + 0.25 / cfg.tau1)
        assert v == 0.0

    def test_padded_rows_match_one_row_calls(self, rng):
        cfg = TrainConfig(tau1=5e-2, tau2=1e-3, eps=0.5, k=3, gamma4=0.3, eta0=1e-2)
        sizes, n_total = [7, 1, 4, 9], np.array([30, 12, 8, 40])
        scores = np.full((len(sizes), max(sizes)), -np.inf)
        for r, n in enumerate(sizes):       # the size-1 row has k_batch = 0
            scores[r, :n] = rng.normal(0, 1, n)
        state = np.stack([rng.normal(0, 1, 4), rng.uniform(1, 2, 4), rng.normal(0, 1, 4)],
                         axis=1)
        warm = init_lambda_state(scores, cfg, n_total)
        stepped = state_step(state, scores, cfg, n_total)
        assert warm.shape == stepped.shape == (4, 3)
        for r, n in enumerate(sizes):
            np.testing.assert_allclose(warm[r], init_lambda_state(scores[r, :n], cfg, n_total[r]),
                                       rtol=1e-12)
            np.testing.assert_allclose(
                stepped[r], state_step(state[r], scores[r, :n], cfg, n_total[r]), rtol=1e-12)
        assert warm[1, 0] == scores[1, 0]


class TestImplicitGradient:
    def _setup(self):
        m = FactorizationScorer(2, 5, 2, seed=6)
        cfg = TrainConfig(tau1=5e-2, tau2=1e-3, eps=0.5, k=2)
        items = np.arange(5)
        return m, cfg, items

    def _cross(self, lam, m, items, cfg):
        """The mixed derivative d^2 G / (d lambda d w): the implicit gradient
        times -G''."""
        return -implicit_lambda_grad(lam, m, 0, items, cfg) * smoothed_hess(
            lam, m.score_many(0, items), cfg)

    def test_cross_grad_saturation(self):
        m, cfg, items = self._setup()
        g = self._cross(-1e6, m, items, cfg)
        assert np.linalg.norm(g) <= 1e-9

    def test_cross_grad_matches_fd_of_smoothed_grad(self):
        m, cfg, items = self._setup()
        lam = 0.05
        analytic = self._cross(lam, m, items, cfg)
        w = m.params.values
        fd = np.zeros_like(w)
        step = 1e-6
        for j in range(len(w)):
            orig = w[j]
            w[j] = orig + step
            fp = smoothed_grad(lam, m.score_many(0, items), cfg)
            w[j] = orig - step
            fm = smoothed_grad(lam, m.score_many(0, items), cfg)
            w[j] = orig
            fd[j] = (fp - fm) / (2 * step)
        assert np.abs(analytic - fd).max() <= 1e-5 * max(np.abs(fd).max(), 1e-12)

    def test_implicit_grad_matches_resolve_fd(self):
        m, cfg, items = self._setup()
        lam = solve_lambda_exactly_smoothed(m.score_many(0, items), cfg, tol=1e-13)
        analytic = implicit_lambda_grad(lam, m, 0, items, cfg)
        w = m.params.values
        fd = np.zeros_like(w)
        step = 1e-5
        for j in range(len(w)):
            orig = w[j]
            w[j] = orig + step
            fp = solve_lambda_exactly_smoothed(m.score_many(0, items), cfg, tol=1e-13)
            w[j] = orig - step
            fm = solve_lambda_exactly_smoothed(m.score_many(0, items), cfg, tol=1e-13)
            w[j] = orig
            fd[j] = (fp - fm) / (2 * step)
        assert np.abs(analytic - fd).max() <= 1e-3 * max(np.abs(fd).max(), 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-4, max_value=4), min_size=3, max_size=15),
       st.integers(min_value=1, max_value=5))
def test_solver_bracket_always_holds(vals, k):
    cfg = TrainConfig(tau1=1e-2, tau2=1e-4, eps=0.5, k=k)
    s = np.array(vals)
    lam = solve_lambda_exactly_smoothed(s, cfg, tol=1e-8)
    assert np.isfinite(lam)
    assert abs(smoothed_grad(lam, s, cfg)) <= 1e-8
