"""Exposure, disparity losses and metrics, and the G2 estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtopk.data import (
    GROUP_A,
    GROUP_B,
    QueryGroup,
    generate_synthetic,
    sample_batch,
)
from fairtopk.errors import ConfigurationError, StateError
from fairtopk.fairness import (
    CONSTANT_ONE,
    FairnessState,
    SmoothIndicator,
    dataset_topk_fairness,
    disparity_mae_mse,
    exposures,
    full_list_disparity,
    g2_estimate,
    topk_disparity_exact,
    rank_order,
    topk_disparity_surrogate,
    topk_gaps,
)
from fairtopk.lambda_solver import (
    LambdaState,
    SmoothingParams,
    smoothed_hess,
    solve_lambda_exactly_smoothed,
)
from fairtopk.model import FactorizationScorer


def _query_with(scores_model, item_bias, groups, qid="q0"):
    """A one-query setup whose scores equal the given bias values."""
    n = len(item_bias)
    m = FactorizationScorer(1, n, 2, bound=50.0)
    m.params.values[:] = 0.0
    m.item_bias[:] = np.arctanh(np.asarray(item_bias) / 50.0)
    qg = QueryGroup(query_id=qid, query_index=0,
                    item_ids=np.arange(n, dtype=np.int64),
                    feature_idx=np.arange(n, dtype=np.int64),
                    relevance=np.ones(n),
                    groups=np.asarray(groups, dtype=np.int8))
    return m, qg


class TestExposures:
    def test_equal_scores(self):
        assert np.allclose(exposures(np.zeros(5)), 0.2)

    def test_hand_value(self):
        e = exposures(np.array([np.log(2.0), 0.0]))
        assert e[0] == pytest.approx(2.0 / 3.0)
        assert e[1] == pytest.approx(1.0 / 3.0)

    def test_model_facing_wrapper(self):
        m, qg = _query_with(None, [np.log(2.0), 0.0], [GROUP_A, GROUP_B])
        assert exposures(m.score_many(0, qg.feature_idx))[0] == pytest.approx(2.0 / 3.0,
                                                                             abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=20))
    def test_normalization_and_shift_invariance(self, vals):
        s = np.array(vals)
        e = exposures(s)
        assert abs(e.sum() - 1.0) <= 1e-12
        assert np.allclose(e, exposures(s + 13.7), atol=1e-12)


class TestFullListDisparity:
    def test_equal_scores_is_zero(self):
        m, qg = _query_with(None, [0.0, 0.0, 0.0, 0.0],
                            [GROUP_A, GROUP_A, GROUP_B, GROUP_B])
        assert full_list_disparity(m, qg) == pytest.approx(0.0)

    def test_hand_value(self):
        m, qg = _query_with(None, [np.log(2.0), 0.0], [GROUP_A, GROUP_B])
        assert full_list_disparity(m, qg) == pytest.approx(1.0 / 18.0, abs=1e-10)

    def test_single_group_returns_none(self):
        m, qg = _query_with(None, [0.0, 1.0], [GROUP_A, GROUP_A])
        assert full_list_disparity(m, qg) is None


class TestTopkExact:
    def test_membership_tie_break_by_item_id(self):
        order = rank_order(np.array([1.0, 1.0, 0.0]), np.array([9, 2, 5]))
        assert order.tolist() == [1, 0, 2]

    def test_gap_curve_matches_per_k_membership_sums(self, rng):
        for _ in range(20):
            scores = np.round(rng.normal(0, 1, 9), 1)      # ties are common
            groups = np.array([GROUP_A, GROUP_B] * 4 + [GROUP_A], dtype=np.int8)
            ids = rng.permutation(9) * 3
            gaps = topk_gaps(scores, groups, rank_order(scores, ids))
            # an item is in the top k when fewer than k items rank above it
            above = (scores[None, :] > scores[:, None]) | (
                (scores[None, :] == scores[:, None]) & (ids[None, :] < ids[:, None]))
            e, a, b = exposures(scores), groups == GROUP_A, groups == GROUP_B
            for k in range(1, 10):
                top = above.sum(axis=1) < k
                expected = e[a & top].sum() / a.sum() - e[b & top].sum() / b.sum()
                assert gaps[k - 1] == pytest.approx(expected, abs=1e-15)

    def test_one_sided_membership_is_negative(self):
        m, qg = _query_with(None, [0.0, 3.0, 2.0], [GROUP_A, GROUP_B, GROUP_B])
        assert topk_disparity_exact(m, qg, k=2) < 0.0

    def test_symmetric_query_is_zero(self):
        m, qg = _query_with(None, [2.0, 2.0, 1.0, 1.0],
                            [GROUP_A, GROUP_B, GROUP_A, GROUP_B])
        assert topk_disparity_exact(m, qg, k=2) == pytest.approx(0.0, abs=1e-12)

    def test_six_item_brute_force(self):
        scores = [3.0, 2.5, 2.0, 1.5, 1.0, 0.5]
        groups = [GROUP_A, GROUP_B, GROUP_A, GROUP_B, GROUP_A, GROUP_B]
        m, qg = _query_with(None, scores, groups)
        z = np.sum(np.exp(scores))
        expected = (np.exp(3.0) / z) / 3.0 - (np.exp(2.5) / z) / 3.0
        assert topk_disparity_exact(m, qg, k=2) == pytest.approx(expected, abs=1e-9)

    def test_k_range_validation(self):
        m, qg = _query_with(None, [0.0, 1.0], [GROUP_A, GROUP_B])
        with pytest.raises(ConfigurationError):
            topk_disparity_exact(m, qg, k=2)

    def test_shift_invariance(self):
        scores = [1.0, 0.3, -0.2, 2.0]
        groups = [GROUP_A, GROUP_B, GROUP_A, GROUP_B]
        m1, q1 = _query_with(None, scores, groups)
        m2, q2 = _query_with(None, [s + 1.5 for s in scores], groups)
        assert topk_disparity_exact(m1, q1, 2) == pytest.approx(
            topk_disparity_exact(m2, q2, 2), abs=1e-9)


class TestSurrogate:
    def test_constant_indicator_reduces_to_full_list(self, rng):
        for _ in range(20):
            scores = rng.normal(0, 1, 8).tolist()
            groups = [GROUP_A] * 3 + [GROUP_B] * 5
            m, qg = _query_with(None, scores, groups)
            u = topk_disparity_surrogate(m, qg, k=3, lam=0.0, psi=CONSTANT_ONE)
            full = full_list_disparity(m, qg)
            assert abs(u - full) <= 1e-12

    def test_identical_compositions_zero(self):
        m, qg = _query_with(None, [1.0, 1.0, 0.0, 0.0],
                            [GROUP_A, GROUP_B, GROUP_A, GROUP_B])
        psi = SmoothIndicator(temperature=0.1)
        assert topk_disparity_surrogate(m, qg, 2, lam=0.5, psi=psi) == pytest.approx(
            0.0, abs=1e-15)

    def test_matches_exact_at_small_temperatures(self, rng):
        # eps < 0.5 puts the converged threshold strictly between the K-th
        # and (K+1)-th scores; with well-separated scores and a sharp
        # indicator the surrogate then reproduces the exact selection.
        p = SmoothingParams(tau1=2e-2, tau2=1e-8, eps=0.25, k=2)
        psi = SmoothIndicator(temperature=1e-3)
        for _ in range(20):
            gaps = rng.uniform(0.5, 1.5, 5)
            scores = np.cumsum(np.concatenate([[0.0], gaps]))[::-1].copy()
            scores += rng.normal(0, 0.1)
            perm = rng.permutation(6)
            scores = scores[perm]
            groups = np.array([GROUP_A] * 3 + [GROUP_B] * 3)[perm]
            m, qg = _query_with(None, scores.tolist(), groups.tolist())
            lam = solve_lambda_exactly_smoothed(
                m.score_many(0, qg.feature_idx), p, tol=1e-12)
            u = topk_disparity_surrogate(m, qg, 2, lam, psi)
            exact = topk_disparity_exact(m, qg, 2)
            assert abs(np.sqrt(2.0 * u) - abs(exact)) <= 1e-3

    def test_single_group_returns_none(self):
        m, qg = _query_with(None, [0.0, 1.0], [GROUP_B, GROUP_B])
        psi = SmoothIndicator(temperature=0.1)
        assert topk_disparity_surrogate(m, qg, 1, 0.0, psi) is None

    def test_indicator_validation(self):
        with pytest.raises(ConfigurationError):
            SmoothIndicator(temperature=0.0)


class TestMaeMse:
    def test_values(self):
        mae, mse = disparity_mae_mse([0.1, -0.3])
        assert mae == pytest.approx(0.2)
        assert mse == pytest.approx((0.01 + 0.09) / 2)

    def test_empty(self):
        mae, mse = disparity_mae_mse([])
        assert np.isnan(mae) and np.isnan(mse)


class TestG2:
    def _setup(self, seed=5):
        d = generate_synthetic(3, 6, 0.4, 1.0, seed=seed)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=seed)
        rng = np.random.default_rng(0)
        batch = sample_batch(d, (d.total_pairs, 10, 10, 10), rng)
        p = SmoothingParams(tau1=5e-2, tau2=1e-3, eps=0.5, k=2)
        psi = SmoothIndicator(temperature=0.2)
        lams, hessians = [], []
        for qg in d.queries:
            scores = m.score_many(qg.query_index, qg.feature_idx)
            lams.append(solve_lambda_exactly_smoothed(scores, p, tol=1e-10))
            hessians.append(smoothed_hess(lams[-1], scores, p))
        lam_state = LambdaState(lam=np.array(lams), s=np.array(hessians))
        return d, m, batch, p, psi, lam_state

    def test_missing_lambda_state_is_an_error(self):
        d, m, batch, p, psi, lam_state = self._setup()
        fair = FairnessState.zeros(d.num_queries)
        with pytest.raises(StateError):
            g2_estimate(m, d, batch, 2, fair, None, psi, p)
        short = LambdaState(lam=lam_state.lam[:-1], s=lam_state.s[:-1])
        with pytest.raises(StateError):
            g2_estimate(m, d, batch, 2, fair, short, psi, p)

    def test_gamma_zero_freezes_direction(self):
        d, m, batch, p, psi, lam_state = self._setup()
        fair = FairnessState.zeros(d.num_queries, 0.0, 0.0, 0.0)
        g_first = g2_estimate(m, d, batch, 2, fair, lam_state, psi, p)
        g_second = g2_estimate(m, d, batch, 2, fair, lam_state, psi, p)
        assert np.allclose(g_first, g_second)

    def test_full_batch_matches_finite_differences(self):
        d, m, batch, p, psi, lam_state = self._setup()
        fair = FairnessState.zeros(d.num_queries, 1.0, 1.0, 1.0)
        g2 = g2_estimate(m, d, batch, 2, fair, lam_state, psi, p,
                         mode="full_implicit")
        w = m.params.values
        w0 = w.copy()
        fd = np.zeros_like(w)
        step = 1e-5
        for j in range(len(w)):
            w[j] = w0[j] + step
            fp = dataset_topk_fairness(m, d, 2, psi, p, tol=1e-12)
            w[j] = w0[j] - step
            fm = dataset_topk_fairness(m, d, 2, psi, p, tol=1e-12)
            w[j] = w0[j]
            fd[j] = (fp - fm) / (2 * step)
        assert np.abs(g2 - fd).max() <= 1e-3 * max(np.abs(fd).max(), 1e-12)

    def test_unknown_mode_rejected(self):
        d, m, batch, p, psi, lam_state = self._setup()
        with pytest.raises(ConfigurationError):
            g2_estimate(m, d, batch, 2, FairnessState.zeros(d.num_queries), lam_state,
                        psi, p, mode="bogus")

    def test_moving_average_update_rule(self):
        fair = FairnessState.zeros(3, gamma_a=0.5, gamma_b=0.5, gamma_g=0.5)
        first = fair.u.update(np.array([1]), np.array([[1.0, 2.0, 3.0]]))
        assert first.tolist() == [[1.0, 2.0, 3.0]]             # first touch
        second = fair.u.update(np.array([1]), np.array([[3.0, 4.0, 5.0]]))
        assert second[0] == pytest.approx([2.0, 3.0, 4.0])
        assert fair.u.seen.tolist() == [False, True, False]
        assert np.all(fair.u.values[[0, 2]] == 0.0)
