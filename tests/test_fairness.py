"""Exposure, disparity losses and metrics, and the G2 estimator."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import bound_state, full_list_disparity, scored_list
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtopk import data as data_module
from fairtopk.data import (
    GROUP_A,
    GROUP_B,
    generate_synthetic,
    load_csv,
    sample_batch,
)
from fairtopk.errors import ConfigurationError, StateError
from fairtopk.fairness import (
    _surrogate,
    dataset_topk_fairness,
    disparity_mae_mse,
    exposures,
    g2_estimate,
    rank_order,
    topk_gaps,
)
from fairtopk.lambda_solver import smoothed_hess, solve_lambda_exactly_smoothed
from fairtopk.model import FactorizationScorer
from fairtopk.optimizer import TrainConfig, TrainerState
from fairtopk.rank_losses import ScoredBatch, blend


def _g2(m, d, batch, cfg, state):
    """G2 as a parameter vector, from a ScoredBatch of its own blocks."""
    scored = ScoredBatch(m, d, batch)
    return scored.dense(g2_estimate(scored, d, batch, cfg, state))


def _per_query_surrogates(m, d, cfg):
    """Each query's smoothed top-K disparity at its threshold solved to 1e-12,
    one query at a time; a query missing a group gives nothing."""
    out = []
    for k in np.flatnonzero(d.has_both_groups):
        s = slice(d.offsets[k], d.offsets[k + 1])
        scores = m.score_many(d.query_index[k], d.feature_idx[s])
        lam = solve_lambda_exactly_smoothed(scores, cfg, tol=1e-12)
        out.append(float(_surrogate(scores, d.groups[s], lam, cfg)))
    return out


def _one_group_dataset():
    """Twenty synthetic queries stripped of their group-A items."""
    g = generate_synthetic(20, 50, 0.3, 1.0, seed=6)
    d = g.take(np.flatnonzero(g.groups == GROUP_B))
    assert not d.has_both_groups.any()
    return d


class TestExposures:
    def test_equal_scores(self):
        assert np.allclose(exposures(np.zeros(5)), 0.2)

    def test_hand_value(self):
        e = exposures(np.array([np.log(2.0), 0.0]))
        assert e[0] == pytest.approx(2.0 / 3.0)
        assert e[1] == pytest.approx(1.0 / 3.0)

    def test_model_facing_wrapper(self):
        scores, _, _ = scored_list([np.log(2.0), 0.0], [GROUP_A, GROUP_B])
        assert exposures(scores)[0] == pytest.approx(2.0 / 3.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=20))
    def test_normalization_and_shift_invariance(self, vals):
        s = np.array(vals)
        e = exposures(s)
        assert abs(e.sum() - 1.0) <= 1e-12
        assert np.allclose(e, exposures(s + 13.7), atol=1e-12)


class TestFullListDisparity:
    def test_equal_scores_is_zero(self):
        scores, groups, _ = scored_list([0.0, 0.0, 0.0, 0.0], [GROUP_A, GROUP_A, GROUP_B, GROUP_B])
        assert full_list_disparity(scores, groups) == pytest.approx(0.0)

    def test_hand_value(self):
        scores, groups, _ = scored_list([np.log(2.0), 0.0], [GROUP_A, GROUP_B])
        assert full_list_disparity(scores, groups) == pytest.approx(1.0 / 18.0, abs=1e-10)

    def test_single_group_returns_none(self):
        # a one-group list has no full-list gap, and such queries add nothing
        _, _, gaps = scored_list([0.0, 1.0], [GROUP_A, GROUP_A])
        assert np.isnan(gaps[-1])
        d = _one_group_dataset()
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 4, seed=6)
        assert dataset_topk_fairness(m, d, TrainConfig(fairness_mode="full_list")) == 0.0


class TestTopkExact:
    def test_membership_tie_break_by_item_id(self):
        order = rank_order(np.array([1.0, 1.0, 0.0]), np.array([9, 2, 5]))
        assert order.tolist() == [1, 0, 2]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), rows=st.integers(1, 6), width=st.integers(1, 40),
           levels=st.integers(1, 8))
    def test_rank_order_equals_lexsort(self, seed, rows, width, levels):
        # scores from a few levels, so finite ties are common, and -inf padding
        # at the end of some rows, whose order among itself is left open
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, levels, (rows, width)) + rng.choice([0.0, 0.5], (rows, 1))
        filled = np.arange(width) < rng.integers(1, width + 1, (rows, 1))
        scores = np.where(filled, scores, -np.inf)
        ids = rng.permutation(rows * width).reshape(rows, width)
        expected = np.lexsort((ids, -scores))
        order = rank_order(scores, ids)
        for r in range(rows):
            n = int(filled[r].sum())
            assert order[r, :n].tolist() == expected[r, :n].tolist()
            assert sorted(order[r].tolist()) == list(range(width))
        assert rank_order(scores[0], ids[0])[:filled[0].sum()].tolist() == \
            expected[0, :filled[0].sum()].tolist()

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

    # gaps[1] is the gap at k = 2
    def test_one_sided_membership_is_negative(self):
        _, _, gaps = scored_list([0.0, 3.0, 2.0], [GROUP_A, GROUP_B, GROUP_B])
        assert gaps[1] < 0.0

    def test_symmetric_query_is_zero(self):
        _, _, gaps = scored_list([2.0, 2.0, 1.0, 1.0], [GROUP_A, GROUP_B, GROUP_A, GROUP_B])
        assert gaps[1] == pytest.approx(0.0, abs=1e-12)

    def test_six_item_brute_force(self):
        scores = [3.0, 2.5, 2.0, 1.5, 1.0, 0.5]
        groups = [GROUP_A, GROUP_B, GROUP_A, GROUP_B, GROUP_A, GROUP_B]
        z = np.sum(np.exp(scores))
        expected = (np.exp(3.0) / z) / 3.0 - (np.exp(2.5) / z) / 3.0
        _, _, gaps = scored_list(scores, groups)
        assert gaps[1] == pytest.approx(expected, abs=1e-9)

    def test_shift_invariance(self):
        scores = [1.0, 0.3, -0.2, 2.0]
        groups = [GROUP_A, GROUP_B, GROUP_A, GROUP_B]
        _, _, gaps = scored_list(scores, groups)
        _, _, shifted = scored_list([s + 1.5 for s in scores], groups)
        assert gaps[1] == pytest.approx(shifted[1], abs=1e-9)

    def test_single_group_gives_a_nan_row(self):
        lists = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, -np.inf]])
        groups = np.array([[GROUP_A, GROUP_A], [GROUP_B, GROUP_B], [GROUP_A, -1]])
        gaps = topk_gaps(lists, groups, rank_order(lists, np.array([[0, 1]] * 3)))
        assert np.isnan(gaps).all()


class TestSurrogate:
    def test_constant_indicator_reduces_to_full_list(self, rng):
        for _ in range(20):
            scores = rng.normal(0, 1, 8).tolist()
            scores, groups, _ = scored_list(scores, [GROUP_A] * 3 + [GROUP_B] * 5)
            u = _surrogate(scores, groups, 0.0, TrainConfig(fairness_mode="full_list"))
            assert abs(u - full_list_disparity(scores, groups)) <= 1e-12

    def test_identical_compositions_zero(self):
        scores, groups, _ = scored_list([1.0, 1.0, 0.0, 0.0], [GROUP_A, GROUP_B, GROUP_A, GROUP_B])
        assert _surrogate(scores, groups, 0.5, TrainConfig(tau_psi=0.1)) == pytest.approx(
            0.0, abs=1e-15)

    def test_matches_exact_at_small_temperatures(self, rng):
        # eps < 0.5 puts the converged threshold strictly between the K-th
        # and (K+1)-th scores; with well-separated scores and a sharp
        # indicator the surrogate then reproduces the exact selection.
        cfg = TrainConfig(tau1=2e-2, tau2=1e-8, eps=0.25, k=2, tau_psi=1e-3)
        for _ in range(20):
            gaps = rng.uniform(0.5, 1.5, 5)
            scores = np.cumsum(np.concatenate([[0.0], gaps]))[::-1].copy()
            scores += rng.normal(0, 0.1)
            perm = rng.permutation(6)
            scores = scores[perm]
            groups = np.array([GROUP_A] * 3 + [GROUP_B] * 3)[perm]
            scores, groups, gaps = scored_list(scores.tolist(), groups.tolist())
            u = _surrogate(scores, groups, solve_lambda_exactly_smoothed(scores, cfg, tol=1e-12),
                           cfg)
            assert abs(np.sqrt(2.0 * u) - abs(gaps[1])) <= 1e-3

    def test_dataset_fairness_scores_every_pair_in_one_call(self, monkeypatch):
        # queries 0 and 1 lose their group-A items, so they add nothing
        g = generate_synthetic(20, 50, 0.3, 1.0, seed=6)
        d = g.take(np.flatnonzero((g.query_of > 1) | (g.groups == GROUP_B)))
        assert d.num_queries == 20 and d.has_both_groups.tolist().count(False) == 2
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 4, seed=6)
        cfg = TrainConfig(tau1=5e-2, tau2=1e-3, eps=0.5, k=3, tau_psi=0.2)
        per_query = _per_query_surrogates(m, d, cfg)
        calls = []
        score_many = m.score_many
        monkeypatch.setattr(m, "score_many",
                            lambda *a, **kw: calls.append(a) or score_many(*a, **kw))
        u = dataset_topk_fairness(m, d, cfg)
        assert len(calls) == 1 and len(calls[0][1]) == d.total_pairs
        assert u == sum(per_query) / d.num_queries

    @pytest.mark.parametrize("entries", [1, 150, 32768])
    def test_dataset_fairness_block_size_keeps_the_value(self, monkeypatch, entries):
        # ragged queries of 26 to 60 items: one per block, two per block, one block
        g = generate_synthetic(30, 60, 0.3, 1.0, seed=4)
        keep = np.random.default_rng(4).random(g.total_pairs) < 0.2 + 0.8 * (g.query_of % 5) / 4
        d = g.take(np.flatnonzero(keep | (g.item_ids % 10 < 4)))
        assert len(set(d.sizes.tolist())) > 10 and d.has_both_groups.all()
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 4, seed=4)
        cfg = TrainConfig(tau1=5e-2, tau2=1e-3, eps=0.5, k=7, tau_psi=0.2)
        per_query = _per_query_surrogates(m, d, cfg)
        monkeypatch.setattr(data_module, "_BLOCK_ENTRIES", entries)
        assert dataset_topk_fairness(m, d, cfg) == pytest.approx(
            sum(per_query) / d.num_queries, rel=1e-12, abs=0.0)

    def test_dataset_fairness_memory_follows_the_blocks(self, tmp_path):
        # one 3,000-item query and 300 of 4 items: a (queries x widest) matrix
        # of scores would take 7.2 MB
        rows = [f"w,{i},{i % 3},{i % 2}" for i in range(3000)]
        rows += [f"q{k},{i},{i % 2},{i % 2}" for k in range(300) for i in range(4)]
        path = tmp_path / "d.csv"
        path.write_text("\n".join(rows) + "\n")
        d = load_csv(str(path))
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 8, seed=1)
        cfg = TrainConfig(tau1=5e-2, tau2=1e-3, eps=0.5, k=7, tau_psi=0.2)
        tracemalloc.start()
        try:
            u = dataset_topk_fairness(m, d, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20
        assert np.isfinite(u) and u > 0.0

    def test_single_group_returns_none(self):
        d = _one_group_dataset()
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 4, seed=6)
        cfg = TrainConfig(tau1=5e-2, tau2=1e-3, eps=0.5, k=3, tau_psi=0.1)
        assert dataset_topk_fairness(m, d, cfg) == 0.0


class TestMaeMse:
    def test_values(self):
        mae, mse = disparity_mae_mse([0.1, -0.3])
        assert mae == pytest.approx(0.2)
        assert mse == pytest.approx((0.01 + 0.09) / 2)

    def test_empty(self):
        mae, mse = disparity_mae_mse([])
        assert np.isnan(mae) and np.isnan(mse)


class TestG2:
    def _setup(self, seed=5, **overrides):
        """A full batch and a state bound to its dataset, each query's threshold
        solved to tolerance and its curvature exact."""
        d = generate_synthetic(3, 6, 0.4, 1.0, seed=seed)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=seed)
        rng = np.random.default_rng(0)
        batch = sample_batch(d, (d.total_pairs, 10, 10, 10), rng)
        cfg = TrainConfig(k=2, fair_weight=1.0, tau1=5e-2, tau2=1e-3, eps=0.5, tau_psi=0.2,
                          **overrides)
        state = bound_state(cfg, m, d)
        for q in range(d.num_queries):
            scores = m.score_many(d.query_index[q], d.feature_idx[d.offsets[q]:d.offsets[q + 1]])
            lam = solve_lambda_exactly_smoothed(scores, cfg, tol=1e-10)
            state.lam[q, :2] = lam, smoothed_hess(lam, scores, cfg)
        return d, m, batch, cfg, state

    def test_missing_lambda_state_is_an_error(self):
        d, m, batch, cfg, _ = self._setup()
        with pytest.raises(StateError, match="bound"):
            _g2(m, d, batch, cfg, TrainerState.fresh(cfg, len(m.params.values)))
        fewer = d.take(np.arange(d.offsets[2]))             # the first two queries
        with pytest.raises(StateError, match="bound"):
            _g2(m, d, batch, cfg, bound_state(cfg, m, fewer))

    def test_gamma_zero_freezes_direction(self):
        d, m, batch, cfg, state = self._setup(gamma1=0.0, gamma2=0.0, gamma3=0.0)
        g_first = _g2(m, d, batch, cfg, state)
        g_second = _g2(m, d, batch, cfg, state)
        assert np.allclose(g_first, g_second)

    def test_full_batch_matches_finite_differences(self):
        d, m, batch, cfg, state = self._setup(gamma1=1.0, gamma2=1.0, gamma3=1.0,
                                              g2_mode="full_implicit")
        g2 = _g2(m, d, batch, cfg, state)
        w = m.params.values
        w0 = w.copy()
        fd = np.zeros_like(w)
        step = 1e-5
        for j in range(len(w)):
            w[j] = w0[j] + step
            fp = dataset_topk_fairness(m, d, cfg)
            w[j] = w0[j] - step
            fm = dataset_topk_fairness(m, d, cfg)
            w[j] = w0[j]
            fd[j] = (fp - fm) / (2 * step)
        assert np.abs(g2 - fd).max() <= 1e-3 * max(np.abs(fd).max(), 1e-12)

    def test_unknown_mode_rejected(self):
        d, m, batch, cfg, state = self._setup()
        with pytest.raises(ConfigurationError):
            _g2(m, d, batch, replace(cfg, g2_mode="bogus"), state)

    def test_moving_average_update_rule(self):
        u, seen, gamma = np.zeros((3, 3)), np.zeros(3, dtype=bool), np.array([0.5, 0.25, 1.0])
        first = blend(u, seen, np.array([1]), np.array([[1.0, 2.0, 3.0]]), gamma)
        assert first.tolist() == [[1.0, 2.0, 3.0]]             # first touch
        second = blend(u, seen, np.array([1]), np.array([[3.0, 4.0, 5.0]]), gamma)
        assert second[0] == pytest.approx([2.0, 2.5, 5.0])     # one weight per column
        assert seen.tolist() == [False, True, False]
        assert np.all(u[[0, 2]] == 0.0)
