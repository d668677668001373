"""Exact ranks, surrogate ranks, the two listwise losses and G1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtopk.data import generate_synthetic, sample_batch
from fairtopk.errors import ConfigurationError
from fairtopk.model import FactorizationScorer
from fairtopk.rank_losses import (
    LossVariant,
    MovingAverage,
    RankLossKind,
    ScoredBatch,
    dataset_loss,
    exact_rank,
    exp_rank_from_scores,
    g1_estimate,
    hinge_rank_from_scores,
    ideal_dcg,
    listnet_loss,
    ndcg_loss,
)

def _g1(m, d, batch, kind, pairs):
    """G1 as a parameter vector, from a ScoredBatch of its own blocks."""
    scored = ScoredBatch(m, d, batch)
    return scored.dense(g1_estimate(scored, d, batch, kind, pairs))


finite_scores = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=12)


class TestExactRank:
    def test_top_item(self):
        assert exact_rank(np.array([3.0, 1.0, 2.0]), 0) == 1

    def test_bottom_item(self):
        assert exact_rank(np.array([3.0, 1.0, 2.0]), 1) == 3

    def test_ties_share_the_worse_rank(self):
        assert exact_rank(np.array([2.0, 2.0]), 0) == 2
        assert exact_rank(np.array([2.0, 2.0]), 1) == 2


class TestSurrogateRanks:
    def test_hinge_two_equal_scores(self):
        assert hinge_rank_from_scores(np.array([0.0, 0.0]), 0, 1.0) == 2.0

    def test_hinge_margin_saturation(self):
        scores = np.array([5.0, 0.0, 0.5])
        assert hinge_rank_from_scores(scores, 0, 1.0) == pytest.approx(1.0)

    def test_hinge_lower_bound_is_margin_squared(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.normal(0, 2, 6)
            assert hinge_rank_from_scores(s, 2, 0.7) >= 0.7 ** 2 - 1e-12

    def test_exp_equal_scores(self):
        assert exp_rank_from_scores(np.zeros(5), 3) == pytest.approx(5.0)

    def test_exp_hand_value(self):
        assert exp_rank_from_scores(np.array([0.0, np.log(2.0)]), 0) == pytest.approx(3.0)

    def test_exp_reciprocal_is_scaled_exposure(self, rng):
        s = rng.normal(0, 1, 8)
        e = np.exp(s - s.max())
        e /= e.sum()
        for i in range(8):
            assert 1.0 / exp_rank_from_scores(s, i) == pytest.approx(e[i], rel=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(finite_scores)
    def test_monotone_in_own_score(self, vals):
        s = np.array(vals)
        bumped = s.copy()
        bumped[0] += 0.5
        assert hinge_rank_from_scores(bumped, 0, 1.0) <= hinge_rank_from_scores(s, 0, 1.0)
        assert exp_rank_from_scores(bumped, 0) < exp_rank_from_scores(s, 0)


class TestLosses:
    def test_ideal_dcg_orders_gains(self):
        assert ideal_dcg(np.array([0.0, 2.0])) == pytest.approx(3.0)
        assert ideal_dcg(np.array([2.0, 0.0])) == pytest.approx(3.0)

    def test_ndcg_single_item_is_minus_one(self):
        m = FactorizationScorer(1, 1, 2, seed=0)
        res = ndcg_loss(m, 0, np.array([0]), np.array([1.0]), margin=1.0)
        assert res.value == pytest.approx(-1.0)
        assert not res.degenerate

    def test_ndcg_all_zero_labels_degenerate(self, small_model):
        res = ndcg_loss(small_model, 0, np.array([0, 1]), np.zeros(2), margin=1.0)
        assert res.value == 0.0
        assert res.degenerate

    def test_ndcg_in_unit_interval(self, small_data, small_model):
        for q in small_data.queries:
            res = ndcg_loss(small_model, q.query_index, q.feature_idx,
                            q.relevance, margin=1.0)
            assert -1.0 <= res.value <= 0.0

    def test_listnet_equal_scores(self):
        m = FactorizationScorer(1, 4, 2)
        m.params.values[:] = 0.0
        val = listnet_loss(m, 0, np.arange(4), np.array([0.0, 1.0, 2.0, 1.0]))
        assert val == pytest.approx(np.log(4.0))

    def test_listnet_single_item(self):
        m = FactorizationScorer(1, 1, 2, seed=4)
        assert listnet_loss(m, 0, np.array([0]), np.array([2.0])) == pytest.approx(0.0)

    def test_margin_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RankLossKind(LossVariant.NDCG, margin=0.0)

    def test_improving_an_items_score_improves_its_contribution(self):
        m = FactorizationScorer(1, 3, 2)
        m.params.values[:] = 0.0
        labels = np.array([2.0, 0.0, 0.0])
        before = ndcg_loss(m, 0, np.arange(3), labels, 1.0).value
        m.item_bias[0] = 3.0
        after = ndcg_loss(m, 0, np.arange(3), labels, 1.0).value
        assert after < before


class TestG1:
    def _setup(self):
        d = generate_synthetic(3, 6, 0.4, 1.0, seed=2)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=2)
        rng = np.random.default_rng(0)
        batch = sample_batch(d, (d.total_pairs, 10, 10, 10), rng)
        return d, m, batch

    def test_gamma_zero_freezes_estimates(self):
        d, m, batch = self._setup()
        kind = RankLossKind(LossVariant.NDCG, 1.0)
        pairs = MovingAverage.zeros(0.0, d.total_pairs)
        g_first = _g1(m, d, batch, kind, pairs)
        frozen = pairs.values.copy()
        g_second = _g1(m, d, batch, kind, pairs)
        assert np.array_equal(pairs.values, frozen)
        assert np.allclose(g_first, g_second)

    def test_full_batch_gamma_one_matches_finite_differences(self):
        d, m, batch = self._setup()
        for variant in (LossVariant.NDCG, LossVariant.LISTNET):
            kind = RankLossKind(variant, 1.0)
            pairs = MovingAverage.zeros(1.0, d.total_pairs)
            g1 = _g1(m, d, batch, kind, pairs)
            w0 = m.params.values.copy()
            fd = np.zeros_like(w0)
            step = 1e-5
            for j in range(len(w0)):
                m.params.values[j] = w0[j] + step
                fp = dataset_loss(m, d, kind)
                m.params.values[j] = w0[j] - step
                fm = dataset_loss(m, d, kind)
                m.params.values[j] = w0[j]
                fd[j] = (fp - fm) / (2 * step)
            assert np.abs(g1 - fd).max() <= 1e-5 * max(np.abs(fd).max(), 1e-9)

    def test_moving_average_update_rule(self):
        pairs = MovingAverage.zeros(0.25, 4)
        assert pairs.update(np.array([1]), np.array([4.0]))[0] == 4.0   # first touch
        assert pairs.update(np.array([1, 2]), np.array([8.0, 2.0])).tolist() == \
            pytest.approx([0.25 * 8.0 + 0.75 * 4.0, 2.0])
