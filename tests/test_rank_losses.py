"""The surrogate ranks, the listwise loss ``dataset_loss`` and G1."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from conftest import bound_state, make_dataset
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtopk.data import QueryGroup, generate_synthetic, ideal_dcg, sample_batch
from fairtopk.errors import ConfigurationError
from fairtopk.model import FactorizationScorer
from fairtopk.optimizer import TrainConfig
from fairtopk.rank_losses import ScoredBatch, blend, dataset_loss, g1_estimate

NDCG = TrainConfig(loss="ndcg", margin=1.0)
LISTNET = TrainConfig(loss="listnet", margin=1.0)


def _g1(m, d, batch, cfg, state):
    """G1 as a parameter vector, from a ScoredBatch of its own blocks."""
    scored = ScoredBatch(m, d, batch)
    return scored.dense(g1_estimate(scored, d, batch, cfg, state))


def _one_query(items, labels, row=0):
    """A dataset of one query, model row ``row``, over item rows ``items``."""
    items = np.asarray(items, dtype=np.int64)
    return make_dataset([QueryGroup("q", row, items, items, np.asarray(labels, dtype=float),
                                    np.zeros(len(items), dtype=np.int8))])


def _query_loss(m, d, cfg):
    """L_q of a one-query dataset: its mean loss times N_q."""
    return dataset_loss(m, d, cfg) * d.total_pairs


def _surrogate_ranks(scores, loss_cfg):
    """The surrogate ranks G1 tracks for one list scoring ``scores``: with a
    full batch and gamma 1 the moving average is (surrogate rank) / N_q."""
    n = len(scores)
    m = FactorizationScorer(1, n, 1, bound=100.0)
    m.params.values[:] = 0.0
    m.item_bias[:] = np.arctanh(np.asarray(scores) / m.score_bound)
    d = _one_query(np.arange(n), np.ones(n))
    batch = sample_batch(d, (n, n, n, n), np.random.default_rng(0))
    cfg = replace(loss_cfg, gamma0=1.0)
    state = bound_state(cfg, m, d)
    g1_estimate(ScoredBatch(m, d, batch), d, batch, cfg, state)
    return state.pair_u * n


def _hinge_rank(scores, i, margin):
    return _surrogate_ranks(scores, TrainConfig(loss="ndcg", margin=margin))[i]


def _exp_rank(scores, i):
    return _surrogate_ranks(scores, LISTNET)[i]


finite_scores = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=12)


class TestSurrogateRanks:
    def test_hinge_two_equal_scores(self):
        assert _hinge_rank(np.array([0.0, 0.0]), 0, 1.0) == 2.0

    def test_hinge_margin_saturation(self):
        scores = np.array([5.0, 0.0, 0.5])
        assert _hinge_rank(scores, 0, 1.0) == pytest.approx(1.0)

    def test_hinge_lower_bound_is_margin_squared(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.normal(0, 2, 6)
            assert _hinge_rank(s, 2, 0.7) >= 0.7 ** 2 - 1e-12

    def test_exp_equal_scores(self):
        assert _exp_rank(np.zeros(5), 3) == pytest.approx(5.0)

    def test_exp_hand_value(self):
        assert _exp_rank(np.array([0.0, np.log(2.0)]), 0) == pytest.approx(3.0)

    def test_exp_reciprocal_is_scaled_exposure(self, rng):
        s = rng.normal(0, 1, 8)
        e = np.exp(s - s.max())
        e /= e.sum()
        for i in range(8):
            assert 1.0 / _exp_rank(s, i) == pytest.approx(e[i], rel=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(finite_scores)
    def test_monotone_in_own_score(self, vals):
        s = np.array(vals)
        bumped = s.copy()
        bumped[0] += 0.5
        assert _hinge_rank(bumped, 0, 1.0) <= _hinge_rank(s, 0, 1.0)
        assert _exp_rank(bumped, 0) < _exp_rank(s, 0)


class TestLosses:
    def test_ideal_dcg_orders_gains(self):
        assert ideal_dcg(np.array([0.0, 2.0])) == pytest.approx(3.0)
        assert ideal_dcg(np.array([2.0, 0.0])) == pytest.approx(3.0)

    def test_ndcg_single_item_is_minus_one(self):
        m = FactorizationScorer(1, 1, 2, seed=0)
        d = _one_query([0], [1.0])
        assert _query_loss(m, d, NDCG) == pytest.approx(-1.0)
        assert d.ideal_dcg[0] > 0.0

    def test_ndcg_all_zero_labels_degenerate(self, small_model):
        d = _one_query([0, 1], np.zeros(2))
        assert _query_loss(small_model, d, NDCG) == 0.0
        assert d.ideal_dcg[0] == 0.0

    def test_ndcg_in_unit_interval(self, small_data, small_model):
        for a, b in zip(small_data.offsets[:-1], small_data.offsets[1:]):
            one = small_data.take(np.arange(a, b))
            assert -1.0 <= _query_loss(small_model, one, NDCG) <= 0.0

    def test_listnet_equal_scores(self):
        m = FactorizationScorer(1, 4, 2)
        m.params.values[:] = 0.0
        d = _one_query(np.arange(4), [0.0, 1.0, 2.0, 1.0])
        assert _query_loss(m, d, LISTNET) == pytest.approx(np.log(4.0))

    def test_listnet_single_item(self):
        m = FactorizationScorer(1, 1, 2, seed=4)
        assert _query_loss(m, _one_query([0], [2.0]), LISTNET) == pytest.approx(0.0)

    def test_margin_must_be_positive(self):
        # refused when built, so dataset_loss and G1 never see such a margin
        for margin in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="hinge margin must be positive"):
                TrainConfig(loss="ndcg", margin=margin)
            TrainConfig(loss="listnet", margin=margin)   # ListNet has no hinge

    def test_loss_and_g1_refuse_a_non_positive_margin(self, small_data, small_model):
        # dataset_loss and G1 read cfg.margin unchecked: no path may hand them margin <= 0
        with pytest.raises(ConfigurationError, match="hinge margin must be positive"):
            replace(NDCG, margin=-1.0)
        with pytest.raises(ConfigurationError, match="hinge margin must be positive"):
            replace(LISTNET, loss="ndcg", margin=-1.0)
        with pytest.raises(FrozenInstanceError):
            NDCG.margin = -1.0
        assert NDCG.margin == 1.0
        batch = sample_batch(small_data, (8, 4, 2, 2), np.random.default_rng(0))
        assert np.isfinite(dataset_loss(small_model, small_data, NDCG))
        g1 = _g1(small_model, small_data, batch, NDCG, bound_state(NDCG, small_model, small_data))
        assert np.all(np.isfinite(g1))

    def test_improving_an_items_score_improves_its_contribution(self):
        m = FactorizationScorer(1, 3, 2)
        m.params.values[:] = 0.0
        d = _one_query(np.arange(3), [2.0, 0.0, 0.0])
        before = _query_loss(m, d, NDCG)
        m.item_bias[0] = 3.0
        after = _query_loss(m, d, NDCG)
        assert after < before

    def test_dataset_loss_scores_every_pair_in_one_call(self, small_data, small_model,
                                                        monkeypatch):
        calls = []
        score_many = small_model.score_many
        monkeypatch.setattr(small_model, "score_many",
                            lambda *a, **kw: calls.append(a) or score_many(*a, **kw))
        for cfg in (NDCG, LISTNET):
            dataset_loss(small_model, small_data, cfg)
        assert len(calls) == 2
        assert all(len(items) == small_data.total_pairs for _, items in calls)

    def test_ragged_dataset_is_the_sum_of_its_queries(self):
        g = generate_synthetic(30, 12, 0.3, 1.0, seed=4)
        rng = np.random.default_rng(5)
        d = g.take(np.sort(rng.choice(g.total_pairs, g.total_pairs // 3, replace=False)))
        assert len(set(d.sizes.tolist())) > 1 and np.any(d.ideal_dcg == 0.0)
        m = FactorizationScorer(g.num_query_rows, g.num_item_rows, 4, seed=2)
        parts = [d.take(np.arange(a, b)) for a, b in zip(d.offsets[:-1], d.offsets[1:])]
        for cfg in (NDCG, LISTNET, TrainConfig(loss="ndcg", margin=0.5)):
            total = sum(_query_loss(m, one, cfg) for one in parts)
            assert dataset_loss(m, d, cfg) * d.total_pairs == pytest.approx(total, rel=1e-12)


class TestG1:
    def _setup(self):
        d = generate_synthetic(3, 6, 0.4, 1.0, seed=2)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=2)
        rng = np.random.default_rng(0)
        batch = sample_batch(d, (d.total_pairs, 10, 10, 10), rng)
        return d, m, batch

    def test_gamma_zero_freezes_estimates(self):
        d, m, batch = self._setup()
        cfg = TrainConfig(loss="ndcg", margin=1.0, gamma0=0.0)
        state = bound_state(cfg, m, d)
        g_first = _g1(m, d, batch, cfg, state)
        frozen = state.pair_u.copy()
        g_second = _g1(m, d, batch, cfg, state)
        assert np.array_equal(state.pair_u, frozen)
        assert np.allclose(g_first, g_second)

    def test_full_batch_gamma_one_matches_finite_differences(self):
        d, m, batch = self._setup()
        for loss in ("ndcg", "listnet"):
            cfg = TrainConfig(loss=loss, margin=1.0, gamma0=1.0)
            g1 = _g1(m, d, batch, cfg, bound_state(cfg, m, d))
            w0 = m.params.values.copy()
            fd = np.zeros_like(w0)
            step = 1e-5
            for j in range(len(w0)):
                m.params.values[j] = w0[j] + step
                fp = dataset_loss(m, d, cfg)
                m.params.values[j] = w0[j] - step
                fm = dataset_loss(m, d, cfg)
                m.params.values[j] = w0[j]
                fd[j] = (fp - fm) / (2 * step)
            assert np.abs(g1 - fd).max() <= 1e-5 * max(np.abs(fd).max(), 1e-9)

    def test_moving_average_update_rule(self):
        values, seen = np.zeros(4), np.zeros(4, dtype=bool)
        assert blend(values, seen, np.array([1]), np.array([4.0]), 0.25)[0] == 4.0  # first touch
        assert blend(values, seen, np.array([1, 2]), np.array([8.0, 2.0]), 0.25).tolist() == \
            pytest.approx([0.25 * 8.0 + 0.75 * 4.0, 2.0])
        assert values[1:3].tolist() == pytest.approx([0.25 * 8.0 + 0.75 * 4.0, 2.0])
        assert seen.tolist() == [False, True, True, False]     # untouched rows stay unseen
        assert np.all(values[[0, 3]] == 0.0)
