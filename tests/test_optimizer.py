"""Training configuration, the step update and the outer loop."""

import copy
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fairtopk.data import generate_synthetic, load_csv, sample_batch, split
from fairtopk.errors import ConfigurationError, StateError
from fairtopk.model import FactorizationScorer
from fairtopk.optimizer import (
    MomentumState,
    TrainConfig,
    TrainerState,
    TrainTrace,
    config_from_file,
    config_to_file,
    train,
    train_step,
)


def _tiny_setup(seed=0, **overrides):
    d = generate_synthetic(4, 8, 0.4, 1.0, seed=seed)
    m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=seed)
    base = dict(k=2, epochs=1, batch_pairs=8, batch_items=4,
                batch_a=2, batch_b=2, seed=seed, log_every=5)
    base.update(overrides)
    cfg = TrainConfig(**base)
    return d, m, cfg


class TestConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    def test_mode_conflict(self):
        cfg = TrainConfig(fairness_mode="none", fair_weight=100.0)
        with pytest.raises(ConfigurationError):
            cfg.validate()

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(fairness_mode="bogus").validate()

    def test_gamma_range(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(gamma0=1.5).validate()

    def test_file_round_trip(self, tmp_path):
        cfg = TrainConfig(k=7, fair_weight=123.0, loss="listnet", gamma0=0.9)
        path = str(tmp_path / "c.cfg")
        config_to_file(cfg, path)
        assert config_from_file(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("k=5\nnot_a_key=1\n")
        with pytest.raises(ConfigurationError, match="unknown key"):
            config_from_file(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs=three\n")
        with pytest.raises(ConfigurationError):
            config_from_file(str(path))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nk=3\n")
        assert config_from_file(str(path)).k == 3

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("k 3\n")
        with pytest.raises(ConfigurationError):
            config_from_file(str(path))


class TestMomentum:
    def test_exponential_average(self):
        st = MomentumState(z=np.zeros(2), gamma=0.25)
        st.update(np.array([4.0, 8.0]))
        assert np.allclose(st.z, [1.0, 2.0])
        st.update(np.array([4.0, 8.0]))
        assert np.allclose(st.z, [1.75, 3.5])

    def test_gamma_one_tracks_gradient(self):
        st = MomentumState(z=np.array([9.0]), gamma=1.0)
        st.update(np.array([2.0]))
        assert st.z[0] == 2.0


class TestTrainStep:
    def test_zero_step_size_keeps_params(self):
        d, m, cfg = _tiny_setup(eta1=0.0, gamma5=1.0, fair_weight=10.0)
        state = TrainerState.fresh(cfg, len(m.params.values))
        w0 = m.params.values.copy()
        train_step(m, d, cfg, state, np.random.default_rng(0))
        assert np.array_equal(m.params.values, w0)
        assert np.linalg.norm(state.momentum.z) > 0.0

    def test_deterministic_trajectories(self):
        results = []
        for _ in range(2):
            d, m, cfg = _tiny_setup(fair_weight=5.0, epochs=2)
            train(m, d, cfg, valid_d=None)
            results.append(m.params.values.copy())
        assert np.array_equal(results[0], results[1])

    def test_descends_on_convex_toy(self):
        # one query, NDCG loss: repeated full-batch steps with gamma = 1
        # must reduce the loss for a conservative step size
        from fairtopk.rank_losses import RankLossKind, LossVariant, dataset_loss

        d = generate_synthetic(1, 8, 0.4, 1.0, seed=1)
        m = FactorizationScorer(1, d.num_item_rows, 2, seed=1)
        cfg = TrainConfig(k=2, epochs=1, batch_pairs=1000, batch_items=1000,
                          batch_a=1000, batch_b=1000, gamma0=1.0, gamma5=1.0,
                          eta1=1.0, seed=1)
        state = TrainerState.fresh(cfg, len(m.params.values))
        kind = RankLossKind(LossVariant.NDCG, 1.0)
        before = dataset_loss(m, d, kind)
        rng = np.random.default_rng(1)
        for _ in range(30):
            train_step(m, d, cfg, state, rng)
        assert dataset_loss(m, d, kind) < before

    def test_fairness_none_equals_c_zero(self):
        trajectories = []
        for mode, c in (("none", 0.0), ("top_k", 0.0)):
            d, m, cfg = _tiny_setup(fairness_mode=mode, fair_weight=c, epochs=2)
            train(m, d, cfg, valid_d=None)
            trajectories.append(m.params.values.copy())
        assert np.array_equal(trajectories[0], trajectories[1])

    def test_only_batched_state_touched(self):
        d, m, cfg = _tiny_setup(fair_weight=10.0, batch_pairs=2)
        state = TrainerState.fresh(cfg, len(m.params.values))
        rng = np.random.default_rng(3)
        sampled_pairs, sampled_queries = set(), set()
        for _ in range(3):
            batch = sample_batch(d, (cfg.batch_pairs, cfg.batch_items, cfg.batch_a,
                                     cfg.batch_b), copy.deepcopy(rng))
            sampled_pairs |= set(batch.pairs.tolist())
            sampled_queries |= set(batch.queries.tolist())
            train_step(m, d, cfg, state, rng)
        assert set(np.flatnonzero(state.pairs.seen).tolist()) == sampled_pairs
        assert set(np.flatnonzero(state.fair.u.seen).tolist()) == sampled_queries
        assert np.array_equal(~np.isnan(state.lam.lam), state.fair.u.seen)

    def test_fairness_sub_batches_scored_once(self, monkeypatch):
        d, m, cfg = _tiny_setup(fair_weight=10.0)
        rng = np.random.default_rng(3)
        batch = sample_batch(d, (cfg.batch_pairs, cfg.batch_items, cfg.batch_a,
                                 cfg.batch_b), copy.deepcopy(rng))
        scored = []
        original = FactorizationScorer.score_many

        def counted(self, q, items):
            scored.append(len(items))
            return original(self, q, items)

        monkeypatch.setattr(FactorizationScorer, "score_many", counted)
        train_step(m, d, cfg, TrainerState.fresh(cfg, len(m.params.values)), rng)
        active = ~batch.skipped
        assert active.any()
        # one gather for G1; one for the threshold update and G2 together
        assert scored[1:] == [sum(np.count_nonzero(b[active] >= 0)
                                  for b in (batch.group_a, batch.group_b, batch.items))]


class TestTrain:
    def test_zero_epochs_is_identity(self):
        d, m, cfg = _tiny_setup(epochs=0)
        w0 = m.params.values.copy()
        result = train(m, d, cfg, valid_d=None)
        assert np.array_equal(m.params.values, w0)
        assert result.trace.records == []

    def test_trace_has_monotone_steps(self):
        d, m, cfg = _tiny_setup(epochs=2)
        result = train(m, d, cfg, valid_d=None)
        steps = [r["step"] for r in result.trace.records]
        assert steps == sorted(steps)
        assert {"train_loss", "z_norm", "wall_time"} <= set(result.trace.records[0])

    def test_validation_tracking(self):
        d = generate_synthetic(6, 10, 0.4, 1.0, seed=2)
        from fairtopk.data import split
        tr, va, te, _ = split(d, (0.5, 0.25, 0.25), seed=0)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=2)
        cfg = TrainConfig(k=2, epochs=1, batch_pairs=8, batch_items=4,
                          batch_a=2, batch_b=2, seed=2, log_every=2)
        result = train(m, tr, cfg, valid_d=va)
        assert np.isfinite(result.best_valid_ndcg)
        assert len(result.best_params) == len(m.params.values)

    def test_step_decay_schedule_validates(self):
        d, m, cfg = _tiny_setup(lr_schedule="step_decay", epochs=2)
        train(m, d, cfg, valid_d=None)
        with pytest.raises(ConfigurationError):
            TrainConfig(lr_schedule="bogus").validate()


class TestTrainTrace:
    def test_rejects_backwards_steps(self):
        trace = TrainTrace()
        trace.append(step=3, loss=1.0)
        with pytest.raises(ValueError):
            trace.append(step=1, loss=0.5)

    def test_csv_output(self, tmp_path):
        trace = TrainTrace()
        trace.append(step=0, loss=1.0)
        trace.append(step=5, loss=0.5)
        path = tmp_path / "trace.csv"
        trace.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 3


class TestPinnedTrajectory:
    """Twenty train_step calls from a fixed start, compared with parameter
    values recorded with the earlier per-query implementation of the step.
    They move if the sampler's random stream or the estimators' arithmetic
    changes beyond summation-order rounding."""

    PINS = Path(__file__).with_name("trajectory_pins.json")
    SIZES = (9, 6, 12, 5, 7)
    B_ONLY = (1, 3, 5, 7, 9)     # query q3 has no group-A item: fairness skips it
    CONFIGS = {
        "rank": dict(fair_weight=0.0),
        "top_k": dict(fair_weight=5.0, loss="listnet"),
        "top_k_full_implicit": dict(fair_weight=5.0, g2_mode="full_implicit"),
        "full_list": dict(fair_weight=5.0, fairness_mode="full_list", loss="listnet"),
    }

    def _data(self, tmp_path):
        lines = ["query_id,item_id,relevance,group"]
        for q, n in enumerate(self.SIZES):
            items = self.B_ONLY if q == 3 else [(5 * q + 3 * j) % 23 for j in range(n)]
            lines += [f"q{q},{i},{(7 * i + q) % 5},{i % 2}" for i in items]
        path = tmp_path / "pins.csv"
        path.write_text("\n".join(lines) + "\n")
        return load_csv(str(path))

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_matches_recorded_parameters(self, tmp_path, name):
        d = self._data(tmp_path)
        cfg = TrainConfig(k=2, batch_pairs=10, batch_items=4, batch_a=2, batch_b=3,
                          eta1=0.3, seed=5, **self.CONFIGS[name])
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 3, seed=2)
        state = TrainerState.fresh(cfg, len(m.params.values))
        rng = np.random.default_rng(cfg.seed)
        for _ in range(20):
            train_step(m, d, cfg, state, rng)
        expected = np.array(json.loads(self.PINS.read_text())[name])
        np.testing.assert_allclose(m.params.values, expected, rtol=0.0, atol=1e-12)


class TestNdcgZeroInnerEstimate:
    """A pair whose item outscores every sampled inner item by more than the
    margin gets u = 0 on its first touch; the NDCG outer derivative must stay
    finite there (it once divided by log2(1) = 0 at the second step)."""

    def test_twenty_steps_stay_finite(self, tmp_path):
        lines = ["query_id,item_id,relevance,group"]
        for q, n in enumerate((9, 6, 12, 5, 7)):
            for i in ((5 * q + 3 * j) % 23 for j in range(n)):
                group = 1 if q == 3 or i % 3 else 0
                # q3, group B only, has items of its own: an item keeps one group
                lines.append(f"q{q},{i + 23 * (q == 3)},{(7 * i + q) % 5},{group}")
        path = tmp_path / "zero_u.csv"
        path.write_text("\n".join(lines) + "\n")
        d = load_csv(str(path))
        cfg = TrainConfig(k=2, batch_pairs=10, batch_items=4, batch_a=2, batch_b=3,
                          eta1=0.5, fair_weight=50.0, fairness_mode="top_k",
                          g2_mode="full_implicit", seed=5)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 3, seed=2)
        state = TrainerState.fresh(cfg, len(m.params.values))
        rng = np.random.default_rng(cfg.seed)
        zero_seen = False
        for _ in range(20):
            train_step(m, d, cfg, state, rng)
            zero_seen |= bool(np.any(state.pairs.values[state.pairs.seen] == 0.0))
        assert zero_seen
        assert np.all(np.isfinite(m.params.values))


class TestStateReuse:
    def test_other_dataset_shape_is_a_state_error(self):
        d, m, cfg = _tiny_setup(fair_weight=10.0)
        state = TrainerState.fresh(cfg, len(m.params.values))
        rng = np.random.default_rng(0)
        train_step(m, d, cfg, state, rng)
        train_step(m, d, cfg, state, rng)          # same dataset: fine
        smaller, _, _, _ = split(d, (0.5, 0.25, 0.25), seed=0)
        with pytest.raises(StateError):
            train_step(m, smaller, cfg, state, rng)

    def test_same_totals_other_layout_is_a_state_error(self):
        d, m, cfg = _tiny_setup()
        state = TrainerState.fresh(cfg, len(m.params.values))
        train_step(m, d, cfg, state, np.random.default_rng(0))
        q0, q1 = d.queries[0], d.queries[1]
        moved = replace(q0, item_ids=q0.item_ids[:-1], feature_idx=q0.feature_idx[:-1],
                        relevance=q0.relevance[:-1], groups=q0.groups[:-1])
        grown = replace(q1, item_ids=np.append(q1.item_ids, q0.item_ids[-1]),
                        feature_idx=np.append(q1.feature_idx, q0.feature_idx[-1]),
                        relevance=np.append(q1.relevance, q0.relevance[-1]),
                        groups=np.append(q1.groups, q0.groups[-1]))
        other = replace(d, queries=[moved, grown] + d.queries[2:])
        assert other.total_pairs == d.total_pairs
        with pytest.raises(StateError):
            train_step(m, other, cfg, state, np.random.default_rng(0))
