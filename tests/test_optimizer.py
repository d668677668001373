"""Training configuration, the step update and the outer loop."""

import copy
import json
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import bound_state, make_dataset

from fairtopk.data import BatchSample, generate_synthetic, load_csv, sample_batch, split
from fairtopk.errors import ConfigurationError, NonFiniteGradientError, StateError
from fairtopk.fairness import g2_estimate
from fairtopk.model import FactorizationScorer
from fairtopk.optimizer import (
    TrainConfig,
    TrainerState,
    TrainTrace,
    config_from_file,
    config_to_file,
    train,
    train_step,
)
from fairtopk.rank_losses import ScoredBatch, g1_estimate


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
        TrainConfig()

    def test_mode_conflict(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(fairness_mode="none", fair_weight=100.0)

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(fairness_mode="bogus")

    def test_gamma_range(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(gamma0=1.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", [f.name for f in fields(TrainConfig)
                                      if isinstance(f.default, float)])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            replace(TrainConfig(), **{name: value})

    @pytest.mark.parametrize("overrides", [
        {"gamma0": 2.0},
        {"gamma4": -1.0, "fair_weight": 5.0},
        {"eta1": -1.0},
        {"fairness_mode": "none", "fair_weight": 5.0},
    ])
    def test_invalid_config_cannot_be_built(self, overrides):
        # train_step does not check its config, so none of these may exist
        with pytest.raises(ConfigurationError):
            TrainConfig(**overrides)
        with pytest.raises(ConfigurationError):
            replace(TrainConfig(), **overrides)

    def test_fields_are_read_only(self):
        cfg = TrainConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.fair_weight = 5.0

    @pytest.mark.parametrize("name, value, ok", [
        ("epochs", 1.5, False),
        ("batch_pairs", 2.5, False),
        ("seed", 1.5, False),
        ("fair_weight", "5", False),
        ("k", "3", False),
        ("epochs", True, False),
        ("batch_items", True, False),
        ("k", 2.0, False),
        ("fair_weight", 5, True),
        ("seed", np.int64(3), True),
    ])
    def test_field_types(self, name, value, ok):
        if ok:
            assert getattr(TrainConfig(**{name: value}), name) == value
        else:
            with pytest.raises(ConfigurationError, match=name):
                TrainConfig(**{name: value})

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


class TestTrainStep:
    def test_zero_step_size_keeps_params(self):
        d, m, cfg = _tiny_setup(eta1=0.0, gamma5=1.0, fair_weight=10.0)
        state = TrainerState.fresh(cfg, len(m.params.values))
        w0 = m.params.values.copy()
        train_step(m, d, cfg, state, np.random.default_rng(0))
        assert np.array_equal(m.params.values, w0)
        assert np.linalg.norm(state.z) > 0.0

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
        from fairtopk.rank_losses import dataset_loss

        d = generate_synthetic(1, 8, 0.4, 1.0, seed=1)
        m = FactorizationScorer(1, d.num_item_rows, 2, seed=1)
        cfg = TrainConfig(k=2, epochs=1, batch_pairs=1000, batch_items=1000,
                          batch_a=1000, batch_b=1000, gamma0=1.0, gamma5=1.0,
                          eta1=1.0, seed=1)
        state = TrainerState.fresh(cfg, len(m.params.values))
        before = dataset_loss(m, d, cfg)
        rng = np.random.default_rng(1)
        for _ in range(30):
            train_step(m, d, cfg, state, rng)
        assert dataset_loss(m, d, cfg) < before

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
        assert set(np.flatnonzero(state.pair_seen).tolist()) == sampled_pairs
        assert set(np.flatnonzero(state.fair_seen).tolist()) == sampled_queries
        assert np.array_equal(~np.isnan(state.lam[:, 0]), state.fair_seen)

    def test_one_gather_and_one_scatter_per_step(self, monkeypatch):
        calls = []
        for name in ("score_many", "add_weighted_grads"):
            def counted(self, q, items, *rest, _name=name,
                        _original=getattr(FactorizationScorer, name), **kwargs):
                calls.append((_name, len(items)))
                return _original(self, q, items, *rest, **kwargs)

            monkeypatch.setattr(FactorizationScorer, name, counted)
        for name in ("item_emb", "query_emb"):
            def read(self, _name=name, _get=getattr(FactorizationScorer, name).fget):
                calls.append((_name, "read"))
                return _get(self)

            monkeypatch.setattr(FactorizationScorer, name, property(read))
        for c in (10.0, 0.0):
            d, m, cfg = _tiny_setup(fair_weight=c)
            rng = np.random.default_rng(3)
            batch = sample_batch(d, (cfg.batch_pairs, cfg.batch_items, cfg.batch_a,
                                     cfg.batch_b), copy.deepcopy(rng))
            active = ~batch.skipped if c > 0 else np.zeros_like(batch.skipped)
            assert active.any() == (c > 0)
            calls.clear()
            train_step(m, d, cfg, TrainerState.fresh(cfg, len(m.params.values)), rng)
            # G1, the threshold update and G2 share one gather; G1 and C * G2 one
            # scatter, which reuses the embedding rows the gather read
            filled = sum(np.count_nonzero(b >= 0) for b in (
                batch.pairs, batch.items, batch.group_a[active], batch.group_b[active]))
            assert calls == [("score_many", filled), ("item_emb", "read"),
                             ("query_emb", "read"), ("add_weighted_grads", filled)]


class TestNonFiniteGradients:
    """A non-finite estimate stops the step before the parameters move,
    naming the estimator it came from."""

    def _assert_step_raises(self, m, d, cfg, state, rng, name):
        w0 = m.params.values.copy()
        with pytest.raises(NonFiniteGradientError, match=name):
            train_step(m, d, cfg, state, rng)
        np.testing.assert_array_equal(m.params.values, w0)

    def test_nan_parameter_is_reported_as_g1(self):
        d, m, cfg = _tiny_setup(fair_weight=10.0)
        m.query_emb[:] = np.nan
        state = TrainerState.fresh(cfg, len(m.params.values))
        self._assert_step_raises(m, d, cfg, state, np.random.default_rng(3), "G1")

    def test_nan_fairness_average_is_reported_as_g2(self):
        d, m, cfg = _tiny_setup(fair_weight=10.0)
        state = TrainerState.fresh(cfg, len(m.params.values))
        rng = np.random.default_rng(3)
        train_step(m, d, cfg, state, rng)
        batch = sample_batch(d, (cfg.batch_pairs, cfg.batch_items, cfg.batch_a,
                                 cfg.batch_b), copy.deepcopy(rng))
        rows = batch.queries[~batch.skipped]
        seen = rows[state.fair_seen[rows]]
        assert seen.size
        state.fair_u[seen[0]] = np.nan
        self._assert_step_raises(m, d, cfg, state, rng, "G2")


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
        # an empty trace's CSV header names the same columns, in the same order
        assert all(tuple(r) == TrainTrace.FIELDS for r in result.trace.records)

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
            TrainConfig(lr_schedule="bogus")


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

    def test_empty_trace_writes_the_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        TrainTrace().to_csv(str(path))
        assert path.read_text().splitlines() == [",".join(TrainTrace.FIELDS)]


class TestPinnedTrajectory:
    """Twenty train_step calls from a fixed start, compared with recorded
    parameter values.  They move if the sampler's random stream or the
    estimators' arithmetic changes beyond summation-order rounding."""

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
        cfg = self._config(name)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 3, seed=2)
        state = TrainerState.fresh(cfg, len(m.params.values))
        rng = np.random.default_rng(cfg.seed)
        for _ in range(20):
            train_step(m, d, cfg, state, rng)
        expected = np.array(json.loads(self.PINS.read_text())[name])
        np.testing.assert_allclose(m.params.values, expected, rtol=0.0, atol=1e-12)

    def _config(self, name, **overrides):
        return TrainConfig(k=2, batch_pairs=10, batch_items=4, batch_a=2, batch_b=3,
                           eta1=0.3, seed=5, **self.CONFIGS[name], **overrides)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_step_moves_momentum_by_g1_plus_c_g2(self, tmp_path, name):
        """The step (one scatter of G1 + C * G2, summed block by block) against
        one scatter per estimator on the same ScoredBatch, blended into the
        previous z with weight gamma5; at gamma5 = 1, z is that gradient."""
        d = self._data(tmp_path)
        for gamma5 in (TrainConfig().gamma5, 1.0):
            cfg = self._config(name, gamma5=gamma5)
            sizes = (cfg.batch_pairs, cfg.batch_items, cfg.batch_a, cfg.batch_b)
            m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 3, seed=2)
            state = TrainerState.fresh(cfg, len(m.params.values))
            rng = np.random.default_rng(cfg.seed)
            for _ in range(5):
                train_step(m, d, cfg, state, rng)
            if cfg.fairness_active() and cfg.fairness_mode == "top_k":
                # every query with both groups has its threshold: no warm start below
                assert not np.isnan(state.lam[d.has_both_groups, 0]).any()
            skipped_seen = False
            for _ in range(5):
                ref_m, ref_state, ref_rng = copy.deepcopy((m, state, rng))
                train_step(m, d, cfg, state, rng)
                batch = sample_batch(d, sizes, ref_rng)
                skipped_seen |= bool(batch.skipped.any())
                scored = ScoredBatch(ref_m, d, batch, fair=cfg.fairness_active())
                grad = scored.dense(g1_estimate(scored, d, batch, cfg, ref_state))
                if cfg.fairness_active():
                    g2 = g2_estimate(scored, d, batch, cfg, ref_state)
                    grad += cfg.fair_weight * scored.dense(g2)
                assert np.any(ref_state.z != 0.0)
                np.testing.assert_allclose(state.z, (1.0 - gamma5) * ref_state.z + gamma5 * grad,
                                           rtol=0.0, atol=1e-12)
            assert skipped_seen        # q3 sampled: the skipped-row mask was exercised

    def test_state_resumes_from_plain_arrays(self, tmp_path):
        """The bound state is plain arrays: saved with np.savez after five steps
        and loaded without pickle, it continues to the parameters of ten
        uninterrupted steps."""
        d = self._data(tmp_path)
        cfg = self._config("top_k")
        params = []
        for resume in (False, True):
            m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 3, seed=2)
            state = TrainerState.fresh(cfg, len(m.params.values))
            rng = np.random.default_rng(cfg.seed)
            for step in range(10):
                if resume and step == 5:
                    np.savez(tmp_path / "state.npz", **vars(state))
                    with np.load(tmp_path / "state.npz", allow_pickle=False) as loaded:
                        state = TrainerState(**loaded)
                train_step(m, d, cfg, state, rng)
            params.append(m.params.values)
        assert np.array_equal(params[0], params[1])


class TestNdcgZeroInnerEstimate:
    """A pair whose item outscores every sampled inner item by more than the
    margin gets u = 0 on its first touch; the NDCG outer derivative must stay
    finite there (it once divided by log2(1) = 0)."""

    def test_twenty_steps_stay_finite(self, tmp_path):
        path = tmp_path / "zero_u.csv"
        path.write_text("q0,10,3,0\nq0,11,0,1\nq0,12,1,0\nq0,13,0,1\nq0,14,2,1\n")
        d = load_csv(str(path))
        # item 10 scores 5, the others 0: four above the unit margin
        m = FactorizationScorer(1, d.num_item_rows, 2, bound=50.0)
        m.params.values[:] = 0.0
        m.item_bias[:] = np.arctanh(np.array([5.0, 0.0, 0.0, 0.0, 0.0]) / 50.0)
        # the pair is item 10; the inner sub-batch holds items 11 to 13, not 10
        batch = BatchSample(pairs=np.array([0]), pair_row=np.array([0]), queries=np.array([0]),
                            items=np.array([[1, 2, 3, -1]]), group_a=np.array([[0, 2]]),
                            group_b=np.array([[1, 3]]), skipped=np.array([False]),
                            offsets=d.offsets)
        cfg = TrainConfig(loss="ndcg", margin=1.0, gamma0=0.5)
        state = bound_state(cfg, m, d)
        zero_seen = False
        for _ in range(20):
            scored = ScoredBatch(m, d, batch)
            m.params.values -= 0.5 * scored.dense(g1_estimate(scored, d, batch, cfg, state))
            zero_seen |= bool(state.pair_seen[0] and state.pair_u[0] == 0.0)
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
        other = make_dataset([moved, grown] + d.queries[2:], d.vocab, d.num_query_rows)
        assert other.total_pairs == d.total_pairs
        with pytest.raises(StateError):
            train_step(m, other, cfg, state, np.random.default_rng(0))

    def test_g1_needs_a_state_bound_to_its_dataset(self):
        d, m, cfg = _tiny_setup()
        batch = sample_batch(d, (8, 4, 2, 2), np.random.default_rng(0))
        scored = ScoredBatch(m, d, batch)
        with pytest.raises(StateError, match="bound"):
            g1_estimate(scored, d, batch, cfg, TrainerState.fresh(cfg, len(m.params.values)))
        first = d.take(np.arange(d.offsets[1]))             # the first query only
        with pytest.raises(StateError, match="bound"):
            g1_estimate(scored, d, batch, cfg, bound_state(cfg, m, first))


class TestUnknownModes:
    """A mode string train_step does not know is refused when the config is
    built, so it can never be trained as another mode."""

    def test_unknown_loss_is_refused(self):
        with pytest.raises(ConfigurationError, match="loss"):
            _tiny_setup(loss="bogus")

    def test_unknown_fairness_mode_is_refused(self):
        with pytest.raises(ConfigurationError, match="fairness_mode"):
            _tiny_setup(fairness_mode="bogus", fair_weight=5.0)
