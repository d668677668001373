"""Training configuration, the step update and the outer loop."""

import copy
import hashlib
import json
import math
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import bound_state, make_dataset, queries_of, write_wide_vocabulary_csv

from fairtopk import data as data_module
from fairtopk import model as model_module
from fairtopk.data import BatchSample, generate_synthetic, load_csv, sample_batch, split
from fairtopk.errors import ConfigurationError, NonFiniteGradientError, StateError
from fairtopk.fairness import g2_estimate
from fairtopk.model import FactorizationScorer
from fairtopk.optimizer import (
    TRACE_FIELDS,
    TrainConfig,
    TrainerState,
    config_from_file,
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
        # the threshold objective and the indicator check no settings of their own
        {"tau1": 0.0}, {"tau2": 0.0}, {"tau_psi": 0.0},
        {"eps": 0.0}, {"eps": 1.0}, {"eps": 1.5}, {"k": 0},
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
        path = tmp_path / "c.cfg"
        path.write_text("".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg)))
        assert config_from_file(str(path)) == cfg

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

    def test_k_beyond_the_lists_trains_as_k_per_query(self):
        # every list holds 8 items, so K = 50 ranks each with K_q = 7
        runs = []
        for k in (50, 7):
            d, m, cfg = _tiny_setup(k=k, fair_weight=5.0)
            state = TrainerState.fresh(cfg, len(m.params.values))
            rng = np.random.default_rng(0)
            for _ in range(8):
                train_step(m, d, cfg, state, rng)
            runs.append((m.params.values, state.lam))
        assert (d.sizes == 8).all()
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

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
            # scatter, which reuses the embedding rows the gather read; both
            # take one row of slots per sampled query
            rows = len(batch.queries)
            assert calls == [("score_many", rows), ("item_emb", "read"),
                             ("query_emb", "read"), ("add_weighted_grads", rows)]

    def test_group_rows_are_selected_only_with_fairness_on(self, monkeypatch):
        # the item sub-batch takes one smallest_keys call, the group rows a second
        calls = []
        original = data_module.smallest_keys
        monkeypatch.setattr(data_module, "smallest_keys",
                            lambda *a: calls.append(a) or original(*a))
        for c, count in ((0.0, 1), (10.0, 2)):
            d, m, cfg = _tiny_setup(fair_weight=c)
            calls.clear()
            train_step(m, d, cfg, TrainerState.fresh(cfg, len(m.params.values)),
                       np.random.default_rng(3))
            assert len(calls) == count


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
        assert result.trace == []

    def test_trace_has_monotone_steps(self):
        d, m, cfg = _tiny_setup(epochs=2)
        result = train(m, d, cfg, valid_d=None)
        steps = [r["step"] for r in result.trace]
        assert steps == sorted(steps)
        # an empty trace's CSV header names the same columns, in the same order
        assert all(tuple(r) == TRACE_FIELDS for r in result.trace)

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


class TestScatterPaths:
    """``add_weighted_grads`` sums a batch into a dense (query rows x items)
    matrix when the vocabulary is small next to the batch, else scatters
    with per-column bincounts; both give the same step to rounding."""

    def test_dense_and_per_column_steps_agree_on_the_bench_split(self, monkeypatch):
        d = generate_synthetic(200, 305, 0.3, 2.0, seed=1)
        train_d, _, _, _ = split(d, (0.8, 0.1, 0.1), seed=0)
        cfg = TrainConfig(k=50, loss="listnet", batch_pairs=256, batch_items=32, batch_a=16,
                          batch_b=16, eta1=1.0, seed=1, fair_weight=1000.0)
        dense_calls = []
        original = FactorizationScorer.add_weighted_grads

        def counted(self, q, items, coeff, *rest, **kwargs):
            # a vector's entries, or the weighted slots of a (queries, slots) block
            pairs = len(coeff) if np.ndim(coeff) == 1 else np.count_nonzero(coeff)
            if len(np.unique(q)) * self.num_items <= model_module.DENSE_CELLS_PER_PAIR * pairs:
                dense_calls.append(pairs)
            return original(self, q, items, coeff, *rest, **kwargs)

        monkeypatch.setattr(FactorizationScorer, "add_weighted_grads", counted)
        params = []
        for cells_per_pair in (model_module.DENSE_CELLS_PER_PAIR, 0):
            monkeypatch.setattr(model_module, "DENSE_CELLS_PER_PAIR", cells_per_pair)
            m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 8, seed=1)
            state, rng = TrainerState.fresh(cfg, len(m.params.values)), np.random.default_rng(1)
            for _ in range(5):
                train_step(m, train_d, cfg, state, rng)
            params.append(m.params.values)
        assert len(dense_calls) == 5
        assert not np.array_equal(params[0], params[1])
        np.testing.assert_allclose(params[0], params[1], rtol=0.0, atol=1e-12)

    def test_wide_vocabulary_step_holds_no_dense_matrix(self, tmp_path):
        # 2,000 queries of 20 items over a 20,000-item vocabulary: a batch's
        # (query rows x vocabulary) matrix of doubles would take about 40 MB
        d = load_csv(write_wide_vocabulary_csv(tmp_path / "wide.csv"))
        model = FactorizationScorer(d.num_query_rows, d.num_item_rows, 4, seed=0)
        cfg = TrainConfig(k=5, loss="listnet", fair_weight=10.0, seed=0)
        state, rng = TrainerState.fresh(cfg, len(model.params.values)), np.random.default_rng(0)
        train_step(model, d, cfg, state, rng)     # the first step also builds the normalizers
        tracemalloc.start()
        try:
            train_step(model, d, cfg, state, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20

    @staticmethod
    def _one_big_query(tmp_path, big, small):
        """A query of ``big`` items among 40 of ``small``, and a batch of its
        data in which that query holds most pairs."""
        rng = np.random.default_rng(0)
        lines = [f"big,{i},{(7 * i) % 5},{i % 2}" for i in range(big)]
        for k in range(40):
            lines += [f"q{k},{i},{(3 * i + k) % 5},{i % 2}"
                      for i in rng.choice(5000, small, replace=False)]
        path = tmp_path / "one_big.csv"
        path.write_text("\n".join(lines) + "\n")
        d = load_csv(str(path))
        cfg = TrainConfig(k=5, loss="listnet", fair_weight=10.0, seed=0)
        batch = sample_batch(d, (cfg.batch_pairs, cfg.batch_items, cfg.batch_a, cfg.batch_b),
                             np.random.default_rng(0))
        return d, cfg, batch

    def test_one_query_holding_most_positions_steps_alike_on_both_paths(self, tmp_path,
                                                                        monkeypatch):
        """Nearly every sampled pair is in the big query's row of the
        ScoredBatch block, which is as wide as its pairs.  The step agrees on
        both scatter paths and stays as small as on the wide vocabulary."""
        d, cfg, batch = self._one_big_query(tmp_path, 4000, 10)
        assert np.bincount(batch.pair_row).max() >= 200
        params, peaks = [], []
        for cells_per_pair in (10 ** 6, 0):                     # dense, then per-column
            monkeypatch.setattr(model_module, "DENSE_CELLS_PER_PAIR", cells_per_pair)
            m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 4, seed=0)
            state = TrainerState.fresh(cfg, len(m.params.values))
            step_rng = np.random.default_rng(0)
            train_step(m, d, cfg, state, step_rng)      # also builds the normalizers
            tracemalloc.start()
            try:
                train_step(m, d, cfg, state, step_rng)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            params.append(m.params.values)
        np.testing.assert_allclose(params[0], params[1], rtol=0.0, atol=1e-12)
        assert max(peaks) <= 4 * 2 ** 20, peaks


    def test_block_scatters_in_the_flat_order(self, tmp_path, monkeypatch):
        """The dense scatter of a ScoredBatch block has the bits of the same
        weights scattered as vectors in the order pairs, items, group A,
        group B: row-major order meets each (query row, item) cell's weights
        so.  The batch takes every position, so a cell of the big query often
        sums a pair, an item and a group slot, whose order shows in its bits."""
        monkeypatch.setattr(model_module, "DENSE_CELLS_PER_PAIR", 10 ** 6)
        d, _, batch = self._one_big_query(tmp_path, 100, 3)
        assert len(batch.pairs) == d.total_pairs and len(batch.queries) == 41
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 4, seed=0)
        scored, rng = ScoredBatch(m, d, batch), np.random.default_rng(1)
        weights = {name: np.where(f, rng.normal(0.0, 1.0, f.shape), 0.0)
                   for name, f in scored.filled.items()}
        active = ~batch.skipped
        blocks = (batch.pairs, batch.items, batch.group_a[active], batch.group_b[active])
        pos = np.concatenate([b[b >= 0] for b in blocks])
        flat = np.concatenate([weights[name][scored.filled[name]] for name in weights])
        q, items, kept = d.query_row[pos], d.feature_idx[pos], {}
        m.score_many(q, items, keep=kept)
        expected = np.zeros(len(m.params.values))
        m.add_weighted_grads(q, items, flat, expected, kept=kept)
        assert scored.dense(weights).tobytes() == expected.tobytes()


class TestBenchEpochDigests:
    """sha256 of the parameters after one epoch (191 steps) of the benchmark's
    fit workloads, listnet at C = 0 and top_k at C = 1000, on the bench split
    of seeds 1 and 3.  Any change to the step's arithmetic beyond the last
    bit, or to the sampler's stream, moves them.  They hold for the build
    they were recorded on (CPython 3.11, numpy 2.4.6 with OpenBLAS 0.3.31,
    2-core x86-64): the dense scatter's matrix products may round
    differently under another BLAS kernel or thread count, so a mismatch on
    another build is not by itself a code regression."""

    DIGESTS = {
        ("fit_rank", 1): "a3a43c85879459c6e3fa018bcbe66daf9ec5a0197abe6b96d2149d769f8b725a",
        ("fit_rank", 3): "78024ca113b4d63cf9b938240cc32f97895770d1277e8ccc3634ba1dd8a22457",
        ("fit_topk", 1): "27e3faf063c5fe18260cf1c803cef15d78b27bb8d2cc5e041b065b7a1795780c",
        ("fit_topk", 3): "0a1b982ff63c4be126765512ac03608f51d08841191b4850684e39f9182aff21",
    }

    @pytest.mark.parametrize("workload, seed", sorted(DIGESTS))
    def test_one_epoch_gives_the_recorded_bits(self, workload, seed):
        d = generate_synthetic(200, 305, 0.3, 2.0, seed=seed)
        train_d, _, _, _ = split(d, (0.8, 0.1, 0.1), seed=0)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 8, seed=seed)
        cfg = TrainConfig(k=50, loss="listnet", batch_pairs=256, batch_items=32, batch_a=16,
                          batch_b=16, eta1=1.0, seed=seed, log_every=10_000,
                          fair_weight={"fit_rank": 0.0, "fit_topk": 1000.0}[workload])
        state, rng = TrainerState.fresh(cfg, len(m.params.values)), np.random.default_rng(seed)
        steps = math.ceil(train_d.total_pairs / cfg.batch_pairs)
        assert steps == 191
        for _ in range(steps):
            train_step(m, train_d, cfg, state, rng)
        digest = hashlib.sha256(m.params.values.tobytes()).hexdigest()
        assert digest == self.DIGESTS[workload, seed]


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
                scored = ScoredBatch(ref_m, d, batch)
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
        q0, q1, *rest = queries_of(d)
        moved = replace(q0, item_ids=q0.item_ids[:-1], feature_idx=q0.feature_idx[:-1],
                        relevance=q0.relevance[:-1], groups=q0.groups[:-1])
        grown = replace(q1, item_ids=np.append(q1.item_ids, q0.item_ids[-1]),
                        feature_idx=np.append(q1.feature_idx, q0.feature_idx[-1]),
                        relevance=np.append(q1.relevance, q0.relevance[-1]),
                        groups=np.append(q1.groups, q0.groups[-1]))
        other = make_dataset([moved, grown, *rest], d.vocab, d.num_query_rows)
        assert other.total_pairs == d.total_pairs
        with pytest.raises(StateError):
            train_step(m, other, cfg, state, np.random.default_rng(0))

    def test_same_offsets_other_items_is_a_state_error(self):
        # the benchmark's training splits under split seeds 0 and 1 share
        # their offsets but not their items
        d = generate_synthetic(200, 305, 0.3, 2.0, seed=1)
        first, second = (split(d, (0.8, 0.1, 0.1), seed=s)[0] for s in (0, 1))
        assert np.array_equal(first.offsets, second.offsets)
        assert not np.array_equal(first.feature_idx, second.feature_idx)
        cfg = TrainConfig(k=5, fair_weight=10.0, batch_pairs=64, batch_items=8,
                          batch_a=4, batch_b=4)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 4, seed=1)
        state, rng = TrainerState.fresh(cfg, len(m.params.values)), np.random.default_rng(0)
        train_step(m, first, cfg, state, rng)
        train_step(m, first.take(np.arange(first.total_pairs)), cfg, state, rng)   # equal copy
        with pytest.raises(StateError):
            train_step(m, second, cfg, state, rng)

    def test_same_items_other_query_rows_is_a_state_error(self):
        d, m, cfg = _tiny_setup()
        state = TrainerState.fresh(cfg, len(m.params.values))
        train_step(m, d, cfg, state, np.random.default_rng(0))
        rows = [replace(q, query_index=d.num_query_rows - 1 - q.query_index)
                for q in queries_of(d)]
        other = make_dataset(rows, d.vocab, d.num_query_rows)
        assert np.array_equal(other.offsets, d.offsets)
        assert np.array_equal(other.feature_idx, d.feature_idx)
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
