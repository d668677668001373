"""Evaluation metrics, the sampled protocol, the sweep harness and exports."""

import json
from pathlib import Path

import numpy as np
import pytest

from fairtopk.data import GROUP_A, GROUP_B, Dataset, QueryGroup, generate_synthetic, split
from fairtopk.errors import ConfigurationError, FairTopKError
from fairtopk.evaluation import (
    EvalProtocol,
    TradeoffReport,
    build_eval_list,
    evaluate,
    export_ranking_strips,
    ndcg_at_k,
    spearman,
    tradeoff_sweep,
)
from fairtopk.model import FactorizationScorer
from fairtopk.optimizer import TrainConfig


def _scored_model(score_values):
    """One-query model scoring item i as score_values[i]."""
    n = len(score_values)
    m = FactorizationScorer(1, n, 2, bound=50.0)
    m.params.values[:] = 0.0
    m.item_bias[:] = np.arctanh(np.asarray(score_values) / 50.0)
    return m


class TestNdcgAtK:
    def test_perfect_single_relevant(self):
        m = _scored_model([5.0, 1.0, 0.0])
        val = ndcg_at_k(m, 0, np.arange(3), np.array([1.0, 0.0, 0.0]), k=2)
        assert val == pytest.approx(1.0)

    def test_inverted_pair(self):
        m = _scored_model([0.0, 5.0])
        val = ndcg_at_k(m, 0, np.arange(2), np.array([1.0, 0.0]), k=2)
        assert val == pytest.approx(1.0 / np.log2(3.0), abs=1e-12)

    def test_k_at_least_n_equals_untruncated(self):
        m = _scored_model([3.0, 2.0, 1.0, 0.0])
        labels = np.array([0.0, 2.0, 1.0, 0.0])
        assert ndcg_at_k(m, 0, np.arange(4), labels, k=4) == pytest.approx(
            ndcg_at_k(m, 0, np.arange(4), labels, k=100))

    def test_no_positive_labels_returns_none(self):
        m = _scored_model([1.0, 0.0])
        assert ndcg_at_k(m, 0, np.arange(2), np.zeros(2), k=1) is None

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            scores = rng.normal(0, 2, 6)
            labels = rng.integers(0, 3, 6).astype(float)
            if not np.any(labels > 0):
                continue
            m = _scored_model(np.clip(scores, -40, 40))
            val = ndcg_at_k(m, 0, np.arange(6), labels, k=3)
            assert 0.0 <= val <= 1.0

    def test_bad_k(self):
        m = _scored_model([1.0])
        with pytest.raises(ConfigurationError):
            ndcg_at_k(m, 0, np.arange(1), np.ones(1), k=0)


class TestBuildEvalList:
    def test_sizes_and_no_duplicates(self):
        d = generate_synthetic(10, 20, 0.3, 1.0, seed=1)
        tr, va, te, _ = split(d, (0.5, 0.25, 0.25), seed=0)
        proto = EvalProtocol(relevant_per_query=3, irrelevant_per_query=12, seed=0)
        rng = np.random.default_rng(0)
        for qg in te.queries:
            ids, feats, labels, groups = build_eval_list(te, qg, proto, rng)
            assert len(ids) == len(set(ids.tolist()))
            assert (labels > 0).sum() <= 3
            assert (labels == 0).sum() <= 12
            assert len(ids) == len(feats) == len(labels) == len(groups)

    def test_pads_with_unobserved_items(self):
        d = generate_synthetic(10, 8, 0.3, 1.0, seed=1)
        tr, va, te, _ = split(d, (0.5, 0.25, 0.25), seed=0)
        proto = EvalProtocol(relevant_per_query=2, irrelevant_per_query=10, seed=0)
        rng = np.random.default_rng(0)
        qg = te.queries[0]
        ids, _, labels, _ = build_eval_list(te, qg, proto, rng)
        observed = te.observed[qg.query_id]
        outside = [i for i in ids.tolist() if i not in observed]
        assert outside, "expected padding from the unobserved pool"
        for i, lab in zip(ids.tolist(), labels):
            if i not in observed:
                assert lab == 0.0


def _pinned_cases():
    """(name, model, dataset, protocol) cases for the pinned reports: test-split
    queries padded with unobserved items, plus four hand-built queries: one
    group only, no positive label, a pool too small to fill the list and a
    list shorter than 2; the unsplit data is padded from the vocabulary minus
    each query's own items."""
    d = generate_synthetic(12, 16, 0.3, 1.0, seed=11)
    _, _, te, _ = split(d, (0.5, 0.25, 0.25), seed=0)
    vocab = np.array(sorted(d.item_index))
    b_items = vocab[[d.item_groups[i] == GROUP_B for i in vocab]]
    nq = d.num_query_rows

    def query(qid, row, ids, rel):
        ids = np.asarray(ids, dtype=np.int64)
        return QueryGroup(qid, row, ids, np.array([d.item_index[i] for i in ids]),
                          np.asarray(rel, dtype=np.float64),
                          np.array([d.item_groups[i] for i in ids], dtype=np.int8))

    extra = [query("one_group", nq, b_items[:11], [2, 1] + [0] * 9),
             query("no_positive", nq + 1, vocab[3:8], [0] * 5),
             query("tight", nq + 2, vocab[:3], [1, 0, 0]),
             query("short", nq + 3, vocab[5:6], [1])]
    observed = dict(te.observed, tight=frozenset(vocab[:-2].tolist()),
                    short=frozenset(vocab.tolist()))
    mixed = Dataset(te.queries + extra, d.item_index, d.item_groups, nq + 4,
                    d.num_item_rows, observed=observed)
    models = {seed: FactorizationScorer(nq + 4, d.num_item_rows, 4, seed=seed)
              for seed in (1, 2)}
    tied = FactorizationScorer(nq + 4, d.num_item_rows, 4, seed=0)
    tied.params.values[:] = 0.0
    tied.item_bias[:] = np.round(np.random.default_rng(3).normal(0, 1, d.num_item_rows), 1)
    small = EvalProtocol(relevant_per_query=3, irrelevant_per_query=8,
                         k_list=(1, 3, 5, 50), seed=4)
    wide = EvalProtocol(relevant_per_query=5, irrelevant_per_query=20,
                        k_list=(2, 10, 25), seed=9)
    return [("split_m1", models[1], mixed, small),
            ("split_m2", models[2], mixed, wide),
            ("split_tied", tied, mixed, small),
            ("unsplit_m1", models[1], d, wide),
            ("unsplit_tied", tied, d, small)]


class TestPinnedReports:
    """evaluate() on hand-built edge cases, against reports recorded with the
    earlier implementation that scored and sorted each list once per K."""

    PINS = Path(__file__).with_name("eval_report_pins.json")

    @pytest.mark.parametrize("name", ["split_m1", "split_m2", "split_tied",
                                      "unsplit_m1", "unsplit_tied"])
    def test_matches_recorded_report(self, name):
        model, d, proto = next(case[1:] for case in _pinned_cases() if case[0] == name)
        expected = json.loads(self.PINS.read_text())[name]
        report = evaluate(model, d, proto)
        assert [str(k) for k in report] == list(expected)
        for k, row in report.items():
            want = expected[str(k)]
            assert row["skipped"] == want["skipped"]
            for key in ("ndcg_mean", "ndcg_std", "mae", "mse"):
                np.testing.assert_allclose(row[key], want[key], rtol=0.0, atol=1e-12)


class TestEvaluate:
    def test_deterministic(self):
        d = generate_synthetic(6, 12, 0.4, 1.0, seed=2)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=2)
        proto = EvalProtocol(relevant_per_query=2, irrelevant_per_query=6,
                             k_list=(3,), seed=5)
        assert evaluate(m, d, proto) == evaluate(m, d, proto)

    def test_one_score_call_per_evaluated_list(self, monkeypatch):
        model, d, proto = next(case[1:] for case in _pinned_cases() if case[0] == "split_m1")
        calls = []
        original = FactorizationScorer.score_many

        def counted(self, q, items):
            calls.append(q)
            return original(self, q, items)

        monkeypatch.setattr(FactorizationScorer, "score_many", counted)
        evaluate(model, d, proto)
        # every query but the one whose list is shorter than 2
        assert calls == [qg.query_index for qg in d.queries if qg.query_id != "short"]

    def test_unbiased_data_has_small_mae(self):
        # at the 5 + 300 protocol scale, exposure gaps on fair data are
        # bounded by the sampling noise of the list construction
        d = generate_synthetic(200, 305, 0.5, 0.0, seed=3)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=3)
        proto = EvalProtocol(k_list=(50,), seed=0)
        report = evaluate(m, d, proto)
        assert report[50]["mae"] < 0.001

    def test_report_shape(self):
        d = generate_synthetic(4, 10, 0.4, 1.0, seed=2)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=2)
        proto = EvalProtocol(relevant_per_query=2, irrelevant_per_query=4,
                             k_list=(2, 4), seed=0)
        report = evaluate(m, d, proto)
        assert set(report) == {2, 4}
        for row in report.values():
            assert {"ndcg_mean", "ndcg_std", "mae", "mse", "skipped"} <= set(row)
            assert row["mse"] >= 0.0 and row["mae"] >= 0.0

    def test_empty_dataset_rejected(self):
        from fairtopk.data import Dataset
        m = FactorizationScorer(1, 1, 2)
        empty = Dataset(queries=[], item_index={}, item_groups={},
                        num_query_rows=1, num_item_rows=1)
        with pytest.raises(FairTopKError):
            evaluate(m, empty, EvalProtocol())


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [5, 4, 3, 2]) == pytest.approx(-1.0)

    def test_constant_input(self):
        assert spearman([1, 1, 1], [1, 2, 3]) == 0.0

    def test_rank_based_not_linear(self):
        assert spearman([1, 2, 3], [1, 10, 1000]) == pytest.approx(1.0)


class TestTradeoffSweep:
    def test_single_point_matches_plain_evaluate(self):
        d = generate_synthetic(5, 10, 0.4, 1.0, seed=4)
        tr, va, te, _ = split(d, (0.6, 0.2, 0.2), seed=0)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=4)
        cfg = TrainConfig(k=2, epochs=1, batch_pairs=8, batch_items=4,
                          batch_a=2, batch_b=2, seed=4)
        proto = EvalProtocol(relevant_per_query=2, irrelevant_per_query=4,
                             k_list=(2,), seed=cfg.seed)
        report = tradeoff_sweep(m, tr, va, te, cfg, [0.0], [2], proto=proto)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row["C"] == 0.0 and not row["failed"]

        from fairtopk.optimizer import train
        m2 = m.clone()
        train(m2, tr, cfg, valid_d=None)
        direct = evaluate(m2, te, proto)[2]
        assert row["ndcg_mean"] == pytest.approx(direct["ndcg_mean"])
        assert row["mae"] == pytest.approx(direct["mae"])

    def test_empty_grid_rejected(self):
        d = generate_synthetic(4, 8, 0.4, 1.0, seed=4)
        tr, va, te, _ = split(d, (0.6, 0.2, 0.2), seed=0)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=4)
        with pytest.raises(ConfigurationError):
            tradeoff_sweep(m, tr, va, te, TrainConfig(), [], [2])

    def test_report_serialization(self, tmp_path):
        report = TradeoffReport(rows=[{
            "C": 0.0, "K": 2, "ndcg_mean": 0.5, "ndcg_std": 0.1,
            "mae": 0.01, "mse": 0.001, "skipped": 0, "failed": False}])
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        report.to_csv(str(csv_path))
        report.to_json(str(json_path))
        assert csv_path.read_text().startswith("C,K,ndcg_mean")
        assert json.loads(json_path.read_text())[0]["K"] == 2

    def test_failed_run_keeps_both_files(self, tmp_path):
        d = generate_synthetic(4, 8, 0.4, 1.0, seed=4)
        tr, va, te, _ = split(d, (0.6, 0.2, 0.2), seed=0)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=4)
        cfg = TrainConfig(k=2, epochs=1, batch_pairs=8, batch_items=4, batch_a=2,
                          batch_b=2, seed=4, fairness_mode="none")
        proto = EvalProtocol(relevant_per_query=2, irrelevant_per_query=4,
                             k_list=(2,), seed=4)
        # C > 0 conflicts with fairness_mode=none, so the second run fails
        report = tradeoff_sweep(m, tr, va, te, cfg, [0.0, 10.0], [2], proto=proto)
        assert [row["failed"] for row in report.rows] == [False, True]
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        report.to_csv(str(csv_path))
        report.to_json(str(json_path))
        lines = csv_path.read_text().splitlines()
        assert lines[0].endswith(",failed,error")
        assert len(lines) == 3 and "fairness_mode=none" in lines[2]
        assert json.loads(json_path.read_text())[1]["failed"] is True


class TestRankingStrips:
    def test_row_order_and_cells(self, tmp_path):
        from fairtopk.data import QueryGroup, Dataset
        m = _scored_model([3.0, 2.0, 1.0])
        qg = QueryGroup(query_id="q0", query_index=0,
                        item_ids=np.arange(3, dtype=np.int64),
                        feature_idx=np.arange(3, dtype=np.int64),
                        relevance=np.ones(3),
                        groups=np.array([GROUP_A, GROUP_B, GROUP_A], dtype=np.int8))
        d = Dataset(queries=[qg], item_index={i: i for i in range(3)},
                    item_groups={0: GROUP_A, 1: GROUP_B, 2: GROUP_A},
                    num_query_rows=1, num_item_rows=3)
        csv_path = tmp_path / "s.csv"
        ppm_path = tmp_path / "s.ppm"
        export_ranking_strips(m, d, 1, 2, str(csv_path), str(ppm_path))
        assert csv_path.read_text().strip() == "A,B,A"
        data = ppm_path.read_bytes()
        assert data.startswith(b"P6\n3 1\n255\n")
        pixels = data.split(b"255\n", 1)[1]
        assert len(pixels) == 9

    def test_too_many_queries_rejected(self):
        d = generate_synthetic(2, 6, 0.4, 1.0, seed=0)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=0)
        with pytest.raises(ConfigurationError):
            export_ranking_strips(m, d, 5, 2, "x.csv", "x.ppm")

    def test_uniform_row_for_single_group_query(self, tmp_path):
        from fairtopk.data import QueryGroup, Dataset
        m = _scored_model([1.0, 0.5])
        qg = QueryGroup(query_id="q0", query_index=0,
                        item_ids=np.arange(2, dtype=np.int64),
                        feature_idx=np.arange(2, dtype=np.int64),
                        relevance=np.ones(2),
                        groups=np.array([GROUP_B, GROUP_B], dtype=np.int8))
        d = Dataset(queries=[qg], item_index={0: 0, 1: 1},
                    item_groups={0: GROUP_B, 1: GROUP_B},
                    num_query_rows=1, num_item_rows=2)
        csv_path = tmp_path / "s.csv"
        export_ranking_strips(m, d, 1, 1, str(csv_path), str(tmp_path / "s.ppm"))
        assert csv_path.read_text().strip() == "B,B"
