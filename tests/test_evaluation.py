"""Evaluation metrics, the sampled protocol, the sweep harness and exports."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtopk.data import GROUP_A, GROUP_B, Dataset, QueryGroup, generate_synthetic, split
from fairtopk.errors import ConfigurationError, FairTopKError
from fairtopk import evaluation
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
from fairtopk.fairness import disparity_mae_mse, rank_order, topk_gaps
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

    def test_scores_each_evaluated_list_once(self, monkeypatch):
        model, d, proto = next(case[1:] for case in _pinned_cases() if case[0] == "split_m1")
        calls = []
        original = FactorizationScorer.score_many

        def recorded(self, q, items):
            calls.append((np.broadcast_to(q, np.shape(items)).copy(), np.asarray(items)))
            return original(self, q, items)

        monkeypatch.setattr(FactorizationScorer, "score_many", recorded)
        evaluate(model, d, proto)
        rng = np.random.default_rng(proto.seed)
        lists = [(qg.query_index, build_eval_list(d, qg, proto, rng)[1]) for qg in d.queries]
        lists = [(q, feats) for q, feats in lists if len(feats) >= 2]
        # every list of 2+ items in query order, each once; "short" is never scored
        assert len(lists) == d.num_queries - 1
        np.testing.assert_array_equal(np.concatenate([q for q, _ in calls]),
                                      np.concatenate([np.full(len(f), q) for q, f in lists]))
        np.testing.assert_array_equal(np.concatenate([items for _, items in calls]),
                                      np.concatenate([f for _, f in lists]))
        assert len(calls) < len(lists)

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


class TestEvalProtocol:
    @pytest.mark.parametrize("kwargs", [{"relevant_per_query": -1},
                                        {"irrelevant_per_query": -1},
                                        {"k_list": (5, 0)}, {"k_list": ()}])
    def test_bad_protocol_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EvalProtocol(**kwargs)

    def test_zero_counts_allowed(self):
        d = generate_synthetic(4, 10, 0.4, 1.0, seed=2)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=2)
        proto = EvalProtocol(relevant_per_query=0, irrelevant_per_query=0, k_list=(1,))
        assert evaluate(m, d, proto)[1]["skipped"] == d.num_queries


def _reference_report(model, d, proto):
    """evaluate() one list at a time: build_eval_list, ndcg_at_k, topk_gaps."""
    rng = np.random.default_rng(proto.seed)
    ndcgs, gaps, skipped = [], [], 0
    for qg in d.queries:
        ids, feats, labels, groups = build_eval_list(d, qg, proto, rng)
        if len(ids) < 2:
            skipped += 1
            continue
        if np.any(labels > 0):
            ndcgs.append([ndcg_at_k(model, qg.query_index, feats, labels, k, item_ids=ids)
                          for k in proto.k_list])
        scores = model.score_many(qg.query_index, feats)
        curve = topk_gaps(scores, groups, rank_order(scores, ids))
        if np.isnan(curve[0]):
            skipped += 1
        else:
            gaps.append([curve[min(k, len(ids) - 1) - 1] for k in proto.k_list])
    ndcgs = np.array(ndcgs).reshape(-1, len(proto.k_list))
    gaps = np.array(gaps).reshape(-1, len(proto.k_list))
    return {k: dict(zip(("mae", "mse"), disparity_mae_mse(gaps[:, j])),
                    ndcg_mean=ndcgs[:, j].mean() if len(ndcgs) else np.nan,
                    ndcg_std=ndcgs[:, j].std() if len(ndcgs) else np.nan, skipped=skipped)
            for j, k in enumerate(proto.k_list)}


def _block_case(num_queries):
    """The first ``num_queries`` of a test split with odd lists spliced in:
    a list shorter than 2, a one-group list and a list with no positive
    label, each once at a block edge and once mid-block under the 5+300
    protocol; the protocol and a model come with it."""
    d = generate_synthetic(70, 16, 0.3, 1.0, seed=5)
    _, _, te, _ = split(d, (0.5, 0.25, 0.25), seed=0)
    vocab = np.array(sorted(d.item_index))
    b_items = vocab[[d.item_groups[i] == GROUP_B for i in vocab]]
    proto = EvalProtocol(5, 300, k_list=(1, 4, 10, 50), seed=3)
    per_block = evaluation._BLOCK_ENTRIES // 305
    odd = {"short": (vocab[4:5], [2]),
           "one_group": (b_items[:7], [3, 0, 1, 0, 0, 2, 0]),
           "no_positive": (vocab[10:16], [0] * 6)}
    where = {per_block - 1: "short", per_block: "one_group", 2 * per_block - 1: "no_positive",
             per_block // 2: "short", per_block + per_block // 2: "one_group",
             2 * per_block + 3: "no_positive"}
    queries, observed = list(te.queries), dict(te.observed)
    for pos in sorted(where):
        kind = where[pos]
        ids, rel = odd[kind]
        qid = f"{kind}@{pos}"
        queries.insert(pos, QueryGroup(qid, d.num_query_rows + pos, ids,
                                       np.array([d.item_index[i] for i in ids]),
                                       np.asarray(rel, dtype=np.float64),
                                       np.array([d.item_groups[i] for i in ids], dtype=np.int8)))
        # the short and one-group lists get no unobserved items
        observed[qid] = frozenset((ids if kind == "no_positive" else vocab).tolist())
    rows = d.num_query_rows + max(where) + 1
    mixed = Dataset(queries[:num_queries], d.item_index, d.item_groups, rows,
                    d.num_item_rows, observed=observed)
    return FactorizationScorer(rows, d.num_item_rows, 4, seed=6), mixed, proto


class TestBlocks:
    """evaluate() scores and ranks lists a block at a time; the report must
    equal the one-list-at-a-time reference whatever falls on a block edge."""

    @staticmethod
    def _assert_same(model, d, proto):
        report, expected = evaluate(model, d, proto), _reference_report(model, d, proto)
        for k in proto.k_list:
            assert report[k]["skipped"] == expected[k]["skipped"]
            for key in ("ndcg_mean", "ndcg_std", "mae", "mse"):
                np.testing.assert_allclose(report[k][key], expected[k][key],
                                           rtol=0.0, atol=1e-12)

    def test_odd_lists_at_block_edges_and_mid_block(self):
        model, d, proto = _block_case(10_000)
        per_block = evaluation._BLOCK_ENTRIES // 305
        assert d.num_queries > 2 * per_block + 3          # at least three blocks
        lengths = [len(build_eval_list(d, qg, proto, np.random.default_rng(0))[0])
                   for qg in d.queries]
        assert len(set(lengths)) > 2                      # uneven list lengths
        self._assert_same(model, d, proto)
        assert evaluate(model, d, proto)[1]["skipped"] == 4   # 2 short + 2 one-group

    @settings(max_examples=20, deadline=None)
    @given(num_queries=st.integers(1, 90))
    def test_any_number_of_queries(self, num_queries):
        self._assert_same(*_block_case(num_queries))


class TestMemory:
    def test_peak_traced_memory_of_sampled_evaluation(self):
        # the acceptance data under the 5+300 protocol: scoring every list of
        # the split at once would trace about 12.8 MB
        d = generate_synthetic(200, 305, 0.3, 2.0, seed=1)
        _, _, te, _ = split(d, (0.8, 0.1, 0.1), seed=0)
        model = FactorizationScorer(d.num_query_rows, d.num_item_rows, 8, seed=1)
        tracemalloc.start()
        try:
            evaluate(model, te, EvalProtocol(5, 300, k_list=(50, 100, 200), seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20


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
        tr, _, te, _ = split(d, (0.6, 0.2, 0.2), seed=0)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=4)
        cfg = TrainConfig(k=2, epochs=1, batch_pairs=8, batch_items=4,
                          batch_a=2, batch_b=2, seed=4)
        proto = EvalProtocol(relevant_per_query=2, irrelevant_per_query=4,
                             k_list=(2,), seed=cfg.seed)
        report = tradeoff_sweep(m, tr, te, cfg, [0.0], [2], proto=proto)
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
        tr, _, te, _ = split(d, (0.6, 0.2, 0.2), seed=0)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=4)
        with pytest.raises(ConfigurationError):
            tradeoff_sweep(m, tr, te, TrainConfig(), [], [2])

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
        tr, _, te, _ = split(d, (0.6, 0.2, 0.2), seed=0)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=4)
        cfg = TrainConfig(k=2, epochs=1, batch_pairs=8, batch_items=4, batch_a=2,
                          batch_b=2, seed=4, fairness_mode="none")
        proto = EvalProtocol(relevant_per_query=2, irrelevant_per_query=4,
                             k_list=(2,), seed=4)
        # C > 0 conflicts with fairness_mode=none, so the second run fails
        report = tradeoff_sweep(m, tr, te, cfg, [0.0, 10.0], [2], proto=proto)
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

    @pytest.mark.parametrize("num_queries", [0, -2])
    def test_fewer_than_one_query_rejected(self, tmp_path, num_queries):
        d = generate_synthetic(6, 6, 0.4, 1.0, seed=0)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=0)
        csv_path = tmp_path / "s.csv"
        with pytest.raises(ConfigurationError, match="num_queries"):
            export_ranking_strips(m, d, num_queries, 2, str(csv_path), str(tmp_path / "s.ppm"))
        assert not csv_path.exists()

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
