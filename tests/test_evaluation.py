"""Evaluation metrics, the sampled protocol, the sweep harness and exports."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import Query, make_dataset, queries_of, write_wide_vocabulary_csv
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairtopk.data import (
    GROUP_A,
    GROUP_B,
    Vocabulary,
    generate_synthetic,
    load_csv,
    save_csv,
    split,
)
from fairtopk.errors import ConfigurationError, FairTopKError, NonFiniteGradientError
from fairtopk import cli, optimizer
from fairtopk import data as data_module
from fairtopk import evaluation
from fairtopk.evaluation import (
    EvalProtocol,
    build_eval_list,
    evaluate,
    export_ranking_strips,
    ndcg_at_k,
    ndcg_curve,
    spearman,
)
from fairtopk.fairness import disparity_mae_mse, rank_order, topk_gaps
from fairtopk.lambda_solver import k_per_query
from fairtopk.model import FactorizationScorer
from fairtopk.optimizer import TrainConfig, tradeoff_sweep, train


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


class TestNdcgCurve:
    def test_prefix_of_the_ranking_gives_the_prefix_of_the_curve(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 4, (6, 40)).astype(float)
        labels[:, 0] = 1.0
        order = np.argsort(rng.normal(size=labels.shape), axis=-1)
        full = ndcg_curve(labels, order)
        for m in (1, 17, 40):
            assert np.array_equal(ndcg_curve(labels, order[:, :m]), full[:, :m])
        assert np.array_equal(ndcg_curve(labels[0], order[0, :5]), full[0, :5])


class TestBuildEvalList:
    def test_sizes_and_no_duplicates(self):
        d = generate_synthetic(10, 20, 0.3, 1.0, seed=1)
        tr, va, te, _ = split(d, (0.5, 0.25, 0.25), seed=0)
        proto = EvalProtocol(relevant_per_query=3, irrelevant_per_query=12, seed=0)
        ids, feats, labels, groups, sizes = build_eval_list(te, np.arange(te.num_queries), proto)
        # as wide as the longest list can be (3 + 12 < 39 items), whatever the lists drawn
        assert ids.shape == feats.shape == labels.shape == groups.shape == (te.num_queries, 15)
        assert sizes.max() < 15
        for row, n in enumerate(sizes):
            assert len(set(ids[row, :n].tolist())) == n
            assert (labels[row, :n] > 0).sum() <= 3
            assert (labels[row, :n] == 0).sum() <= 12
            at = np.searchsorted(d.vocab.ids, ids[row, :n])
            assert feats[row, :n].tolist() == d.vocab.rows[at].tolist()
            assert groups[row, :n].tolist() == d.vocab.groups[at].tolist()
            assert np.all(groups[row, n:] == -1) and np.all(labels[row, n:] == 0.0)
            assert np.all(feats[row, n:] == 0)      # a valid row, which evaluate() scores

    def test_pads_with_unobserved_items(self):
        d = generate_synthetic(10, 8, 0.3, 1.0, seed=1)
        tr, va, te, _ = split(d, (0.5, 0.25, 0.25), seed=0)
        proto = EvalProtocol(relevant_per_query=2, irrelevant_per_query=10, seed=0)
        ids, _, labels, _, sizes = build_eval_list(te, np.array([0]), proto)
        ids, labels = ids[0, :sizes[0]], labels[0, :sizes[0]]
        k = te.query_index[0]       # d's rows are its query positions
        observed = set(d.item_ids[d.offsets[k]:d.offsets[k + 1]].tolist())
        outside = [i for i in ids.tolist() if i not in observed]
        assert outside, "expected padding from the unobserved pool"
        for i, lab in zip(ids.tolist(), labels):
            if i not in observed:
                assert lab == 0.0

    @pytest.mark.parametrize("irrelevant", [8, 12])
    def test_inclusion_frequencies_are_uniform(self, irrelevant):
        # one query: 4 relevant and 6 zero-relevance items of its own, 20 more
        # never observed; a 2 + 8 list draws its 2 unobserved items, a 2 + 12
        # list keys all 20 to take 6; each takes each relevant item and each
        # unobserved one with equal odds across seeds, every own zero always
        d = generate_synthetic(1, 30, 0.3, 1.0, seed=0)
        vocab = d.vocab.ids
        own = vocab[:10]
        q = Query("q", 0, own, d.vocab.rows[:10], np.array([1.0, 2.0, 3.0, 1.0] + [0.0] * 6),
                  d.vocab.groups[:10])
        one = make_dataset([q], d.vocab)
        seeds = 3000
        counts = np.zeros(len(vocab))
        for seed in range(seeds):
            ids, _, _, _, sizes = build_eval_list(one, np.array([0]),
                                                  EvalProtocol(2, irrelevant, seed=seed))
            assert sizes[0] == 2 + irrelevant
            counts[np.searchsorted(vocab, ids[0])] += 1
        assert np.all(counts[4:10] == seeds)

        def chi_square(observed):
            expected = observed.sum() / len(observed)
            return float(((observed - expected) ** 2 / expected).sum())

        # upper 0.1% points of chi-square with 3 and 19 degrees of freedom
        assert chi_square(counts[:4]) < 16.27
        assert chi_square(counts[10:]) < 43.82

    def test_work_grows_with_the_list_not_the_vocabulary(self, monkeypatch):
        # 40,000 items, 4 queries of 30: keying every unobserved item would
        # hash about 160,000 keys; drawing from the pool hashes a few per entry
        vocab = np.arange(40_000)
        own = [vocab[k * 30:(k + 1) * 30] for k in range(4)]
        queries = [Query(f"q{k}", k, own[k], own[k], np.arange(30) % 3 * 1.0,
                         (own[k] % 2).astype(np.int8)) for k in range(4)]
        d = make_dataset(queries, Vocabulary(vocab, vocab, (vocab % 2).astype(np.int8)))
        hashed = []
        keys = evaluation._uniform
        monkeypatch.setattr(evaluation, "_uniform", lambda z, x: hashed.append(
            np.broadcast(z, x).size) or keys(z, x))
        ids, _, labels, _, sizes = build_eval_list(d, np.arange(4), EvalProtocol(5, 300))
        assert sizes.tolist() == [5 + 300] * 4
        assert sum(hashed) <= 4 * 4 * (5 + 300)
        for q, row in zip(queries, ids):
            unobserved = np.setdiff1d(row, q.item_ids)
            assert len(unobserved) == len(set(row.tolist())) - 5 - 10 == 300 - 10

    def test_draws_until_enough_distinct_items(self, monkeypatch):
        # the first 100 draws of every list all pick one pool index
        d = generate_synthetic(6, 40, 0.3, 1.0, seed=2)
        _, _, te, _ = split(d, (0.5, 0.25, 0.25), seed=0)
        proto = EvalProtocol(1, 12)
        keys = evaluation._uniform
        monkeypatch.setattr(evaluation, "_uniform", lambda z, x: keys(z, x) if z.ndim == 1
                            else np.where(x < 100, 0.5, keys(z, x)))
        ids, _, labels, _, sizes = build_eval_list(te, np.arange(te.num_queries), proto)
        for k, row, n in zip(range(te.num_queries), ids, sizes):
            q = te.query_index[k]   # d's rows are its query positions
            seen = d.item_ids[d.offsets[q]:d.offsets[q + 1]].tolist()
            zeros = min(12, int((te.relevance[te.offsets[k]:te.offsets[k + 1]] == 0).sum()))
            unobserved = set(row[:n].tolist()) - set(seen)
            assert 0 < len(unobserved) == 12 - zeros and n == len(set(row[:n].tolist()))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), proto_seed=st.integers(-2 ** 40, 2 ** 40),
           relevant=st.integers(0, 4), irrelevant=st.integers(0, 12))
    def test_list_depends_only_on_its_query(self, seed, proto_seed, relevant, irrelevant):
        """A query's list, as a set, is the same under query reordering, row
        shuffles within a query, and drawn alone or in a block."""
        d = generate_synthetic(8, 10, 0.3, 1.0, seed=seed % 1000)
        _, _, te, _ = split(d, (0.4, 0.3, 0.3), seed=0)
        proto = EvalProtocol(relevant, irrelevant, seed=proto_seed)
        rng = np.random.default_rng(seed)

        def lists(ds, positions):
            ids, _, labels, groups, sizes = build_eval_list(ds, np.asarray(positions), proto)
            return {ds.query_ids[k]: set(zip(ids[r, :n].tolist(), labels[r, :n].tolist(),
                                                    groups[r, :n].tolist()))
                    for r, (k, n) in enumerate(zip(positions, sizes))}

        block = lists(te, range(te.num_queries))
        alone = {}
        for k in range(te.num_queries):
            alone.update(lists(te, [k]))
        shuffled = []
        for q in queries_of(te):
            p = rng.permutation(len(q.item_ids))
            shuffled.append(Query(q.query_id, q.query_index, q.item_ids[p], q.feature_idx[p],
                                  q.relevance[p], q.groups[p]))
        order = rng.permutation(te.num_queries)
        moved = make_dataset([shuffled[k] for k in order], te.vocab, te.num_query_rows,
                             observed={q.query_id: q.item_ids for q in queries_of(d)})
        assert alone == block
        assert lists(moved, range(te.num_queries)) == block

    def test_mixed_block_equals_each_list_alone_row_for_row(self, monkeypatch):
        """Whole-pool and drawn lists with different observed counts, in one
        block and in another order, give each list the rows it gets alone."""
        vocab = np.arange(1000, 1200)
        groups = (vocab % 3 == 0).astype(np.int8)
        # (own items, own labels, extra observed items): pools 190, 45, 132, 67, 158 and 175
        shapes = [(vocab[0:10], np.arange(10) % 3, vocab[10:10]),
                  (vocab[10:15], [2, 1, 0, 0, 1], vocab[20:170]),
                  (vocab[40:48], [1, 0] * 4, vocab[100:160]),
                  (vocab[60:63], [0, 1, 0], vocab[63:193]),
                  (vocab[80:92], [0] * 12, vocab[150:180]),
                  (vocab[199:174:-1], np.arange(25) % 2, vocab[:0])]
        queries = [Query(f"q{k}", k, own, own - 1000, np.asarray(rel, dtype=np.float64),
                         groups[own - 1000]) for k, (own, rel, _) in enumerate(shapes)]
        d = make_dataset(queries, Vocabulary(vocab, vocab - 1000, groups),
                         observed={f"q{k}": extra for k, (_, _, extra) in enumerate(shapes)})
        proto = EvalProtocol(2, 20, seed=3)
        drawn = []
        streams = evaluation._streams
        monkeypatch.setattr(evaluation, "_streams", lambda seed, qids, tag="": drawn.extend(
            qids if tag else []) or streams(seed, qids, tag))
        alone = [build_eval_list(d, np.array([k]), proto) for k in range(d.num_queries)]
        assert sorted(drawn) == ["q0", "q2", "q4", "q5"]
        for order in (np.arange(d.num_queries), np.array([5, 3, 0, 4, 1, 2])):
            block = build_eval_list(d, order, proto)
            for r, k in enumerate(order):
                for got, want in zip(block, alone[k]):
                    assert np.array_equal(got[r], want[0])


def _pinned_cases():
    """(name, model, dataset, protocol) cases for the pinned reports: test-split
    queries padded with unobserved items, plus four hand-built queries: one
    group only, no positive label, a pool too small to fill the list and a
    list shorter than 2; the unsplit data is padded from the vocabulary minus
    each query's own items."""
    d = generate_synthetic(12, 16, 0.3, 1.0, seed=11)
    _, _, te, _ = split(d, (0.5, 0.25, 0.25), seed=0)
    vocab = d.vocab.ids
    b_items = vocab[d.vocab.groups == GROUP_B]
    nq = d.num_query_rows

    def query(qid, row, ids, rel):
        at = np.searchsorted(vocab, ids)
        return Query(qid, row, vocab[at], d.vocab.rows[at], np.asarray(rel, dtype=np.float64),
                     d.vocab.groups[at])

    extra = [query("one_group", nq, b_items[:11], [2, 1] + [0] * 9),
             query("no_positive", nq + 1, vocab[3:8], [0] * 5),
             query("tight", nq + 2, vocab[:3], [1, 0, 0]),
             query("short", nq + 3, vocab[5:6], [1])]
    observed = {q.query_id: q.item_ids for q in queries_of(d)}
    observed.update(tight=vocab[:-2], short=vocab)
    mixed = make_dataset(queries_of(te) + extra, d.vocab, nq + 4, observed=observed)
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
    """evaluate() on hand-built edge cases, against recorded reports.  They move
    if the keyed draw of the lists or the metrics' arithmetic changes."""

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
            calls.append((np.asarray(q), np.asarray(items)))
            return original(self, q, items)

        monkeypatch.setattr(FactorizationScorer, "score_many", recorded)
        evaluate(model, d, proto)
        _, feats, _, _, sizes = build_eval_list(d, np.arange(d.num_queries), proto)
        lists = [(q, feats[k, :n]) for k, (q, n) in enumerate(zip(d.query_index, sizes)) if n >= 2]
        # every list of 2+ items in query order, each once, as one row of a
        # block scored against one query row per list; "short" is never scored
        assert len(lists) == d.num_queries - 1
        assert all(q.shape == (len(items), 1) for q, items in calls)
        rows = [(int(q[r, 0]), items[r]) for q, items in calls for r in range(len(items))]
        assert [q for q, _ in rows] == [q for q, _ in lists]
        for (_, got), (_, want) in zip(rows, lists):
            np.testing.assert_array_equal(got[:len(want)], want)
        assert len(calls) < len(lists)

    def test_makes_no_random_draws(self, monkeypatch, counting_rng):
        d = generate_synthetic(30, 20, 0.3, 1.0, seed=4)
        _, _, te, _ = split(d, (0.5, 0.25, 0.25), seed=0)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=4)
        made = []

        def tracked(*args, **kwargs):
            made.append(counting_rng(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", tracked)
        legacy = np.random.get_state()[1].copy()
        evaluate(m, te, EvalProtocol(3, 12, k_list=(2, 5), seed=1))
        assert sum(g.calls for g in made) == 0
        assert np.array_equal(np.random.get_state()[1], legacy)

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
        m = FactorizationScorer(1, 1, 2)
        empty = make_dataset([])
        with pytest.raises(FairTopKError):
            evaluate(m, empty, EvalProtocol())


class TestEvalProtocol:
    @pytest.mark.parametrize("kwargs", [{"relevant_per_query": -1},
                                        {"irrelevant_per_query": -1},
                                        {"k_list": (5, 0)}, {"k_list": ()},
                                        {"k_list": (5, 10, 5)}])
    def test_bad_protocol_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EvalProtocol(**kwargs)

    def test_zero_counts_allowed(self):
        d = generate_synthetic(4, 10, 0.4, 1.0, seed=2)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=2)
        proto = EvalProtocol(relevant_per_query=0, irrelevant_per_query=0, k_list=(1,))
        assert evaluate(m, d, proto)[1]["skipped"] == d.num_queries


def _reference_report(model, d, proto):
    """evaluate() one list at a time: build_eval_list on the query alone,
    ndcg_at_k, topk_gaps."""
    ndcgs, gaps, skipped = [], [], 0
    for q, row in enumerate(d.query_index):
        ids, feats, labels, groups, sizes = build_eval_list(d, np.array([q]), proto)
        ids, feats, labels, groups = (a[0, :sizes[0]] for a in (ids, feats, labels, groups))
        if len(ids) < 2:
            skipped += 1
            continue
        if np.any(labels > 0):
            ndcgs.append([ndcg_at_k(model, row, feats, labels, k, item_ids=ids)
                          for k in proto.k_list])
        scores = model.score_many(row, feats)
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


# lists per block under the 5+300 protocol, and enough queries for three blocks
_PER_BLOCK = evaluation._BLOCK_ENTRIES // 305
_BLOCK_CASE_QUERIES = 2 * _PER_BLOCK + 16


def _block_case(num_queries):
    """The first ``num_queries`` of a test split with odd lists spliced in:
    a list shorter than 2, a one-group list and a list with no positive
    label, each once at a block edge and once mid-block under the 5+300
    protocol; the protocol and a model come with it."""
    d = generate_synthetic(_BLOCK_CASE_QUERIES - 6, 16, 0.3, 1.0, seed=5)
    _, _, te, _ = split(d, (0.5, 0.25, 0.25), seed=0)
    vocab = d.vocab.ids
    b_items = vocab[d.vocab.groups == GROUP_B]
    proto = EvalProtocol(5, 300, k_list=(1, 4, 10, 50), seed=3)
    odd = {"short": (vocab[4:5], [2]),
           "one_group": (b_items[:7], [3, 0, 1, 0, 0, 2, 0]),
           "no_positive": (vocab[10:16], [0] * 6)}
    per_block = _PER_BLOCK
    where = {per_block - 1: "short", per_block: "one_group", 2 * per_block - 1: "no_positive",
             per_block // 2: "short", per_block + per_block // 2: "one_group",
             2 * per_block + 3: "no_positive"}
    queries, observed = queries_of(te), {q.query_id: q.item_ids for q in queries_of(d)}
    for pos in sorted(where):
        kind = where[pos]
        ids, rel = odd[kind]
        qid = f"{kind}@{pos}"
        at = np.searchsorted(vocab, ids)
        queries.insert(pos, Query(qid, d.num_query_rows + pos, ids, d.vocab.rows[at],
                                  np.asarray(rel, dtype=np.float64), d.vocab.groups[at]))
        # the short and one-group lists get no unobserved items
        observed[qid] = ids if kind == "no_positive" else vocab
    rows = d.num_query_rows + max(where) + 1
    mixed = make_dataset(queries[:num_queries], d.vocab, rows, observed=observed)
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
        model, d, proto = _block_case(_BLOCK_CASE_QUERIES)
        assert d.num_queries == _BLOCK_CASE_QUERIES > 2 * _PER_BLOCK + 3   # three blocks
        lengths = build_eval_list(d, np.arange(d.num_queries), proto)[4]
        assert len(set(lengths.tolist())) > 2             # uneven list lengths
        self._assert_same(model, d, proto)
        assert evaluate(model, d, proto)[1]["skipped"] == 4   # 2 short + 2 one-group

    @pytest.mark.parametrize("entries", [305, 8192, 32768])
    def test_block_size_never_changes_the_report(self, monkeypatch, entries):
        # the bench test split: one list per block, the former and the present block size
        d = generate_synthetic(200, 305, 0.3, 2.0, seed=1)
        _, _, te, _ = split(d, (0.8, 0.1, 0.1), seed=0)
        model = FactorizationScorer(d.num_query_rows, d.num_item_rows, 8, seed=1)
        proto = EvalProtocol(5, 300, k_list=(50, 100, 200), seed=0)
        expected = evaluate(model, te, proto)
        monkeypatch.setattr(evaluation, "_BLOCK_ENTRIES", entries)
        assert evaluate(model, te, proto) == expected
        assert build_eval_list(te, np.arange(3), proto)[3].dtype == np.int8

    @settings(max_examples=20, deadline=None)
    @given(num_queries=st.integers(1, _BLOCK_CASE_QUERIES))
    @example(num_queries=2 * _PER_BLOCK)          # ends on the second edge
    @example(num_queries=2 * _PER_BLOCK + 1)      # one list past it
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

    def test_split_and_evaluate_follow_the_observed_pairs(self, tmp_path):
        # 2,000 queries of 20 items over a 20,000-item vocabulary: a (queries x
        # vocabulary) bool table alone would take 40 MB
        d = load_csv(write_wide_vocabulary_csv(tmp_path / "wide.csv"))
        assert (d.num_queries, d.num_item_rows) == (2000, 20_000)
        model = FactorizationScorer(d.num_query_rows, d.num_item_rows, 4, seed=0)
        tracemalloc.start()
        try:
            _, _, te, _ = split(d, (0.8, 0.1, 0.1), seed=0)
            evaluate(model, te, EvalProtocol(5, 300, k_list=(50,), seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20

    def test_evaluate_keeps_nothing_once_it_returns(self):
        # the acceptance test split under the 5+300 protocol: keeping its lists
        # as int32 indices would hold about 0.25 MB, gathered ids, rows, labels
        # and groups about 1.5 MB
        d = generate_synthetic(200, 305, 0.3, 2.0, seed=1)
        _, _, te, _ = split(d, (0.8, 0.1, 0.1), seed=0)
        model = FactorizationScorer(d.num_query_rows, d.num_item_rows, 8, seed=1)
        tracemalloc.start()
        try:
            evaluate(model, te, EvalProtocol(5, 300, k_list=(50, 100, 200), seed=0))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 2 ** 19


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
        rows = tradeoff_sweep(m, tr, te, [cfg], proto)
        assert len(rows) == 1
        row = rows[0]
        assert row["C"] == 0.0 and not row["failed"]

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
            tradeoff_sweep(m, tr, te, [], EvalProtocol(k_list=(2,)))

    def test_report_serialization(self, tmp_path, monkeypatch):
        data = str(tmp_path / "d.csv")
        save_csv(generate_synthetic(4, 8, 0.4, 1.0, seed=4), data)
        rows = [{"C": 0.0, "K": 2, "ndcg_mean": 0.5, "ndcg_std": 0.1,
                 "mae": 0.01, "mse": 0.001, "skipped": 0, "failed": False}]
        # the sweep's rows as given; the CLI writes both files from them
        monkeypatch.setattr(cli, "tradeoff_sweep", lambda *args: rows)
        prefix = str(tmp_path / "r")
        assert cli.run(["sweep", "--data", data, "--fractions", "0.6,0.2,0.2", "--dim", "2",
                        "--K", "2", "--seed", "4", "--c-grid", "0", "--k-list", "2",
                        "--out", prefix]) == 0
        assert Path(prefix + ".csv").read_text().splitlines() == [
            "C,K,ndcg_mean,ndcg_std,mae,mse,skipped,failed,error",
            "0.0,2,0.5,0.1,0.01,0.001,0,False,"]
        assert json.loads(Path(prefix + ".json").read_text()) == rows

    def test_failed_run_keeps_both_files(self, tmp_path, monkeypatch, strict_json):
        data = str(tmp_path / "d.csv")
        save_csv(generate_synthetic(4, 8, 0.4, 1.0, seed=4), data)
        train_step = optimizer.train_step

        def failing_step(model, d, cfg, *args, **kwargs):
            if cfg.fair_weight > 0:
                raise NonFiniteGradientError("non-finite values in G2")
            return train_step(model, d, cfg, *args, **kwargs)

        # the C > 0 run fails in training; the sweep marks it and goes on
        monkeypatch.setattr(optimizer, "train_step", failing_step)
        prefix = str(tmp_path / "r")
        assert cli.run(["sweep", "--data", data, "--fractions", "0.6,0.2,0.2", "--dim", "2",
                        "--K", "2", "--epochs", "1", "--batch-pairs", "8", "--batch-items", "4",
                        "--batch-a", "2", "--batch-b", "2", "--seed", "4", "--c-grid", "0,10",
                        "--k-list", "2", "--out", prefix]) == 0
        lines = Path(prefix + ".csv").read_text().splitlines()
        assert lines[0].endswith(",failed,error")
        assert len(lines) == 3 and "non-finite values in G2" in lines[2]
        rows = strict_json(Path(prefix + ".json").read_text())
        assert [row["failed"] for row in rows] == [False, True]
        assert rows[1]["ndcg_mean"] is None


def _reference_strips(model, d, k):
    """(|gap at K_q|, CSV line) of every list of 2 or more items, one query at a
    time, in the strips' row order: |gap| descending, -1 for a list missing a
    group, ties by query position."""
    every = model.score_many(d.query_row, d.feature_idx)
    ranked = []
    for start, n in zip(d.offsets, d.sizes.tolist()):
        if n < 2:
            continue
        s = slice(start, start + n)
        order = rank_order(every[s], d.item_ids[s])
        gap = abs(topk_gaps(every[s], d.groups[s], order)[k_per_query(k, n) - 1])
        ranked.append((-1.0 if np.isnan(gap) else gap,
                       ",".join("A" if g == GROUP_A else "B" for g in d.groups[s][order])))
    ranked.sort(key=lambda t: -t[0])
    return ranked


def _ragged_strips_case():
    """Ragged lists of 1 to 40 items with odd ones spliced in: a one-item list,
    one-group lists, lists of tied scores (one of them gaps exactly 0 at K = 2,
    ahead of the one-group lists), and pairs of mirrored two-item lists
    (same scores, groups swapped) whose gaps tie; a model comes with it."""
    g = generate_synthetic(24, 40, 0.3, 1.0, seed=8)
    keep = np.random.default_rng(8).random(g.total_pairs) < 0.05 + 0.95 * (g.query_of % 6) / 5
    queries = queries_of(g.take(np.flatnonzero(keep)))
    fresh = iter(range(10 ** 6, 10 ** 7))

    def odd(qid, row, feats, groups):
        ids = np.array([next(fresh) for _ in feats], dtype=np.int64)
        return Query(qid, row, ids, np.asarray(feats, dtype=np.int64), np.ones(len(feats)),
                     np.asarray(groups, dtype=np.int8))

    a, b = GROUP_A, GROUP_B
    spliced = {0: odd("one_item", 0, [3], [a]), 5: odd("all_b", 1, [0, 1, 2, 3, 4], [b] * 5),
               9: odd("all_a", 2, [5, 6, 7], [a] * 3),
               12: odd("tied_scores", 3, [3, 3, 5, 5, 7, 7], [a, b, b, a, a, b]),
               7: odd("zero_gap_at_2", 7, [9, 9, 9, 9], [a, b, a, b])}
    for j, row in enumerate((4, 5, 6)):
        spliced[2 + 6 * j] = odd(f"ab{row}", row, [8 + j, 20 + j], [a, b])
        spliced[20 - 5 * j] = odd(f"ba{row}", row, [8 + j, 20 + j], [b, a])
    for pos in sorted(spliced):
        queries.insert(pos, spliced[pos])
    d = make_dataset(queries, num_query_rows=g.num_query_rows)
    return FactorizationScorer(d.num_query_rows, g.num_item_rows, 4, seed=8), d


class TestRankingStrips:
    @pytest.mark.parametrize("entries", [1, 150, 32768])
    @pytest.mark.parametrize("k", [1, 2, 7, 400])
    def test_blocks_match_the_per_query_reference(self, tmp_path, monkeypatch, entries, k):
        model, d = _ragged_strips_case()
        assert len(set(d.sizes.tolist())) > 10 and d.sizes.min() == 1
        assert np.count_nonzero(~d.has_both_groups & (d.sizes >= 2)) >= 2
        expected = _reference_strips(model, d, k)
        gaps = [gap for gap, _ in expected if gap >= 0]
        assert len(set(gaps)) <= len(gaps) - 3          # the mirrored pairs tie
        monkeypatch.setattr(data_module, "_BLOCK_ENTRIES", entries)
        csv_path = tmp_path / "s.csv"
        rows = export_ranking_strips(model, d, d.num_queries, k, str(csv_path),
                                     str(tmp_path / "s.ppm"))
        assert rows == len(expected) == np.count_nonzero(d.sizes >= 2) < d.num_queries
        assert csv_path.read_text().splitlines() == [line for _, line in expected]

    def test_row_order_and_cells(self, tmp_path):
        m = _scored_model([3.0, 2.0, 1.0])
        d = make_dataset([Query("q0", 0, np.arange(3), np.arange(3), np.ones(3),
                                np.array([GROUP_A, GROUP_B, GROUP_A], dtype=np.int8))])
        csv_path = tmp_path / "s.csv"
        ppm_path = tmp_path / "s.ppm"
        export_ranking_strips(m, d, 1, 2, str(csv_path), str(ppm_path))
        assert csv_path.read_text().strip() == "A,B,A"
        data = ppm_path.read_bytes()
        assert data.startswith(b"P6\n3 1\n255\n")
        pixels = data.split(b"255\n", 1)[1]
        assert len(pixels) == 9

    def test_scores_every_pair_in_one_call(self, tmp_path, monkeypatch):
        d = generate_synthetic(12, 10, 0.4, 1.0, seed=0)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=0)
        calls = []
        score_many = m.score_many
        monkeypatch.setattr(m, "score_many",
                            lambda *a, **kw: calls.append(a) or score_many(*a, **kw))
        export_ranking_strips(m, d, 5, 3, str(tmp_path / "s.csv"), str(tmp_path / "s.ppm"))
        assert len(calls) == 1 and len(calls[0][1]) == d.total_pairs
        assert len((tmp_path / "s.csv").read_text().splitlines()) == 5

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
        m = _scored_model([1.0, 0.5])
        d = make_dataset([Query("q0", 0, np.arange(2), np.arange(2), np.ones(2),
                                np.array([GROUP_B, GROUP_B], dtype=np.int8))])
        csv_path = tmp_path / "s.csv"
        export_ranking_strips(m, d, 1, 1, str(csv_path), str(tmp_path / "s.ppm"))
        assert csv_path.read_text().strip() == "B,B"
