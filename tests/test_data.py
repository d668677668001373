"""Dataset loading, synthetic generation, splitting and batch sampling."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtopk.data import (
    GROUP_A,
    GROUP_B,
    generate_synthetic,
    load_csv,
    sample_batch,
    save_csv,
    split,
)
from fairtopk.errors import (
    ConfigurationError,
    DuplicateItemError,
    EmptyDatasetError,
    ParseError,
)


def _write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadCsv:
    def test_groups_rows_by_query(self, tmp_path):
        path = _write(tmp_path, "q7,1,2,0\nq7,2,0,0\nq7,3,1,1\nq7,4,3,1\n")
        d = load_csv(path)
        assert d.num_queries == 1
        q = d.queries[0]
        assert q.query_id == "q7"
        assert q.num_items == 4
        assert (q.groups == GROUP_A).sum() == 2
        assert (q.groups == GROUP_B).sum() == 2

    def test_header_detected(self, tmp_path):
        path = _write(tmp_path, "query_id,item_id,relevance,group\nq1,1,2,0\n")
        d = load_csv(path)
        assert d.num_queries == 1
        assert d.queries[0].relevance[0] == 2.0

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            load_csv(_write(tmp_path, ""))

    def test_bad_relevance_reports_line(self, tmp_path):
        path = _write(tmp_path, "q1,1,2,0\nq1,2,abc,0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_negative_relevance_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(_write(tmp_path, "q1,1,-2,0\n"))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_relevance_rejected(self, tmp_path, value):
        with pytest.raises(ParseError, match="line 2"):
            load_csv(_write(tmp_path, f"q1,1,2,0\nq1,2,{value},1\n"))

    def test_item_in_two_groups_rejected(self, tmp_path):
        path = _write(tmp_path, "q1,1,2,0\nq2,1,0,0\nq3,1,1,0\nq4,1,3,1\n")
        with pytest.raises(ParseError, match="item 1 is tagged group 0 and, in query q4, group 1"):
            load_csv(path)

    def test_bad_group_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(_write(tmp_path, "q1,1,2,7\n"))

    def test_duplicate_pair_rejected(self, tmp_path):
        with pytest.raises(DuplicateItemError):
            load_csv(_write(tmp_path, "q1,1,2,0\nq1,1,3,0\n"))

    def test_wrong_field_count_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(_write(tmp_path, "q1,1,2\n"))

    def test_round_trip_preserves_rows(self, tmp_path):
        d = generate_synthetic(5, 6, 0.3, 1.0, seed=1)
        path = str(tmp_path / "rt.csv")
        save_csv(d, path)
        d2 = load_csv(path)

        def rows(ds):
            return sorted(
                (q.query_id, int(i), float(r), int(g))
                for q in ds.queries
                for i, r, g in zip(q.item_ids, q.relevance, q.groups)
            )

        assert rows(d) == rows(d2)


def _oracle_gap(d, k):
    """Mean signed top-k exposure gap of the rank-by-relevance ordering."""
    gaps = []
    for q in d.queries:
        scores = q.relevance * 2.0 + 1e-9 * q.item_ids  # tie-break, tiny
        e = np.exp(scores - scores.max())
        e /= e.sum()
        order = np.argsort(-scores)
        top = np.zeros(q.num_items, dtype=bool)
        top[order[:k]] = True
        a = q.groups == GROUP_A
        b = q.groups == GROUP_B
        if not a.any() or not b.any():
            continue
        gaps.append(e[a & top].sum() / a.sum() - e[b & top].sum() / b.sum())
    return float(np.mean(gaps))


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(6, 10, 0.3, 1.5, seed=9)
        b = generate_synthetic(6, 10, 0.3, 1.5, seed=9)
        for qa, qb in zip(a.queries, b.queries):
            assert np.array_equal(qa.item_ids, qb.item_ids)
            assert np.array_equal(qa.relevance, qb.relevance)
            assert np.array_equal(qa.groups, qb.groups)

    def test_unbiased_oracle_gap_near_zero(self):
        d = generate_synthetic(300, 20, 0.4, 0.0, seed=2)
        assert abs(_oracle_gap(d, 5)) < 0.01

    def test_biased_oracle_gap_favors_group_b(self):
        d = generate_synthetic(300, 20, 0.4, 2.0, seed=2)
        assert _oracle_gap(d, 5) < -0.01

    def test_both_groups_in_every_query(self):
        d = generate_synthetic(10, 8, 0.25, 1.0, seed=0)
        assert all(q.has_both_groups() for q in d.queries)

    def test_items_shared_across_queries(self):
        d = generate_synthetic(20, 10, 0.3, 0.0, seed=0)
        assert d.num_item_rows <= 2 * 10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_synthetic(5, 3, 0.3, 0.0, seed=0)
        with pytest.raises(ConfigurationError):
            generate_synthetic(5, 8, 1.5, 0.0, seed=0)
        with pytest.raises(ConfigurationError):
            generate_synthetic(5, 8, 0.3, -1.0, seed=0)


class TestSplit:
    def test_exact_fractions(self, tmp_path):
        rows = "\n".join(f"q0,{i},{i % 3},{i % 2}" for i in range(100))
        d = load_csv(_write(tmp_path, rows + "\n"))
        tr, va, te, tiny = split(d, (0.8, 0.1, 0.1), seed=0)
        assert tiny == 0
        assert tr.queries[0].num_items == 80
        assert va.queries[0].num_items == 10
        assert te.queries[0].num_items == 10

    def test_disjoint_and_exhaustive(self):
        d = generate_synthetic(5, 20, 0.3, 1.0, seed=4)
        tr, va, te, _ = split(d, (0.6, 0.2, 0.2), seed=1)
        for q in d.queries:
            pieces = []
            for part in (tr, va, te):
                for pq in part.queries:
                    if pq.query_id == q.query_id:
                        pieces.extend(pq.item_ids.tolist())
            assert sorted(pieces) == sorted(q.item_ids.tolist())
            assert len(set(pieces)) == len(pieces)

    def test_deterministic(self):
        d = generate_synthetic(5, 12, 0.3, 1.0, seed=4)
        a = split(d, (0.8, 0.1, 0.1), seed=7)
        b = split(d, (0.8, 0.1, 0.1), seed=7)
        for pa, pb in zip(a[:3], b[:3]):
            for qa, qb in zip(pa.queries, pb.queries):
                assert np.array_equal(qa.item_ids, qb.item_ids)

    def test_tiny_query_goes_to_train(self, tmp_path):
        path = _write(tmp_path, "q0,1,2,0\nq0,2,1,1\nq1,3,1,0\nq1,4,0,1\nq1,5,2,0\n")
        d = load_csv(path)
        tr, va, te, tiny = split(d, (0.34, 0.33, 0.33), seed=0)
        assert tiny == 1
        train_q0 = [q for q in tr.queries if q.query_id == "q0"]
        assert train_q0 and train_q0[0].num_items == 2

    def test_bad_fractions(self):
        d = generate_synthetic(3, 6, 0.3, 0.0, seed=0)
        with pytest.raises(ConfigurationError):
            split(d, (0.5, 0.5, 0.5), seed=0)
        with pytest.raises(ConfigurationError):
            split(d, (1.0, 0.0, 0.0), seed=0)

    def test_observed_map_attached(self):
        d = generate_synthetic(3, 6, 0.3, 0.0, seed=0)
        tr, _, _, _ = split(d, (0.8, 0.1, 0.1), seed=0)
        assert tr.observed is not None
        for q in d.queries:
            assert tr.observed[q.query_id] == frozenset(int(i) for i in q.item_ids)


class TestUnobserved:
    def test_matches_set_difference(self):
        d = generate_synthetic(6, 8, 0.4, 1.0, seed=2)
        tr, _, _, _ = split(d, (0.5, 0.25, 0.25), seed=0)
        # observed for half the queries only, with an id outside the vocabulary
        partial = replace(tr, observed={q.query_id: tr.observed[q.query_id] | {10 ** 6}
                                        for q in tr.queries[:3]})
        for ds in (tr, d, partial):
            vocab = ds.vocab.ids.tolist()
            for qg in ds.queries:
                seen = (ds.observed or {}).get(qg.query_id, set(qg.item_ids.tolist()))
                expected = [pos for pos, i in enumerate(vocab) if i not in seen]
                assert ds.unobserved[qg.query_id].tolist() == expected


class TestSampleBatch:
    def test_caps_at_source_sizes(self, small_data, rng):
        batch = sample_batch(small_data, (10_000, 100, 100, 100), rng)
        assert batch.num_pairs == small_data.total_pairs
        for qp, sub in batch.per_query.items():
            q = small_data.queries[qp]
            assert len(sub.items) == q.num_items
            assert len(sub.group_a) == (q.groups == GROUP_A).sum()
            assert len(sub.group_b) == (q.groups == GROUP_B).sum()

    def test_single_pair_batch(self, small_data, rng):
        batch = sample_batch(small_data, (1, 2, 1, 1), rng)
        assert batch.num_pairs == 1
        assert len(batch.per_query) == 1

    def test_no_duplicates_within_subbatches(self, small_data, rng):
        for _ in range(20):
            batch = sample_batch(small_data, (8, 4, 2, 2), rng)
            for sub in batch.per_query.values():
                assert len(set(sub.items.tolist())) == len(sub.items)
                assert len(set(sub.group_a.tolist())) == len(sub.group_a)
                assert len(set(sub.group_b.tolist())) == len(sub.group_b)

    def test_uniformity(self, tmp_path):
        rows = "\n".join(f"q0,{i},1,{i % 2}" for i in range(10))
        d = load_csv(_write(tmp_path, rows + "\n"))
        rng = np.random.default_rng(11)
        counts = np.zeros(10)
        draws = 10_000
        for _ in range(draws):
            batch = sample_batch(d, (1, 1, 1, 1), rng)
            sub = batch.per_query[0]
            counts[sub.items[0]] += 1
        freqs = counts / draws
        assert freqs.min() >= 0.07 and freqs.max() <= 0.13

    def test_deterministic_given_generator_state(self, small_data):
        a = sample_batch(small_data, (6, 3, 2, 2), np.random.default_rng(5))
        b = sample_batch(small_data, (6, 3, 2, 2), np.random.default_rng(5))
        for name in ("pairs", "items", "group_a", "group_b"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_per_query_view_matches_flat_arrays(self, tmp_path, rng):
        rows = [f"q0,{i},{i % 3},{i % 2}" for i in range(7)]
        rows += [f"q1,{2 * i + 1},1,1" for i in range(3)]    # group B only
        rows += [f"q2,{i},{i % 2},{i % 2}" for i in range(12)]
        d = load_csv(_write(tmp_path, "\n".join(rows) + "\n"))
        view = d.flat
        for _ in range(10):
            batch = sample_batch(d, (9, 5, 2, 3), rng)
            assert list(batch.per_query) == batch.queries.tolist()
            assert np.array_equal(view.query_of[batch.pairs], batch.queries[batch.pair_row])
            for r, (qp, sub) in enumerate(batch.per_query.items()):
                q = d.queries[qp]
                for local, padded in ((sub.items, batch.items[r]),
                                      (sub.group_a, batch.group_a[r]),
                                      (sub.group_b, batch.group_b[r])):
                    assert np.array_equal(view.offsets[qp] + local, padded[padded >= 0])
                    assert np.all(padded[len(local):] == -1)
                assert np.all(q.groups[sub.group_a] == GROUP_A)
                assert np.all(q.groups[sub.group_b] == GROUP_B)
                assert sub.fairness_skipped == (q.query_id == "q1") == batch.skipped[r]

    def test_empty_dataset_rejected(self, small_data, rng):
        from fairtopk.data import Dataset
        empty = Dataset(queries=[], item_index={}, item_groups={},
                        num_query_rows=0, num_item_rows=0)
        with pytest.raises(EmptyDatasetError):
            sample_batch(empty, (1, 1, 1, 1), rng)

    def test_bad_sizes_rejected(self, small_data, rng):
        with pytest.raises(ConfigurationError):
            sample_batch(small_data, (0, 1, 1, 1), rng)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generate_synthetic_relevance_in_rating_scale(seed):
    d = generate_synthetic(3, 6, 0.3, 1.0, seed=seed)
    for q in d.queries:
        assert np.all(q.relevance >= 0.0)
        assert np.all(q.relevance <= 4.0)
        assert np.all(q.relevance == np.round(q.relevance))
