"""Dataset loading, synthetic generation, splitting and batch sampling."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import ideal_dcg, label_softmax, make_dataset, queries_of
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtopk import data
from fairtopk.data import (
    GROUP_A,
    GROUP_B,
    along,
    generate_synthetic,
    load_csv,
    padded_blocks,
    sample_batch,
    save_csv,
    smallest_keys,
    split,
)
from fairtopk.errors import (
    ConfigurationError,
    DuplicateItemError,
    EmptyDatasetError,
    ParseError,
)
from fairtopk.evaluation import EvalProtocol, build_eval_list, evaluate
from fairtopk.model import FactorizationScorer
from fairtopk.optimizer import TrainConfig, TrainerState, train_step


def _write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadCsv:
    def test_groups_rows_by_query(self, tmp_path):
        path = _write(tmp_path, "q7,1,2,0\nq7,2,0,0\nq7,3,1,1\nq7,4,3,1\n")
        d = load_csv(path)
        assert d.query_ids.tolist() == ["q7"] and d.sizes.tolist() == [4]
        assert (d.groups == GROUP_A).sum() == 2
        assert (d.groups == GROUP_B).sum() == 2

    def test_header_detected(self, tmp_path):
        path = _write(tmp_path, "query_id,item_id,relevance,group\nq1,1,2,0\n")
        d = load_csv(path)
        assert d.num_queries == 1
        assert d.relevance.tolist() == [2.0]

    def test_bad_first_row_is_not_taken_for_a_header(self, tmp_path):
        path = _write(tmp_path, "q0,1,abc,0\nq0,2,1,1\nq0,3,0,0\nq0,4,2,1\nq0,5,1,0\n")
        with pytest.raises(ParseError, match="line 1: non-numeric relevance 'abc'"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            load_csv(_write(tmp_path, ""))

    def test_memory_follows_the_columns(self, tmp_path):
        # 40,000 rows; holding each row as a tuple of Python objects before any
        # array exists peaks at over five times what the dataset keeps
        path = str(tmp_path / "big.csv")
        save_csv(generate_synthetic(200, 200, 0.3, 1.0, seed=0), path)
        tracemalloc.start()
        try:
            d = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in vars(d).values() if isinstance(a, np.ndarray))
        assert peak <= 3 * kept

    def test_bad_relevance_reports_line(self, tmp_path):
        path = _write(tmp_path, "q1,1,2,0\nq1,2,abc,0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_negative_relevance_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(_write(tmp_path, "q1,1,-2,0\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "1000", "1024", "2000"])
    def test_non_finite_relevance_rejected(self, tmp_path, value):
        with pytest.raises(ParseError, match="line 2"):
            load_csv(_write(tmp_path, f"q1,1,2,0\nq1,2,{value},1\n"))

    def test_top_relevances_keep_the_ideal_dcg_finite(self, tmp_path):
        # three gains of 2**1023 - 1 sum past the largest double
        with pytest.raises(ParseError, match="line 1: relevance must be >= 0 and below 1000"):
            load_csv(_write(tmp_path, "q1,1,1023,0\nq1,2,1023,1\nq1,3,1023,0\n"))
        d = load_csv(_write(tmp_path, "q1,1,999,0\nq1,2,999,1\nq1,3,999,0\n"))
        with np.errstate(all="raise"):
            assert np.isfinite(d.ideal_dcg).all()

    def test_item_in_two_groups_rejected(self, tmp_path):
        path = _write(tmp_path, "q1,1,2,0\nq2,1,0,0\nq3,1,1,0\nq4,1,3,1\n")
        with pytest.raises(ParseError, match="item 1 is tagged group 0 and, in query q4, group 1"):
            load_csv(path)

    def test_item_id_outside_int64_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="line 2: item id '99999999999999999999'"):
            load_csv(_write(tmp_path, "q0,1,1,0\nq0,99999999999999999999,1,0\n"))

    def test_bad_group_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(_write(tmp_path, "q1,1,2,7\n"))

    def test_duplicate_pair_rejected(self, tmp_path):
        with pytest.raises(DuplicateItemError):
            load_csv(_write(tmp_path, "q1,1,2,0\nq1,1,3,0\n"))
        # the message names the pair of the first row that repeats an earlier one
        with pytest.raises(DuplicateItemError, match=r"pair \(q2, 5\)$"):
            load_csv(_write(tmp_path, "q1,1,2,0\nq2,5,1,1\nq2,5,3,1\nq1,1,3,0\n"))

    def test_wrong_field_count_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(_write(tmp_path, "q1,1,2\n"))

    def test_round_trip_preserves_rows(self, tmp_path):
        d = generate_synthetic(5, 6, 0.3, 1.0, seed=1)
        path = str(tmp_path / "rt.csv")
        save_csv(d, path)
        d2 = load_csv(path)

        def rows(ds):
            return sorted(zip(ds.query_ids[ds.query_of].tolist(), ds.item_ids.tolist(),
                              ds.relevance.tolist(), ds.groups.tolist()))

        assert rows(d) == rows(d2)


def _oracle_gap(d, k):
    """Mean signed top-k exposure gap of the rank-by-relevance ordering."""
    gaps = []
    for start, end in zip(d.offsets[:-1], d.offsets[1:]):
        s = slice(start, end)
        scores = d.relevance[s] * 2.0 + 1e-9 * d.item_ids[s]  # tie-break, tiny
        e = np.exp(scores - scores.max())
        e /= e.sum()
        order = np.argsort(-scores)
        top = np.zeros(end - start, dtype=bool)
        top[order[:k]] = True
        a = d.groups[s] == GROUP_A
        b = d.groups[s] == GROUP_B
        if not a.any() or not b.any():
            continue
        gaps.append(e[a & top].sum() / a.sum() - e[b & top].sum() / b.sum())
    return float(np.mean(gaps))


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(6, 10, 0.3, 1.5, seed=9)
        b = generate_synthetic(6, 10, 0.3, 1.5, seed=9)
        for name in ("sizes", "item_ids", "relevance", "groups"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_unbiased_oracle_gap_near_zero(self):
        d = generate_synthetic(300, 20, 0.4, 0.0, seed=2)
        assert abs(_oracle_gap(d, 5)) < 0.01

    def test_biased_oracle_gap_favors_group_b(self):
        d = generate_synthetic(300, 20, 0.4, 2.0, seed=2)
        assert _oracle_gap(d, 5) < -0.01

    def test_both_groups_in_every_query(self):
        d = generate_synthetic(10, 8, 0.25, 1.0, seed=0)
        assert all(set(d.groups[d.query_of == k].tolist()) == {GROUP_A, GROUP_B}
                   for k in range(d.num_queries))

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
        for bias in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="bias"):
                generate_synthetic(5, 8, 0.3, bias, seed=0)


class TestSplit:
    def test_exact_fractions(self, tmp_path):
        rows = "\n".join(f"q0,{i},{i % 3},{i % 2}" for i in range(100))
        d = load_csv(_write(tmp_path, rows + "\n"))
        tr, va, te, tiny = split(d, (0.8, 0.1, 0.1), seed=0)
        assert tiny == 0
        assert (tr.sizes.tolist(), va.sizes.tolist(), te.sizes.tolist()) == ([80], [10], [10])

    def test_disjoint_and_exhaustive(self):
        d = generate_synthetic(5, 20, 0.3, 1.0, seed=4)
        tr, va, te, _ = split(d, (0.6, 0.2, 0.2), seed=1)
        for qid in d.query_ids:
            pieces = [i for part in (tr, va, te)
                      for i in part.item_ids[part.query_ids[part.query_of] == qid].tolist()]
            assert sorted(pieces) == sorted(d.item_ids[d.query_ids[d.query_of] == qid].tolist())
            assert len(set(pieces)) == len(pieces)

    def test_deterministic(self):
        d = generate_synthetic(5, 12, 0.3, 1.0, seed=4)
        a = split(d, (0.8, 0.1, 0.1), seed=7)
        b = split(d, (0.8, 0.1, 0.1), seed=7)
        for pa, pb in zip(a[:3], b[:3]):
            assert np.array_equal(pa.sizes, pb.sizes)
            assert np.array_equal(pa.item_ids, pb.item_ids)

    def test_tiny_query_goes_to_train(self, tmp_path):
        path = _write(tmp_path, "q0,1,2,0\nq0,2,1,1\nq1,3,1,0\nq1,4,0,1\nq1,5,2,0\n")
        d = load_csv(path)
        tr, va, te, tiny = split(d, (0.34, 0.33, 0.33), seed=0)
        assert tiny == 1
        assert tr.sizes[tr.query_ids == "q0"].tolist() == [2]

    def test_bad_fractions(self):
        d = generate_synthetic(3, 6, 0.3, 0.0, seed=0)
        with pytest.raises(ConfigurationError):
            split(d, (0.5, 0.5, 0.5), seed=0)
        with pytest.raises(ConfigurationError):
            split(d, (1.0, 0.0, 0.0), seed=0)
        for fractions in ((float("nan"), 0.5, 0.5), (float("inf"), 0.5, 0.5)):
            with pytest.raises(ConfigurationError):
                split(d, fractions, seed=0)

    def test_observed_map_attached(self):
        d = generate_synthetic(3, 6, 0.3, 0.0, seed=0)
        tr, _, _, _ = split(d, (0.8, 0.1, 0.1), seed=0)
        assert tr.observed is d.observed
        width = d.num_item_rows
        pairs = {(int(c) // width, int(d.vocab.ids[c % width])) for c in tr.observed}
        assert pairs == set(zip(d.query_row.tolist(), d.item_ids.tolist()))


def _ragged_csv(tmp_path):
    """A shuffled CSV of 40 queries of 1 to 400 items (past numpy's 8- and
    128-element summation blocks) with fractional labels; query u0's labels
    are all 0."""
    rng = np.random.default_rng(20)
    sizes = [1, 2, 7, 8, 9, 127, 128, 129, 256, 257, 400] + rng.integers(1, 401, 29).tolist()
    rows = []
    for q, n in enumerate(sizes):
        labels = np.round(rng.gamma(1.0, 1.5, n), 2) if q else np.zeros(n)
        items = rng.choice(2000, n, replace=False)
        rows += [f"u{q},{i},{y},{i % 2}" for i, y in zip(items.tolist(), labels.tolist())]
    rng.shuffle(rows)
    return _write(tmp_path, "\n".join(rows) + "\n", name="ragged.csv")


class TestDataset:
    def test_normalizers_equal_the_per_query_references(self, tmp_path):
        d = load_csv(_ragged_csv(tmp_path))
        assert d.ideal_dcg[list(d.query_ids).index("u0")] == 0.0
        for ds in (d, *split(d, (0.5, 0.25, 0.25), seed=0)[:3]):
            runs = [ds.relevance[a:b] for a, b in zip(ds.offsets[:-1], ds.offsets[1:])]
            assert np.array_equal(ds.label_softmax,
                                  np.concatenate([label_softmax(y) for y in runs]))
            assert np.array_equal(ds.ideal_dcg, [ideal_dcg(y) for y in runs])

    def test_observed_codes_every_pair(self, tmp_path):
        for d in (load_csv(_ragged_csv(tmp_path)), generate_synthetic(20, 30, 0.3, 1.0, seed=1)):
            codes = d.query_row * len(d.vocab.ids) + np.searchsorted(d.vocab.ids, d.item_ids)
            assert d.observed.dtype == np.int64
            assert np.array_equal(d.observed, np.sort(codes))

    def test_arrays_are_read_only(self):
        d = generate_synthetic(4, 8, 0.4, 1.0, seed=2)
        tr, _, _, _ = split(d, (0.5, 0.25, 0.25), seed=0)
        for ds in (d, tr):
            ds.label_softmax, ds.ideal_dcg       # computed on first read
            arrays = {name: a for name, a in vars(ds).items() if isinstance(a, np.ndarray)}
            arrays.update((f"vocab.{name}", a) for name, a in ds.vocab._asdict().items())
            assert {"query_ids", "query_index", "sizes", "offsets", "item_ids", "feature_idx",
                    "relevance", "groups", "query_of", "query_row", "label_softmax",
                    "has_both_groups", "ideal_dcg", "observed", "vocab.ids"} <= set(arrays)
            for name, a in arrays.items():
                with pytest.raises(ValueError):
                    a[...] = a


def _digest(a):
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def _dataset_digests(d, names):
    """sha256 of each named array of ``d`` (``vocab.x`` for a vocabulary field)."""
    return {name: _digest(getattr(d.vocab, name[6:]) if name.startswith("vocab.")
                          else getattr(d, name)) for name in names}


class TestDatasetPins:
    PINS = Path(__file__).with_name("dataset_pins.json")

    def _check(self, d, pinned):
        got = _dataset_digests(d, pinned)
        # the pins name every array the dataset holds, normalizers included
        arrays = {n for n, a in vars(d).items() if isinstance(a, np.ndarray)}
        assert arrays | {f"vocab.{n}" for n in d.vocab._fields} == set(pinned)
        assert got == pinned

    @pytest.mark.parametrize("seed", [1, 3])
    def test_benchmark_dataset_and_split_bit_for_bit(self, seed):
        pins = json.loads(self.PINS.read_text())[f"synthetic_seed{seed}"]
        d = generate_synthetic(200, 305, 0.3, 2.0, seed=seed)
        parts = split(d, (0.8, 0.1, 0.1), seed=0)[:3]
        for name, ds in zip(("source", "train", "valid", "test"), (d, *parts)):
            self._check(ds, pins[name])

    def test_loaded_csv_bit_for_bit(self, tmp_path):
        self._check(load_csv(_ragged_csv(tmp_path)),
                    json.loads(self.PINS.read_text())["ragged_csv"])


class TestLazyNormalizers:
    NAMES = ("label_softmax", "ideal_dcg")

    def test_computed_on_the_first_rank_loss_read_only(self, tmp_path, monkeypatch):
        d = generate_synthetic(20, 30, 0.3, 1.0, seed=1)
        train_d, valid_d, test_d, _ = split(d, (0.8, 0.1, 0.1), seed=0)
        for ds in (load_csv(_ragged_csv(tmp_path)), d, train_d, valid_d, test_d,
                   d.take(np.arange(0, d.total_pairs, 2))):
            assert not set(self.NAMES) & set(vars(ds))
        model = FactorizationScorer(d.num_query_rows, d.num_item_rows, 4, seed=1)
        evaluate(model, test_d, EvalProtocol(2, 20, k_list=(5,), seed=0))
        assert not set(self.NAMES) & set(vars(test_d))

        calls, reduce = [], data._run_reduce
        monkeypatch.setattr(data, "_run_reduce", lambda *a: calls.append(a[0]) or reduce(*a))
        cfg = TrainConfig(k=5, fair_weight=10.0, batch_pairs=64, batch_items=8,
                          batch_a=4, batch_b=4)
        state, rng = TrainerState.fresh(cfg, len(model.params.values)), np.random.default_rng(0)
        train_step(model, train_d, cfg, state, rng)
        assert sorted(u.__name__ for u in calls) == ["add", "add", "maximum"]   # each once
        first = [getattr(train_d, name) for name in self.NAMES]
        train_step(model, train_d, cfg, state, rng)
        assert len(calls) == 3
        assert all(getattr(train_d, name) is a for name, a in zip(self.NAMES, first))
        assert not set(self.NAMES) & (set(vars(valid_d)) | set(vars(test_d)))
        for a in first:
            with pytest.raises(ValueError):
                a[...] = a


class TestUnobserved:
    def test_matches_set_difference(self):
        d = generate_synthetic(6, 8, 0.4, 1.0, seed=2)
        tr, _, _, _ = split(d, (0.5, 0.25, 0.25), seed=0)
        source = {q.query_id: set(q.item_ids.tolist()) for q in queries_of(d)}
        # observed for half the queries only, with an id outside the vocabulary
        extra = {q: source[q] | {10 ** 6} for q in tr.query_ids[:3].tolist()}
        partial = make_dataset(queries_of(tr), tr.vocab, tr.num_query_rows, observed=extra)
        # a list that wants more unobserved items than any pool holds keys it whole
        proto = EvalProtocol(relevant_per_query=0, irrelevant_per_query=10 ** 6)
        for ds, observed in ((tr, source), (d, {}), (partial, extra)):
            vocab = ds.vocab.ids.tolist()
            ids, _, _, _, sizes = build_eval_list(ds, np.arange(ds.num_queries), proto)
            for qg, row, n in zip(queries_of(ds), ids, sizes):
                seen = observed.get(qg.query_id, set(qg.item_ids.tolist()))
                expected = [pos for pos, i in enumerate(vocab) if i not in seen]
                unobserved = sorted(set(row[:n].tolist()) - set(qg.item_ids.tolist()))
                assert np.searchsorted(vocab, unobserved).tolist() == expected


class TestSmallestKeys:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), segments=st.integers(1, 6),
           power=st.sampled_from([1.0, 0.2]))
    def test_equals_a_full_sort_per_segment(self, seed, segments, power):
        # power 0.2 piles the keys up near 1, so the cut leaves segments short
        rng = np.random.default_rng(seed)
        seg = rng.integers(0, segments, 60)
        keys = rng.random(60) ** power
        n = rng.integers(0, 12, segments)
        got = smallest_keys(keys, seg, n, np.bincount(seg, minlength=segments))
        want = [i for s in range(segments)
                for i in np.flatnonzero(seg == s)[np.argsort(keys[seg == s])][:n[s]]]
        assert got.tolist() == want

    @pytest.mark.parametrize("seed", range(5))
    def test_segments_of_at_most_8_keys_are_sorted_whole(self, seed):
        # the cut, (n + 4 sqrt(n) + 8) / size, is 1 or more for every segment
        rng = np.random.default_rng(seed)
        seg = rng.permutation(np.repeat(np.arange(30), rng.integers(0, 9, 30)))
        keys, n = rng.random(len(seg)), rng.integers(0, 10, 30)
        got = smallest_keys(keys, seg, n, np.bincount(seg, minlength=30))
        want = [i for s in range(30)
                for i in np.flatnonzero(seg == s)[np.argsort(keys[seg == s])][:n[s]]]
        assert got.tolist() == want

    def test_codes_wider_than_63_bits_sort_in_parts(self):
        # 2**16 segments and 2**17 kept keys need 16 + 32 + 17 bits; ties in the
        # first 32 bits of a key keep the order of the indices
        rng = np.random.default_rng(0)
        seg = np.repeat(np.arange(2 ** 16), 2)
        keys = np.floor(rng.random(len(seg)) * 2.0 ** 6) / 2.0 ** 6
        keys[1::4] = keys[::4]
        n = rng.integers(0, 3, 2 ** 16)
        got = smallest_keys(keys, seg, n, np.full(2 ** 16, 2))
        order = np.lexsort((np.arange(len(seg)), keys, seg))
        rank = np.arange(len(seg)) - 2 * seg[order]
        assert np.array_equal(got, order[rank < n[seg[order]]])


class TestAlong:
    @pytest.mark.parametrize("shape", [(7,), (4, 7), (3, 2, 7)])
    @pytest.mark.parametrize("width", [7, 3, 1])
    def test_equals_take_along_axis(self, shape, width):
        # whole orders and prefixes of them, over rows of one or more axes
        rng = np.random.default_rng(width)
        values = rng.normal(size=shape)
        order = np.argsort(rng.random(shape), axis=-1)[..., :width]
        got = along(values, order)
        assert got.shape == order.shape
        assert np.array_equal(got, np.take_along_axis(values, order, axis=-1))


class TestPaddedBlocks:
    @pytest.mark.parametrize("entries", [1, 150, 32768])
    def test_every_query_once_widest_first_within_the_block_size(self, monkeypatch, entries):
        g = generate_synthetic(30, 60, 0.3, 1.0, seed=4)
        keep = np.random.default_rng(4).random(g.total_pairs) < 0.05 + 0.95 * (g.query_of % 6) / 5
        d = g.take(np.flatnonzero(keep))
        queries = np.flatnonzero(d.query_index % 3 > 0)
        assert len(set(d.sizes[queries].tolist())) > 10 and d.sizes.min() == 1
        monkeypatch.setattr(data, "_BLOCK_ENTRIES", entries)
        blocks = list(padded_blocks(d, queries))
        order = np.concatenate([block for block, _ in blocks])
        assert sorted(order.tolist()) == queries.tolist()
        assert np.all(np.diff(d.sizes[order]) <= 0)
        for block, at in blocks:
            assert at.shape == (len(block), d.sizes[block[0]])
            assert len(block) == 1 or at.size <= entries
            for q, row in zip(block, at):
                n = d.sizes[q]
                assert np.array_equal(row[:n], np.arange(d.offsets[q], d.offsets[q + 1]))
                assert np.all(row[n:] == -1)
        assert list(padded_blocks(d, queries[:0])) == []


def _bench_train():
    """The benchmark's training split: seed-1 synthetic data split with seed 0."""
    return split(generate_synthetic(200, 305, 0.3, 2.0, seed=1), (0.8, 0.1, 0.1), seed=0)[0]


class TestSampleBatch:
    def test_caps_at_source_sizes(self, small_data, rng):
        batch = sample_batch(small_data, (10_000, 100, 100, 100), rng)
        assert batch.num_pairs == small_data.total_pairs
        for qp, sub in batch.per_query.items():
            n, n_a = small_data.sizes[qp], small_data.sizes_a[qp]
            assert (len(sub.items), len(sub.group_a), len(sub.group_b)) == (n, n_a, n - n_a)

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

    def test_draw_calls_do_not_grow_with_queries(self, counting_rng):
        # a fixed handful of whole-batch draws, never one per sampled query
        calls = []
        for num_queries in (2, 200):
            d = generate_synthetic(num_queries, 10, 0.3, 1.0, seed=1)
            rng = counting_rng(4)
            batch = sample_batch(d, (d.total_pairs, 5, 2, 2), rng)
            assert len(batch.queries) == num_queries
            calls.append(rng.calls)
        assert calls[0] == calls[1] <= 4

    def test_memory_follows_the_pairs_not_the_widest_query(self, tmp_path, rng):
        # one 3,000-item query and 300 of 4 items: a (queries x widest) matrix
        # of flat positions would take 7.2 MB, the 4,200 pairs take kilobytes
        rows = [f"w,{i},{i % 3},{i % 2}" for i in range(3000)]
        rows += [f"q{k},{i},{i % 2},{i % 2}" for k in range(300) for i in range(4)]
        d = load_csv(_write(tmp_path, "\n".join(rows) + "\n"))
        tracemalloc.start()
        try:
            for _ in range(5):
                sample_batch(d, (64, 32, 16, 16), rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20

    def test_matches_recorded_draws_at_bench_scale(self):
        # 20 draws on the benchmark's training split: the cut and fallback of
        # smallest_keys at full size, pinned to sha256 digests of every array
        train_d = _bench_train()
        rng = np.random.default_rng(1)
        pins = json.loads(Path(__file__).with_name("sampler_pins.json").read_text())
        for pinned in pins:
            batch = sample_batch(train_d, (256, 32, 16, 16), rng)
            assert {name: _digest(getattr(batch, name)) for name in pinned} == pinned

    def test_deterministic_given_generator_state(self, small_data):
        a = sample_batch(small_data, (6, 3, 2, 2), np.random.default_rng(5))
        b = sample_batch(small_data, (6, 3, 2, 2), np.random.default_rng(5))
        for name in ("pairs", "items", "group_a", "group_b"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_group_sizes_zero_draw_the_same_batch_and_stream(self, tmp_path):
        # fairness off asks for (p, q, 0, 0): the group keys are skipped, not
        # drawn, and every C point of a sweep trains on the same batch sequence
        rows = [f"q0,{i},{i % 3},{i % 2}" for i in range(7)]
        rows += [f"q1,{2 * i + 1},1,1" for i in range(3)]    # group B only
        rows += [f"q2,{i},{i % 2},{i % 2}" for i in range(12)]
        bench = _bench_train()
        for d, sizes in ((bench, (256, 32, 16, 16)),
                         (load_csv(_write(tmp_path, "\n".join(rows) + "\n")), (9, 5, 2, 3))):
            rng_full, rng_none = np.random.default_rng(7), np.random.default_rng(7)
            for _ in range(5):
                full = sample_batch(d, sizes, rng_full)
                none = sample_batch(d, sizes[:2] + (0, 0), rng_none)
                for name in ("pairs", "pair_row", "queries", "items", "skipped"):
                    assert np.array_equal(getattr(full, name), getattr(none, name)), name
                assert none.group_a.shape == none.group_b.shape == (len(none.queries), 0)
                assert rng_full.bit_generator.state == rng_none.bit_generator.state
            assert full.skipped.any() == (d is not bench)

    def test_skipped_group_keys_keep_the_buffered_uint32(self):
        # PCG64.advance clears the uint32 a bounded draw leaves buffered; the
        # skip puts it back, so the state dicts match in full
        bench = _bench_train()
        rng_full, rng_none = np.random.default_rng(7), np.random.default_rng(7)
        for rng in (rng_full, rng_none):
            rng.integers(10, dtype=np.int32)
            assert rng.bit_generator.state["has_uint32"] == 1
        buffered = 0
        for _ in range(4):
            sample_batch(bench, (256, 32, 16, 16), rng_full)
            sample_batch(bench, (256, 32, 0, 0), rng_none)
            state = rng_none.bit_generator.state
            assert rng_full.bit_generator.state == state
            buffered += state["has_uint32"]
        assert buffered     # some pair draws left a uint32 buffered
        assert np.array_equal(rng_full.choice(1000, 10, replace=False),
                              rng_none.choice(1000, 10, replace=False))
        assert np.array_equal(rng_full.random(5), rng_none.random(5))

    def test_other_generators_draw_the_skipped_group_keys(self):
        bench = _bench_train()
        rng_full, rng_none = (np.random.Generator(np.random.MT19937(0)) for _ in range(2))
        for _ in range(3):
            full = sample_batch(bench, (256, 32, 16, 16), rng_full)
            none = sample_batch(bench, (256, 32, 0, 0), rng_none)
            for name in ("pairs", "pair_row", "queries", "items", "skipped"):
                assert np.array_equal(getattr(full, name), getattr(none, name)), name
            a, b = rng_full.bit_generator.state["state"], rng_none.bit_generator.state["state"]
            assert np.array_equal(a["key"], b["key"]) and a["pos"] == b["pos"]

    def test_per_query_view_matches_flat_arrays(self, tmp_path, rng):
        rows = [f"q0,{i},{i % 3},{i % 2}" for i in range(7)]
        rows += [f"q1,{2 * i + 1},1,1" for i in range(3)]    # group B only
        rows += [f"q2,{i},{i % 2},{i % 2}" for i in range(12)]
        d = load_csv(_write(tmp_path, "\n".join(rows) + "\n"))
        for _ in range(10):
            batch = sample_batch(d, (9, 5, 2, 3), rng)
            assert list(batch.per_query) == batch.queries.tolist()
            assert np.array_equal(d.query_of[batch.pairs], batch.queries[batch.pair_row])
            for r, (qp, sub) in enumerate(batch.per_query.items()):
                groups = d.groups[d.offsets[qp]:d.offsets[qp + 1]]
                for local, padded in ((sub.items, batch.items[r]),
                                      (sub.group_a, batch.group_a[r]),
                                      (sub.group_b, batch.group_b[r])):
                    assert np.array_equal(d.offsets[qp] + local, padded[padded >= 0])
                    assert np.all(padded[len(local):] == -1)
                assert np.all(groups[sub.group_a] == GROUP_A)
                assert np.all(groups[sub.group_b] == GROUP_B)
                assert sub.fairness_skipped == (d.query_ids[qp] == "q1") == batch.skipped[r]

    def test_empty_dataset_rejected(self, small_data, rng):
        empty = make_dataset([])
        with pytest.raises(EmptyDatasetError):
            sample_batch(empty, (1, 1, 1, 1), rng)

    def test_bad_sizes_rejected(self, small_data, rng):
        for sizes in ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1)):
            with pytest.raises(ConfigurationError):
                sample_batch(small_data, sizes, rng)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generate_synthetic_relevance_in_rating_scale(seed):
    d = generate_synthetic(3, 6, 0.3, 1.0, seed=seed)
    assert np.all(d.relevance >= 0.0)
    assert np.all(d.relevance <= 4.0)
    assert np.all(d.relevance == np.round(d.relevance))
