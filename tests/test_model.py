"""The bounded factorization scorer: scores, gradients, checkpoints."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtopk import model as model_module
from fairtopk.errors import CheckpointError, ConfigurationError, LookupError_
from fairtopk.model import FactorizationScorer


def _score(model, q, x):
    return float(model.score_many(q, [x])[0])


def _score_gradient(model, q, x):
    grad, kept = np.zeros(len(model.params)), {}
    model.score_many([q], [x], keep=kept)
    model.add_weighted_grads([q], [x], [1.0], grad, kept=kept)
    return grad


def _fd_score_grad(model, q, x, step=1e-5):
    w = model.params.values
    grad = np.zeros_like(w)
    for j in range(len(w)):
        orig = w[j]
        w[j] = orig + step
        fp = _score(model, q, x)
        w[j] = orig - step
        fm = _score(model, q, x)
        w[j] = orig
        grad[j] = (fp - fm) / (2 * step)
    return grad


class TestInit:
    def test_biases_start_at_zero(self):
        m = FactorizationScorer(4, 6, 3, seed=5)
        assert np.all(m.item_bias == 0.0)

    def test_deterministic(self):
        a = FactorizationScorer(4, 6, 3, seed=5)
        b = FactorizationScorer(4, 6, 3, seed=5)
        assert np.array_equal(a.params.values, b.params.values)

    def test_parameter_count(self):
        m = FactorizationScorer(100, 100, 8)
        assert len(m.params) == 100 * 8 + 100 * 8 + 100 == 1700

    def test_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            FactorizationScorer(0, 5, 2)
        with pytest.raises(ConfigurationError):
            FactorizationScorer(5, 5, 2, bound=-1.0)
        for value in (float("nan"), float("inf")):
            for name in ("bound", "scale"):
                with pytest.raises(ConfigurationError, match="finite"):
                    FactorizationScorer(5, 5, 2, **{name: value})
        with pytest.raises(ConfigurationError, match="seed"):
            FactorizationScorer(2, 2, 2, seed=-1)


class TestScore:
    def test_zero_parameters_score_zero(self):
        m = FactorizationScorer(2, 3, 4)
        m.params.values[:] = 0.0
        assert _score(m, 0, 0) == 0.0

    def test_half_bound_at_atanh(self):
        m = FactorizationScorer(1, 1, 2, bound=10.0, scale=1.5)
        m.params.values[:] = 0.0
        m.item_bias[0] = 1.5 * np.arctanh(0.5)
        assert _score(m, 0, 0) == pytest.approx(5.0, abs=1e-12)

    def test_bounded_over_random_parameters(self):
        rng = np.random.default_rng(0)
        m = FactorizationScorer(3, 5, 4, bound=10.0)
        for _ in range(200):
            m.params.values[:] = rng.normal(0.0, 100.0, len(m.params))
            s = m.score_many(int(rng.integers(3)), np.arange(5))
            assert np.all(np.abs(s) <= 10.0)

    def test_out_of_range_indices(self):
        m = FactorizationScorer(2, 3, 2)
        with pytest.raises(LookupError_):
            _score(m, 5, 0)
        with pytest.raises(LookupError_):
            _score(m, 0, 9)
        with pytest.raises(LookupError_):
            m.score_many(2, np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("q, items", [(0, [1.7]), (0, [1.0]), (0.0, [1]), (0, [True]),
                                          (np.array([0.5]), np.array([1]))])
    def test_non_integer_indices_are_refused(self, q, items):
        m = FactorizationScorer(2, 3, 2)
        with pytest.raises(LookupError_, match="integer"):
            m.score_many(q, items)

    def test_empty_integer_index_is_valid(self):
        m = FactorizationScorer(2, 3, 2)
        assert m.score_many(1, np.zeros(0, dtype=np.int64)).shape == (0,)
        assert m.score_many(np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.uint8)).shape == (0,)

    def test_score_many_matches_score(self):
        m = FactorizationScorer(2, 4, 3, seed=1)
        many = m.score_many(1, np.arange(4))
        singles = [_score(m, 1, x) for x in range(4)]
        assert np.allclose(many, singles)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        m = FactorizationScorer(3, 4, 2, seed=2)
        for _ in range(20):
            m.params.values[:] = rng.normal(0.0, 0.5, len(m.params))
            q = int(rng.integers(3))
            x = int(rng.integers(4))
            g = _score_gradient(m, q, x)
            fd = _fd_score_grad(m, q, x)
            assert np.abs(g - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1e-9)

    def test_zero_parameter_structure(self):
        m = FactorizationScorer(2, 3, 4, bound=10.0, scale=2.0)
        m.params.values[:] = 0.0
        g = _score_gradient(m, 0, 1)
        off, length = m.params.layout["query_emb"]
        assert np.all(g[off:off + length] == 0.0)
        off, _ = m.params.layout["item_bias"]
        assert g[off + 1] == pytest.approx(10.0 / 2.0)

    def test_sparsity(self):
        m = FactorizationScorer(3, 4, 2, seed=7)
        g = _score_gradient(m, 1, 2)
        touched = np.zeros(len(m.params), dtype=bool)
        d = m.dim
        off, _ = m.params.layout["query_emb"]
        touched[off + 1 * d: off + 2 * d] = True
        off, _ = m.params.layout["item_emb"]
        touched[off + 2 * d: off + 3 * d] = True
        off, _ = m.params.layout["item_bias"]
        touched[off + 2] = True
        assert np.all(g[~touched] == 0.0)

    def test_add_weighted_grads_accumulates(self):
        m = FactorizationScorer(2, 3, 2, seed=3)
        out, kept = np.zeros(len(m.params)), {}
        m.score_many(np.array([0, 0]), np.array([1, 1]), keep=kept)
        m.add_weighted_grads(np.array([0, 0]), np.array([1, 1]),
                             np.array([2.0, 3.0]), out, kept=kept)
        assert np.allclose(out, 5.0 * _score_gradient(m, 0, 1))

    @pytest.mark.parametrize("q, items, coeff", [
        # repeated (query, item) rows and zero coefficients among them
        ([0, 1, 0, 0, 2, 1], [1, 4, 1, 1, 0, 4], [2.0, 0.0, -1.5, 0.0, 3.0, 0.25]),
        ([2, 2, 2], [3, 3, 3], [0.0, 0.0, 0.0]),
        ([], [], []),
    ])
    def test_scatter_on_kept_rows_equals_gathering(self, q, items, coeff):
        """One scatter on the rows one gather kept equals the sum of single-pair
        gradients, each scattered on the rows of its own gather."""
        m = FactorizationScorer(3, 5, 4, scale=2.0, seed=5)
        q, items = np.array(q, dtype=np.int64), np.array(items, dtype=np.int64)
        out, kept = np.ones(len(m.params)), {}
        scores = m.score_many(q, items, keep=kept)
        assert np.array_equal(scores, m.score_many(q, items))
        m.add_weighted_grads(q, items, coeff, out, kept=kept)
        expected = np.ones(len(m.params))
        for qj, xj, cj in zip(q, items, coeff):
            expected += cj * _score_gradient(m, qj, xj)
        np.testing.assert_allclose(out, expected, rtol=1e-13, atol=1e-15)

    def test_wide_vocabulary_scatter_equals_gathering(self):
        """The check above on a vocabulary too wide for the dense scatter, so
        that the per-column bincounts scatter the pairs."""
        m = FactorizationScorer(3, 200, 4, scale=2.0, seed=5)
        q, items = np.array([0, 1, 0, 0, 2, 1]), np.array([1, 104, 1, 1, 0, 199])
        coeff = np.array([2.0, 0.0, -1.5, 0.0, 3.0, 0.25])
        assert 3 * m.num_items > model_module.DENSE_CELLS_PER_PAIR * len(q)
        out, kept = np.ones(len(m.params)), {}
        m.score_many(q, items, keep=kept)
        m.add_weighted_grads(q, items, coeff, out, kept=kept)
        expected = np.ones(len(m.params))
        for qj, xj, cj in zip(q, items, coeff):
            expected += cj * _score_gradient(m, qj, xj)
        np.testing.assert_allclose(out, expected, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("num_items, num_pairs", [(5, 40), (200, 6)])
    def test_scatter_equals_explicit_gradient_rows(self, num_items, num_pairs):
        """The scatter against each pair's gradient rows written out from the
        score's formula and added with np.add.at: no bincount, no matrix
        product, no add_weighted_grads call.  The 5-item vocabulary takes the
        dense scatter, the 200-item one the per-column bincounts.  The pairs
        come as vectors, then as a ScoredBatch lays them out: one query row
        per row of an item matrix, with weight 0 in its empty slots."""
        rng = np.random.default_rng(4)
        m = FactorizationScorer(3, num_items, 4, bound=7.0, scale=2.0, seed=5)
        m.item_bias[:] = rng.normal(0.0, 0.5, num_items)
        q, items = rng.integers(3, size=num_pairs), rng.integers(num_items, size=num_pairs)
        q[1], items[1] = q[0], items[0]                     # a repeated pair
        coeff = rng.normal(0.0, 1.0, num_pairs)
        shape = (4, num_pairs // 2)
        block_items = rng.integers(num_items, size=shape)
        block_items[0, 1] = block_items[0, 0]               # a repeated pair
        block = (rng.integers(3, size=(4, 1)), block_items,
                 np.where(rng.random(shape) < 0.4, 0.0, rng.normal(0.0, 1.0, shape)))
        for q, items, coeff in ((q, items, coeff), block):
            coeff.flat[2] = 0.0
            cells = len(np.unique(q)) * num_items
            pairs = len(coeff) if coeff.ndim == 1 else np.count_nonzero(coeff)
            assert (cells <= model_module.DENSE_CELLS_PER_PAIR * pairs) == (num_items == 5)
            out, kept = np.ones(len(m.params)), {}
            m.score_many(q, items, keep=kept)
            m.add_weighted_grads(q, items, coeff, out, kept=kept)
            q, items, coeff = (np.broadcast_to(a, items.shape).ravel() for a in (q, items, coeff))
            u, v, b = m.query_emb, m.item_emb, m.item_bias
            t = np.tanh((np.sum(u[q] * v[items], axis=1) + b[items]) / m.scale)
            c = coeff * m.score_bound * (1.0 - t * t) / m.scale     # d score / d logit
            expected = np.ones(len(m.params))
            seg = {name: expected[off:off + n] for name, (off, n) in m.params.layout.items()}
            np.add.at(seg["query_emb"].reshape(-1, m.dim), q, c[:, None] * v[items])
            np.add.at(seg["item_emb"].reshape(-1, m.dim), items, c[:, None] * u[q])
            np.add.at(seg["item_bias"], items, c)
            np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-14)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        m = FactorizationScorer(3, 5, 4, bound=7.0, scale=2.0, seed=9)
        path = str(tmp_path / "m.ckpt")
        m.save(path)
        m2 = FactorizationScorer.load(path)
        assert np.array_equal(m.params.values, m2.params.values)
        assert m2.score_bound == 7.0
        assert m2.scale == 2.0
        assert m2.dim == 4

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        class HalfWriter:
            """A file whose first write stores half its bytes, then fails."""

            def __init__(self, file, mode):
                self.fh = open(file, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError("disk full")

        m = FactorizationScorer(3, 5, 4, seed=9)
        path = tmp_path / "m.ckpt"
        m.save(str(path))
        before = path.read_bytes()
        m.params.values += 1.0
        monkeypatch.setattr(model_module, "open", HalfWriter, raising=False)
        with pytest.raises(OSError, match="disk full"):
            m.save(str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            FactorizationScorer.load(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        m = FactorizationScorer(2, 2, 2)
        path = tmp_path / "t.ckpt"
        m.save(str(path))
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CheckpointError):
            FactorizationScorer.load(str(path))

    @pytest.mark.parametrize("keep", [5, 12, 20, 30, -3])
    def test_truncated_header_or_payload_rejected(self, tmp_path, keep):
        m = FactorizationScorer(2, 2, 2)
        path = tmp_path / "t.ckpt"
        m.save(str(path))
        data = path.read_bytes()
        path.write_bytes(data[:keep])
        with pytest.raises(CheckpointError):
            FactorizationScorer.load(str(path))

    def test_malformed_header_rejected(self, tmp_path):
        header = b'{"num_queries": 2}'
        path = tmp_path / "h.ckpt"
        path.write_bytes(b"RANKCKP1" + len(header).to_bytes(8, "little") + header)
        with pytest.raises(CheckpointError):
            FactorizationScorer.load(str(path))

    @staticmethod
    def write_header(path, dims, payload_bytes, **fields):
        header = json.dumps(dict(zip(("num_queries", "num_items", "dim"), dims),
                                 **{"bound": 10.0, "scale": 1.0, **fields})).encode()
        path.write_bytes(b"RANKCKP1" + len(header).to_bytes(8, "little") + header
                         + b"\0" * payload_bytes)

    @pytest.mark.parametrize("dims", [(10 ** 9, 10 ** 9, 64), (True, 2, 2), (2.0, 2, 2),
                                      (-2, 2, 2), ("2", 2, 2)])
    def test_header_dims_must_be_positive_integers(self, tmp_path, dims):
        # 64 bytes hold the 8 parameters of dims (1, 2, 2): (True, 2, 2) fails on its type
        path = tmp_path / "h.ckpt"
        self.write_header(path, dims, 64)
        with pytest.raises(CheckpointError):
            FactorizationScorer.load(str(path))

    @pytest.mark.parametrize("field, value", [("bound", True), ("scale", True), ("bound", False),
                                              ("bound", "10"), ("scale", None), ("scale", [1.0])])
    def test_header_bound_and_scale_must_be_numbers(self, tmp_path, field, value):
        path = tmp_path / "h.ckpt"
        self.write_header(path, (1, 2, 2), 64, **{field: value})
        with pytest.raises(CheckpointError, match="bound and scale must be JSON numbers"):
            FactorizationScorer.load(str(path))

    def test_header_bound_and_scale_may_be_json_integers(self, tmp_path):
        path = tmp_path / "h.ckpt"
        self.write_header(path, (1, 2, 2), 64, bound=7, scale=2)
        m = FactorizationScorer.load(str(path))
        assert (m.score_bound, m.scale) == (7.0, 2.0)

    def test_payload_size_checked_before_the_model_is_built(self, tmp_path, monkeypatch):
        path = tmp_path / "s.ckpt"
        self.write_header(path, (3, 4, 2), 16)
        built = []
        monkeypatch.setattr(FactorizationScorer, "__init__", lambda *args: built.append(args))
        with pytest.raises(CheckpointError, match="expected 144 parameter bytes, got 16"):
            FactorizationScorer.load(str(path))
        assert built == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, tmp_path, value):
        m = FactorizationScorer(3, 5, 4, seed=9)
        m.params.values[7] = value
        path = str(tmp_path / "m.ckpt")
        m.save(path)
        with pytest.raises(CheckpointError, match="m.ckpt: non-finite parameter values"):
            FactorizationScorer.load(path)

    def test_clone_is_independent(self):
        m = FactorizationScorer(2, 3, 2, seed=1)
        c = m.clone()
        assert np.array_equal(m.params.values, c.params.values)
        c.params.values[0] += 1.0
        assert m.params.values[0] != c.params.values[0]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=9, max_size=9))
def test_score_always_within_bound(vals):
    m = FactorizationScorer(1, 2, 2, bound=3.0)
    m.params.values[:] = np.array(vals)[: len(m.params)]
    s = m.score_many(0, np.arange(2))
    assert np.all(np.abs(s) <= 3.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 20), st.integers(1, 16), st.integers(0, 2 ** 32 - 1))
def test_query_rows_against_an_item_matrix_score_as_single_pairs(rows, width, dim, seed):
    """score_many(q[:, None], items) has the bits of the call on the flattened
    pairs, one query row per item: a ScoredBatch scores its block the first way."""
    rng = np.random.default_rng(seed)
    m = FactorizationScorer(5, 7, dim, scale=1.5)
    m.params.values[:] = rng.normal(0.0, 1.0, len(m.params))
    q, items = rng.integers(5, size=rows), rng.integers(7, size=(rows, width))
    block = m.score_many(q[:, None], items)
    assert block.shape == (rows, width)
    assert block.tobytes() == m.score_many(np.repeat(q, width), items.ravel()).tobytes()
