"""The bounded factorization scorer: scores, gradients, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtopk.errors import CheckpointError, ConfigurationError, LookupError_
from fairtopk.model import FactorizationScorer


def _score(model, q, x):
    return float(model.score_many(q, [x])[0])


def _score_gradient(model, q, x):
    grad = np.zeros(len(model.params))
    model.add_weighted_grads([q], [x], [1.0], grad)
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
        out = np.zeros(len(m.params))
        m.add_weighted_grads(np.array([0, 0]), np.array([1, 1]),
                             np.array([2.0, 3.0]), out)
        assert np.allclose(out, 5.0 * _score_gradient(m, 0, 1))


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
