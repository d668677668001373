"""Bounded scoring models with analytic parameter gradients.

The default scorer is a matrix factorization with a tanh output squashing,
so scores are bounded by construction and every exp(score) downstream is
finite.  Parameters live in one flat vector with a named segment layout so
the optimizer can treat any model uniformly.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ConfigurationError, LookupError_

_MAGIC = b"RANKCKP1"
# add_weighted_grads sums a batch's weights into a dense (query rows x items)
# matrix when it has at most this many cells per pair: on one core two matrix
# products beat 2 * dim + 1 per-column bincounts up to 20 to 30 cells per pair;
# 24 doubles per pair caps the matrix's memory
DENSE_CELLS_PER_PAIR = 24


@dataclass
class ParamVector:
    """Flat parameter vector plus a named segment layout."""

    values: np.ndarray
    layout: dict[str, tuple[int, int]]   # name -> (offset, length)

    def segment(self, name: str) -> np.ndarray:
        off, length = self.layout[name]
        return self.values[off:off + length]

    def __len__(self) -> int:
        return len(self.values)


class FactorizationScorer:
    """score = B_h * tanh((u_q . v_i + b_i) / s), with analytic parameter gradients."""

    def __init__(self, num_queries: int, num_items: int, dim: int,
                 bound: float = 10.0, scale: float = 1.0, seed: int = 0):
        if num_queries < 1 or num_items < 1 or dim < 1:
            raise ConfigurationError("model dimensions must be positive")
        if not (0 < bound < np.inf and 0 < scale < np.inf):
            raise ConfigurationError("bound and scale must be positive and finite")
        if seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {seed}")
        self.num_queries = num_queries
        self.num_items = num_items
        self.dim = dim
        self.score_bound = float(bound)
        self.scale = float(scale)

        nq, ni, d = num_queries, num_items, dim
        values = np.zeros(nq * d + ni * d + ni)
        layout = {
            "query_emb": (0, nq * d),
            "item_emb": (nq * d, ni * d),
            "item_bias": (nq * d + ni * d, ni),
        }
        self.params = ParamVector(values=values, layout=layout)
        rng = np.random.default_rng(seed)
        self.params.segment("query_emb")[:] = rng.normal(0.0, 0.1, nq * d)
        self.params.segment("item_emb")[:] = rng.normal(0.0, 0.1, ni * d)
        # biases start at zero

    # segment views (share memory with the flat vector)
    @property
    def query_emb(self) -> np.ndarray:
        return self.params.segment("query_emb").reshape(self.num_queries, self.dim)

    @property
    def item_emb(self) -> np.ndarray:
        return self.params.segment("item_emb").reshape(self.num_items, self.dim)

    @property
    def item_bias(self) -> np.ndarray:
        return self.params.segment("item_bias")

    def score_many(self, q, items, keep: dict | None = None) -> np.ndarray:
        """Scores of ``items`` for query rows ``q`` broadcast against them: one
        row, one per item, or one per row of an item matrix (shape (lists, 1)).
        The one place indices are type- and range-checked.  ``keep``, when
        given, receives the embedding tables read and the rows and tanh values
        gathered, for an ``add_weighted_grads`` call on the same indices."""
        q, items = np.asarray(q), np.asarray(items)
        for idx, size, what in ((items, self.num_items, "item"), (q, self.num_queries, "query")):
            if idx.dtype.kind not in "iu":
                raise LookupError_(f"{what} index must be an integer, got dtype {idx.dtype}")
            if idx.size and (idx.min() < 0 or idx.max() >= size):
                raise LookupError_(f"{what} index out of range")
        item_emb, query_emb = self.item_emb, self.query_emb
        emb_i, emb_q = np.take(item_emb, items, axis=0), np.take(query_emb, q, axis=0)
        logits = np.einsum("...j,...j->...", emb_i, emb_q) + np.take(self.item_bias, items)
        tanh = np.tanh(logits / self.scale)
        if keep is not None:
            keep.update(emb_i=emb_i, emb_q=emb_q, tanh=tanh, item_emb=item_emb,
                        query_emb=query_emb)
        return self.score_bound * tanh

    def add_weighted_grads(self, q_idx, item_idx, coeff, out, *, kept: dict) -> None:
        """out += sum_j coeff[j] * grad_w score(q_idx[j], item_idx[j]), ``q_idx``
        broadcast against ``item_idx`` as in ``score_many``.

        ``kept`` is what ``score_many(q_idx, item_idx, keep=...)`` kept while
        the parameters were as they are now; it and the indices are used unchecked.
        """
        t = kept["tanh"]
        c = np.asarray(coeff, dtype=np.float64) * self.score_bound * (1.0 - t * t) / self.scale
        seg = {name: out[off:off + n] for name, (off, n) in self.params.layout.items()}
        seen = np.bincount(np.ravel(q_idx), minlength=self.num_queries) > 0
        rows, n_items = np.flatnonzero(seen), self.num_items
        pairs = len(c) if c.ndim == 1 else np.count_nonzero(coeff)    # empty slots weigh 0
        if len(rows) * n_items <= DENSE_CELLS_PER_PAIR * pairs:
            # w[r, i] sums the weights of the pairs in cell (rows[r], i); two
            # matrix products and a column sum then scatter every pair at once
            cell = (np.cumsum(seen) - 1)[q_idx] * n_items + item_idx
            w = np.bincount(cell.ravel(), weights=c.ravel(), minlength=len(rows) * n_items)
            w = w.reshape(len(rows), n_items)
            seg["query_emb"].reshape(-1, self.dim)[rows] += w @ kept["item_emb"]
            seg["item_emb"] += (w.T @ kept["query_emb"][rows]).ravel()
            seg["item_bias"] += w.sum(axis=0)
            return
        # a weighted bincount per table column: a query entry adds its items'
        # c * item_emb to its row, an item c * query_emb to its row, c to its bias
        by_q = c.reshape(np.size(q_idx), -1)
        per_q = np.einsum("rs,rsk->kr", by_q, kept["emb_i"].reshape(*by_q.shape, self.dim))
        per_item = np.multiply(kept["emb_q"].T, c.T, order="C").reshape(self.dim, -1)
        for name, idx, weights in (("query_emb", np.ravel(q_idx), per_q),
                                   ("item_emb", np.ravel(item_idx, order="F"), per_item)):
            table = seg[name].reshape(-1, self.dim)
            for k, w in enumerate(weights):
                table[:, k] += np.bincount(idx, weights=w, minlength=len(table))
        seg["item_bias"] += np.bincount(np.ravel(item_idx), weights=c.ravel(), minlength=n_items)

    def clone(self) -> "FactorizationScorer":
        m = FactorizationScorer(self.num_queries, self.num_items, self.dim,
                                self.score_bound, self.scale, seed=0)
        m.params.values[:] = self.params.values
        return m

    def save(self, path: str) -> None:
        """Binary checkpoint: 8-byte magic, JSON header, raw float64 params;
        written to ``path + ".tmp"``, then renamed over ``path``."""
        header = json.dumps({
            "num_queries": self.num_queries,
            "num_items": self.num_items,
            "dim": self.dim,
            "bound": self.score_bound,
            "scale": self.scale,
            "layout": {k: list(v) for k, v in self.params.layout.items()},
            "dtype": "float64",
        }).encode()
        tmp = path + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(b"".join((_MAGIC, struct.pack("<Q", len(header)), header,
                                   self.params.values.astype("<f8").tobytes())))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def load(cls, path: str) -> "FactorizationScorer":
        with open(path, "rb") as fh:
            data = fh.read()
        if data[:8] != _MAGIC:
            raise CheckpointError(f"{path}: bad magic header {data[:8]!r}")
        hlen = int.from_bytes(data[8:16], "little")
        if len(data) < 16 + hlen:
            raise CheckpointError(f"{path}: truncated header")
        raw = data[16 + hlen:]
        try:
            header = json.loads(data[16:16 + hlen].decode())
            nq, ni, dim = dims = [header[k] for k in ("num_queries", "num_items", "dim")]
            if not all(type(n) is int and n > 0 for n in dims):
                raise ValueError(f"model dimensions {dims} are not positive integers")
            if not all(type(header[k]) in (int, float) for k in ("bound", "scale")):
                raise ValueError("bound and scale must be JSON numbers")
            size = 8 * (nq * dim + ni * dim + ni)
            if len(raw) != size:
                raise CheckpointError(f"{path}: expected {size} parameter bytes, got {len(raw)}")
            m = cls(nq, ni, dim, header["bound"], header["scale"], seed=0)
        except (ValueError, KeyError, TypeError, ConfigurationError) as exc:
            raise CheckpointError(f"{path}: unreadable header ({exc})") from None
        m.params.values[:] = np.frombuffer(raw, dtype="<f8")
        if not np.isfinite(m.params.values).all():
            raise CheckpointError(f"{path}: non-finite parameter values")
        return m
