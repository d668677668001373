"""Bounded scoring models with analytic parameter gradients.

The default scorer is a matrix factorization with a tanh output squashing,
so scores are bounded by construction and every exp(score) downstream is
finite.  Parameters live in one flat vector with a named segment layout so
the optimizer can treat any model uniformly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ConfigurationError, LookupError_

_MAGIC = b"RANKCKP1"


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
        if bound <= 0 or scale <= 0:
            raise ConfigurationError("bound and scale must be positive")
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

    @staticmethod
    def _check_range(idx: np.ndarray, size: int, what: str) -> None:
        if idx.size and (idx.min() < 0 or idx.max() >= size):
            raise LookupError_(f"{what} index out of range")

    def _pre_rows(self, emb_i: np.ndarray, emb_q: np.ndarray, items: np.ndarray) -> np.ndarray:
        return (np.einsum("ij,ij->i", emb_i, emb_q) + self.item_bias[items]) / self.scale

    def score_many(self, q, items) -> np.ndarray:
        """Scores of ``items`` for query row ``q``; when ``q`` is an array,
        item j is scored for query row ``q[j]``."""
        items = np.asarray(items, dtype=np.int64)
        q = np.asarray(q, dtype=np.int64)
        self._check_range(items, self.num_items, "item")
        self._check_range(q, self.num_queries, "query")
        q = np.broadcast_to(q, items.shape)
        return self.score_bound * np.tanh(
            self._pre_rows(self.item_emb[items], self.query_emb[q], items))

    def add_weighted_grads(self, q_idx, item_idx, coeff, out) -> None:
        """out += sum_j coeff[j] * grad_w score(q_idx[j], item_idx[j])."""
        q_idx = np.asarray(q_idx, dtype=np.int64)
        item_idx = np.asarray(item_idx, dtype=np.int64)
        coeff = np.asarray(coeff, dtype=np.float64)
        self._check_range(q_idx, self.num_queries, "query")
        self._check_range(item_idx, self.num_items, "item")
        emb_i, emb_q = self.item_emb[item_idx], self.query_emb[q_idx]
        t = np.tanh(self._pre_rows(emb_i, emb_q, item_idx))
        c = coeff * self.score_bound * (1.0 - t * t) / self.scale
        # weighted bincounts, one per embedding column: each entry adds
        # c * item_emb to its query row, c * query_emb to its item row and c
        # to its item bias
        layout = self.params.layout
        for name, rows, g in (("query_emb", q_idx, c[:, None] * emb_i),
                              ("item_emb", item_idx, c[:, None] * emb_q)):
            off, length = layout[name]
            seg = out[off:off + length].reshape(-1, self.dim)
            for k in range(self.dim):
                seg[:, k] += np.bincount(rows, weights=g[:, k], minlength=len(seg))
        off, length = layout["item_bias"]
        out[off:off + length] += np.bincount(item_idx, weights=c, minlength=length)

    def clone(self) -> "FactorizationScorer":
        m = FactorizationScorer(self.num_queries, self.num_items, self.dim,
                                self.score_bound, self.scale, seed=0)
        m.params.values[:] = self.params.values
        return m

    def save(self, path: str) -> None:
        """Binary checkpoint: 8-byte magic, JSON header, raw float64 params."""
        header = json.dumps({
            "num_queries": self.num_queries,
            "num_items": self.num_items,
            "dim": self.dim,
            "bound": self.score_bound,
            "scale": self.scale,
            "layout": {k: list(v) for k, v in self.params.layout.items()},
            "dtype": "float64",
        }).encode()
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            fh.write(self.params.values.astype("<f8").tobytes())

    @classmethod
    def load(cls, path: str) -> "FactorizationScorer":
        with open(path, "rb") as fh:
            data = fh.read()
        if data[:8] != _MAGIC:
            raise CheckpointError(f"{path}: bad magic header {data[:8]!r}")
        hlen = int.from_bytes(data[8:16], "little")
        if len(data) < 16 + hlen:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(data[16:16 + hlen].decode())
            m = cls(header["num_queries"], header["num_items"], header["dim"],
                    header["bound"], header["scale"], seed=0)
        except (ValueError, KeyError, TypeError, ConfigurationError) as exc:
            raise CheckpointError(f"{path}: unreadable header ({exc})") from None
        raw = data[16 + hlen:]
        if len(raw) != 8 * len(m.params):
            raise CheckpointError(f"{path}: expected {8 * len(m.params)} parameter bytes, "
                                  f"got {len(raw)}")
        m.params.values[:] = np.frombuffer(raw, dtype="<f8")
        return m
