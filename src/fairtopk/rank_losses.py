"""Rank surrogates, NDCG / ListNet losses and the G1 gradient estimator.

The exact rank of an item counts every item scoring at least as high,
itself included, so the top item has rank 1.  Differentiable surrogates
replace the step indicator by a squared hinge (NDCG route) or the
exponential (ListNet route); both keep the self term, so the hinge
surrogate is bounded below by c^2 and the exponential one by 1.

The G1 estimator follows the compositional structure L = mean f(g): the
inner quantity g = (surrogate rank) / N_q is tracked per query-item pair
with an exponential moving average, and the outer derivative is evaluated
at the tracked value.  It works on a whole batch at once: the moving
averages are one dense vector indexed by flat pair position (see
``data.FlatView``), and the surrogate ranks of all sampled pairs are one
(pairs, inner slots) matrix against their queries' padded inner sub-batch
rows.  Empty slots score -inf, which zeroes their hinge and exp terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .data import BatchSample, Dataset, FlatView, ideal_dcg, label_softmax
from .errors import ConfigurationError, EmptyDatasetError
from .model import FactorizationScorer

_LN2 = np.log(2.0)


class LossVariant(Enum):
    NDCG = "ndcg"
    LISTNET = "listnet"


@dataclass(frozen=True)
class RankLossKind:
    variant: LossVariant = LossVariant.NDCG
    margin: float = 1.0

    def __post_init__(self):
        if self.variant is LossVariant.NDCG and self.margin <= 0:
            raise ConfigurationError("hinge margin must be positive")


class LossResult(NamedTuple):
    value: float
    degenerate: bool


def exact_rank(scores: np.ndarray, i: int) -> int:
    """Number of items with score >= scores[i]; ties share the worse rank."""
    scores = np.asarray(scores, dtype=np.float64)
    return int(np.sum(scores >= scores[i]))


def hinge_rank_from_scores(scores: np.ndarray, i: int, margin: float) -> float:
    """Squared-hinge surrogate rank of item i, self term included."""
    diff = np.asarray(scores, dtype=np.float64) - scores[i]
    return float(np.sum(np.maximum(diff + margin, 0.0) ** 2))


def exp_rank_from_scores(scores: np.ndarray, i: int) -> float:
    """Exponential surrogate rank of item i; its reciprocal is N_q times
    the softmax exposure of item i."""
    diff = np.asarray(scores, dtype=np.float64) - scores[i]
    return float(np.sum(np.exp(diff)))


def ndcg_loss(model: FactorizationScorer, q: int, items: np.ndarray,
              labels: np.ndarray, margin: float) -> LossResult:
    """- (1/Z_q) sum_i (2^y_i - 1) / log2(1 + hinge_rank_i)."""
    labels = np.asarray(labels, dtype=np.float64)
    z = ideal_dcg(labels)
    if z <= 0.0:
        return LossResult(0.0, True)
    scores = model.score_many(q, items)
    diff = scores[None, :] - scores[:, None]          # diff[i, j] = h_j - h_i
    gbar = np.sum(np.maximum(diff + margin, 0.0) ** 2, axis=1)
    value = -np.sum((2.0 ** labels - 1.0) / np.log2(1.0 + gbar)) / z
    return LossResult(float(value), False)


def listnet_loss(model: FactorizationScorer, q: int, items: np.ndarray,
                 labels: np.ndarray) -> float:
    """sum_i softmax(y)_i * log(exp-surrogate-rank_i)."""
    p = label_softmax(np.asarray(labels, dtype=np.float64))
    scores = model.score_many(q, items)
    diff = scores[None, :] - scores[:, None]
    ghat = np.sum(np.exp(diff), axis=1)
    return float(np.sum(p * np.log(ghat)))


def dataset_loss(model: FactorizationScorer, d: Dataset, kind: RankLossKind) -> float:
    """L(w) = (1 / |S|) * sum_q L_q(w); the finite-difference target for G1.
    Degenerate NDCG queries contribute 0."""
    if kind.variant is LossVariant.NDCG:
        total = sum(ndcg_loss(model, q.query_index, q.feature_idx, q.relevance,
                              kind.margin).value for q in d.queries)
    else:
        total = sum(listnet_loss(model, q.query_index, q.feature_idx, q.relevance)
                    for q in d.queries)
    return total / d.total_pairs


@dataclass
class MovingAverage:
    """Dense moving averages, one row per (query, item) pair or per query.

    An entry's first update sets it to the estimate itself, which avoids
    the blow-up of the outer derivative near u = 0; later updates blend the
    estimate in with weight ``gamma`` (one weight, or one per column).
    """

    gamma: float | np.ndarray
    values: np.ndarray
    seen: np.ndarray

    @classmethod
    def zeros(cls, gamma, *shape: int) -> "MovingAverage":
        return cls(gamma=gamma, values=np.zeros(shape), seen=np.zeros(shape[0], dtype=bool))

    def update(self, idx: np.ndarray, estimate: np.ndarray) -> np.ndarray:
        """Fold ``estimate[j]`` into row ``idx[j]`` (distinct rows); returns the new rows."""
        seen = self.seen[idx].reshape((-1,) + (1,) * (estimate.ndim - 1))
        blended = self.gamma * estimate + (1.0 - self.gamma) * self.values[idx]
        new = np.where(seen, blended, estimate)
        self.values[idx] = new
        self.seen[idx] = True
        return new


def gather_scores(model: FactorizationScorer, view: FlatView,
                  *blocks: np.ndarray) -> list[np.ndarray]:
    """Scores at the flat positions of each block, from one score_many call.

    A block is a vector or a padded matrix; its -1 slots score -inf.
    """
    filled = [b >= 0 for b in blocks]
    pos = np.concatenate([b[f] for b, f in zip(blocks, filled)])
    scores = model.score_many(view.query_row[pos], view.feature_idx[pos])
    parts = np.split(scores, np.cumsum([f.sum() for f in filled])[:-1])
    out = [np.full(b.shape, -np.inf) for b in blocks]
    for s, f, part in zip(out, filled, parts):
        s[f] = part
    return out


def scatter_grads(model: FactorizationScorer, view: FlatView, blocks, coeffs,
                  out: np.ndarray) -> None:
    """out += sum over the filled slots of every block of coeff * grad_w score."""
    filled = [b >= 0 for b in blocks]
    pos = np.concatenate([b[f] for b, f in zip(blocks, filled)])
    coeff = np.concatenate([c[f] for c, f in zip(coeffs, filled)])
    model.add_weighted_grads(view.query_row[pos], view.feature_idx[pos], coeff, out)


def _outer_derivative(kind: RankLossKind, u: np.ndarray, labels: np.ndarray,
                      z: np.ndarray, n_q: np.ndarray, target: np.ndarray) -> np.ndarray:
    """df/dg evaluated at the tracked inner estimates u."""
    if kind.variant is LossVariant.NDCG:
        # a query whose labels are all zero (z = 0) gets no ranking gradient
        gain = (2.0 ** labels - 1.0) / np.where(z > 0.0, z, np.inf)
        # the exact surrogate rank counts the item itself, so N_q g >= margin^2;
        # an inner sub-batch that misses every item near i can still give u = 0
        arg = np.maximum(n_q * u, kind.margin ** 2) + 1.0
        return gain * n_q / (arg * _LN2 * np.log2(arg) ** 2)
    # ListNet: f(g) = p_i log(N_q g) => f'(g) = p_i / g, p the label softmax
    return target / u


def g1_estimate(model: FactorizationScorer, d: Dataset, batch: BatchSample,
                kind: RankLossKind, pairs: MovingAverage) -> np.ndarray:
    """Stochastic gradient of the ranking loss over the pair batch.

    Updates the moving averages for every sampled pair first, then
    assembles G1 with the refreshed values; with full batches and
    gamma = 1 this reproduces the exact full-batch gradient.
    """
    if batch.num_pairs == 0:
        raise EmptyDatasetError("empty pair batch")
    view = d.flat
    grad = np.zeros(len(model.params.values))
    s_pair, s_inner = gather_scores(model, view, batch.pairs, batch.items)
    diff = s_inner[batch.pair_row] - s_pair[:, None]     # (pairs, inner slots)

    if kind.variant is LossVariant.NDCG:
        hinge = np.maximum(diff + kind.margin, 0.0)
        ell = hinge ** 2
        dell = 2.0 * hinge
    else:
        ell = np.exp(diff)
        dell = ell

    n_inner = np.count_nonzero(batch.items >= 0, axis=1)[batch.pair_row][:, None]
    u = pairs.update(batch.pairs, ell.sum(axis=1) / n_inner[:, 0])
    q = view.query_of[batch.pairs]
    fprime = _outer_derivative(kind, u, view.relevance[batch.pairs], view.ideal_dcg[q],
                               view.sizes[q], view.label_softmax[batch.pairs])

    # d ghat / dw = (1/|inner|) sum_j dell(h_j - h_i) (grad h_j - grad h_i)
    w = fprime[:, None] * dell / n_inner * (1.0 / batch.num_pairs)
    rows, slots = batch.items.shape
    cell = (batch.pair_row[:, None] * slots + np.arange(slots)).ravel()
    inner_coeff = np.bincount(cell, weights=w.ravel(), minlength=rows * slots)
    scatter_grads(model, view, (batch.items, batch.pairs),
                  (inner_coeff.reshape(rows, slots), -w.sum(axis=1)), grad)
    return grad
