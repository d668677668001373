"""The listwise ranking loss ``dataset_loss``, the G1 gradient estimator and
the ``ScoredBatch`` whose blocks G1 and G2 weigh.

The exact rank of an item counts every item scoring at least as high,
itself included, so the top item has rank 1.  Differentiable surrogates
replace the step indicator by a squared hinge (NDCG route) or the
exponential (ListNet route); both keep the self term, so the hinge
surrogate is bounded below by c^2 and the exponential one by 1.  The
surrogate rank is written twice on purpose: ``dataset_loss`` sums it over
each query's whole list, as the finite-difference reference, and
``g1_estimate`` estimates it from an inner sub-batch.

The G1 estimator follows the compositional structure L = mean f(g): the
inner quantity g = (surrogate rank) / N_q is tracked per query-item pair
with an exponential moving average, and the outer derivative is evaluated
at the tracked value.  It works on a whole batch at once: the moving
averages are one dense vector indexed by flat pair position (see
``data.Dataset``), and the surrogate ranks of all sampled pairs are one
(pairs, inner slots) matrix against their queries' padded inner sub-batch
rows.  Empty slots score -inf, which zeroes their hinge and exp terms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .data import BatchSample, Dataset
from .errors import EmptyDatasetError, StateError
from .model import FactorizationScorer

if TYPE_CHECKING:
    from .optimizer import TrainConfig, TrainerState

_LN2 = np.log(2.0)


def dataset_loss(model: FactorizationScorer, d: Dataset, cfg: TrainConfig) -> float:
    """L(w) = (1 / |S|) * sum_q L_q(w) for the loss ``cfg.loss`` and margin
    ``cfg.margin``, the finite-difference target for G1, from one score_many
    call over every pair.  NDCG: L_q = -(1/Z_q) sum_i (2^y_i - 1) / log2(1 +
    hinge_rank_i), 0 when every label is 0 (Z_q = 0).  ListNet: L_q = sum_i
    softmax(y)_i * log(exp_rank_i)."""
    scores = model.score_many(d.query_row, d.feature_idx)
    ndcg = cfg.loss == "ndcg"
    gain = 2.0 ** d.relevance - 1.0
    total = 0.0
    for k in range(d.num_queries):
        a, b = d.offsets[k], d.offsets[k + 1]
        if ndcg and d.ideal_dcg[k] <= 0.0:
            continue
        diff = scores[None, a:b] - scores[a:b, None]      # diff[i, j] = h_j - h_i
        if ndcg:
            gbar = np.sum(np.maximum(diff + cfg.margin, 0.0) ** 2, axis=1)
            total -= np.sum(gain[a:b] / np.log2(1.0 + gbar)) / d.ideal_dcg[k]
        else:
            ghat = np.sum(np.exp(diff), axis=1)
            total += np.sum(d.label_softmax[a:b] * np.log(ghat))
    return float(total) / d.total_pairs


def blend(values: np.ndarray, seen: np.ndarray, idx: np.ndarray, estimate: np.ndarray,
          gamma) -> np.ndarray:
    """Fold ``estimate[j]`` into the moving average ``values[idx[j]]`` (distinct
    rows) and mark the rows ``seen``; returns the new rows.

    A row's first update sets it to the estimate itself, which avoids the
    blow-up of the outer derivative near u = 0; later updates blend the
    estimate in with weight ``gamma`` (one weight, or one per column).
    """
    old = seen[idx].reshape((-1,) + (1,) * (estimate.ndim - 1))
    new = np.where(old, gamma * estimate + (1.0 - gamma) * values[idx], estimate)
    values[idx] = new
    seen[idx] = True
    return new


class ScoredBatch:
    """The blocks of flat positions one training step works on, scored with
    one gather and weighted with one scatter.

    The blocks are the batch's ``pairs`` and ``items`` and, with ``fair``,
    the ``group_a`` and ``group_b`` rows of the queries that have both
    groups; each is a vector or a padded matrix whose -1 slots are empty.
    ``scores[name]`` holds a block's scores, -inf in its empty slots, from
    one score_many call that keeps the rows it gathers; ``dense`` scatters
    on those rows, so the parameters must not move in between.
    """

    def __init__(self, model: FactorizationScorer, d: Dataset, batch: BatchSample,
                 fair: bool = False):
        blocks = {"pairs": batch.pairs, "items": batch.items}
        if fair:
            active = ~batch.skipped
            blocks.update(group_a=batch.group_a[active], group_b=batch.group_b[active])
        self.model = model
        self.filled = {name: b >= 0 for name, b in blocks.items()}
        pos = np.concatenate([b[self.filled[name]] for name, b in blocks.items()])
        self.q, self.item_rows = d.query_row[pos], d.feature_idx[pos]
        self.kept = {}
        flat = model.score_many(self.q, self.item_rows, keep=self.kept)
        parts = np.split(flat, np.cumsum([f.sum() for f in self.filled.values()])[:-1])
        self.scores = {name: np.full(f.shape, -np.inf) for name, f in self.filled.items()}
        for (name, f), part in zip(self.filled.items(), parts):
            self.scores[name][f] = part

    def dense(self, *estimates: dict) -> np.ndarray:
        """sum over the estimates, their blocks and the blocks' filled slots of
        weight * grad_w score, as a parameter vector.  An estimate maps block
        names to weights shaped like the block; one block's weights add up in
        the order the estimates are given, and a block none names weighs 0."""
        coeff = [sum((e[name] for e in estimates if name in e), np.zeros(f.shape))[f]
                 for name, f in self.filled.items()]
        out = np.zeros(len(self.model.params.values))
        self.model.add_weighted_grads(self.q, self.item_rows, np.concatenate(coeff), out,
                                      kept=self.kept)
        return out


def _outer_derivative(cfg: TrainConfig, u: np.ndarray, labels: np.ndarray,
                      z: np.ndarray, n_q: np.ndarray, target: np.ndarray) -> np.ndarray:
    """df/dg evaluated at the tracked inner estimates u."""
    if cfg.loss == "ndcg":
        # a query whose labels are all zero (z = 0) gets no ranking gradient
        gain = (2.0 ** labels - 1.0) / np.where(z > 0.0, z, np.inf)
        # the exact surrogate rank counts the item itself, so N_q g >= margin^2;
        # an inner sub-batch that misses every item near i can still give u = 0
        arg = np.maximum(n_q * u, cfg.margin ** 2) + 1.0
        return gain * n_q / (arg * _LN2 * np.log2(arg) ** 2)
    # ListNet: f(g) = p_i log(N_q g) => f'(g) = p_i / g, p the label softmax
    return target / u


def g1_estimate(scored: ScoredBatch, d: Dataset, batch: BatchSample,
                cfg: TrainConfig, state: TrainerState) -> dict:
    """Stochastic gradient of the ranking loss ``cfg.loss`` over the pair batch,
    as weights on the ``pairs`` and ``items`` blocks of ``scored``.

    ``state`` must be bound to ``d``.  Blends every sampled pair into
    ``state.pair_u`` with weight ``cfg.gamma0`` first, then assembles G1 with
    the refreshed values; with full batches and gamma0 = 1 this reproduces the
    exact full-batch gradient.
    """
    if state.pair_u is None or len(state.pair_u) != d.total_pairs:
        raise StateError("g1_estimate needs a TrainerState bound to this dataset")
    if batch.num_pairs == 0:
        raise EmptyDatasetError("empty pair batch")
    s_pair, s_inner = scored.scores["pairs"], scored.scores["items"]
    diff = s_inner[batch.pair_row] - s_pair[:, None]     # (pairs, inner slots)

    if cfg.loss == "ndcg":
        hinge = np.maximum(diff + cfg.margin, 0.0)
        ell = hinge ** 2
        dell = 2.0 * hinge
    else:
        ell = np.exp(diff)
        dell = ell

    n_inner = np.count_nonzero(scored.filled["items"], axis=1)[batch.pair_row][:, None]
    u = blend(state.pair_u, state.pair_seen, batch.pairs, ell.sum(axis=1) / n_inner[:, 0],
              cfg.gamma0)
    q = d.query_of[batch.pairs]
    fprime = _outer_derivative(cfg, u, d.relevance[batch.pairs], d.ideal_dcg[q],
                               d.sizes[q], d.label_softmax[batch.pairs])

    # d ghat / dw = (1/|inner|) sum_j dell(h_j - h_i) (grad h_j - grad h_i)
    w = fprime[:, None] * dell / n_inner * (1.0 / batch.num_pairs)
    rows, slots = batch.items.shape
    cell = (batch.pair_row[:, None] * slots + np.arange(slots)).ravel()
    inner_coeff = np.bincount(cell, weights=w.ravel(), minlength=rows * slots)
    return {"pairs": -w.sum(axis=1), "items": inner_coeff.reshape(rows, slots)}
