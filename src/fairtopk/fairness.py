"""Exposure, full-list and top-K disparity losses, exact top-K disparity
metrics and the G2 gradient estimator.

Exposure is the softmax of the scores over a query's item list.  The
top-K surrogate weights each item's exp-score by a smooth indicator of
sitting above the threshold lambda; with the indicator hard-wired to one
it reduces to the full-list disparity.  All exp sums apply a per-query
reference shift, valid because the loss depends only on the ratio
(g_a - g_b) / g_q which is invariant to a common positive rescaling.

The G2 estimator handles every sampled query at once: its group-A,
group-B and item sub-batches are padded (queries, slots) matrices of flat
positions (see ``data.Dataset``), and the moving averages, shifts and
thresholds are dense arrays indexed by query position.  Empty slots score
-inf, which zeroes their exp and indicator terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import GROUP_A, GROUP_B, BatchSample, Dataset, QueryGroup, along
from .errors import ConfigurationError, StateError
from .lambda_solver import SmoothingParams, _sigmoid, cross_coeff, solve_lambda_exactly_smoothed
from .model import FactorizationScorer
from .rank_losses import ScoredBatch, blend

if TYPE_CHECKING:
    from .optimizer import TrainConfig, TrainerState


@dataclass(frozen=True)
class SmoothIndicator:
    """Sigmoid step surrogate with temperature tau: psi(x) = sigmoid(x / tau)."""

    temperature: float = 0.1

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigurationError("indicator temperature must be positive")

    def value(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(np.asarray(x, dtype=np.float64) / self.temperature)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        v = self.value(x)
        return v * (1.0 - v) / self.temperature


# psi = None stands for the constant indicator psi = 1, which turns the top-K
# disparity into the full-list one
CONSTANT_ONE = None


def exposures(scores: np.ndarray) -> np.ndarray:
    """Softmax of the scores along the last axis, computed with max
    subtraction; each row sums to 1 and -inf padding gets 0."""
    scores = np.asarray(scores, dtype=np.float64)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def full_list_disparity(model: FactorizationScorer, qg: QueryGroup) -> float | None:
    """Half the squared gap between group-averaged exposures; None when a
    group is empty (fairness undefined for the query)."""
    if not qg.has_both_groups():
        return None
    e = exposures(model.score_many(qg.query_index, qg.feature_idx))
    gap = e[qg.groups == GROUP_A].mean() - e[qg.groups == GROUP_B].mean()
    return 0.5 * float(gap) ** 2


def rank_order(scores: np.ndarray, item_ids: np.ndarray) -> np.ndarray:
    """Positions of scored lists from first to last along the last axis: score
    descending, ties broken by ascending item id (a lexsort of the lists with a
    finite tie); the order among -inf padding is unspecified.  Every metric uses it."""
    order = np.argsort(-scores, axis=-1)
    ranked = along(scores, order)
    tied = np.any((ranked[..., 1:] == ranked[..., :-1]) & np.isfinite(ranked[..., 1:]), axis=-1)
    order[tied] = np.lexsort((item_ids[tied], -scores[tied]))
    return order


def topk_gaps(scores: np.ndarray, groups: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Signed top-k exposure gap, group A minus group B, for every k = 1..n of
    lists scored along the last axis and ranked by ``order`` (entry k - 1);
    NaN throughout for a list with an empty group.

    Each group's mean runs over the whole group, but only top-k members
    contribute their (full-list) exposure.  Padding is in neither group.
    """
    a, b = groups == GROUP_A, groups == GROUP_B
    n_a, n_b = a.sum(axis=-1, keepdims=True), b.sum(axis=-1, keepdims=True)
    e = exposures(scores)
    w = a * e / np.maximum(n_a, 1) - b * e / np.maximum(n_b, 1)
    gaps = np.cumsum(along(w, order), axis=-1)
    return np.where((n_a > 0) & (n_b > 0), gaps, np.nan)


def topk_disparity_exact(model: FactorizationScorer, qg: QueryGroup, k: int) -> float | None:
    """Signed top-k exposure gap of a query's whole item list (``topk_gaps``);
    None when a group is empty."""
    if not 1 <= k < qg.num_items:
        raise ConfigurationError(f"k must be in [1, {qg.num_items - 1}]")
    scores = model.score_many(qg.query_index, qg.feature_idx)
    gap = topk_gaps(scores, qg.groups, rank_order(scores, qg.item_ids))[k - 1]
    return None if np.isnan(gap) else float(gap)


def topk_disparity_surrogate(model: FactorizationScorer, qg: QueryGroup, lam: float,
                             psi: SmoothIndicator | None) -> float | None:
    """Smoothed half-squared top-K gap at threshold lam.

    Equals half the square of (mean_A psi*e - mean_B psi*e) with e the
    softmax exposures; the shift cancels in the ratio.  ``psi = None``
    (``CONSTANT_ONE``) gives the full-list disparity.
    """
    if not qg.has_both_groups():
        return None
    return _surrogate(model.score_many(qg.query_index, qg.feature_idx), qg.groups, lam, psi)


def _surrogate(scores: np.ndarray, groups: np.ndarray, lam: float,
               psi: SmoothIndicator | None) -> float:
    """``topk_disparity_surrogate`` of one list of both groups, from its scores."""
    e = np.exp(scores - scores.max())
    w = e if psi is None else psi.value(scores - lam) * e
    g_a = w[groups == GROUP_A].mean()
    g_b = w[groups == GROUP_B].mean()
    return 0.5 * float((g_a - g_b) / (len(scores) * e.mean())) ** 2


def dataset_topk_fairness(model: FactorizationScorer, d: Dataset,
                          psi: SmoothIndicator, p: SmoothingParams,
                          tol: float = 1e-12) -> float:
    """U(w): mean over queries of the smoothed top-K disparity at K = ``p.k``,
    with the threshold re-solved per query, from one score_many call over
    every pair; queries missing a group add 0.  The finite-difference target for G2."""
    scores, both = model.score_many(d.query_row, d.feature_idx), d.has_both_groups
    total = 0.0
    for a, b in zip(d.offsets[:-1][both], d.offsets[1:][both]):
        s = scores[a:b]
        total += _surrogate(s, d.groups[a:b], solve_lambda_exactly_smoothed(s, p, tol=tol), psi)
    return total / d.num_queries


def disparity_mae_mse(gaps: list[float]) -> tuple[float, float]:
    """MAE and MSE of signed per-query gaps."""
    if len(gaps) == 0:
        return float("nan"), float("nan")
    g = np.asarray(gaps, dtype=np.float64)
    return float(np.abs(g).mean()), float((g ** 2).mean())


def g2_estimate(scored: ScoredBatch, d: Dataset, batch: BatchSample, cfg: TrainConfig,
                state: TrainerState) -> dict:
    """Stochastic gradient of the top-K fairness regularizer over B_Q, as weights
    on the ``group_a``, ``group_b`` and ``items`` blocks of ``scored``, which
    must be built with ``fair``; rows of queries missing a group weigh 0.

    ``state`` must be bound to ``d``: it holds the moving averages (blended
    with weights ``cfg.gamma1`` to ``gamma3``), the shifts and, for
    ``fairness_mode = top_k``, the thresholds ``state.lam``; ``full_list``
    uses psi = 1 and needs no threshold.  ``g2_mode = simplified`` drops the
    indicator-derivative terms (the training default); ``full_implicit``
    includes them with the implicit-function gradient of the threshold,
    grad lambda = -cross / s.
    """
    if "group_a" not in scored.scores:
        raise StateError("g2_estimate needs a ScoredBatch built with fair=True")
    if state.lam is None or len(state.lam) != d.num_queries:
        raise StateError("g2_estimate needs a TrainerState bound to this dataset")
    psi = SmoothIndicator(cfg.tau_psi) if cfg.fairness_mode == "top_k" else CONSTANT_ONE
    active = ~batch.skipped
    if not active.any():
        return {}
    inv_nq = 1.0 / len(batch.queries)
    rows = batch.queries[active]
    s_a, s_b = scored.scores["group_a"], scored.scores["group_b"]
    s_g = scored.scores["items"][active]
    n_a, n_b, n_g = (np.count_nonzero(f, axis=1)[:, None] for f in (
        scored.filled["group_a"], scored.filled["group_b"], scored.filled["items"][active]))

    shift = np.where(state.fair_seen[rows], state.shift[rows],
                     np.maximum(np.maximum(s_a.max(axis=1), s_b.max(axis=1)), s_g.max(axis=1)))
    state.shift[rows] = shift
    e_a, e_b, e_g = (np.exp(s - shift[:, None]) for s in (s_a, s_b, s_g))
    if psi is None:
        psi_a = psi_b = 1.0
    else:
        lam_q = state.lam[rows, 0][:, None]
        psi_a = psi.value(s_a - lam_q)
        psi_b = psi.value(s_b - lam_q)

    u = blend(state.fair_u, state.fair_seen, rows,
              np.stack([(psi_a * e_a).sum(axis=1) / n_a[:, 0],
                        (psi_b * e_b).sum(axis=1) / n_b[:, 0],
                        e_g.sum(axis=1) / n_g[:, 0]], axis=1),
              np.array([cfg.gamma1, cfg.gamma2, cfg.gamma3]))
    u_a, u_b, u_g = u.T
    n_q = d.sizes[rows]
    diff = (u_a - u_b) / (n_q * u_g)
    d1 = (diff / (n_q * u_g))[:, None]          # d2 = -d1
    d3 = (-diff * diff / u_g)[:, None]

    coeff_a = d1 * psi_a * e_a / n_a * inv_nq
    coeff_b = -d1 * psi_b * e_b / n_b * inv_nq
    coeff_g = d3 * e_g / n_g * inv_nq

    if cfg.g2_mode == "full_implicit" and psi is not None:
        extra_a = d1 * psi.derivative(s_a - lam_q) * e_a / n_a * inv_nq
        extra_b = -d1 * psi.derivative(s_b - lam_q) * e_b / n_b * inv_nq
        coeff_a = coeff_a + extra_a
        coeff_b = coeff_b + extra_b
        # the threshold moves with the scores: grad lambda = -cross / s, where
        # cross = sum_j c_j grad h_j over the item sub-batch
        lam_weight = (extra_a.sum(axis=1) + extra_b.sum(axis=1)) / state.lam[rows, 1]
        coeff_g = coeff_g + lam_weight[:, None] * cross_coeff(state.lam[rows, 0], s_g,
                                                              cfg.smoothing())

    items = np.zeros(batch.items.shape)
    items[active] = coeff_g
    return {"group_a": coeff_a, "group_b": coeff_b, "items": items}
