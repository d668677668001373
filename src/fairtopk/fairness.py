"""Exposure, the smoothed top-K disparity loss, exact top-K gaps and the G2
gradient estimator, all on scored lists along the last axis of an array.

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

from typing import TYPE_CHECKING

import numpy as np

from .data import GROUP_A, GROUP_B, BatchSample, Dataset, along, padded_blocks
from .errors import StateError
from .lambda_solver import _sigmoid, cross_coeff, solve_lambda_exactly_smoothed
from .model import FactorizationScorer
from .rank_losses import ScoredBatch, blend

if TYPE_CHECKING:
    from .optimizer import TrainConfig, TrainerState


def exposures(scores: np.ndarray) -> np.ndarray:
    """Softmax of the scores along the last axis, computed with max
    subtraction; each row sums to 1 and -inf padding gets 0."""
    scores = np.asarray(scores, dtype=np.float64)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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


def _surrogate(scores: np.ndarray, groups: np.ndarray, lam, cfg: TrainConfig) -> np.ndarray:
    """Smoothed half-squared top-K gap of lists of both groups along the last
    axis, at thresholds ``lam`` broadcast against them; empty slots score -inf
    in group -1.

    Equals half the square of (mean_A psi*e - mean_B psi*e) with e the
    softmax exposures; the shift cancels in the ratio.  psi is the indicator
    sigmoid((s - lam) / ``cfg.tau_psi``) for ``fairness_mode = top_k`` and 1
    otherwise, which gives the full-list disparity.
    """
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = _sigmoid((scores - lam) / cfg.tau_psi) * e if cfg.fairness_mode == "top_k" else e
    a, b = groups == GROUP_A, groups == GROUP_B
    g_a, g_b = (w * a).sum(axis=-1) / a.sum(axis=-1), (w * b).sum(axis=-1) / b.sum(axis=-1)
    return 0.5 * ((g_a - g_b) / e.sum(axis=-1)) ** 2


def dataset_topk_fairness(model: FactorizationScorer, d: Dataset, cfg: TrainConfig) -> float:
    """U(w): mean over queries of the smoothed top-K disparity at K = ``cfg.k``, its
    thresholds re-solved to tolerance 1e-12 per padded block, widest queries first;
    one score_many call; queries missing a group add 0.  G2's finite-difference target."""
    scores, total = model.score_many(d.query_row, d.feature_idx), 0.0
    for _, at in padded_blocks(d, np.flatnonzero(d.has_both_groups)):
        s = np.where(at >= 0, scores[at], -np.inf)
        lam = solve_lambda_exactly_smoothed(s, cfg, tol=1e-12)[:, None]
        total += _surrogate(s, np.where(at >= 0, d.groups[at], -1), lam, cfg).sum()
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
    on the ``group_a``, ``group_b`` and ``items`` blocks of ``scored``, whose
    group blocks are empty unless ``batch`` drew group sub-batches; rows of
    queries missing a group weigh 0.

    ``state`` must be bound to ``d``: it holds the moving averages (blended
    with weights ``cfg.gamma1`` to ``gamma3``), the shifts and, for
    ``fairness_mode = top_k``, the thresholds ``state.lam``; ``full_list``
    uses psi = 1 and needs no threshold.  ``g2_mode = simplified`` drops the
    indicator-derivative terms (the training default); ``full_implicit``
    includes them with the implicit-function gradient of the threshold,
    grad lambda = -cross / s.
    """
    if state.lam is None or len(state.lam) != d.num_queries:
        raise StateError("g2_estimate needs a TrainerState bound to this dataset")
    active = ~batch.skipped
    if not active.any():
        return {}
    inv_nq = 1.0 / len(batch.queries)
    rows = batch.queries[active]
    s_a, s_b = scored.scores["group_a"], scored.scores["group_b"]
    s_g = scored.scores["items"][active]
    n_a, n_b, n_g = (np.count_nonzero(f, axis=1)[:, None] for f in (
        scored.filled["group_a"], scored.filled["group_b"], scored.filled["items"][active]))

    # a query's first touch sets its shift to its top sampled score
    fresh = ~state.fair_seen[rows]
    top_a, top_b, top_g = (s[fresh].max(axis=1) for s in (s_a, s_b, s_g))
    state.shift[rows[fresh]] = np.maximum(np.maximum(top_a, top_b), top_g)
    shift = state.shift[rows]
    e_a, e_b, e_g = (np.exp(s - shift[:, None]) for s in (s_a, s_b, s_g))
    top_k = cfg.fairness_mode == "top_k"     # full_list: psi = 1
    if top_k:
        lam_q = state.lam[rows, 0][:, None]
        psi_a, psi_b = (_sigmoid((s - lam_q) / cfg.tau_psi) for s in (s_a, s_b))
    else:
        psi_a = psi_b = 1.0

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

    if cfg.g2_mode == "full_implicit" and top_k:
        extra_a = d1 * (psi_a * (1 - psi_a) / cfg.tau_psi) * e_a / n_a * inv_nq
        extra_b = -d1 * (psi_b * (1 - psi_b) / cfg.tau_psi) * e_b / n_b * inv_nq
        coeff_a = coeff_a + extra_a
        coeff_b = coeff_b + extra_b
        # the threshold moves with the scores: grad lambda = -cross / s, where
        # cross = sum_j c_j grad h_j over the item sub-batch
        lam_weight = (extra_a.sum(axis=1) + extra_b.sum(axis=1)) / state.lam[rows, 1]
        coeff_g = coeff_g + lam_weight[:, None] * cross_coeff(state.lam[rows, 0], s_g, cfg)

    items = np.zeros(batch.items.shape)
    items[active] = coeff_g
    return {"group_a": coeff_a, "group_b": coeff_b, "items": items}
