"""Central finite-difference oracles and the gradient-check suites.

Relative error here is the max absolute coordinate difference divided by
the largest magnitude of the reference gradient (floored to avoid 0/0 on
identically-zero gradients).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .data import Dataset, generate_synthetic, sample_batch
from .fairness import dataset_topk_fairness, g2_estimate
from .lambda_solver import (
    implicit_lambda_grad,
    smoothed_grad,
    smoothed_hess,
    smoothed_objective,
    solve_lambda_exactly_smoothed,
)
from .model import FactorizationScorer
from .optimizer import TrainConfig, TrainerState
from .rank_losses import ScoredBatch, dataset_loss, g1_estimate


def finite_difference_gradient(f: Callable[[np.ndarray], float], w: np.ndarray) -> np.ndarray:
    """Central differences, step 1e-5, of a scalar function of a flat vector."""
    step = 1e-5
    grad = np.zeros_like(w)
    for j in range(len(w)):
        orig = w[j]
        w[j] = orig + step
        fp = f(w)
        w[j] = orig - step
        fm = f(w)
        w[j] = orig
        grad[j] = (fp - fm) / (2.0 * step)
    return grad


def relative_error(estimate: np.ndarray, reference: np.ndarray) -> float:
    scale = max(float(np.abs(reference).max()), 1e-12)
    return float(np.abs(estimate - reference).max()) / scale


def _full_batch(d: Dataset) -> "object":
    rng = np.random.default_rng(0)
    big = int(d.sizes.max())
    return sample_batch(d, (d.total_pairs, big, big, big), rng)


def _bound_state(cfg: TrainConfig, model: FactorizationScorer, d: Dataset) -> TrainerState:
    state = TrainerState.fresh(cfg, len(model.params.values))
    state.bind(d)
    return state


def _model_for(d: Dataset, dim: int = 8, seed: int = 0) -> FactorizationScorer:
    return FactorizationScorer(d.num_query_rows, d.num_item_rows, dim, seed=seed)


def check_rank_losses(seed: int) -> dict[str, float]:
    """Full-batch G1 with gamma0 = 1 vs finite differences of the mean
    ranking loss, for both loss variants: 20 queries of 50 items, dim 8."""
    d = generate_synthetic(20, 50, 0.3, 1.0, seed)
    model = _model_for(d, 8, seed)
    batch = _full_batch(d)
    out = {}
    for loss in ("ndcg", "listnet"):
        cfg = TrainConfig(loss=loss, gamma0=1.0)
        scored = ScoredBatch(model, d, batch)
        g1 = scored.dense(g1_estimate(scored, d, batch, cfg, _bound_state(cfg, model, d)))

        def loss_of(w):
            model.params.values[:] = w
            return dataset_loss(model, d, cfg)

        fd = finite_difference_gradient(loss_of, model.params.values)
        out[loss] = relative_error(g1, fd)
    return out


def check_fairness(seed: int) -> dict[str, float]:
    """Full-batch G2 in full_implicit mode, with the threshold solved to
    tolerance and its analytic implicit gradient, vs finite differences of
    the smoothed top-K disparity with inner threshold re-solves: 4 queries
    of 5 items, K = 2, dim 3."""
    d = generate_synthetic(4, 5, 0.4, 1.0, seed)
    model = _model_for(d, 3, seed)
    cfg = TrainConfig(k=2, fair_weight=1.0, tau1=5e-2, tau2=1e-3, eps=0.5, tau_psi=0.2,
                      gamma1=1.0, gamma2=1.0, gamma3=1.0, g2_mode="full_implicit")
    batch = _full_batch(d)

    state = _bound_state(cfg, model, d)
    scores = model.score_many(d.query_row, d.feature_idx).reshape(d.num_queries, -1)
    lam = solve_lambda_exactly_smoothed(scores, cfg, tol=1e-10)
    state.lam[:, :2] = np.stack([lam, smoothed_hess(lam, scores, cfg)], axis=1)

    scored = ScoredBatch(model, d, batch)
    g2 = scored.dense(g2_estimate(scored, d, batch, cfg, state))

    def fairness_of(w):
        model.params.values[:] = w
        return dataset_topk_fairness(model, d, cfg)

    fd = finite_difference_gradient(fairness_of, model.params.values)
    return {"g2_full_implicit": relative_error(g2, fd)}


def check_lambda(seed: int) -> dict[str, float]:
    """Scalar and mixed derivatives of the smoothed threshold objective
    vs finite differences on 50 random lists, plus the assembled implicit
    gradient vs central differences with inner re-solves."""
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(tau1=5e-2, tau2=1e-3, eps=0.5, k=3)
    max_grad = max_hess = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 40))
        scores = rng.normal(0.0, 2.0, n)
        lam = float(rng.normal(0.0, 1.0))
        h = 1e-6
        fd_g = (smoothed_objective(lam + h, scores, cfg)
                - smoothed_objective(lam - h, scores, cfg)) / (2 * h)
        fd_h = (smoothed_grad(lam + h, scores, cfg)
                - smoothed_grad(lam - h, scores, cfg)) / (2 * h)
        max_grad = max(max_grad, abs(smoothed_grad(lam, scores, cfg) - fd_g)
                       / max(abs(fd_g), 1e-12))
        max_hess = max(max_hess, abs(smoothed_hess(lam, scores, cfg) - fd_h)
                       / max(abs(fd_h), 1e-12))

    # implicit gradient of the solved threshold, small model
    d = generate_synthetic(3, 6, 0.4, 1.0, seed)
    model = _model_for(d, 2, seed)
    q, items = d.query_index[0], d.feature_idx[d.offsets[0]:d.offsets[1]]
    scores = model.score_many(q, items)
    lam = solve_lambda_exactly_smoothed(scores, cfg, tol=1e-12)
    analytic = implicit_lambda_grad(lam, model, q, items, cfg)

    def lam_of(w):
        model.params.values[:] = w
        s = model.score_many(q, items)
        return solve_lambda_exactly_smoothed(s, cfg, tol=1e-12)

    fd = finite_difference_gradient(lam_of, model.params.values)
    return {"smoothed_grad": max_grad, "smoothed_hess": max_hess,
            "implicit_lambda": relative_error(analytic, fd)}


def run_all(seed: int = 0) -> dict[str, float]:
    """The three gradient-check suites, flattened to one name -> max-error map."""
    out = {}
    for name, errs in (("rank_losses", check_rank_losses(seed)),
                       ("fairness", check_fairness(seed)),
                       ("lambda", check_lambda(seed))):
        for key, val in errs.items():
            out[f"{name}.{key}"] = val
    return out
