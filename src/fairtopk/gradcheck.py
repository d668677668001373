"""Central finite-difference oracles and the gradient-check suites.

Relative error here is the max absolute coordinate difference divided by
the largest magnitude of the reference gradient (floored to avoid 0/0 on
identically-zero gradients).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .data import Dataset, generate_synthetic, sample_batch
from .fairness import (
    FairnessState,
    SmoothIndicator,
    dataset_topk_fairness,
    g2_estimate,
)
from .lambda_solver import (
    LambdaState,
    SmoothingParams,
    implicit_lambda_grad,
    smoothed_grad,
    smoothed_hess,
    smoothed_objective,
    solve_lambda_exactly_smoothed,
)
from .model import FactorizationScorer
from .rank_losses import (
    LossVariant,
    MovingAverage,
    RankLossKind,
    dataset_loss,
    g1_estimate,
)


def finite_difference_gradient(f: Callable[[np.ndarray], float],
                               w: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central differences of a scalar function of a flat vector."""
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


def relative_error(estimate: np.ndarray, reference: np.ndarray,
                   floor: float = 1e-12) -> float:
    scale = max(float(np.abs(reference).max()), floor)
    return float(np.abs(estimate - reference).max()) / scale


def _full_batch(d: Dataset) -> "object":
    rng = np.random.default_rng(0)
    big = max(q.num_items for q in d.queries)
    return sample_batch(d, (d.total_pairs, big, big, big), rng)


def _model_for(d: Dataset, dim: int = 8, seed: int = 0) -> FactorizationScorer:
    return FactorizationScorer(d.num_query_rows, d.num_item_rows, dim, seed=seed)


def check_rank_losses(seed: int = 0, num_queries: int = 20,
                      items_per_query: int = 50, dim: int = 8,
                      step: float = 1e-5) -> dict[str, float]:
    """Full-batch G1 with gamma0 = 1 vs finite differences of the mean
    ranking loss, for both loss variants."""
    d = generate_synthetic(num_queries, items_per_query, 0.3, 1.0, seed)
    model = _model_for(d, dim, seed)
    batch = _full_batch(d)
    out = {}
    for kind in (RankLossKind(LossVariant.NDCG, 1.0),
                 RankLossKind(LossVariant.LISTNET, 1.0)):
        g1 = g1_estimate(model, d, batch, kind, MovingAverage.zeros(1.0, d.total_pairs))

        def loss_of(w):
            model.params.values[:] = w
            return dataset_loss(model, d, kind)

        w0 = model.params.values.copy()
        fd = finite_difference_gradient(loss_of, model.params.values, step)
        model.params.values[:] = w0
        out[kind.variant.value] = relative_error(g1, fd)
    return out


def check_fairness(seed: int = 0, num_queries: int = 4, items_per_query: int = 5,
                   k: int = 2, dim: int = 3, step: float = 1e-5) -> dict[str, float]:
    """Full-batch G2 in full_implicit mode, with the threshold solved to
    tolerance and its analytic implicit gradient, vs finite differences of
    the smoothed top-K disparity with inner threshold re-solves."""
    d = generate_synthetic(num_queries, items_per_query, 0.4, 1.0, seed)
    model = _model_for(d, dim, seed)
    p = SmoothingParams(tau1=5e-2, tau2=1e-3, eps=0.5, k=k)
    psi = SmoothIndicator(temperature=0.2)
    batch = _full_batch(d)

    lams, hessians = [], []
    for qg in d.queries:
        scores = model.score_many(qg.query_index, qg.feature_idx)
        lams.append(solve_lambda_exactly_smoothed(scores, p, tol=1e-10))
        hessians.append(smoothed_hess(lams[-1], scores, p))
    lam_state = LambdaState(lam=np.array(lams), s=np.array(hessians))

    fair = FairnessState.zeros(d.num_queries, 1.0, 1.0, 1.0)
    g2 = g2_estimate(model, d, batch, k, fair, lam_state, psi, p,
                     mode="full_implicit")

    def fairness_of(w):
        model.params.values[:] = w
        return dataset_topk_fairness(model, d, k, psi, p, tol=1e-12)

    w0 = model.params.values.copy()
    fd = finite_difference_gradient(fairness_of, model.params.values, step)
    model.params.values[:] = w0
    return {"g2_full_implicit": relative_error(g2, fd)}


def check_lambda(seed: int = 0, trials: int = 50) -> dict[str, float]:
    """Scalar and mixed derivatives of the smoothed threshold objective
    vs finite differences, plus the assembled implicit gradient vs central
    differences with inner re-solves."""
    rng = np.random.default_rng(seed)
    p = SmoothingParams(tau1=5e-2, tau2=1e-3, eps=0.5, k=3)
    max_grad = max_hess = 0.0
    for _ in range(trials):
        n = int(rng.integers(5, 40))
        scores = rng.normal(0.0, 2.0, n)
        lam = float(rng.normal(0.0, 1.0))
        h = 1e-6
        fd_g = (smoothed_objective(lam + h, scores, p)
                - smoothed_objective(lam - h, scores, p)) / (2 * h)
        fd_h = (smoothed_grad(lam + h, scores, p)
                - smoothed_grad(lam - h, scores, p)) / (2 * h)
        max_grad = max(max_grad, abs(smoothed_grad(lam, scores, p) - fd_g)
                       / max(abs(fd_g), 1e-12))
        max_hess = max(max_hess, abs(smoothed_hess(lam, scores, p) - fd_h)
                       / max(abs(fd_h), 1e-12))

    # implicit gradient of the solved threshold, small model
    d = generate_synthetic(3, 6, 0.4, 1.0, seed)
    model = _model_for(d, 2, seed)
    qg = d.queries[0]
    scores = model.score_many(qg.query_index, qg.feature_idx)
    lam = solve_lambda_exactly_smoothed(scores, p, tol=1e-12)
    analytic = implicit_lambda_grad(lam, model, qg.query_index, qg.feature_idx, p)

    def lam_of(w):
        model.params.values[:] = w
        s = model.score_many(qg.query_index, qg.feature_idx)
        return solve_lambda_exactly_smoothed(s, p, tol=1e-12)

    w0 = model.params.values.copy()
    fd = finite_difference_gradient(lam_of, model.params.values, step=1e-5)
    model.params.values[:] = w0
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
