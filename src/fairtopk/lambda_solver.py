"""Top-K threshold machinery: exact order statistic, smoothed strongly
convex threshold objective, a safeguarded Newton offline solver, the
online (lambda, s, v) state updates and the implicit gradient of the
smoothed threshold with respect to model parameters.

The smoothed objective replaces each hinge (h - lambda)_+ by the softplus
tau1 * log(1 + exp((h - lambda) / tau1)) and adds a tau2/2 * lambda^2
curvature term, so its second derivative is bounded below by tau2 > 0.

The online functions (``smoothed_grad``, ``smoothed_hess``, ``state_step``,
``init_lambda_state``) take one query's scores as a vector, or many
queries' as a (queries, slots) matrix with -inf in empty slots and one
threshold per row; a -inf score adds nothing to any batch sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FairTopKError
from .model import FactorizationScorer


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(x / 2))


def _batch_mean(values: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Mean over the last axis, counting only the slots with a finite score."""
    return values.sum(axis=-1) / np.count_nonzero(scores > -np.inf, axis=-1)


@dataclass(frozen=True)
class SmoothingParams:
    tau1: float = 1e-2
    tau2: float = 1e-4
    eps: float = 0.5
    k: int = 10

    def __post_init__(self):
        if self.tau1 <= 0 or self.tau2 <= 0:
            raise ConfigurationError("tau1 and tau2 must be positive")
        if not (0.0 < self.eps < 1.0):
            raise ConfigurationError("eps must lie strictly in (0, 1)")
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")


@dataclass
class LambdaState:
    """Online threshold state: lam tracks the smoothed threshold, s its
    curvature estimate and v its gradient estimate.  The fields are floats
    for one query or arrays with one entry per query."""

    lam: float
    s: float
    v: float = 0.0
    gamma: float = 0.5    # moving-average weight for s and v
    eta: float = 1e-3     # step size applied to lam


def exact_lambda(scores: np.ndarray, k: int) -> float:
    """The (k+1)-th largest score, duplicates counted with multiplicity."""
    scores = np.asarray(scores, dtype=np.float64)
    if k + 1 > len(scores):
        raise ConfigurationError(f"k+1 = {k + 1} exceeds {len(scores)} scores")
    idx = len(scores) - (k + 1)
    return float(np.partition(scores, idx)[idx])


def smoothed_objective(lam: float, scores: np.ndarray, p: SmoothingParams) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    soft = p.tau1 * np.logaddexp(0.0, (scores - lam) / p.tau1)     # softplus
    return (p.k + p.eps) / len(scores) * lam + 0.5 * p.tau2 * lam ** 2 + soft.mean()


def smoothed_grad(lam: float, scores: np.ndarray, p: SmoothingParams,
                  n_total: int | None = None) -> float:
    """d/d lambda of the smoothed objective; strictly increasing in lambda.

    ``n_total`` is the true list size N_q when ``scores`` is a mini-batch;
    the batch average then stands in for the full average while the
    (K + eps) / N_q term keeps the true N_q.
    """
    scores = np.asarray(scores, dtype=np.float64)
    sig = _sigmoid((scores - np.expand_dims(lam, -1)) / p.tau1)
    n = n_total if n_total is not None else np.count_nonzero(scores > -np.inf, axis=-1)
    return (p.k + p.eps) / n + p.tau2 * lam - _batch_mean(sig, scores)


def smoothed_hess(lam: float, scores: np.ndarray, p: SmoothingParams) -> float:
    """Second derivative; bounded below by tau2."""
    scores = np.asarray(scores, dtype=np.float64)
    sig = _sigmoid((scores - np.expand_dims(lam, -1)) / p.tau1)
    return p.tau2 + _batch_mean(sig * (1.0 - sig), scores) / p.tau1


def cross_coeff(lam: float | np.ndarray, scores: np.ndarray, p: SmoothingParams) -> np.ndarray:
    """Per-score coefficients c_j = -sig_j (1 - sig_j) / (|B| tau1) of the
    mixed second derivative d^2 G / (d lambda d h_j), sig_j the softplus
    slope at h_j; -inf slots get 0 and do not count in |B|."""
    sig = _sigmoid((scores - np.expand_dims(lam, -1)) / p.tau1)
    n = np.count_nonzero(scores > -np.inf, axis=-1, keepdims=True)
    return -sig * (1.0 - sig) / (n * p.tau1)


def cross_grad(lam: float, model: FactorizationScorer, q: int, item_idx: np.ndarray,
               p: SmoothingParams) -> np.ndarray:
    """Mixed second derivative d^2 G / (d lambda d w) over the batch:
    sum_i c_i grad_w h_i with the ``cross_coeff`` coefficients."""
    item_idx = np.asarray(item_idx, dtype=np.int64)
    coeff = cross_coeff(lam, model.score_many(q, item_idx), p)
    out = np.zeros(len(model.params.values))
    model.add_weighted_grads(np.full(len(item_idx), q), item_idx, coeff, out)
    return out


def implicit_lambda_grad(lam: float, model: FactorizationScorer, q: int,
                         item_idx: np.ndarray, p: SmoothingParams) -> np.ndarray:
    """grad_w of the smoothed threshold via the implicit function theorem."""
    scores = model.score_many(q, np.asarray(item_idx, dtype=np.int64))
    hess = smoothed_hess(lam, scores, p)
    return -cross_grad(lam, model, q, item_idx, p) / hess


def solve_lambda_exactly_smoothed(scores: np.ndarray, p: SmoothingParams,
                                  tol: float = 1e-10) -> float:
    """Safeguarded Newton (bisection fallback) on the smoothed gradient."""
    if tol <= 0:
        raise ConfigurationError("tol must be positive")
    scores = np.asarray(scores, dtype=np.float64)
    lo = float(scores.min()) - 1.0
    hi = float(scores.max()) + (p.k + p.eps) / (p.tau2 * len(scores)) + 1.0
    glo = smoothed_grad(lo, scores, p)
    ghi = smoothed_grad(hi, scores, p)
    for _ in range(200):
        if glo < 0.0:
            break
        lo -= max(1.0, hi - lo)
        glo = smoothed_grad(lo, scores, p)
    if glo >= 0.0 or ghi <= 0.0:
        raise FairTopKError("threshold bracket failure")  # cannot happen for valid inputs

    lam = 0.5 * (lo + hi)
    for _ in range(200):
        g = smoothed_grad(lam, scores, p)
        if abs(g) <= tol:
            return lam
        if g > 0.0:
            hi = lam
        else:
            lo = lam
        step = g / smoothed_hess(lam, scores, p)
        cand = lam - step
        if not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        lam = cand
    return lam


def state_step(st: LambdaState, scores: np.ndarray, p: SmoothingParams,
               n_total: int | None = None) -> LambdaState:
    """One online update of (s, v, lambda) from a mini-batch of scores."""
    st.s = (1.0 - st.gamma) * st.s + st.gamma * smoothed_hess(st.lam, scores, p)
    st.v = (1.0 - st.gamma) * st.v + st.gamma * smoothed_grad(st.lam, scores, p, n_total)
    st.lam = st.lam - st.eta * st.v
    return st


def init_lambda_state(scores: np.ndarray, p: SmoothingParams, n_total: int,
                      gamma: float, eta: float) -> LambdaState:
    """Warm-started state for a query's first touch.

    The threshold starts at the batch order statistic matching the K / N_q
    quantile; s starts at the softplus curvature midpoint bound.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = np.count_nonzero(scores > -np.inf, axis=-1)
    # k_batch in [1, n - 1]; a single sampled score gives k_batch = 0, the score itself
    k_batch = np.minimum(np.maximum(np.rint(p.k * n / n_total), 1), n - 1).astype(np.int64)
    ranked = np.sort(scores, axis=-1)       # empty slots (-inf) sort first
    lam0 = np.take_along_axis(ranked, np.expand_dims(scores.shape[-1] - 1 - k_batch, -1),
                              axis=-1)[..., 0]
    return LambdaState(lam=lam0, s=np.full_like(lam0, p.tau2 + 0.25 / p.tau1),
                       v=np.zeros_like(lam0), gamma=gamma, eta=eta)
