"""Top-K threshold machinery: exact order statistic, smoothed strongly
convex threshold objective, a safeguarded Newton offline solver, the
online (lambda, s, v) state updates and the implicit gradient of the
smoothed threshold with respect to model parameters.

The smoothed objective replaces each hinge (h - lambda)_+ by the softplus
tau1 * log(1 + exp((h - lambda) / tau1)) and adds a tau2/2 * lambda^2
curvature term, so its second derivative is bounded below by tau2 > 0.

The solver and the online functions (``smoothed_grad``, ``smoothed_hess``,
``state_step``, ``init_lambda_state``) take one query's scores as a vector,
or many queries' as a (queries, slots) matrix with -inf in empty slots and
one threshold per row; a -inf score adds nothing to any sum.  A query's
online state is a row (lambda, s, v): the threshold, its curvature estimate
and its gradient estimate; many queries' rows form a (queries, 3) array.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, FairTopKError
from .model import FactorizationScorer

if TYPE_CHECKING:
    from .optimizer import TrainConfig


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(x / 2))


def k_per_query(k, n):
    """K_q = min(K, N_q - 1), the K a list of N_q items is ranked with: its
    threshold must leave at least one item below, so a larger K counts as N_q - 1."""
    return np.minimum(k, n - 1)


def _slopes(lam, scores: np.ndarray, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """The softplus slopes sigmoid((h - lambda) / tau1) of the scores and the
    number of finite scores, over the last axis."""
    scores = np.asarray(scores, dtype=np.float64)
    return (_sigmoid((scores - np.expand_dims(lam, -1)) / cfg.tau1),
            np.count_nonzero(scores > -np.inf, axis=-1))


def _grad(lam, sig: np.ndarray, n: np.ndarray, cfg: TrainConfig, n_total):
    return (k_per_query(cfg.k, n_total) + cfg.eps) / n_total + cfg.tau2 * lam - sig.sum(axis=-1) / n


def _hess(sig: np.ndarray, n: np.ndarray, cfg: TrainConfig):
    return cfg.tau2 + (sig * (1.0 - sig)).sum(axis=-1) / n / cfg.tau1


def exact_lambda(scores: np.ndarray, k: int) -> float:
    """The (k+1)-th largest score, duplicates counted with multiplicity."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= k < len(scores):
        raise ConfigurationError(f"k = {k} is outside [0, {len(scores) - 1}] for these scores")
    idx = len(scores) - (k + 1)
    return float(np.partition(scores, idx)[idx])


def smoothed_objective(lam: float, scores: np.ndarray, cfg: TrainConfig) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    soft = cfg.tau1 * np.logaddexp(0.0, (scores - lam) / cfg.tau1)     # softplus
    k_q = k_per_query(cfg.k, len(scores))
    return (k_q + cfg.eps) / len(scores) * lam + 0.5 * cfg.tau2 * lam ** 2 + soft.mean()


def smoothed_grad(lam: float, scores: np.ndarray, cfg: TrainConfig) -> float:
    """d/d lambda of the smoothed objective; strictly increasing in lambda."""
    sig, n = _slopes(lam, scores, cfg)
    return _grad(lam, sig, n, cfg, n)


def smoothed_hess(lam: float, scores: np.ndarray, cfg: TrainConfig) -> float:
    """Second derivative; bounded below by tau2."""
    return _hess(*_slopes(lam, scores, cfg), cfg)


def cross_coeff(lam: float | np.ndarray, scores: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """Per-score coefficients c_j = -sig_j (1 - sig_j) / (|B| tau1) of the
    mixed second derivative d^2 G / (d lambda d h_j), sig_j the softplus
    slope at h_j; -inf slots get 0 and do not count in |B|."""
    sig, n = _slopes(lam, scores, cfg)
    return -sig * (1.0 - sig) / (np.expand_dims(n, -1) * cfg.tau1)


def implicit_lambda_grad(lam: float, model: FactorizationScorer, q: int,
                         item_idx: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """grad_w of the smoothed threshold via the implicit function theorem:
    -cross / G'', where cross = sum_i c_i grad_w h_i with the ``cross_coeff``
    coefficients is the mixed second derivative d^2 G / (d lambda d w)."""
    q_idx, kept = np.full(len(item_idx), q), {}
    scores = model.score_many(q_idx, item_idx, keep=kept)
    cross = np.zeros(len(model.params.values))
    model.add_weighted_grads(q_idx, item_idx, cross_coeff(lam, scores, cfg), cross, kept=kept)
    return -cross / smoothed_hess(lam, scores, cfg)


def solve_lambda_exactly_smoothed(scores: np.ndarray, cfg: TrainConfig,
                                  tol: float = 1e-10) -> float | np.ndarray:
    """Safeguarded Newton (bisection fallback) on the smoothed gradient of every row
    of ``scores`` at once, a float for a vector; a row stops once its |G'| <= tol."""
    if tol <= 0:
        raise ConfigurationError("tol must be positive")
    rows = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    n = np.count_nonzero(rows > -np.inf, axis=-1)
    bad = np.flatnonzero((n == 0) | np.any(np.isnan(rows) | (rows == np.inf), axis=-1))
    if len(bad):
        raise ConfigurationError(f"threshold scores: row {bad[0]} has a NaN or +inf score "
                                 "or no finite one")
    lo = np.where(rows > -np.inf, rows, np.inf).min(axis=-1, initial=np.inf) - 1.0
    hi = (rows.max(axis=-1, initial=-np.inf) + (k_per_query(cfg.k, n) + cfg.eps)
          / (cfg.tau2 * n) + 1.0)
    glo, ghi = smoothed_grad(lo, rows, cfg), smoothed_grad(hi, rows, cfg)
    for _ in range(200):
        if np.all(glo < 0.0):
            break
        lo = np.where(glo < 0.0, lo, lo - np.maximum(1.0, hi - lo))
        glo = smoothed_grad(lo, rows, cfg)
    failed = np.flatnonzero((glo >= 0.0) | (ghi <= 0.0))
    if len(failed):     # cannot happen for valid inputs
        raise FairTopKError(f"threshold bracket failure in row {failed[0]}")

    lam = 0.5 * (lo + hi)
    for _ in range(200):
        sig = _slopes(lam, rows, cfg)[0]
        g = _grad(lam, sig, n, cfg, n)
        moving = np.abs(g) > tol
        if not moving.any():
            break
        hi, lo = np.where(moving & (g > 0.0), lam, hi), np.where(moving & (g < 0.0), lam, lo)
        cand = lam - g / _hess(sig, n, cfg)
        lam = np.where(moving, np.where((lo < cand) & (cand < hi), cand, 0.5 * (lo + hi)), lam)
    return float(lam[0]) if np.ndim(scores) == 1 else lam


def state_step(state: np.ndarray, scores: np.ndarray, cfg: TrainConfig, n_total) -> np.ndarray:
    """One online update of the (lambda, s, v) rows ``state`` from a mini-batch
    of scores: s and v blend in ``smoothed_hess`` and ``smoothed_grad`` at the
    current lambda with weight ``cfg.gamma4``, both from one evaluation of the
    softplus slopes, and lambda steps by ``cfg.eta0`` along v.  Returns the new rows.

    ``n_total`` is the true list size N_q of each row: the batch average
    stands in for the full average while the (K + eps) / N_q term keeps the
    true N_q.
    """
    lam, s, v = state.T
    sig, n = _slopes(lam, scores, cfg)
    s = (1.0 - cfg.gamma4) * s + cfg.gamma4 * _hess(sig, n, cfg)
    v = (1.0 - cfg.gamma4) * v + cfg.gamma4 * _grad(lam, sig, n, cfg, n_total)
    return np.stack([lam - cfg.eta0 * v, s, v], axis=-1)


def init_lambda_state(scores: np.ndarray, cfg: TrainConfig, n_total: int) -> np.ndarray:
    """Warm-started (lambda, s, v) rows for the queries' first touch.

    The threshold starts at the batch order statistic matching the K_q / N_q
    quantile (``k_per_query``); s starts at the softplus curvature midpoint bound and v at 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = np.count_nonzero(scores > -np.inf, axis=-1)
    # k_batch in [1, n - 1]; a single sampled score gives k_batch = 0, the score itself
    k_batch = np.rint(k_per_query(cfg.k, n_total) * n / n_total)
    k_batch = np.minimum(np.maximum(k_batch, 1), n - 1).astype(np.int64)
    ranked = np.sort(scores, axis=-1)       # empty slots (-inf) sort first
    lam0 = np.take_along_axis(ranked, np.expand_dims(scores.shape[-1] - 1 - k_batch, -1),
                              axis=-1)[..., 0]
    return np.stack([lam0, np.full_like(lam0, cfg.tau2 + 0.25 / cfg.tau1), np.zeros_like(lam0)],
                    axis=-1)
