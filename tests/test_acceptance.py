"""Acceptance suite: nine numbered criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they complete.  Criteria 5 and 7 train models on the shared
biased benchmark (200 queries x 305 items, bias 2.0) and together take
most of the suite's runtime; criterion 8 reads the step norms that the
criterion 5 sweep records.
"""

import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import full_list_disparity, scored_list

from fairtopk import optimizer
from fairtopk.data import (
    GROUP_A,
    GROUP_B,
    generate_synthetic,
    sample_batch,
    split,
)
from fairtopk.evaluation import EvalProtocol, evaluate, spearman
from fairtopk.fairness import _surrogate
from fairtopk.gradcheck import check_fairness, check_rank_losses
from fairtopk.lambda_solver import (
    exact_lambda,
    solve_lambda_exactly_smoothed,
    state_step,
)
from fairtopk.model import FactorizationScorer
from fairtopk.optimizer import TrainConfig, tradeoff_sweep, train


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


# ---------------------------------------------------------------- shared runs

BENCH_SEED = 1
C_GRID = [0.0, 10.0, 100.0, 1000.0, 10000.0]


def _bench_config(**overrides):
    base = dict(k=50, loss="listnet", epochs=10, batch_pairs=256,
                batch_items=32, batch_a=16, batch_b=16, eta1=1.0,
                seed=BENCH_SEED, log_every=10_000)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def bench_data():
    d = generate_synthetic(200, 305, 0.3, 2.0, seed=BENCH_SEED)
    tr, va, te, _ = split(d, (0.8, 0.1, 0.1), seed=0)
    return d, tr, va, te


@pytest.fixture(scope="module")
def c_sweep(bench_data):
    """The C-grid sweep's rows, its wall time and ||z|| after every
    training step, keyed by C."""
    d, tr, va, te = bench_data
    model = FactorizationScorer(d.num_query_rows, d.num_item_rows, 8,
                                seed=BENCH_SEED)
    proto = EvalProtocol(k_list=(50,), seed=0)
    z_norms = {}
    train_step = optimizer.train_step

    def recording_step(model, d, cfg, *args, **kwargs):
        metrics = train_step(model, d, cfg, *args, **kwargs)
        z_norms.setdefault(cfg.fair_weight, []).append(metrics["z_norm"])
        return metrics

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "train_step", recording_step)
        t0 = time.perf_counter()
        rows = tradeoff_sweep(model, tr, te, [_bench_config(fair_weight=c) for c in C_GRID],
                              proto)
        elapsed = time.perf_counter() - t0
    return rows, elapsed, z_norms


# ------------------------------------------------------------------ criteria

def test_criterion_1_rank_loss_gradients():
    t0 = time.perf_counter()
    errs = check_rank_losses(seed=0)     # 20 queries of 50 items, dim 8
    elapsed = time.perf_counter() - t0
    worst = max(errs.values())
    ok = worst <= 1e-4 and elapsed < 60.0
    assert _verdict(1, ok,
                    f"G1 vs finite differences max rel err {worst:.2e} "
                    f"(ndcg {errs['ndcg']:.2e}, listnet {errs['listnet']:.2e}), "
                    f"{elapsed:.1f}s") and ok


def test_criterion_2_fairness_gradient():
    errs = check_fairness(seed=0)        # 4 queries of 5 items, K = 2, dim 3
    worst = max(errs.values())
    ok = worst <= 1e-3
    assert _verdict(2, ok,
                    f"G2 full_implicit vs finite differences rel err {worst:.2e}") and ok


def test_criterion_3_lambda_solver():
    rng = np.random.default_rng(7)
    p = TrainConfig(tau1=1e-3, tau2=1e-6, eps=0.5, k=1)
    worst_ratio = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 1001))
        scores = rng.normal(0.0, 2.0, n)
        while len(np.unique(scores)) < n:
            scores = rng.normal(0.0, 2.0, n)
        k = int(rng.integers(1, min(n - 1, 50) + 1))
        pk = TrainConfig(tau1=p.tau1, tau2=p.tau2, eps=p.eps, k=k)
        lam = solve_lambda_exactly_smoothed(scores, pk, tol=1e-10)
        target = exact_lambda(scores, k)
        worst_ratio = max(worst_ratio,
                          abs(lam - target) / (scores.max() - scores.min()))
    offline_ok = worst_ratio <= 1e-2

    # online iteration, full batch, gamma4 = 1, conservative fixed step
    scores = rng.normal(0.0, 1.0, 40)
    pk = TrainConfig(tau1=1e-3, tau2=1e-6, eps=0.5, k=5)
    lam_star = solve_lambda_exactly_smoothed(scores, pk, tol=1e-12)
    st = np.array([float(scores.mean()), 1.0, 0.0])       # (lambda, s, v)
    eta = 1.0 / (pk.tau2 + 0.25 / pk.tau1)
    pk = replace(pk, gamma4=1.0, eta0=eta)
    for _ in range(200_000):
        st = state_step(st, scores, pk, len(scores))
        if abs(st[2]) <= 1e-13:
            break
    online_err = abs(st[0] - lam_star)
    online_ok = online_err <= 1e-6

    ok = offline_ok and online_ok
    assert _verdict(3, ok,
                    f"offline max err {worst_ratio:.2e} x range, "
                    f"online err {online_err:.2e}") and ok


def test_criterion_4_surrogate_exact_consistency():
    # eps < 0.5 places the converged threshold strictly between the K-th
    # and (K+1)-th scores; well-separated tie-free scores then let the
    # sharp indicator reproduce the exact top-K selection.
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 14))
        gaps = rng.uniform(0.3, 1.2, n - 1)
        scores = np.cumsum(np.concatenate([[0.0], gaps]))[::-1].copy()
        scores += rng.normal(0.0, 0.2)
        perm = rng.permutation(n)
        scores = scores[perm]
        groups = np.array([GROUP_A] * (n // 2) + [GROUP_B] * (n - n // 2))[perm]
        k = int(rng.integers(2, n - 1))
        scores, groups, gaps = scored_list(scores.tolist(), groups.tolist())
        cfg = TrainConfig(tau1=1e-2, tau2=1e-8, eps=0.25, k=k, tau_psi=1e-3)
        lam = solve_lambda_exactly_smoothed(scores, cfg, tol=1e-12)
        u = _surrogate(scores, groups, lam, cfg)
        worst = max(worst, abs(np.sqrt(2.0 * u) - abs(gaps[k - 1])))
    ok = worst <= 1e-3
    assert _verdict(4, ok,
                    f"max |sqrt(2U) - |exact gap|| = {worst:.2e} "
                    f"over 100 queries") and ok


def test_criterion_5_tradeoff_reproduction(c_sweep):
    sweep_rows, elapsed, _ = c_sweep
    rows = {row["C"]: row for row in sweep_rows}
    assert not any(row.get("failed") for row in sweep_rows)
    mae0 = rows[0.0]["mae"]
    mae_max = rows[C_GRID[-1]]["mae"]
    ndcg0 = rows[0.0]["ndcg_mean"]
    ndcg_max = rows[C_GRID[-1]]["ndcg_mean"]
    rho = spearman(C_GRID, [rows[c]["mae"] for c in C_GRID])
    ok = (mae_max <= 0.5 * mae0 and rho <= -0.8
          and ndcg_max >= 0.7 * ndcg0 and elapsed < 1800.0)
    assert _verdict(5, ok,
                    f"MAE {mae0:.2e} -> {mae_max:.2e} "
                    f"({mae_max / mae0:.0%}), spearman {rho:+.2f}, "
                    f"NDCG {ndcg0:.3f} -> {ndcg_max:.3f} "
                    f"({ndcg_max / ndcg0:.0%}), {elapsed / 60:.1f} min") and ok


def test_criterion_6_mode_reductions():
    # bit-identical trajectories: fairness_mode=none vs C=0
    trajectories = []
    for mode in ("none", "top_k"):
        d = generate_synthetic(4, 8, 0.4, 1.0, seed=6)
        m = FactorizationScorer(d.num_query_rows, d.num_item_rows, 2, seed=6)
        cfg = TrainConfig(k=2, fair_weight=0.0, fairness_mode=mode, epochs=2,
                          batch_pairs=8, batch_items=4, batch_a=2, batch_b=2,
                          seed=6, log_every=100)
        train(m, d, cfg, valid_d=None)
        trajectories.append(m.params.values.copy())
    identical = bool(np.array_equal(trajectories[0], trajectories[1]))

    # constant indicator reduces the top-K surrogate to the full-list loss
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 12))
        scores = rng.normal(0.0, 1.5, n)
        groups = rng.integers(0, 2, n)
        if groups.min() == groups.max():
            continue
        scores, groups, _ = scored_list(np.clip(scores, -40, 40).tolist(), groups.tolist())
        u = _surrogate(scores, groups, 0.0, TrainConfig(fairness_mode="full_list"))
        worst = max(worst, abs(u - full_list_disparity(scores, groups)))
    reduces = worst <= 1e-12

    ok = identical and reduces
    assert _verdict(6, ok,
                    f"none==C=0 trajectories identical: {identical}; "
                    f"psi==1 vs full-list max err {worst:.1e}") and ok


def test_criterion_7_gamma_ablation(bench_data, c_sweep):
    d, tr, va, te = bench_data
    sweep_rows, _, _ = c_sweep
    proto = EvalProtocol(k_list=(50,), seed=0)
    points = {}
    # gamma = 0.2 is the sweep's own C = 1000 run (identical config)
    base_row = next(r for r in sweep_rows if r["C"] == 1000.0)
    points[0.2] = (base_row["ndcg_mean"], base_row["mae"])
    for gamma in (0.6, 1.0):
        model = FactorizationScorer(d.num_query_rows, d.num_item_rows, 8,
                                    seed=BENCH_SEED)
        cfg = _bench_config(fair_weight=1000.0, gamma1=gamma, gamma2=gamma,
                            gamma3=gamma)
        train(model, tr, cfg, valid_d=None)
        row = evaluate(model, te, proto)[50]
        points[gamma] = (row["ndcg_mean"], row["mae"])

    for gamma in (0.2, 0.6, 1.0):
        ndcg, mae = points[gamma]
        print(f"  gamma={gamma}: ndcg={ndcg:.4f} mae={mae:.2e}", flush=True)

    n02, m02 = points[0.2]
    n10, m10 = points[1.0]
    better_somewhere = n02 >= n10 or m02 <= m10
    dominated = n02 < n10 and m02 > m10
    ok = better_somewhere and not dominated
    _verdict(7, ok, f"gamma=0.2 point ({n02:.3f}, {m02:.2e}) vs "
                    f"gamma=1.0 ({n10:.3f}, {m10:.2e})")
    if not ok:
        warnings.warn("gamma ablation did not show the expected weak "
                      "dominance; the underlying claim is qualitative")


def test_criterion_8_convergence_proxy(bench_data, c_sweep):
    # the sweep's C = 1000 run is this criterion's run: same initial model,
    # config, generator seed and step count, so its recorded norms are read
    _, tr, _, _ = bench_data
    cfg = _bench_config(fair_weight=1000.0)
    steps_per_epoch = max(1, -(-tr.total_pairs // cfg.batch_pairs))
    total = cfg.epochs * steps_per_epoch
    z_norms = c_sweep[2][cfg.fair_weight]
    assert len(z_norms) == total == 1910
    tail = max(1, total // 10)
    first = float(np.mean(z_norms[:tail]))
    last = float(np.mean(z_norms[-tail:]))
    ok = last <= first
    assert _verdict(8, ok,
                    f"mean ||z|| first 10% {first:.3e}, last 10% {last:.3e}") and ok


def test_criterion_9_metric_sanity():
    from fairtopk.fairness import exposures

    rng = np.random.default_rng(9)
    checks = []

    # exposure normalization
    worst = max(abs(exposures(rng.normal(0, 5, int(rng.integers(1, 30)))).sum() - 1.0)
                for _ in range(200))
    checks.append(("exposure normalization", worst <= 1e-12))

    # shift invariance of exposures and both disparities
    worst_shift = 0.0
    for _ in range(50):
        n = 8
        scores = rng.normal(0, 1, n)
        groups = np.array([GROUP_A] * 4 + [GROUP_B] * 4)
        c = float(rng.normal(0, 3))
        s1, g1, gaps1 = scored_list(scores.tolist(), groups.tolist())
        s2, g2, gaps2 = scored_list((scores + c).tolist(), groups.tolist())
        worst_shift = max(
            worst_shift,
            np.abs(exposures(scores) - exposures(scores + c)).max(),
            abs(full_list_disparity(s1, g1) - full_list_disparity(s2, g2)),
            abs(gaps1[2] - gaps2[2]))
    checks.append(("shift invariance", worst_shift <= 1e-9))

    # NDCG range and optimal-prefix equality
    from fairtopk.evaluation import ndcg_at_k
    in_range = True
    for _ in range(50):
        n = 8
        scores = np.clip(rng.normal(0, 2, n), -40, 40)
        labels = rng.integers(0, 3, n).astype(float)
        if not np.any(labels > 0):
            continue
        m = FactorizationScorer(1, n, 2, bound=50.0)
        m.params.values[:] = 0.0
        m.item_bias[:] = np.arctanh(scores / 50.0)
        v = ndcg_at_k(m, 0, np.arange(n), labels, k=4)
        in_range &= 0.0 <= v <= 1.0
        m.item_bias[:] = np.arctanh(labels / 50.0)   # label-optimal ordering
        v_opt = ndcg_at_k(m, 0, np.arange(n), labels, k=4)
        in_range &= abs(v_opt - 1.0) <= 1e-12
    checks.append(("ndcg range / optimal prefix", in_range))

    # sampling uniformity of the batch draw
    d = generate_synthetic(1, 10, 0.4, 0.0, seed=9)
    rng2 = np.random.default_rng(17)
    counts = np.zeros(10)
    draws = 10_000
    for _ in range(draws):
        batch = sample_batch(d, (1, 1, 1, 1), rng2)
        counts[batch.per_query[0].items[0]] += 1
    freqs = counts / draws
    checks.append(("sampling uniformity",
                   bool(freqs.min() >= 0.07 and freqs.max() <= 0.13)))

    ok = all(passed for _, passed in checks)
    detail = "; ".join(f"{name}: {'ok' if passed else 'FAILED'}"
                       for name, passed in checks)
    assert _verdict(9, ok, detail) and ok
