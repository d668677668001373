"""Benchmark of one training step and one evaluation pass.

Usage, from the repository root:

    python3 bench/run.py --workload fit_topk --seed 1 --seconds 20 --trace 0

Each workload runs in this one process, on one thread, as a closed loop:
a call starts only after the previous one has returned.  The inputs are
the acceptance benchmark built from ``--seed``:
``generate_synthetic(200, 305, 0.3, 2.0, seed)`` split (0.8, 0.1, 0.1)
with split seed 0, a fresh ``FactorizationScorer(dim=8, seed=seed)`` and
the acceptance training config (listnet, K=50, batches 256/32/16/16,
eta1=1.0, training seed = ``--seed``).

Workloads:

* ``fit_rank``: ``train_step`` at C=0.  The fairness layers do no work, so
  this is the control for any change to G2 or the threshold lambda.
* ``fit_topk``: ``train_step`` at C=1000 with ``fairness_mode=top_k`` and
  the simplified G2, the paper's full method.
* ``eval_sampled``: ``evaluate()`` on the test split under the 5+300
  protocol with K in (50, 100, 200).  No gradient code runs, so this is
  the control for any change to the training step.

With ``--trace 0`` the end-to-end metrics are printed.  ``call_ms_p50`` and
``call_ms_p90`` time one ``train_step`` call on the fit workloads and one
``evaluate()`` call on ``eval_sampled``; ``work_per_s`` counts trained
pairs and evaluated queries respectively.  These and ``setup_s`` are times
at reference speed (see ``REFERENCE_KERNEL_S``); the raw wall-clock
figures are in the context line.  ``ndcg50`` and ``mae50`` are the
test-split NDCG@50 and top-50 disparity MAE, taken on the fit workloads
after exactly one epoch (191 steps), so that a faster step does not read
as a better model, and on ``eval_sampled`` averaged over four fresh
models (see ``untrained_quality``).  ``setup_s`` is the median of several set-ups.

With ``--trace 1`` the same calls run twice from identical fresh state:
once as they are, then with every layer's public function wrapped by
``spans.Tracer``.  The fit workloads run exactly one epoch in each phase,
so that counts such as first-touch lambda warm-ups per step repeat
exactly; ``eval_sampled`` runs for half of ``--seconds`` in each.  The
per-layer metrics are per ``train_step`` call (fit) or per ``evaluate()``
call (eval), with times at reference speed.  The spans
are written to ``bench/out/`` when the run ends.

Changing the training sampler's random stream moves ``ndcg50`` and
``mae50`` by about their seed-to-seed spread (seed 2 reads 0.192 / 4.5e-4
on ``fit_rank`` where seed 1 reads 0.177 / 4.4e-4).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, versions, source hash and seed.
"""

from __future__ import annotations

import os

# One BLAS / OpenMP thread: the matrix products inside score_many must not
# start threads.  Set before numpy is imported.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("fit_rank", "fit_topk", "eval_sampled")
FAIR_WEIGHT = {"fit_rank": 0.0, "fit_topk": 1000.0}
SETUP_REPEATS = 5
WARMUP_CALLS = 3
UNTRAINED_INITS = 4
EVAL_K = 50

END_TO_END_UNITS = {
    "setup_s": "s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "work_per_s": "1/s",
    "ndcg50": "1",
    "mae50": "1",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit.  Every value is per train_step (fit) or per
# evaluate() call (eval).
PER_LAYER_UNITS = {
    "data.sample_batch.calls": "count",
    "data.sample_batch.ms": "ms",
    "data.sample_batch.queries": "count",
    "rank_losses.g1_estimate.calls": "count",
    "rank_losses.g1_estimate.self_ms": "ms",
    "fairness.g2_estimate.calls": "count",
    "fairness.g2_estimate.self_ms": "ms",
    "fairness.g2_estimate.active_ratio": "ratio",
    "lambda_solver.state_step.calls": "count",
    "lambda_solver.state_step.ms": "ms",
    "lambda_solver.init_lambda_state.calls": "count",
    "model.score_many.calls": "count",
    "model.score_many.ms": "ms",
    "model.score_many.items": "count",
    "model.score_many.unique_ratio": "ratio",
    "model.add_weighted_grads.calls": "count",
    "model.add_weighted_grads.ms": "ms",
    "model.add_weighted_grads.rows": "count",
    "optimizer.train_step.self_ms": "ms",
    "evaluation.evaluate.calls": "count",
    "evaluation.evaluate.self_ms": "ms",
    "evaluation.build_eval_list.ms": "ms",
    "evaluation.ndcg_at_k.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# Span-name prefixes of the layers that must do no work on a workload, and
# the root span that one call of the workload opens.
IDLE_LAYERS = {
    "fit_rank": ("fairness.", "lambda_solver.", "evaluation."),
    "fit_topk": ("evaluation.",),
    "eval_sampled": ("data.", "rank_losses.", "fairness.", "lambda_solver.",
                     "optimizer.", "model.add_weighted_grads"),
}
ROOT_SPAN = {"fit_rank": "optimizer.train_step", "fit_topk": "optimizer.train_step",
             "eval_sampled": "evaluation.evaluate"}


if not (SRC / "fairtopk" / "__init__.py").is_file():
    print(f"bench: package source not found under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

from fairtopk import evaluation, optimizer  # noqa: E402
from fairtopk.data import generate_synthetic, split  # noqa: E402
from fairtopk.errors import FairTopKError  # noqa: E402
from fairtopk.evaluation import EvalProtocol  # noqa: E402
from fairtopk.model import FactorizationScorer  # noqa: E402
from fairtopk.optimizer import TrainConfig, TrainerState  # noqa: E402
from spans import Tracer, layer_totals  # noqa: E402

PROTOCOL = EvalProtocol(5, 300, k_list=(50, 100, 200), seed=0)


def setup(seed: int):
    d = generate_synthetic(200, 305, 0.3, 2.0, seed=seed)
    train_d, _, test_d, _ = split(d, (0.8, 0.1, 0.1), seed=0)
    model = FactorizationScorer(d.num_query_rows, d.num_item_rows, 8, seed=seed)
    return train_d, test_d, model


# The shared 2-core machine this benchmark was defined on runs at two
# speeds that switch within a second or two (apparently a busy neighbour
# on the same core), which slows Python and numpy alike by about 1.65x.
# A raw median then depends on how much of the run fell in the slow state,
# and moved by up to 60% between runs.  So every timed interval is
# bracketed by a fixed reference kernel and scaled by
# REFERENCE_KERNEL_S / (kernel time around the interval).  Times then read
# in seconds at reference speed, the speed at which the kernel takes
# REFERENCE_KERNEL_S (about this machine's speed when no neighbour
# contends).  Raw wall-clock figures go to the context line.
REFERENCE_KERNEL_S = 1.0e-3
_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_EMB = _KERNEL_RNG.standard_normal((610, 8))
_KERNEL_Q = _KERNEL_RNG.standard_normal(8)
_KERNEL_IDX = _KERNEL_RNG.integers(0, 610, (120, 32))
_KERNEL_ROWS = {i: i for i in range(610)}
_KERNEL_SEEN = frozenset(_KERNEL_RNG.permutation(610)[:305].tolist())
_KERNEL_PICK = _KERNEL_RNG.permutation(610)[:300]
_KERNEL_SCORES = _KERNEL_RNG.standard_normal(305)


def _reference_kernel() -> float:
    """Fixed work that mixes what the workloads do: small gathers, a
    matrix-vector product and tanh in an interpreter loop (score_many), and
    set differences, dict lookups and lexsort over 300-item lists (the
    sampled evaluation)."""
    acc = 0.0
    for idx in _KERNEL_IDX:
        acc += float(np.tanh(_KERNEL_EMB[idx] @ _KERNEL_Q).sum())
    for _ in range(4):
        pool = np.array(sorted(set(_KERNEL_ROWS) - _KERNEL_SEEN))
        rows = [_KERNEL_ROWS[int(i)] for i in _KERNEL_PICK]
        acc += len(rows) + int(np.lexsort((pool, -_KERNEL_SCORES))[0])
    return acc


def kernel_s() -> float:
    """Time the reference kernel.  The first run after a call refills the
    caches the call evicted, which would tie the calibration to the
    program's memory footprint, so only a second run is timed."""
    _reference_kernel()
    t0 = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - t0


def speed_factor(kernel_before: float, kernel_after: float) -> float:
    """Reference speed over the machine's speed around a timed interval."""
    return REFERENCE_KERNEL_S / (0.5 * (kernel_before + kernel_after))


def timed_setup(seed: int):
    raw, scaled = [], []
    after = kernel_s()
    for _ in range(SETUP_REPEATS):
        before = after
        t0 = time.perf_counter()
        inputs = setup(seed)
        raw.append(time.perf_counter() - t0)
        after = kernel_s()
        scaled.append(raw[-1] * speed_factor(before, after))
    return inputs, statistics.median(scaled), statistics.median(raw)


def train_config(workload: str, seed: int) -> TrainConfig:
    return TrainConfig(k=50, loss="listnet", epochs=10, batch_pairs=256,
                       batch_items=32, batch_a=16, batch_b=16, eta1=1.0,
                       seed=seed, log_every=10_000, fair_weight=FAIR_WEIGHT[workload],
                       fairness_mode="top_k", g2_mode="simplified")


class ClosedLoop:
    """Calls ``call`` back to back; each call returns its units of work.
    The reference kernel runs once before the first call and after each."""

    def __init__(self, call):
        self.call = call
        self.latencies: list[float] = []
        self.kernels: list[float] = []
        self.work = 0
        self.failed = 0

    @property
    def factors(self) -> list[float]:
        """Each call's speed factor."""
        return [speed_factor(k0, k1) for k0, k1 in zip(self.kernels, self.kernels[1:])]

    @property
    def scaled(self) -> list[float]:
        """Call times at reference speed."""
        return [t * f for t, f in zip(self.latencies, self.factors)]

    @property
    def busy_s(self) -> float:
        return math.fsum(self.latencies)

    def run(self, calls: int = 0, seconds: float = 0.0, after_call=None) -> None:
        """Make at least ``calls`` more calls and run until ``seconds`` of
        total call time have passed."""
        target = len(self.latencies) + calls
        busy = self.busy_s
        if not self.kernels:
            self.kernels.append(kernel_s())
        while len(self.latencies) < target or busy < seconds:
            t0 = time.perf_counter()
            try:
                self.work += self.call()
            except FairTopKError as exc:
                self.failed += 1
                print(f"bench: call failed: {exc!r}", file=sys.stderr)
            dt = time.perf_counter() - t0
            self.latencies.append(dt)
            busy += dt
            self.kernels.append(kernel_s())
            if after_call is not None:
                after_call()


def fit_session(workload: str, seed: int, train_d, model0):
    cfg = train_config(workload, seed)
    model = model0.clone()
    state = TrainerState.fresh(cfg, len(model.params.values))
    rng = np.random.default_rng(cfg.seed)

    def call():
        return optimizer.train_step(model, train_d, cfg, state, rng)["num_pairs"]

    return model, ClosedLoop(call)


def eval_session(test_d, model, reports: list):
    def call():
        reports.append(evaluation.evaluate(model, test_d, PROTOCOL))
        return test_d.num_queries

    return ClosedLoop(call)


def epoch_steps(workload: str, seed: int, train_d) -> int:
    return math.ceil(train_d.total_pairs / train_config(workload, seed).batch_pairs)


def at_k(model, test_d) -> dict:
    return evaluation.evaluate(model, test_d, PROTOCOL)[EVAL_K]


def untrained_quality(seed_report: dict, model0, seed: int, test_d) -> dict:
    """NDCG@50 and MAE@50 averaged over the seed's fresh model and
    UNTRAINED_INITS - 1 more fresh models seeded from it.  An untrained
    model's figures depend mostly on its random init; the average halves
    their seed-to-seed spread."""
    rows = [seed_report] + [
        at_k(FactorizationScorer(model0.num_queries, model0.num_items, 8,
                                 seed=seed + 1000 * j), test_d)
        for j in range(1, UNTRAINED_INITS)]
    return {key: statistics.fmean(row[key] for row in rows) for key in ("ndcg_mean", "mae")}


class Checks:
    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"bench: check failed: {message}", file=sys.stderr)


def check_reports(checks: Checks, reports: list) -> None:
    first = reports[0]
    checks.require(all(r == first for r in reports[1:]),
                   "repeated evaluate() calls returned different reports")
    for k, row in first.items():
        checks.require(0.0 <= row["ndcg_mean"] <= 1.0, f"NDCG@{k} outside [0, 1]")
        checks.require(row["skipped"] == 0, f"{row['skipped']} queries skipped at K={k}")


def percentile_ms(latencies: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(latencies, q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_end_to_end(workload: str, seed: int, seconds: float, checks: Checks):
    (train_d, test_d, model0), setup_s, raw_setup_s = timed_setup(seed)
    loops = []
    if workload == "eval_sampled":
        reports: list = []
        loop = eval_session(test_d, model0, reports)
        loops.append(loop)
        loop.run(calls=2, seconds=seconds)
        check_reports(checks, reports)
        quality = untrained_quality(reports[0][EVAL_K], model0, seed, test_d)
    else:
        steps = epoch_steps(workload, seed, train_d)
        if workload == "fit_rank":
            baseline = at_k(model0, test_d)
        else:
            reference, ref_loop = fit_session("fit_rank", seed, train_d, model0)
            loops.append(ref_loop)
            ref_loop.run(calls=steps)
            baseline = at_k(reference, test_d)
        model, loop = fit_session(workload, seed, train_d, model0)
        loops.append(loop)
        loop.run(calls=steps)
        quality = at_k(model, test_d)
        loop.run(seconds=seconds)
        checks.require(bool(np.all(np.isfinite(model.params.values))),
                       "non-finite parameters after training")
        if workload == "fit_rank":
            checks.require(quality["ndcg_mean"] > baseline["ndcg_mean"],
                           f"NDCG@50 {quality['ndcg_mean']:.4f} after one epoch is not "
                           f"above the untrained {baseline['ndcg_mean']:.4f}")
        else:
            checks.require(quality["mae"] < baseline["mae"],
                           f"top-50 MAE {quality['mae']:.3e} at C=1000 is not below "
                           f"{baseline['mae']:.3e} at C=0 after one epoch")
    scaled = loop.scaled
    metrics = {
        "setup_s": setup_s,
        "call_ms_p50": percentile_ms(scaled, 50),
        "call_ms_p90": percentile_ms(scaled, 90),
        "work_per_s": loop.work / math.fsum(scaled),
        "ndcg50": quality["ndcg_mean"],
        "mae50": quality["mae"],
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {"calls": len(loop.latencies), "busy_s": loop.busy_s,
             "raw_setup_s": raw_setup_s,
             "raw_call_ms_p50": percentile_ms(loop.latencies, 50),
             "raw_call_ms_p90": percentile_ms(loop.latencies, 90),
             "raw_work_per_s": loop.work / loop.busy_s,
             "kernel_ms_p50": percentile_ms(loop.kernels, 50)}
    return loops, metrics, extra


class ScoredPairs:
    """Counts the (query, item) pairs score_many sees within one call of
    the workload, and how many of them are distinct."""

    def __init__(self, num_items: int):
        self.num_items = num_items
        self.pending: list = []

    def count(self, tracer, args, result) -> None:
        tracer.add("model.score_many.items", len(result))
        self.pending.append((args[1], args[2]))

    def close_unit(self, tracer) -> None:
        if self.pending:
            keys = np.concatenate([
                q * self.num_items + np.asarray(items, dtype=np.int64)
                for q, items in self.pending])
            tracer.add("model.score_many.distinct", len(np.unique(keys)))
        self.pending.clear()


def count_batch_queries(tracer, args, batch) -> None:
    tracer.add("data.sample_batch.queries", len(batch.per_query))


def count_g2_queries(tracer, args, result) -> None:
    per_query = args[2].per_query
    tracer.add("fairness.g2_estimate.queries", len(per_query))
    tracer.add("fairness.g2_estimate.active",
               sum(not sub.fairness_skipped for sub in per_query.values()))


def count_grad_rows(tracer, args, result) -> None:
    tracer.add("model.add_weighted_grads.rows", len(args[1]))


def trace_targets(scored: ScoredPairs):
    """Each layer's public function, wrapped where its caller looks it up."""
    return [
        (optimizer, "train_step", "optimizer.train_step", None),
        (optimizer, "sample_batch", "data.sample_batch", count_batch_queries),
        (optimizer, "g1_estimate", "rank_losses.g1_estimate", None),
        (optimizer, "g2_estimate", "fairness.g2_estimate", count_g2_queries),
        (optimizer, "init_lambda_state", "lambda_solver.init_lambda_state", None),
        (optimizer, "state_step", "lambda_solver.state_step", None),
        (FactorizationScorer, "score_many", "model.score_many", scored.count),
        (FactorizationScorer, "add_weighted_grads", "model.add_weighted_grads",
         count_grad_rows),
        (evaluation, "evaluate", "evaluation.evaluate", None),
        (evaluation, "build_eval_list", "evaluation.build_eval_list", None),
        (evaluation, "ndcg_at_k", "evaluation.ndcg_at_k", None),
    ]


def layer_metrics(tracer: Tracer, factors: list[float]) -> dict[str, float]:
    """Per-call layer figures; each call's span times are scaled to
    reference speed by that call's factor."""
    spans = tracer.spans()
    scale, unit = [], -1
    for _, _, _, parent in spans:
        if parent < 0:
            unit += 1
        scale.append(factors[unit])
    totals = layer_totals(spans, scale)
    c = tracer.counters
    units = len(factors)

    def stat(layer, key):
        return totals[layer][key] / units if layer in totals else 0.0

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    out = {}
    for name in PER_LAYER_UNITS:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = stat(layer, "calls")
        elif kind == "ms":
            out[name] = 1e3 * stat(layer, "total_s")
        elif kind == "self_ms":
            out[name] = 1e3 * stat(layer, "self_s")
    out["data.sample_batch.queries"] = c["data.sample_batch.queries"] / units
    out["model.score_many.items"] = c["model.score_many.items"] / units
    out["model.add_weighted_grads.rows"] = c["model.add_weighted_grads.rows"] / units
    out["model.score_many.unique_ratio"] = ratio("model.score_many.distinct",
                                                 "model.score_many.items")
    out["fairness.g2_estimate.active_ratio"] = ratio("fairness.g2_estimate.active",
                                                     "fairness.g2_estimate.queries")
    return out


def run_traced(workload: str, seed: int, seconds: float, checks: Checks):
    train_d, test_d, model0 = setup(seed)

    def session():
        if workload == "eval_sampled":
            reports: list = []
            return reports, eval_session(test_d, model0, reports)
        return fit_session(workload, seed, train_d, model0)

    # A few discarded calls first, so that neither timed phase pays for
    # first-call warm-up and the overhead ratio compares like with like.
    _, warm = session()
    warm.run(calls=WARMUP_CALLS)
    plain_out, plain = session()
    if workload == "eval_sampled":
        plain.run(calls=2, seconds=seconds / 2)
    else:
        plain.run(calls=epoch_steps(workload, seed, train_d))
    units = len(plain.latencies)

    tracer = Tracer()
    scored = ScoredPairs(model0.num_items)
    targets = trace_targets(scored)
    targets_before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    traced_out, traced = session()
    with tracer.patched(targets):
        traced.run(calls=units, after_call=lambda: scored.close_unit(tracer))
    checks.require(
        all(vars(owner)[attr] is original
            for (owner, attr, _, _), original in zip(targets, targets_before)),
        "a wrapped function was not restored after the traced run")

    if workload == "eval_sampled":
        check_reports(checks, plain_out + traced_out)
    else:
        checks.require(np.array_equal(plain_out.params.values, traced_out.params.values),
                       "traced training diverged from the untraced run")
        checks.require(bool(np.all(np.isfinite(traced_out.params.values))),
                       "non-finite parameters after training")

    metrics = layer_metrics(tracer, traced.factors)
    metrics["trace.overhead_ratio"] = math.fsum(traced.scaled) / math.fsum(plain.scaled)
    idle = sorted(n for n in set(tracer.names) if n.startswith(IDLE_LAYERS[workload]))
    checks.require(not idle, f"layers {idle} did work on {workload}")
    roots = tracer.names.count(ROOT_SPAN[workload])
    checks.require(roots == units, f"{roots} {ROOT_SPAN[workload]} spans for {units} calls")
    extra = {"calls": units, "untraced_busy_s": plain.busy_s,
             "traced_busy_s": traced.busy_s, "spans": len(tracer.names),
             "raw_overhead_ratio": traced.busy_s / plain.busy_s}
    return [warm, plain, traced], metrics, extra, tracer


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fairtopk").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def os_thread_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "thread_env": {v: os.environ[v] for v in THREAD_ENV},
        "os_threads": os_thread_count(),
    }


def write_trace(args, ctx: dict, metrics: dict, tracer: Tracer) -> Path:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    names = sorted(set(tracer.names))
    code = {n: i for i, n in enumerate(names)}
    origin = tracer.starts[0] if tracer.starts else 0.0
    rows = [[code[n], round((s - origin) * 1e9), round((e - origin) * 1e9), p]
            for n, s, e, p in tracer.spans()]
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"context": ctx, "metrics": metrics, "span_names": names,
                   "span_columns": ["name", "start_ns", "end_ns", "parent"],
                   "spans": rows}, fh, separators=(",", ":"))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    checks = Checks()
    ctx = context(args)
    if args.trace:
        loops, values, extra, tracer = run_traced(
            args.workload, args.seed, args.seconds, checks)
        units = PER_LAYER_UNITS
    else:
        loops, values, extra = run_end_to_end(args.workload, args.seed, args.seconds, checks)
        units = END_TO_END_UNITS
    attempted = sum(len(loop.latencies) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    checks.require(failed == 0, f"{failed} calls raised FairTopKError")
    ctx.update(extra)
    ctx["check_failures"] = checks.failures
    if args.trace:
        ctx["trace_file"] = str(write_trace(args, ctx, values, tracer).relative_to(ROOT))
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
