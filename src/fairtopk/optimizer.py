"""The stochastic training loop: momentum descent on G1 + C * G2.

One step draws the pair batch and per-query sub-batches, scores them in
one gather, refreshes the moving-average estimator states, assembles the
two stochastic gradients as weights on the sampled score gradients,
scatters their sum into the momentum buffer z and takes a step.  Mode
switches select the ablations: ``fairness_mode = none`` (or C = 0) is
color-blind training, ``full_list`` pairs the ranking loss with the
whole-list disparity, and ``top_k`` is the full method.
"""

from __future__ import annotations

import csv as _csv
import math
import numbers
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .data import Dataset, sample_batch
from .errors import ConfigurationError, NonFiniteGradientError, StateError
from .fairness import SmoothIndicator, g2_estimate
from .lambda_solver import SmoothingParams, init_lambda_state, state_step
from .model import FactorizationScorer
from .rank_losses import ScoredBatch, dataset_loss, g1_estimate

FAIRNESS_MODES = ("none", "full_list", "top_k")
LR_SCHEDULES = ("constant", "step_decay")


@dataclass(frozen=True)
class TrainConfig:
    """The settings of one run; building one with an invalid value raises ConfigurationError."""

    k: int = 10
    fair_weight: float = 0.0           # the accuracy/fairness trade-off C
    loss: str = "ndcg"                 # "ndcg" | "listnet"
    margin: float = 1.0                # squared-hinge margin
    fairness_mode: str = "top_k"       # "none" | "full_list" | "top_k"
    gamma0: float = 0.3
    gamma1: float = 0.2
    gamma2: float = 0.2
    gamma3: float = 0.2
    gamma4: float = 0.5
    gamma5: float = 0.9
    eta0: float = 1e-3
    eta1: float = 4e-4
    tau1: float = 1e-2
    tau2: float = 1e-4
    eps: float = 0.5
    tau_psi: float = 0.1
    batch_pairs: int = 256
    batch_items: int = 32
    batch_a: int = 16
    batch_b: int = 16
    epochs: int = 10
    seed: int = 0
    lr_schedule: str = "constant"      # "constant" | "step_decay"
    g2_mode: str = "simplified"        # "simplified" | "full_implicit"
    log_every: int = 100

    def __post_init__(self) -> None:
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            # an int field takes any integer, a float field any real number; never a bool
            if isinstance(value, bool) or not isinstance(
                    value, {int: numbers.Integral, float: numbers.Real}.get(kind, kind)):
                raise ConfigurationError(f"{f.name} must be {kind.__name__}, got {value!r}")
            if kind is float and not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
        if self.fairness_mode not in FAIRNESS_MODES:
            raise ConfigurationError(f"unknown fairness_mode {self.fairness_mode!r}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ConfigurationError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.loss not in ("ndcg", "listnet"):
            raise ConfigurationError(f"unknown loss {self.loss!r}")
        if self.loss == "ndcg" and self.margin <= 0:
            raise ConfigurationError("hinge margin must be positive")
        if self.g2_mode not in ("simplified", "full_implicit"):
            raise ConfigurationError(f"unknown g2_mode {self.g2_mode!r}")
        if self.fairness_mode == "none" and self.fair_weight > 0:
            raise ConfigurationError("fairness_mode=none conflicts with a positive fair_weight")
        if self.fair_weight < 0:
            raise ConfigurationError("fair_weight must be >= 0")
        for name in ("gamma0", "gamma1", "gamma2", "gamma3", "gamma4", "gamma5"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1]")
        if self.eta0 < 0 or self.eta1 < 0:
            raise ConfigurationError("step sizes must be >= 0")
        if min(self.batch_pairs, self.batch_items, self.batch_a, self.batch_b) < 1:
            raise ConfigurationError("batch sizes must be >= 1")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.log_every < 1:
            raise ConfigurationError("log_every must be >= 1")
        # the smoothing (k >= 1 included) and indicator types check their own ranges
        self.smoothing(), SmoothIndicator(temperature=self.tau_psi)

    def smoothing(self) -> SmoothingParams:
        return SmoothingParams(tau1=self.tau1, tau2=self.tau2, eps=self.eps, k=self.k)

    def fairness_active(self) -> bool:
        # C = 0 skips the whole fairness machinery, whatever the mode says.
        return self.fairness_mode != "none" and self.fair_weight > 0.0


def config_to_file(cfg: TrainConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in fields(cfg):
            fh.write(f"{f.name}={getattr(cfg, f.name)}\n")


def config_from_file(path: str) -> TrainConfig:
    """Parse the flat key=value config format; unknown keys are errors."""
    casts = {f.name: type(f.default) for f in fields(TrainConfig)}
    overrides = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError:
            raise ConfigurationError(f"{path}: not UTF-8 text") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in casts:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            overrides[key] = casts[key](raw.strip())
        except ValueError:
            raise ConfigurationError(f"{path}:{lineno}: bad value for {key}")
    return TrainConfig(**overrides)


@dataclass
class TrainerState:
    """The one record a run carries between steps, all plain arrays.

    ``z`` is the momentum buffer.  The first ``bind`` allocates the
    estimators' arrays for its dataset, and binding a dataset of another
    layout raises StateError: ``pair_u`` / ``pair_seen``, G1's moving average
    per flat pair; ``fair_u`` (u_a, u_b, u_g), ``fair_seen`` and ``shift``, G2's
    per query; ``lam`` (lambda, s, v) per query, lambda NaN until the query's
    first touch sets it, so that a stray read cannot pass as finite.
    """

    z: np.ndarray
    offsets: np.ndarray | None = None       # Dataset.offsets of the bound dataset
    pair_u: np.ndarray | None = None
    pair_seen: np.ndarray | None = None
    fair_u: np.ndarray | None = None
    fair_seen: np.ndarray | None = None
    shift: np.ndarray | None = None
    lam: np.ndarray | None = None

    @classmethod
    def fresh(cls, cfg: TrainConfig, num_params: int) -> "TrainerState":
        return cls(z=np.zeros(num_params))

    def bind(self, d: Dataset) -> None:
        if self.offsets is not None:
            if not np.array_equal(self.offsets, d.offsets):
                raise StateError("trainer state is sized for a dataset with other "
                                 "query sizes; start a fresh TrainerState")
            return
        nq, pairs = d.num_queries, d.total_pairs
        self.offsets = d.offsets
        self.pair_u, self.pair_seen = np.zeros(pairs), np.zeros(pairs, dtype=bool)
        self.fair_u, self.fair_seen = np.zeros((nq, 3)), np.zeros(nq, dtype=bool)
        self.shift, self.lam = np.zeros(nq), np.tile([np.nan, 0.0, 0.0], (nq, 1))


@dataclass
class TrainTrace:
    # the header of an empty trace: the keys of every record train() logs
    FIELDS = ("step", "epoch", "z_norm", "train_loss", "valid_ndcg", "valid_mae", "valid_mse",
              "wall_time")
    records: list[dict] = field(default_factory=list)

    def append(self, **kwargs) -> None:
        if self.records and kwargs["step"] < self.records[-1]["step"]:
            raise ValueError("step indices must be monotone")
        self.records.append(kwargs)

    def to_csv(self, path: str) -> None:
        keys = list(self.records[0]) if self.records else self.FIELDS
        with open(path, "w", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            writer.writerows(self.records)


def _check_finite(arrays, name: str) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise NonFiniteGradientError(f"non-finite values in {name}")


def train_step(model: FactorizationScorer, d: Dataset, cfg: TrainConfig,
               state: TrainerState, rng: np.random.Generator,
               lr_mult: float = 1.0) -> dict:
    """One full iteration: sample, estimate G1 (+ C * G2), momentum, step.
    One ``ScoredBatch`` scores the blocks both estimators weigh and scatters
    G1 + C * G2 on them."""
    state.bind(d)
    batch = sample_batch(
        d, (cfg.batch_pairs, cfg.batch_items, cfg.batch_a, cfg.batch_b), rng)
    scored = ScoredBatch(model, d, batch, fair=cfg.fairness_active())
    g1 = g1_estimate(scored, d, batch, cfg, state)
    _check_finite(g1.values(), "G1")

    estimates = [g1]
    if cfg.fairness_active():
        top_k = cfg.fairness_mode == "top_k"    # full_list: psi = 1, no threshold
        if top_k:
            smoothing = cfg.smoothing()
            active = ~batch.skipped
            rows = batch.queries[active]
            s_g = scored.scores["items"][active]  # the item sub-batch of both-group queries
            n_total = d.sizes[rows]
            fresh = np.isnan(state.lam[rows, 0])
            if fresh.any():
                state.lam[rows[fresh]] = init_lambda_state(s_g[fresh], smoothing, n_total[fresh])
        g2 = g2_estimate(scored, d, batch, cfg, state)
        _check_finite(g2.values(), "G2")
        if top_k:
            state.lam[rows] = state_step(state.lam[rows], s_g, smoothing, cfg.gamma4, cfg.eta0,
                                         n_total=n_total)
        estimates.append({name: cfg.fair_weight * w for name, w in g2.items()})

    state.z *= 1.0 - cfg.gamma5
    state.z += cfg.gamma5 * scored.dense(*estimates)
    _check_finite([state.z], "momentum z")
    model.params.values -= cfg.eta1 * lr_mult * state.z
    return {"z_norm": float(np.linalg.norm(state.z)), "num_pairs": batch.num_pairs}


@dataclass
class TrainResult:
    model: FactorizationScorer
    best_params: np.ndarray
    best_valid_ndcg: float
    trace: TrainTrace


def train(model: FactorizationScorer, train_d: Dataset, cfg: TrainConfig,
          valid_d: Dataset | None = None) -> TrainResult:
    """Run the full loop; returns the final model, the best-validation
    parameter snapshot and the logged trace."""
    from .evaluation import EvalProtocol, evaluate  # local import avoids a cycle

    rng = np.random.default_rng(cfg.seed)
    state = TrainerState.fresh(cfg, len(model.params.values))
    steps_per_epoch = max(1, math.ceil(train_d.total_pairs / cfg.batch_pairs))
    total_steps = cfg.epochs * steps_per_epoch
    trace = TrainTrace()
    best_params = model.params.values.copy()
    best_ndcg = -np.inf
    protocol = EvalProtocol(k_list=(cfg.k,), seed=cfg.seed)
    loss_probe = train_d.take(np.arange(train_d.offsets[min(20, train_d.num_queries)]))
    t0 = time.perf_counter()

    for step in range(total_steps):
        epoch = step // steps_per_epoch
        lr_mult = 1.0
        if cfg.lr_schedule == "step_decay" and epoch >= cfg.epochs / 2:
            lr_mult = 0.25
        metrics = train_step(model, train_d, cfg, state, rng, lr_mult=lr_mult)

        if step % cfg.log_every == 0 or step == total_steps - 1:
            record = {"step": step, "epoch": epoch, "z_norm": metrics["z_norm"],
                      "train_loss": dataset_loss(model, loss_probe, cfg),
                      "valid_ndcg": float("nan"),
                      "valid_mae": float("nan"), "valid_mse": float("nan"),
                      "wall_time": time.perf_counter() - t0}
            if valid_d is not None and valid_d.num_queries:
                report = evaluate(model, valid_d, protocol)
                row = report[protocol.k_list[0]]
                record["valid_ndcg"] = row["ndcg_mean"]
                record["valid_mae"] = row["mae"]
                record["valid_mse"] = row["mse"]
                if row["ndcg_mean"] >= best_ndcg:
                    best_ndcg = row["ndcg_mean"]
                    best_params = model.params.values.copy()
            trace.append(**record)

    if best_ndcg == -np.inf:
        best_params = model.params.values.copy()
    return TrainResult(model=model, best_params=best_params,
                       best_valid_ndcg=float(best_ndcg), trace=trace)

