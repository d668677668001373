"""The stochastic training loop: momentum descent on G1 + C * G2.

One step draws the pair batch and per-query sub-batches, refreshes the
moving-average estimator states, assembles the two stochastic gradients,
folds them into the momentum buffer z and takes a parameter step.  Mode
switches select the ablations: ``fairness_mode = none`` (or C = 0) is
color-blind training, ``full_list`` pairs the ranking loss with the
whole-list disparity, and ``top_k`` is the full method.
"""

from __future__ import annotations

import csv as _csv
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import Dataset, sample_batch
from .errors import ConfigurationError, NonFiniteGradientError, StateError
from .fairness import FairnessState, SmoothIndicator, fairness_blocks, g2_estimate
from .lambda_solver import LambdaState, SmoothingParams, init_lambda_state, state_step
from .model import FactorizationScorer
from .rank_losses import (
    LossVariant,
    MovingAverage,
    RankLossKind,
    dataset_loss,
    g1_estimate,
    gather_scores,
)

FAIRNESS_MODES = ("none", "full_list", "top_k")
LR_SCHEDULES = ("constant", "step_decay")


@dataclass
class TrainConfig:
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

    def validate(self) -> None:
        if self.fairness_mode not in FAIRNESS_MODES:
            raise ConfigurationError(f"unknown fairness_mode {self.fairness_mode!r}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ConfigurationError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.loss not in ("ndcg", "listnet"):
            raise ConfigurationError(f"unknown loss {self.loss!r}")
        if self.g2_mode not in ("simplified", "full_implicit"):
            raise ConfigurationError(f"unknown g2_mode {self.g2_mode!r}")
        if self.fairness_mode == "none" and self.fair_weight > 0:
            raise ConfigurationError("fairness_mode=none conflicts with a positive fair_weight")
        if self.fair_weight < 0:
            raise ConfigurationError("fair_weight must be >= 0")
        for name in ("gamma0", "gamma1", "gamma2", "gamma3", "gamma4", "gamma5"):
            g = getattr(self, name)
            if not 0.0 <= g <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1]")
        if self.eta0 < 0 or self.eta1 < 0:
            raise ConfigurationError("step sizes must be >= 0")
        if min(self.batch_pairs, self.batch_items, self.batch_a, self.batch_b) < 1:
            raise ConfigurationError("batch sizes must be >= 1")
        if self.epochs < 0:
            raise ConfigurationError("epochs must be >= 0")
        if self.log_every < 1:
            raise ConfigurationError("log_every must be >= 1")
        # the loss, smoothing (k >= 1 included) and indicator types check their own ranges
        self.loss_kind(), self.smoothing(), SmoothIndicator(temperature=self.tau_psi)

    def loss_kind(self) -> RankLossKind:
        variant = LossVariant.NDCG if self.loss == "ndcg" else LossVariant.LISTNET
        return RankLossKind(variant=variant, margin=self.margin)

    def smoothing(self) -> SmoothingParams:
        return SmoothingParams(tau1=self.tau1, tau2=self.tau2, eps=self.eps, k=self.k)

    def fairness_active(self) -> bool:
        # C = 0 skips the whole fairness machinery, whatever the mode says.
        return self.fairness_mode != "none" and self.fair_weight > 0.0


def config_to_file(cfg: TrainConfig, path: str) -> None:
    with open(path, "w") as fh:
        for f in fields(cfg):
            fh.write(f"{f.name}={getattr(cfg, f.name)}\n")


def config_from_file(path: str, base: TrainConfig | None = None) -> TrainConfig:
    """Parse the flat key=value config format; unknown keys are errors."""
    cfg = base if base is not None else TrainConfig()
    casts = {f.name: type(getattr(cfg, f.name)) for f in fields(TrainConfig)}
    overrides = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
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
    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


@dataclass
class MomentumState:
    z: np.ndarray
    gamma: float

    def update(self, grad: np.ndarray) -> None:
        self.z *= 1.0 - self.gamma
        self.z += self.gamma * grad


@dataclass
class TrainerState:
    """The momentum buffer plus the estimators' dense state.

    The estimator arrays are allocated by the first ``bind``, sized for
    that dataset; binding a dataset of another layout raises StateError.
    """

    momentum: MomentumState
    pairs: MovingAverage | None = None      # u per (query, item) pair
    fair: FairnessState | None = None       # (u_a, u_b, u_g) and shift per query
    lam: LambdaState | None = None          # (lam, s, v) per query
    offsets: np.ndarray | None = None       # FlatView.offsets of the bound dataset

    @classmethod
    def fresh(cls, cfg: TrainConfig, num_params: int) -> "TrainerState":
        return cls(momentum=MomentumState(z=np.zeros(num_params), gamma=cfg.gamma5))

    def bind(self, d: Dataset, cfg: TrainConfig) -> None:
        offsets = d.flat.offsets
        if self.offsets is not None:
            if not np.array_equal(self.offsets, offsets):
                raise StateError("trainer state is sized for a dataset with other "
                                 "query sizes; start a fresh TrainerState")
            return
        nq = len(offsets) - 1
        self.offsets = offsets
        self.pairs = MovingAverage.zeros(cfg.gamma0, int(offsets[-1]))
        self.fair = FairnessState.zeros(nq, cfg.gamma1, cfg.gamma2, cfg.gamma3)
        # NaN until a query's first touch sets it: marks the queries still to
        # warm up, and a stray read cannot pass as finite
        self.lam = LambdaState(lam=np.full(nq, np.nan), s=np.zeros(nq), v=np.zeros(nq),
                               gamma=cfg.gamma4, eta=cfg.eta0)


@dataclass
class TrainTrace:
    records: list[dict] = field(default_factory=list)

    def append(self, **kwargs) -> None:
        if self.records and kwargs["step"] < self.records[-1]["step"]:
            raise ValueError("step indices must be monotone")
        self.records.append(kwargs)

    def to_csv(self, path: str) -> None:
        if not self.records:
            return
        keys = list(self.records[0].keys())
        with open(path, "w", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            writer.writerows(self.records)


def _check_finite(grad: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradientError(f"non-finite values in {name}")


def train_step(model: FactorizationScorer, d: Dataset, cfg: TrainConfig,
               state: TrainerState, rng: np.random.Generator,
               lr_mult: float = 1.0) -> dict:
    """One full iteration: sample, estimate G1 (+ C * G2), momentum, step."""
    state.bind(d, cfg)
    batch = sample_batch(
        d, (cfg.batch_pairs, cfg.batch_items, cfg.batch_a, cfg.batch_b), rng)
    g1 = g1_estimate(model, d, batch, cfg.loss_kind(), state.pairs)
    _check_finite(g1, "G1")

    combined = g1
    if cfg.fairness_active():
        smoothing = cfg.smoothing()
        # one gather serves the threshold update and G2
        scores = gather_scores(model, d.flat, *fairness_blocks(batch))
        psi = None                              # full_list: psi = 1, no threshold
        if cfg.fairness_mode == "top_k":
            psi = SmoothIndicator(temperature=cfg.tau_psi)
            lam, rows = state.lam, batch.queries[~batch.skipped]
            n_total = d.flat.sizes[rows]
            fresh = np.isnan(lam.lam[rows])
            if fresh.any():
                new = rows[fresh]
                warm = init_lambda_state(scores[2][fresh], smoothing, n_total[fresh],
                                         cfg.gamma4, cfg.eta0)
                lam.lam[new], lam.s[new], lam.v[new] = warm.lam, warm.s, warm.v
        g2 = g2_estimate(model, d, batch, cfg.k, state.fair, state.lam, psi,
                         smoothing, mode=cfg.g2_mode, scores=scores)
        _check_finite(g2, "G2")
        if cfg.fairness_mode == "top_k":
            st = state_step(LambdaState(lam.lam[rows], lam.s[rows], lam.v[rows], lam.gamma,
                                        lam.eta), scores[2], smoothing, n_total=n_total)
            lam.lam[rows], lam.s[rows], lam.v[rows] = st.lam, st.s, st.v
        combined = g1 + cfg.fair_weight * g2

    state.momentum.update(combined)
    _check_finite(state.momentum.z, "momentum z")
    model.params.values -= cfg.eta1 * lr_mult * state.momentum.z
    return {"z_norm": float(np.linalg.norm(state.momentum.z)),
            "num_pairs": batch.num_pairs}


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

    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    state = TrainerState.fresh(cfg, len(model.params.values))
    steps_per_epoch = max(1, math.ceil(train_d.total_pairs / cfg.batch_pairs))
    total_steps = cfg.epochs * steps_per_epoch
    trace = TrainTrace()
    best_params = model.params.values.copy()
    best_ndcg = -np.inf
    protocol = EvalProtocol(k_list=(cfg.k,), seed=cfg.seed)
    loss_probe = replace(train_d, queries=train_d.queries[:20])
    t0 = time.perf_counter()

    for step in range(total_steps):
        epoch = step // steps_per_epoch
        lr_mult = 1.0
        if cfg.lr_schedule == "step_decay" and epoch >= cfg.epochs / 2:
            lr_mult = 0.25
        metrics = train_step(model, train_d, cfg, state, rng, lr_mult=lr_mult)

        if step % cfg.log_every == 0 or step == total_steps - 1:
            record = {"step": step, "epoch": epoch, "z_norm": metrics["z_norm"],
                      "train_loss": dataset_loss(model, loss_probe, cfg.loss_kind()),
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

