"""Fairness-aware top-K learning to rank with stochastic compositional
optimization."""

from .data import (
    BatchSample,
    Dataset,
    generate_synthetic,
    load_csv,
    sample_batch,
    save_csv,
    split,
)
from .evaluation import EvalProtocol, evaluate
from .fairness import exposures
from .lambda_solver import (
    exact_lambda,
    solve_lambda_exactly_smoothed,
)
from .model import FactorizationScorer, ParamVector
from .optimizer import TrainConfig, TrainResult, tradeoff_sweep, train, train_step

__version__ = "0.1.0"
