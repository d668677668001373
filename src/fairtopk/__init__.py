"""Fairness-aware top-K learning to rank with stochastic compositional
optimization."""

from .data import (
    BatchSample,
    Dataset,
    QueryGroup,
    generate_synthetic,
    load_csv,
    sample_batch,
    save_csv,
    split,
)
from .evaluation import EvalProtocol, TradeoffReport, evaluate, tradeoff_sweep
from .fairness import (
    SmoothIndicator,
    exposures,
    full_list_disparity,
    topk_disparity_exact,
    topk_disparity_surrogate,
)
from .lambda_solver import (
    LambdaState,
    SmoothingParams,
    exact_lambda,
    solve_lambda_exactly_smoothed,
)
from .model import FactorizationScorer, ParamVector
from .optimizer import TrainConfig, TrainResult, train, train_step
from .rank_losses import (
    LossVariant,
    RankLossKind,
    exact_rank,
    listnet_loss,
    ndcg_loss,
)

__version__ = "0.1.0"
