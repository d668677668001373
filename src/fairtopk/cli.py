"""Command-line entry point.

Subcommands: gen-data, train, eval, sweep, export-strips, grad-check.
Exit codes: 0 success, 1 usage / validation error, 2 runtime failure.
Training hyperparameter flags are generated from the TrainConfig fields,
so the config-file keys, the flags and --help stay in sync; precedence is
flag > config file > default.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields, replace

from . import gradcheck
from .data import generate_synthetic, load_csv, save_csv, split
from .errors import FairTopKError, ConfigurationError
from .evaluation import (EvalProtocol, evaluate, export_ranking_strips, finite_or_null,
                         tradeoff_sweep)
from .model import FactorizationScorer
from .optimizer import TrainConfig, config_from_file, train


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_FLAG_ALIASES = {"k": ["--K"], "fair_weight": ["--C"], "fairness_mode": ["--mode"]}


def float_list(text: str) -> list[float]:
    """Comma-separated floats; a bad entry is a usage error."""
    return [float(v) for v in text.split(",") if v.strip()]


def int_list(text: str) -> list[int]:
    """Comma-separated integers; a bad entry is a usage error."""
    return [int(v) for v in text.split(",") if v.strip()]


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    for f in fields(TrainConfig):
        flags = ["--" + f.name.replace("_", "-")] + _FLAG_ALIASES.get(f.name, [])
        sub.add_argument(*flags, type=type(f.default), default=None,
                         help=f"TrainConfig.{f.name} (default {f.default})")


def _resolve_config(args) -> TrainConfig:
    cfg = config_from_file(args.config) if getattr(args, "config", None) else TrainConfig()
    flags = {f.name: getattr(args, f.name) for f in fields(TrainConfig)}
    return replace(cfg, **{name: v for name, v in flags.items() if v is not None})


def build_parser() -> _Parser:
    parser = _Parser(prog="fairtopk",
                     description="Fairness-aware top-K learning to rank")
    parser.add_argument("--strict-repro", action="store_true",
                        help="require an explicit --seed on stochastic subcommands")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate synthetic biased data")
    g.add_argument("--queries", type=int, required=True)
    g.add_argument("--items", type=int, required=True)
    g.add_argument("--minority-fraction", type=float, default=0.3)
    g.add_argument("--bias", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="train a scoring model")
    t.add_argument("--data", required=True, help="CSV dataset")
    t.add_argument("--config", default=None, help="key=value config file")
    t.add_argument("--fractions", type=float_list, default="0.8,0.1,0.1",
                   help="train,valid,test split fractions")
    t.add_argument("--split-seed", type=int, default=0)
    t.add_argument("--dim", type=int, default=8)
    t.add_argument("--bound", type=float, default=10.0)
    t.add_argument("--out", required=True, help="output prefix")
    _add_config_flags(t)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--k-list", type=int_list, default="50,100,200")
    e.add_argument("--relevant", type=int, default=5)
    e.add_argument("--irrelevant", type=int, default=300)
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--out", default=None, help="JSON report path (default stdout)")

    s = sub.add_parser("sweep", help="C-grid accuracy/fairness tradeoff sweep")
    s.add_argument("--data", required=True)
    s.add_argument("--config", default=None)
    s.add_argument("--c-grid", type=float_list, default="0,10,100,1000,10000")
    s.add_argument("--k-list", type=int_list, default="50")
    s.add_argument("--fractions", type=float_list, default="0.8,0.1,0.1")
    s.add_argument("--split-seed", type=int, default=0)
    s.add_argument("--dim", type=int, default=8)
    s.add_argument("--bound", type=float, default=10.0)
    s.add_argument("--out", required=True, help="output prefix (.csv and .json)")
    _add_config_flags(s)

    x = sub.add_parser("export-strips", help="export group-membership ranking strips")
    x.add_argument("--data", required=True)
    x.add_argument("--checkpoint", required=True)
    x.add_argument("--num-queries", type=int, required=True)
    x.add_argument("--K", type=int, default=10)
    x.add_argument("--out-csv", required=True)
    x.add_argument("--out-ppm", required=True)

    c = sub.add_parser("grad-check", help="run the finite-difference suites")
    c.add_argument("--seed", type=int, default=None)
    return parser


def _require_seed(args, default: int = 0) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        if args.strict_repro:
            raise ConfigurationError("--strict-repro requires an explicit --seed")
        return default
    return seed


def _cmd_gen_data(args) -> int:
    seed = _require_seed(args)
    d = generate_synthetic(args.queries, args.items, args.minority_fraction,
                           args.bias, seed)
    save_csv(d, args.out)
    print(f"wrote {d.num_queries} queries, {d.total_pairs} rows to {args.out}")
    return 0


def _load_and_split(path: str, fractions: list[float], seed: int):
    d = load_csv(path)
    train_d, valid_d, test_d, tiny = split(d, tuple(fractions), seed)
    return d, train_d, valid_d, test_d, tiny


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    _require_seed(args)
    d, train_d, valid_d, _, tiny = _load_and_split(args.data, args.fractions,
                                                   args.split_seed)
    if tiny:
        print(f"warning: {tiny} queries too small to split; kept in train")
    model = FactorizationScorer(d.num_query_rows, d.num_item_rows, args.dim,
                                bound=args.bound, seed=cfg.seed)
    result = train(model, train_d, cfg, valid_d=valid_d if valid_d.num_queries else None)
    model.save(args.out + ".ckpt")
    best = model.clone()
    best.params.values[:] = result.best_params
    best.save(args.out + ".best.ckpt")
    result.trace.to_csv(args.out + ".trace.csv")
    with open(args.out + ".meta.json", "w") as fh:
        json.dump(finite_or_null({"finished_at": time.time(),
                                  "best_valid_ndcg": result.best_valid_ndcg}), fh)
    print(f"trained {cfg.epochs} epochs; checkpoints at {args.out}.ckpt")
    return 0


def _cmd_eval(args) -> int:
    seed = _require_seed(args)
    d = load_csv(args.data)
    model = FactorizationScorer.load(args.checkpoint)
    proto = EvalProtocol(relevant_per_query=args.relevant,
                         irrelevant_per_query=args.irrelevant,
                         k_list=tuple(args.k_list), seed=seed)
    report = evaluate(model, d, proto)
    text = json.dumps(finite_or_null({str(k): v for k, v in report.items()}), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    _require_seed(args)
    d, train_d, _, test_d, _ = _load_and_split(args.data, args.fractions, args.split_seed)
    model = FactorizationScorer(d.num_query_rows, d.num_item_rows, args.dim,
                                bound=args.bound, seed=cfg.seed)
    report = tradeoff_sweep(model, train_d, test_d, cfg, args.c_grid, args.k_list)
    report.to_csv(args.out + ".csv")
    report.to_json(args.out + ".json")
    print(f"wrote {len(report.rows)} frontier rows to {args.out}.csv")
    return 0


def _cmd_export_strips(args) -> int:
    d = load_csv(args.data)
    model = FactorizationScorer.load(args.checkpoint)
    export_ranking_strips(model, d, args.num_queries, args.K,
                          args.out_csv, args.out_ppm)
    print(f"wrote strips for {args.num_queries} queries")
    return 0


def _cmd_grad_check(args) -> int:
    seed = _require_seed(args, default=7)
    errs = gradcheck.run_all(seed)
    worst = 0.0
    for name, val in sorted(errs.items()):
        print(f"{name}: max relative error {val:.3e}")
        worst = max(worst, val)
    return 0 if worst <= 1e-3 else 2


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "export-strips": _cmd_export_strips,
    "grad-check": _cmd_grad_check,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    except FairTopKError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
