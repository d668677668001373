"""Command-line entry point.

Subcommands: gen-data, train, eval, sweep, export-strips, grad-check.
Exit codes: 0 success, 1 usage / validation error, 2 runtime failure.
Training hyperparameter flags are generated from the TrainConfig fields,
so the config-file keys, the flags and --help stay in sync; precedence is
flag > config file > default.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import fields, replace

from . import gradcheck
from .data import generate_synthetic, load_csv, save_csv, split
from .errors import FairTopKError, ConfigurationError
from .evaluation import EvalProtocol, evaluate, export_ranking_strips
from .model import FactorizationScorer
from .optimizer import TRACE_FIELDS, TrainConfig, config_from_file, tradeoff_sweep, train


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


def _add_split_flags(sub: argparse.ArgumentParser) -> None:
    """The split ``train``, ``sweep`` and ``eval`` share."""
    sub.add_argument("--fractions", type=float_list, default="0.8,0.1,0.1",
                     help="train,valid,test split fractions (sweep never reads the valid part)")
    sub.add_argument("--split-seed", type=int, default=0)


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    """The flags ``train`` and ``sweep`` share: data, split, model and TrainConfig."""
    sub.add_argument("--data", required=True, help="CSV dataset")
    sub.add_argument("--config", default=None, help="key=value config file")
    _add_split_flags(sub)
    sub.add_argument("--dim", type=int, default=8)
    sub.add_argument("--bound", type=float, default=10.0)
    for f in fields(TrainConfig):
        flags = ["--" + f.name.replace("_", "-")] + _FLAG_ALIASES.get(f.name, [])
        sub.add_argument(*flags, type=type(f.default), default=None,
                         help=f"TrainConfig.{f.name} (default {f.default})")


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
    _add_run_flags(t)
    t.add_argument("--out", required=True, help="output prefix")

    e = sub.add_parser("eval", help="evaluate a checkpoint on the test part of --data")
    e.add_argument("--data", required=True)
    _add_split_flags(e)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--k-list", type=int_list, default="50,100,200")
    e.add_argument("--relevant", type=int, default=5)
    e.add_argument("--irrelevant", type=int, default=300)
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--out", default=None, help="JSON report path (default stdout)")

    s = sub.add_parser("sweep", help="C-grid accuracy/fairness tradeoff sweep")
    _add_run_flags(s)
    s.add_argument("--c-grid", type=float_list, default="0,10,100,1000,10000")
    s.add_argument("--k-list", type=int_list, default="50")
    s.add_argument("--out", required=True, help="output prefix (.csv and .json)")

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


def finite_or_null(value):
    """``value`` with NaN and +-Infinity, which are not JSON, made None (null)."""
    return json.loads(json.dumps(value), parse_constant=lambda _: None)


def _write_csv(path: str, rows: list[dict], keys: tuple[str, ...]) -> None:
    """``rows`` under the header ``keys``; a key a row lacks is an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(rows)


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


def _split(args, d, needed: tuple[str, ...]):
    """``split(d)`` under --fractions and --split-seed, refusing an empty ``needed`` part."""
    parts = split(d, tuple(args.fractions), args.split_seed)
    for name, part in zip(("train", "valid", "test"), parts):
        if name in needed and not part.total_pairs:
            raise ConfigurationError(f"--fractions {args.fractions} leave the {name} part empty")
    return parts


def _start_run(args, needed: tuple[str, ...]):
    """Config, split and initial model of a ``train`` or ``sweep`` run; every
    check that can fail does so before anything is trained or written."""
    cfg = config_from_file(args.config) if args.config else TrainConfig()
    cfg = replace(cfg, **{f.name: getattr(args, f.name) for f in fields(TrainConfig)
                          if getattr(args, f.name) is not None})
    _require_seed(args)
    folder = os.path.dirname(args.out) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"output directory {folder!r} of --out does not exist")
    d = load_csv(args.data)
    train_d, valid_d, test_d, tiny = _split(args, d, needed)
    if tiny:
        print(f"warning: {tiny} queries too small to split; kept in train")
    model = FactorizationScorer(d.num_query_rows, d.num_item_rows, args.dim,
                                bound=args.bound, seed=cfg.seed)
    return cfg, model, train_d, valid_d, test_d


def _cmd_train(args) -> int:
    cfg, model, train_d, valid_d, _ = _start_run(args, ("train",))
    result = train(model, train_d, cfg, valid_d=valid_d if valid_d.num_queries else None)
    model.save(args.out + ".ckpt")
    best = model.clone()
    best.params.values[:] = result.best_params
    best.save(args.out + ".best.ckpt")
    _write_csv(args.out + ".trace.csv", result.trace, TRACE_FIELDS)
    with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(finite_or_null({"finished_at": time.time(),
                                  "best_valid_ndcg": result.best_valid_ndcg}), fh)
    print(f"trained {cfg.epochs} epochs; checkpoints at {args.out}.ckpt")
    return 0


def _cmd_eval(args) -> int:
    seed = _require_seed(args)
    test_d = _split(args, load_csv(args.data), ("test",))[2]
    model = FactorizationScorer.load(args.checkpoint)
    proto = EvalProtocol(relevant_per_query=args.relevant,
                         irrelevant_per_query=args.irrelevant,
                         k_list=tuple(args.k_list), seed=seed)
    report = evaluate(model, test_d, proto)
    text = json.dumps(finite_or_null({str(k): v for k, v in report.items()}), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


def _cmd_sweep(args) -> int:
    cfg, model, train_d, _, test_d = _start_run(args, ("train", "test"))
    # every grid point is a valid config of its own C before any trains; 0 and -0 are one C
    configs = [replace(cfg, fair_weight=float(c)) for c in args.c_grid]
    repeated = [c for i, c in enumerate(args.c_grid) if c in args.c_grid[:i]]
    if repeated:
        raise ConfigurationError(f"--c-grid repeats C {repeated[0]:g}")
    proto = EvalProtocol(k_list=tuple(args.k_list), seed=cfg.seed)
    rows = tradeoff_sweep(model, train_d, test_d, configs, proto)
    _write_csv(args.out + ".csv", rows,
               ("C", "K", "ndcg_mean", "ndcg_std", "mae", "mse", "skipped", "failed", "error"))
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        json.dump(finite_or_null(rows), fh, indent=2)
    print(f"wrote {len(rows)} frontier rows to {args.out}.csv")
    return 0


def _cmd_export_strips(args) -> int:
    d = load_csv(args.data)
    model = FactorizationScorer.load(args.checkpoint)
    rows = export_ranking_strips(model, d, args.num_queries, args.K, args.out_csv, args.out_ppm)
    print(f"wrote strips for {rows} queries")
    return 0


def _cmd_grad_check(args) -> int:
    seed = _require_seed(args, default=7)
    errs = gradcheck.run_all(seed)
    for name, val in sorted(errs.items()):
        print(f"{name}: max relative error {val:.3e}")
    # a NaN error fails too: it is not <= 1e-3
    return 0 if all(val <= 1e-3 for val in errs.values()) else 2


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
