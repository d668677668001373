"""Reproduce the accuracy/fairness tradeoff frontier on synthetic data.

Generates a biased benchmark, trains one model per C value with an
identical seed and budget, and writes the frontier as CSV and JSON.

Usage:
    python3 scripts/run_tradeoff_sweep.py --out results/sweep
"""

import argparse
import os

from fairtopk.data import generate_synthetic, split
from fairtopk.evaluation import EvalProtocol, tradeoff_sweep
from fairtopk.model import FactorizationScorer
from fairtopk.optimizer import TrainConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--queries", type=int, default=200)
    ap.add_argument("--items", type=int, default=305)
    ap.add_argument("--bias", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--k", type=int, default=50)
    ap.add_argument("--c-grid", default="0,10,100,1000,10000")
    ap.add_argument("--out", required=True, help="output path prefix")
    args = ap.parse_args()

    d = generate_synthetic(args.queries, args.items, 0.3, args.bias, args.seed)
    train_d, _, test_d, _ = split(d, (0.8, 0.1, 0.1), seed=0)
    model = FactorizationScorer(d.num_query_rows, d.num_item_rows, 8,
                                seed=args.seed)
    cfg = TrainConfig(k=args.k, loss="listnet", epochs=args.epochs,
                      eta1=1.0, seed=args.seed, log_every=10_000)
    c_grid = [float(c) for c in args.c_grid.split(",")]
    proto = EvalProtocol(k_list=(args.k,), seed=0)

    report = tradeoff_sweep(model, train_d, test_d, cfg, c_grid, [args.k], proto=proto)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    report.to_csv(args.out + ".csv")
    report.to_json(args.out + ".json")
    for row in report.rows:
        print(f"C={row['C']:>8.0f}  ndcg={row['ndcg_mean']:.4f}  "
              f"mae={row['mae']:.2e}  mse={row['mse']:.2e}")


if __name__ == "__main__":
    main()
