"""Exact evaluation metrics, the sampled evaluation protocol, the C-sweep
tradeoff harness and the ranking-strip export.

Evaluation lists mix a handful of relevant items with a large pool of
irrelevant ones per query: zero-relevance items from the query's own list
first, then items never observed for that query (relevance imputed 0,
group taken from the item table).  NDCG and the signed top-K exposure
gap are computed on the same sampled list; MAE / MSE aggregate the gaps
over queries, skipping queries where a group is absent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .data import GROUP_A, Dataset, QueryGroup
from .errors import ConfigurationError, FairTopKError
from .fairness import disparity_mae_mse, topk_gap
from .model import FactorizationScorer, ScoringModel


@dataclass(frozen=True)
class EvalProtocol:
    relevant_per_query: int = 5
    irrelevant_per_query: int = 300
    k_list: tuple[int, ...] = (50, 100, 200)
    seed: int = 0


def build_eval_list(d: Dataset, qg: QueryGroup, proto: EvalProtocol,
                    rng: np.random.Generator):
    """Sampled evaluation list: (item_ids, feature_idx, labels, groups)."""
    rel_pos = np.flatnonzero(qg.relevance > 0)
    irr_pos = np.flatnonzero(qg.relevance == 0)
    take_rel = min(proto.relevant_per_query, len(rel_pos))
    sel_rel = rng.choice(rel_pos, size=take_rel, replace=False) if take_rel else \
        np.zeros(0, dtype=np.int64)
    take_irr = min(proto.irrelevant_per_query, len(irr_pos))
    sel_irr = rng.choice(irr_pos, size=take_irr, replace=False) if take_irr else \
        np.zeros(0, dtype=np.int64)

    ids = list(qg.item_ids[np.concatenate([sel_rel, sel_irr]).astype(np.int64)])
    feats = list(qg.feature_idx[np.concatenate([sel_rel, sel_irr]).astype(np.int64)])
    labels = list(qg.relevance[sel_rel]) + [0.0] * len(sel_irr)
    groups = list(qg.groups[np.concatenate([sel_rel, sel_irr]).astype(np.int64)])

    missing = proto.irrelevant_per_query - take_irr
    if missing > 0:
        observed = (d.observed or {}).get(qg.query_id, frozenset(int(i) for i in qg.item_ids))
        pool = np.array(sorted(set(d.item_index) - set(observed)), dtype=np.int64)
        extra = rng.choice(pool, size=min(missing, len(pool)), replace=False) if len(pool) \
            else np.zeros(0, dtype=np.int64)
        for iid in extra:
            ids.append(int(iid))
            feats.append(d.item_index[int(iid)])
            labels.append(0.0)
            groups.append(d.item_groups[int(iid)])
    return (np.asarray(ids, dtype=np.int64), np.asarray(feats, dtype=np.int64),
            np.asarray(labels, dtype=np.float64), np.asarray(groups, dtype=np.int8))


def ndcg_at_k(model: ScoringModel, q: int, eval_items: np.ndarray,
              labels: np.ndarray, k: int,
              item_ids: np.ndarray | None = None) -> float | None:
    """Exact NDCG truncated at k; ties broken by ascending item id.
    None when no item carries a positive label."""
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    labels = np.asarray(labels, dtype=np.float64)
    if not np.any(labels > 0):
        return None
    scores = model.score_many(q, eval_items)
    if item_ids is None:
        item_ids = np.arange(len(scores))
    order = np.lexsort((item_ids, -scores))
    gains = 2.0 ** labels[order] - 1.0
    kk = min(k, len(scores))
    discounts = 1.0 / np.log2(1.0 + np.arange(1, kk + 1))
    dcg = float(np.sum(gains[:kk] * discounts))
    ideal = np.sort(2.0 ** labels - 1.0)[::-1]
    idcg = float(np.sum(ideal[:kk] * discounts))
    return dcg / idcg


def evaluate(model: ScoringModel, d: Dataset, proto: EvalProtocol) -> dict:
    """Per-K report: NDCG mean/std, disparity MAE/MSE, skip counts."""
    if d.num_queries == 0:
        raise FairTopKError("cannot evaluate an empty dataset")
    rng = np.random.default_rng(proto.seed)
    ndcgs: dict[int, list[float]] = {k: [] for k in proto.k_list}
    gaps: dict[int, list[float]] = {k: [] for k in proto.k_list}
    skipped: dict[int, int] = {k: 0 for k in proto.k_list}

    for qg in d.queries:
        ids, feats, labels, groups = build_eval_list(d, qg, proto, rng)
        if len(ids) < 2:
            for k in proto.k_list:
                skipped[k] += 1
            continue
        scores = model.score_many(qg.query_index, feats)
        for k in proto.k_list:
            n = ndcg_at_k(model, qg.query_index, feats, labels, k, item_ids=ids)
            if n is not None:
                ndcgs[k].append(n)
            gap = topk_gap(scores, groups, ids, min(k, len(ids) - 1))
            if gap is None:
                skipped[k] += 1
            else:
                gaps[k].append(gap)

    report = {}
    for k in proto.k_list:
        n = np.asarray(ndcgs[k]) if ndcgs[k] else np.zeros(0)
        mae, mse = disparity_mae_mse(gaps[k])
        report[k] = {
            "ndcg_mean": float(n.mean()) if len(n) else float("nan"),
            "ndcg_std": float(n.std()) if len(n) else float("nan"),
            "mae": mae, "mse": mse, "skipped": skipped[k],
        }
    return report


@dataclass
class TradeoffReport:
    rows: list[dict] = field(default_factory=list)

    def to_csv(self, path: str) -> None:
        import csv as _csv
        keys = ["C", "K", "ndcg_mean", "ndcg_std", "mae", "mse", "skipped", "failed", "error"]
        with open(path, "w", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            writer.writerows(self.rows)

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.rows, fh, indent=2)


def tradeoff_sweep(init_model: FactorizationScorer, train_d: Dataset,
                   valid_d: Dataset | None, test_d: Dataset, base_cfg,
                   c_grid, k_list, proto: EvalProtocol | None = None) -> TradeoffReport:
    """Train one model per C (identical seed and budget) and report one
    frontier row per (C, K) on the test split.  Failed runs are marked
    and the sweep continues."""
    from .optimizer import train

    if len(c_grid) == 0:
        raise ConfigurationError("C grid must be nonempty")
    if proto is None:
        proto = EvalProtocol(k_list=tuple(k_list), seed=base_cfg.seed)
    report = TradeoffReport()
    for c in c_grid:
        cfg = replace(base_cfg, fair_weight=float(c))
        model = init_model.clone()
        try:
            cfg.validate()
            train(model, train_d, cfg, valid_d=None)
            per_k = evaluate(model, test_d, proto)
            for k in k_list:
                row = {"C": float(c), "K": int(k), "failed": False}
                row.update(per_k[k])
                report.rows.append(row)
        except FairTopKError as exc:
            for k in k_list:
                report.rows.append({"C": float(c), "K": int(k),
                                    "ndcg_mean": float("nan"), "ndcg_std": float("nan"),
                                    "mae": float("nan"), "mse": float("nan"),
                                    "skipped": 0, "failed": True,
                                    "error": str(exc)})
    return report


def spearman(x, y) -> float:
    """Spearman rank correlation (no tie correction beyond average ranks)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def _ranks(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        # average ranks for exact ties
        for val in np.unique(v):
            m = v == val
            if m.sum() > 1:
                r[m] = r[m].mean()
        return r

    rx, ry = _ranks(x), _ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx ** 2).sum() * (ry ** 2).sum())
    return float((rx * ry).sum() / denom) if denom else 0.0


def export_ranking_strips(model: ScoringModel, d: Dataset, num_queries: int,
                          k: int, csv_path: str, ppm_path: str) -> None:
    """Group-membership strips of the most unfair rankings.

    One row per selected query (descending exact top-K disparity), one
    column per rank position; cells are 'A' / 'B' in the CSV and red /
    green pixels in the binary PPM.  Rows are right-padded with black
    pixels when queries have fewer items than the widest one.
    """
    from .fairness import topk_disparity_exact

    if num_queries > d.num_queries:
        raise ConfigurationError("num_queries exceeds the dataset size")
    scored = []
    for qg in d.queries:
        if qg.num_items < 2:
            continue
        gap = topk_disparity_exact(model, qg, min(k, qg.num_items - 1))
        scored.append((abs(gap) if gap is not None else -1.0, qg))
    scored.sort(key=lambda t: -t[0])
    chosen = [qg for _, qg in scored[:num_queries]]

    rows = []
    for qg in chosen:
        scores = model.score_many(qg.query_index, qg.feature_idx)
        order = np.lexsort((qg.item_ids, -scores))
        rows.append(["A" if g == GROUP_A else "B" for g in qg.groups[order]])

    with open(csv_path, "w") as fh:
        for row in rows:
            fh.write(",".join(row) + "\n")

    width = max((len(r) for r in rows), default=0)
    height = len(rows)
    with open(ppm_path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode())
        red, green, black = bytes([220, 40, 40]), bytes([40, 180, 60]), bytes(3)
        for row in rows:
            line = b"".join(red if c == "A" else green for c in row)
            line += black * (width - len(row))
            fh.write(line)
