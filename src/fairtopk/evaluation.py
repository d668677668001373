"""Exact evaluation metrics, the sampled evaluation protocol, the C-sweep
tradeoff harness and the ranking-strip export.

Evaluation lists mix a handful of relevant items with a large pool of
irrelevant ones per query: zero-relevance items from the query's own list
first, then items never observed for that query (``Dataset.unobserved``;
relevance imputed 0, group from the item table).  Lists are drawn in query
order and handled in blocks of about ``_BLOCK_ENTRIES`` entries, padded
(lists, width) matrices with one ``score_many`` and one ``rank_order`` call
each.  Empty slots score -inf with label 0 and no group, so they rank last
and add nothing to any exposure or prefix sum.  NDCG@K and the signed top-K
gap for every K are row-wise prefix sums along the ranking.  MAE / MSE
aggregate the gaps over queries, skipping queries where a group is absent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .data import GROUP_A, Dataset, QueryGroup
from .errors import ConfigurationError, FairTopKError
from .fairness import disparity_mae_mse, rank_order, topk_gaps
from .model import FactorizationScorer


@dataclass(frozen=True)
class EvalProtocol:
    relevant_per_query: int = 5
    irrelevant_per_query: int = 300
    k_list: tuple[int, ...] = (50, 100, 200)
    seed: int = 0

    def __post_init__(self):
        if (min(self.relevant_per_query, self.irrelevant_per_query) < 0
                or min(self.k_list, default=0) < 1):
            raise ConfigurationError("list counts must be >= 0 and k_list nonempty, every k >= 1")


_BLOCK_ENTRIES = 8192       # list entries per block of evaluate(): a few MB of temporaries


def _draw(rng: np.random.Generator, pool: np.ndarray, n: int) -> np.ndarray:
    """Up to n entries of ``pool``, uniform without replacement; nothing is
    drawn when n or the pool is empty."""
    n = min(n, len(pool))
    return pool[rng.choice(len(pool), size=n, replace=False)] if n else pool[:0]


def build_eval_list(d: Dataset, qg: QueryGroup, proto: EvalProtocol,
                    rng: np.random.Generator):
    """Sampled evaluation list: (item_ids, feature_idx, labels, groups).

    Draws, in this order: the query's relevant items, its zero-relevance
    items, then unobserved items to make up the irrelevant count.
    """
    rel = _draw(rng, np.flatnonzero(qg.relevance > 0), proto.relevant_per_query)
    irr = _draw(rng, np.flatnonzero(qg.relevance == 0), proto.irrelevant_per_query)
    own = np.concatenate([rel, irr])
    vocab = d.vocab
    extra = _draw(rng, d.unobserved[qg.query_id], proto.irrelevant_per_query - len(irr))
    labels = np.zeros(len(own) + len(extra))
    labels[:len(rel)] = qg.relevance[rel]
    return (np.concatenate([qg.item_ids[own], vocab.ids[extra]]),
            np.concatenate([qg.feature_idx[own], vocab.rows[extra]]),
            labels,
            np.concatenate([qg.groups[own], vocab.groups[extra]]))


def ndcg_curve(labels: np.ndarray, order: np.ndarray) -> np.ndarray:
    """NDCG@1..n of lists ranked by ``order`` along the last axis; each needs a
    positive label, and label-0 padding ranked last leaves it unchanged."""
    gains = 2.0 ** labels - 1.0
    discounts = 1.0 / np.log2(2.0 + np.arange(gains.shape[-1]))
    ideal = np.sort(gains, axis=-1)[..., ::-1]
    return (np.cumsum(np.take_along_axis(gains, order, axis=-1) * discounts, axis=-1)
            / np.cumsum(ideal * discounts, axis=-1))


def ndcg_at_k(model: FactorizationScorer, q: int, eval_items: np.ndarray,
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
    return float(ndcg_curve(labels, rank_order(scores, item_ids))[min(k, len(scores)) - 1])


def evaluate(model: FactorizationScorer, d: Dataset, proto: EvalProtocol) -> dict:
    """Per-K report: NDCG mean/std, disparity MAE/MSE, skip counts.

    NDCG@K is truncated at the list length and the top-K gap at one less,
    so that it never covers a whole list.
    """
    if d.num_queries == 0:
        raise FairTopKError("cannot evaluate an empty dataset")
    ks = np.array(proto.k_list, dtype=np.int64)
    rng = np.random.default_rng(proto.seed)
    per_block = max(1, _BLOCK_ENTRIES // max(1, proto.relevant_per_query
                                             + proto.irrelevant_per_query))
    ndcgs, gaps = [], []
    skipped = 0

    for start in range(0, d.num_queries, per_block):
        drawn = [(qg.query_index, *build_eval_list(d, qg, proto, rng))
                 for qg in d.queries[start:start + per_block]]
        kept = [lst for lst in drawn if len(lst[1]) >= 2]
        skipped += len(drawn) - len(kept)
        if not kept:
            continue
        rows, ids, feats, labels, groups = zip(*kept)
        sizes = np.array([len(i) for i in ids])
        # slot (r, j) reads entry j of list r from the concatenated lists, an
        # empty slot the fill value appended after them
        filled = np.arange(sizes.max()) < sizes[:, None]
        slot = np.where(filled, np.cumsum(filled).reshape(filled.shape) - 1, -1)
        scores = model.score_many(np.repeat(rows, sizes), np.concatenate(feats))
        scores, ids, labels, groups = (
            np.append(np.concatenate(parts), fill)[slot]
            for parts, fill in (([scores], -np.inf), (ids, 0), (labels, 0.0), (groups, -1)))
        order = rank_order(scores, ids)
        ranked = np.any(labels > 0, axis=1)
        ndcg = ndcg_curve(labels[ranked], order[ranked])
        ndcgs.append(np.take_along_axis(ndcg, np.minimum(ks, sizes[ranked, None]) - 1, axis=1))
        gap = topk_gaps(scores, groups, order)
        both = ~np.isnan(gap[:, 0])
        skipped += len(gap) - np.count_nonzero(both)
        gaps.append(np.take_along_axis(gap[both], np.minimum(ks, sizes[both, None] - 1) - 1,
                                       axis=1))

    ndcgs = np.concatenate(ndcgs or [np.zeros((0, len(ks)))])
    gaps = np.concatenate(gaps or [np.zeros((0, len(ks)))])
    report = {}
    for j, k in enumerate(proto.k_list):
        n = ndcgs[:, j]
        mae, mse = disparity_mae_mse(gaps[:, j])
        report[k] = {
            "ndcg_mean": float(n.mean()) if len(n) else float("nan"),
            "ndcg_std": float(n.std()) if len(n) else float("nan"),
            "mae": mae, "mse": mse, "skipped": int(skipped),
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


def tradeoff_sweep(init_model: FactorizationScorer, train_d: Dataset, test_d: Dataset,
                   base_cfg, c_grid, k_list, proto: EvalProtocol | None = None) -> TradeoffReport:
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
            train(model, train_d, cfg)
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
        # a run of c tied values ending at 1-based position e has rank e - (c - 1) / 2
        _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - (counts - 1) / 2)[inverse]

    rx, ry = _ranks(x), _ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx ** 2).sum() * (ry ** 2).sum())
    return float((rx * ry).sum() / denom) if denom else 0.0


def export_ranking_strips(model: FactorizationScorer, d: Dataset, num_queries: int,
                          k: int, csv_path: str, ppm_path: str) -> None:
    """Group-membership strips of the most unfair rankings.

    One row per selected query (descending exact top-K disparity), one
    column per rank position; cells are 'A' / 'B' in the CSV and red /
    green pixels in the binary PPM.  Rows are right-padded with black
    pixels when queries have fewer items than the widest one.
    """
    if not 1 <= num_queries <= d.num_queries:
        raise ConfigurationError(f"num_queries must be in [1, {d.num_queries}]")
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    ranked = []
    for qg in d.queries:
        if qg.num_items < 2:
            continue
        scores = model.score_many(qg.query_index, qg.feature_idx)
        order = rank_order(scores, qg.item_ids)
        gap = abs(topk_gaps(scores, qg.groups, order)[min(k, qg.num_items - 1) - 1])
        if np.isnan(gap):
            gap = -1.0
        ranked.append((gap, qg.groups[order]))
    ranked.sort(key=lambda t: -t[0])
    rows = [["A" if g == GROUP_A else "B" for g in groups]
            for _, groups in ranked[:num_queries]]

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
