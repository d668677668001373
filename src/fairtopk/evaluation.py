"""Exact evaluation metrics, the sampled evaluation protocol, the C-sweep
tradeoff harness and the ranking-strip export.

Evaluation lists mix a handful of relevant items with a large pool of
irrelevant ones per query: zero-relevance items from the query's own list
first, then items never observed for that query (``Dataset.observed``;
relevance imputed 0, group from the item table).  Draws are counter-based
hashes keyed by (seed, query id), so a list depends only on the seed, its
query id and its candidate item ids.  Blocks of about ``_BLOCK_ENTRIES``
list entries are drawn anew on every call, scored and ranked as padded
(lists, width) matrices.  Empty slots score -inf with label 0 and no group,
so they rank last and add nothing to any exposure or prefix sum.  NDCG@K
and the signed top-K gap for every K are row-wise prefix sums along the
first max(K) places of the ranking.  MAE / MSE aggregate the gaps over
queries, skipping queries where a group is absent.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .data import GROUP_A, Dataset, along, padded, smallest_keys, spans
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


def _streams(seed: int, query_ids: list[str], tag: str = "") -> np.ndarray:
    """One 64-bit stream per query id: blake2b of (seed, id, ``tag``)."""
    return np.array([int.from_bytes(hashlib.blake2b(f"{seed}/{q}{tag}".encode(),
                                                    digest_size=8).digest(), "little")
                     for q in query_ids], dtype=np.uint64)


def _uniform(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A uniform [0, 1) key for counter ``x`` in stream ``z``: splitmix64 of
    the stream offset by x, a counter-based draw (Salmon et al., SC 2011)."""
    z = z + x.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ (z >> np.uint64(shift))) * np.uint64(mult)
    return ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * 2.0 ** -53


def build_eval_list(d: Dataset, queries: np.ndarray, proto: EvalProtocol):
    """The sampled lists of the queries at positions ``queries``: left-aligned,
    -1 padded (lists, width) item ids, feature rows, labels, groups; sizes.

    Own relevant and own zero-relevance items are keyed by item id, the
    smallest keys taken.  The unobserved items a list still lacks come from
    keying its whole pool when that is under 4 times their number, else
    from draws j = 0, 1, ... of pool index ``floor(key * pool size)`` until
    that many distinct ones come up: the work follows the list, not the pool.
    """
    vocab, lists = d.vocab, np.arange(len(queries))
    qids = d.query_ids[queries].tolist()
    # list r's observed pairs are d.observed[lo[r]:hi[r]], codes base[r] + vocabulary position
    width = len(vocab.ids)
    base = d.query_index[queries] * width
    lo, hi = np.searchsorted(d.observed, base), np.searchsorted(d.observed, base + width)
    pool = width - (hi - lo)
    sizes = d.sizes[queries]
    own, own_list = spans(d.offsets[queries], sizes), np.repeat(lists, sizes)
    rel = d.relevance[own]
    need = np.clip(proto.irrelevant_per_query
                   - np.bincount(own_list[rel == 0], minlength=len(lists)), 0, pool)
    whole, drawn = np.flatnonzero(pool < 4 * need), np.flatnonzero((pool >= 4 * need) & (need > 0))
    # a whole pool: the positions left free in the list's stretch of one mask
    n_seen = hi[whole] - lo[whole]
    free = np.ones(len(whole) * width, dtype=bool)
    free[d.observed[spans(lo[whole], n_seen)]
         - np.repeat(base[whole] - np.arange(len(whole)) * width, n_seen)] = False
    voc = [np.flatnonzero(free) - np.repeat(np.arange(len(whole)) * width, pool[whole])]
    if len(drawn):
        z = _streams(proto.seed, [qids[r] for r in drawn], "/draws")[:, None]
        k = need.max(initial=0) + 16
        while True:     # sort draws by (pool index, j); the first of each run is new
            k *= 2
            at = (_uniform(z, np.arange(k)) * pool[drawn, None]).astype(np.int64)
            runs = np.sort(at * k + np.arange(k), axis=1)
            first = np.ones(runs.shape, dtype=bool)
            first[:, 1:] = runs[:, 1:] // k != runs[:, :-1] // k
            if np.all(first.sum(axis=1) >= need[drawn]):
                break
        taken = np.zeros(runs.shape, dtype=bool)
        taken[np.nonzero(first)[0], runs[first] % k] = True
        taken &= np.cumsum(taken, axis=1) <= need[drawn, None]
        # pool index a of a drawn list is vocabulary position a + #{j : p_j - j <= a},
        # p_j its observed positions in ascending order
        below = [d.observed[lo[r]:hi[r]] - base[r] - np.arange(hi[r] - lo[r]) for r in drawn]
        voc += [a[t] + np.searchsorted(c, a[t], side="right") for c, a, t in zip(below, at, taken)]
    voc = np.concatenate(voc)
    cand_list = np.concatenate([own_list, np.repeat(whole, pool[whole]),
                                np.repeat(drawn, need[drawn])])
    # candidates: own items, then vocabulary positions ``voc``; the last entry fills
    ids, rows, labels, groups = (np.concatenate([own_v, voc_v, [fill]]) for own_v, voc_v, fill in (
        (d.item_ids[own], vocab.ids[voc], 0), (d.feature_idx[own], vocab.rows[voc], 0),
        (rel, np.zeros(len(voc)), 0.0), (d.groups[own], vocab.groups[voc], -1)))
    # segment 4r: list r's relevant items, 4r + 1 own zeros, + 2 unobserved, + 3 the rest
    seg = 4 * cand_list + np.concatenate([np.where(rel > 0, 0, np.where(rel == 0, 1, 3)),
                                          np.full(len(voc), 2)])
    quota = np.tile([proto.relevant_per_query, proto.irrelevant_per_query, 0, 0], len(lists))
    quota[2::4] = need
    count = np.bincount(seg, minlength=len(quota))
    picked = smallest_keys(_uniform(_streams(proto.seed, qids)[cand_list], ids[:-1]), seg, quota,
                           count)
    sizes = np.minimum(quota, count).reshape(-1, 4).sum(axis=1)     # what smallest_keys takes
    picked = padded(picked, sizes)
    return ids[picked], rows[picked], labels[picked], groups[picked], sizes


def ndcg_curve(labels: np.ndarray, order: np.ndarray) -> np.ndarray:
    """NDCG@1..m of lists ranked by ``order`` along the last axis, m its length
    (the whole ranking or a prefix of it); each list needs a positive label,
    and label-0 padding ranked last leaves it unchanged."""
    gains = np.zeros(np.shape(labels))
    nonzero = labels != 0           # most labels are 0, whose gain 2 ** 0 - 1 is 0
    gains[nonzero] = 2.0 ** labels[nonzero] - 1.0
    discounts = 1.0 / np.log2(2.0 + np.arange(order.shape[-1]))
    ideal = np.sort(gains, axis=-1)[..., ::-1][..., :order.shape[-1]]
    return (np.cumsum(along(gains, order) * discounts, axis=-1)
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
    per_block = max(1, _BLOCK_ENTRIES // max(1, proto.relevant_per_query
                                             + proto.irrelevant_per_query))
    ndcgs, gaps = [], []
    skipped = 0

    for start in range(0, d.num_queries, per_block):
        block = np.arange(start, min(start + per_block, d.num_queries))
        ids, feats, labels, groups, sizes = build_eval_list(d, block, proto)
        kept = sizes >= 2
        skipped += len(block) - np.count_nonzero(kept)
        if not kept.any():
            continue
        ids, feats, labels, groups, sizes = (a[kept] for a in (ids, feats, labels, groups, sizes))
        rows = d.query_index[block[kept]]
        filled = np.arange(ids.shape[1]) < sizes[:, None]
        scores = np.full(ids.shape, -np.inf)
        scores[filled] = model.score_many(np.repeat(rows, sizes), feats[filled])
        order = rank_order(scores, ids)[:, :ks.max()]      # no K reads further
        ranked = np.any(labels > 0, axis=1)
        ndcg = ndcg_curve(labels[ranked], order[ranked])
        ndcgs.append(along(ndcg, np.minimum(ks, sizes[ranked, None]) - 1))
        gap = topk_gaps(scores, groups, order)
        both = ~np.isnan(gap[:, 0])
        skipped += len(gap) - np.count_nonzero(both)
        gaps.append(along(gap[both], np.minimum(ks, sizes[both, None] - 1) - 1))

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
            json.dump(finite_or_null(self.rows), fh, indent=2)


def finite_or_null(value):
    """``value`` with NaN and +-Infinity, which are not JSON, made None (null)."""
    return json.loads(json.dumps(value), parse_constant=lambda _: None)


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
        model = init_model.clone()
        try:
            cfg = replace(base_cfg, fair_weight=float(c))
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
    every = model.score_many(d.query_row, d.feature_idx)
    for qg, start in zip(d.queries, d.offsets):
        if qg.num_items < 2:
            continue
        scores = every[start:start + qg.num_items]
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
