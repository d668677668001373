"""Exact evaluation metrics, the sampled evaluation protocol and the
ranking-strip export.

Evaluation lists mix a handful of relevant items with a large pool of
irrelevant ones per query: zero-relevance items from the query's own list
first, then items never observed for that query (``Dataset.observed``;
relevance imputed 0, group from the item table).  Draws are counter-based
hashes keyed by (seed, query id), so a list depends only on the seed, its
query id and its candidate item ids.  Blocks of about ``_BLOCK_ENTRIES``
list entries are drawn anew on every call, scored and ranked as padded
matrices as wide as the longest list can be (``build_eval_list``), so that
no figure depends on the lists a block holds.  Empty slots score -inf with
label 0 and no group, so they rank last and add nothing to any exposure or
prefix sum.  NDCG@K and the signed top-K gap for every K are row-wise prefix
sums along the first max(K) places of the ranking.  MAE / MSE aggregate the
gaps over queries, skipping queries where a group is absent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .data import (_BLOCK_ENTRIES, GROUP_A, Dataset, along, padded, padded_blocks,
                   smallest_keys, spans)
from .errors import ConfigurationError, FairTopKError
from .fairness import disparity_mae_mse, rank_order, topk_gaps
from .lambda_solver import k_per_query
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
        if len(set(self.k_list)) < len(self.k_list):
            raise ConfigurationError(f"k_list repeats a k: {self.k_list}")


def _streams(seed: int, query_ids: list[str], tag: str = "") -> np.ndarray:
    """One 64-bit stream per query id: blake2b of (seed, id, ``tag``)."""
    return np.array([int.from_bytes(hashlib.blake2b(f"{seed}/{q}{tag}".encode(),
                                                    digest_size=8).digest(), "little")
                     for q in query_ids], dtype=np.uint64)


def _uniform(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A uniform [0, 1) key for counter ``x`` in stream ``z``: splitmix64 of
    the stream offset by x, a counter-based draw (Salmon et al., SC 2011)."""
    x = x.astype(np.uint64)
    x *= np.uint64(0x9E3779B97F4A7C15)
    z = z + x           # in place from here: each step consumes the last
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z * 2.0 ** -53


def build_eval_list(d: Dataset, queries: np.ndarray, proto: EvalProtocol):
    """The sampled lists of the queries at positions ``queries``: left-aligned
    (lists, min(relevant + irrelevant, vocabulary size)) item ids, feature
    rows, labels and int8 groups, padded with 0, 0, 0 and -1; sizes.

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
        # p_j its observed positions in ascending order.  One sorted array serves all
        # drawn lists: the i-th list's p_j - j and a are shifted by i * (width + 1),
        # and the entries of the lists before it are taken off the count
        n_seen = hi[drawn] - lo[drawn]
        seen = spans(lo[drawn], n_seen)
        below = d.observed[seen] - seen - np.repeat(
            base[drawn] - lo[drawn] - np.arange(len(drawn)) * (width + 1), n_seen)
        row = np.nonzero(taken)[0]
        a = at[taken] + row * (width + 1)
        voc.append(at[taken] + np.searchsorted(below, a, side="right")
                   - (np.cumsum(n_seen) - n_seen)[row])
    voc = np.concatenate(voc)
    cand_list = np.concatenate([own_list, np.repeat(whole, pool[whole]),
                                np.repeat(drawn, need[drawn])])
    # candidates: own items, then vocabulary positions ``voc``; the last entry fills
    ids, rows, labels, groups = (np.concatenate([own_v, voc_v, [fill]]) for own_v, voc_v, fill in (
        (d.item_ids[own], vocab.ids[voc], 0), (d.feature_idx[own], vocab.rows[voc], 0),
        (rel, np.zeros(len(voc)), 0.0), (d.groups[own], vocab.groups[voc], np.int8(-1))))
    # segment 4r: list r's relevant items, 4r + 1 own zeros, + 2 unobserved, + 3 the rest
    seg = 4 * cand_list + np.concatenate([np.where(rel > 0, 0, np.where(rel == 0, 1, 3)),
                                          np.full(len(voc), 2)])
    quota = np.tile([proto.relevant_per_query, proto.irrelevant_per_query, 0, 0], len(lists))
    quota[2::4] = need
    count = np.bincount(seg, minlength=len(quota))
    picked = smallest_keys(_uniform(_streams(proto.seed, qids)[cand_list], ids[:-1]), seg, quota,
                           count)
    sizes = np.minimum(quota, count).reshape(-1, 4).sum(axis=1)     # what smallest_keys takes
    picked = padded(picked, sizes,      # as wide as the longest list can be
                    min(proto.relevant_per_query + proto.irrelevant_per_query, width))
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


def _evaluate_block(model: FactorizationScorer, d: Dataset, block: np.ndarray,
                    proto: EvalProtocol, ks: np.ndarray):
    """NDCG rows, gap rows and skip count of the queries at positions ``block``;
    its lists and their scores are freed when it returns."""
    ids, feats, labels, groups, sizes = build_eval_list(d, block, proto)
    kept = sizes >= 2
    skipped = len(block) - np.count_nonzero(kept)
    if not kept.any():
        return np.zeros((0, len(ks))), np.zeros((0, len(ks))), skipped
    ids, feats, labels, groups, sizes = (a[kept] for a in (ids, feats, labels, groups, sizes))
    rows = d.query_index[block[kept]]
    # one query embedding per list; empty slots hold feature row 0, then score -inf
    scores = model.score_many(rows[:, None], feats)
    scores[np.arange(ids.shape[1]) >= sizes[:, None]] = -np.inf
    order = rank_order(scores, ids)[:, :ks.max()]      # no K reads further
    ranked = np.any(labels > 0, axis=1)
    ndcg = ndcg_curve(labels[ranked], order[ranked])
    gap = topk_gaps(scores, groups, order)
    both = ~np.isnan(gap[:, 0])
    return (along(ndcg, np.minimum(ks, sizes[ranked, None]) - 1),
            along(gap[both], k_per_query(ks, sizes[both, None]) - 1),
            skipped + len(gap) - np.count_nonzero(both))


def evaluate(model: FactorizationScorer, d: Dataset, proto: EvalProtocol) -> dict:
    """Per-K report: NDCG mean/std, disparity MAE/MSE, skip counts.

    NDCG@K is truncated at the list length and the top-K gap at one less,
    K_q = min(K, N_q - 1) as in training, so that it never covers a whole list.
    """
    if d.num_queries == 0:
        raise FairTopKError("cannot evaluate an empty dataset")
    ks = np.array(proto.k_list, dtype=np.int64)
    per_block = max(1, _BLOCK_ENTRIES // max(1, proto.relevant_per_query
                                             + proto.irrelevant_per_query))
    blocks = np.split(np.arange(d.num_queries), range(per_block, d.num_queries, per_block))
    ndcgs, gaps, skipped = zip(*(_evaluate_block(model, d, b, proto, ks) for b in blocks))
    ndcgs, gaps, skipped = np.concatenate(ndcgs), np.concatenate(gaps), sum(skipped)
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
                          k: int, csv_path: str, ppm_path: str) -> int:
    """Group-membership strips of the most unfair rankings; returns the rows written.

    One row per selected query of 2 or more items (descending exact top-K
    disparity, queries missing a group last, ties by query position), one
    column per rank position; cells are 'A' / 'B' in the CSV and red / green
    pixels in the binary PPM, whose rows are right-padded with black pixels.
    """
    if not 1 <= num_queries <= d.num_queries:
        raise ConfigurationError(f"num_queries must be in [1, {d.num_queries}]")
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    every = model.score_many(d.query_row, d.feature_idx)
    queries, gaps, cells = [np.zeros(0, np.int64)], [np.zeros(0)], [np.zeros(0, np.int8)]
    for block, at in padded_blocks(d, np.flatnonzero(d.sizes >= 2)):
        scores, groups = np.where(at >= 0, every[at], -np.inf), np.where(at >= 0, d.groups[at], -1)
        order = rank_order(scores, d.item_ids[at])
        gap = along(topk_gaps(scores, groups, order), k_per_query(k, d.sizes[block, None]) - 1)
        ranked = along(groups, order)       # padding ranks last
        queries.append(block)
        gaps.append(np.nan_to_num(np.abs(gap[:, 0]), nan=-1.0))
        cells.append(ranked[ranked >= 0])
    queries, gaps, cells = (np.concatenate(x) for x in (queries, gaps, cells))
    sizes = d.sizes[queries]
    top = np.lexsort((queries, -gaps))[:num_queries]
    strips = padded(cells[spans((np.cumsum(sizes) - sizes)[top], sizes[top])], sizes[top])
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(np.where(row[row >= 0] == GROUP_A, "A", "B")) + "\n"
                      for row in strips)
    with open(ppm_path, "wb") as fh:
        fh.write(f"P6\n{strips.shape[1]} {len(strips)}\n255\n".encode())
        # group codes as pixels: GROUP_A (0) red, GROUP_B (1) green, padding (-1) black
        fh.write(np.array([[220, 40, 40], [40, 180, 60], [0, 0, 0]], np.uint8)[strips].tobytes())
    return len(strips)
