"""Dataset representation, CSV ingestion, synthetic data and minibatch sampling.

Items within a query belong to one of two disjoint groups: group A (the
protected / minority group, encoded 0 on disk) and group B (the majority
group, encoded 1).  Queries keep a fixed ``query_index`` row so that the
same scoring model can be shared by train / validation / test splits.

Training works on a flat (CSR) view of a dataset, ``Dataset.flat``: every
query's items concatenated in query order, so that a (query, item) pair is
one flat position and query k owns positions ``offsets[k]:offsets[k+1]``.
A ``BatchSample`` holds flat positions: the pair batch as one vector and
each sampled query's sub-batches as one row of a padded matrix (-1 marks
an empty slot).
"""

from __future__ import annotations

import csv
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigurationError,
    DuplicateItemError,
    EmptyDatasetError,
    ParseError,
)

GROUP_A = 0
GROUP_B = 1


@dataclass
class QueryGroup:
    """Per-query item list with relevance labels and group tags."""

    query_id: str
    query_index: int
    item_ids: np.ndarray      # int64, dataset-level item identifiers
    feature_idx: np.ndarray   # int64, rows of the model's item table
    relevance: np.ndarray     # float64, y >= 0
    groups: np.ndarray        # int8, GROUP_A or GROUP_B

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    def has_both_groups(self) -> bool:
        return bool(np.any(self.groups == GROUP_A) and np.any(self.groups == GROUP_B))


# item ids, their feature rows and their group tags
Vocabulary = namedtuple("Vocabulary", "ids rows groups")


@dataclass
class Dataset:
    """A collection of queries plus the item vocabulary shared across them."""

    queries: list[QueryGroup]
    item_index: dict[int, int]        # item_id -> feature row
    item_groups: dict[int, int]       # item_id -> group tag
    num_query_rows: int
    num_item_rows: int
    # item ids observed for each query in the *source* dataset; set by split()
    # so evaluation can sample genuinely unobserved items as negatives.
    observed: dict[str, frozenset] | None = None

    @property
    def num_queries(self) -> int:
        return len(self.queries)

    @property
    def total_pairs(self) -> int:
        return sum(q.num_items for q in self.queries)

    @cached_property
    def flat(self) -> "FlatView":
        """The CSR view of ``queries``, built on first use and cached."""
        return FlatView(self.queries)

    @cached_property
    def vocab(self) -> Vocabulary:
        """The item vocabulary as arrays sorted by item id, built on first use
        and cached."""
        ids = sorted(self.item_index)
        return Vocabulary(np.array(ids, dtype=np.int64),
                          np.array([self.item_index[i] for i in ids], dtype=np.int64),
                          np.array([self.item_groups[i] for i in ids], dtype=np.int8))

    @cached_property
    def unobserved(self) -> dict[str, np.ndarray]:
        """Per query id, the ascending positions in ``vocab`` of the items never
        observed for it (``observed``, else its own list).  Cached like ``flat``
        and ``vocab``, so none of the three follows later changes to the fields."""
        observed = self.observed or {}
        seen = [np.fromiter(observed.get(q.query_id, q.item_ids), np.int64) for q in self.queries]
        ids = self.vocab.ids
        owner = np.repeat(np.arange(len(seen)), [len(s) for s in seen])
        seen = np.concatenate(seen + [ids[:0]])
        pos = np.minimum(np.searchsorted(ids, seen), len(ids) - 1)
        known = ids[pos] == seen        # ids outside the vocabulary mark nothing
        free = np.ones((len(self.queries), len(ids)), dtype=bool)
        free[owner[known], pos[known]] = False
        return {q.query_id: np.flatnonzero(row) for q, row in zip(self.queries, free)}


def ideal_dcg(labels: np.ndarray) -> float:
    """Max achievable DCG for a label multiset (the NDCG normalizer)."""
    gains = np.sort(2.0 ** np.asarray(labels, dtype=np.float64) - 1.0)[::-1]
    ranks = np.arange(1, len(gains) + 1)
    return float(np.sum(gains / np.log2(1.0 + ranks)))


def label_softmax(labels: np.ndarray) -> np.ndarray:
    """softmax(y) over one query's labels, the ListNet target distribution."""
    p = np.exp(labels - labels.max())
    return p / p.sum()


class FlatView:
    """All queries' item lists concatenated in query order.

    Per flat position: the owning query's position (``query_of``) and model
    row (``query_row``), and the item's feature row, relevance and ListNet
    target (the softmax of the labels within its query).  Per query: its
    offset, its size N_q, the flat positions of its group-A and group-B
    items, whether it has both groups, and its NDCG normalizer.
    """

    def __init__(self, queries: list[QueryGroup]):
        self.sizes = np.array([q.num_items for q in queries], dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)]).astype(np.int64)
        self.query_of = np.repeat(np.arange(len(queries), dtype=np.int64), self.sizes)
        self.query_row = np.array([q.query_index for q in queries])[self.query_of]
        empty = [np.zeros(0, dtype=np.int64)]
        self.feature_idx = np.concatenate([q.feature_idx for q in queries] or empty)
        self.relevance = np.concatenate([q.relevance for q in queries] or empty)
        self.label_softmax = np.concatenate([label_softmax(q.relevance) for q in queries] or empty)
        self.group_a, self.group_b = (
            [off + np.flatnonzero(q.groups == group) for off, q in zip(self.offsets, queries)]
            for group in (GROUP_A, GROUP_B))
        self.has_both_groups = np.array([q.has_both_groups() for q in queries], dtype=bool)
        self.ideal_dcg = np.array([ideal_dcg(q.relevance) for q in queries], dtype=np.float64)


# one query's sub-batches as positions into its QueryGroup arrays
QuerySubBatch = namedtuple("QuerySubBatch", "items group_a group_b fairness_skipped")


@dataclass
class BatchSample:
    """One Algorithm-level draw: the pair batch plus per-query sub-batches.

    ``queries`` lists the distinct queries of the pair batch in ascending
    order.  Row r of ``items``, ``group_a`` and ``group_b`` holds the flat
    positions drawn for ``queries[r]``, padded with -1; ``skipped[r]``
    marks a query missing a group, which gets no fairness term.
    """

    pairs: np.ndarray       # flat positions of the pair batch
    pair_row: np.ndarray    # row of each pair's query
    queries: np.ndarray
    items: np.ndarray
    group_a: np.ndarray
    group_b: np.ndarray
    skipped: np.ndarray
    offsets: np.ndarray     # FlatView.offsets of the sampled dataset

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    @cached_property
    def per_query(self) -> dict[int, QuerySubBatch]:
        """Per-query view of the sub-batches, keyed by query position; built
        on first access from the padded arrays, never used in training."""
        out = {}
        for r, q in enumerate(self.queries.tolist()):
            local = [row[row >= 0] - self.offsets[q]
                     for row in (self.items[r], self.group_a[r], self.group_b[r])]
            out[q] = QuerySubBatch(*local, fairness_skipped=bool(self.skipped[r]))
        return out


def _build_dataset(rows: list[tuple[str, int, float, int]]) -> Dataset:
    """Group (query_id, item_id, relevance, group) rows in first-appearance order."""
    by_query: dict[str, list[tuple[int, float, int]]] = {}
    order: list[str] = []
    item_index: dict[int, int] = {}
    item_groups: dict[int, int] = {}
    seen: set[tuple[str, int]] = set()
    for qid, iid, rel, grp in rows:
        if (qid, iid) in seen:
            raise DuplicateItemError(f"duplicate (query, item) pair ({qid}, {iid})")
        seen.add((qid, iid))
        if qid not in by_query:
            by_query[qid] = []
            order.append(qid)
        by_query[qid].append((iid, rel, grp))
        if iid not in item_index:
            item_index[iid] = len(item_index)
        if item_groups.setdefault(iid, grp) != grp:
            raise ParseError(f"item {iid} is tagged group {item_groups[iid]} and, "
                             f"in query {qid}, group {grp}")

    queries = []
    for k, qid in enumerate(order):
        entries = by_query[qid]
        queries.append(QueryGroup(
            query_id=qid,
            query_index=k,
            item_ids=np.array([e[0] for e in entries], dtype=np.int64),
            feature_idx=np.array([item_index[e[0]] for e in entries], dtype=np.int64),
            relevance=np.array([e[1] for e in entries], dtype=np.float64),
            groups=np.array([e[2] for e in entries], dtype=np.int8),
        ))
    return Dataset(
        queries=queries,
        item_index=item_index,
        item_groups=item_groups,
        num_query_rows=len(queries),
        num_item_rows=len(item_index),
    )


def load_csv(path: str) -> Dataset:
    """Load ``query_id,item_id,relevance,group`` rows; header auto-detected.

    Group 0 is the protected group A, 1 the majority group B.
    """
    rows: list[tuple[str, int, float, int]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, parts in enumerate(reader, start=1):
            if not parts or (len(parts) == 1 and not parts[0].strip()):
                continue
            if lineno == 1 and len(parts) == 4:
                # header if the relevance column is not numeric
                try:
                    float(parts[2])
                except ValueError:
                    continue
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: expected 4 fields, got {len(parts)}")
            qid = parts[0].strip()
            try:
                iid = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer item id {parts[1]!r}")
            try:
                rel = float(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric relevance {parts[2]!r}")
            if not 0 <= rel < float("inf"):
                raise ParseError(f"line {lineno}: relevance must be finite and >= 0, "
                                 f"got {parts[2]!r}")
            grp = parts[3].strip()
            if grp not in ("0", "1"):
                raise ParseError(f"line {lineno}: group must be 0 or 1, got {grp!r}")
            rows.append((qid, iid, rel, int(grp)))
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    return _build_dataset(rows)


def save_csv(d: Dataset, path: str) -> None:
    """Serialize back to the load_csv format (with header)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "item_id", "relevance", "group"])
        for q in d.queries:
            for iid, rel, grp in zip(q.item_ids, q.relevance, q.groups):
                rel = float(rel)
                writer.writerow([q.query_id, int(iid), int(rel) if rel == int(rel) else rel, int(grp)])


def generate_synthetic(num_queries: int, items_per_query: int,
                       minority_fraction: float, bias: float,
                       seed: int) -> Dataset:
    """Synthetic biased data with a shared item pool.

    A pool of ``2 * items_per_query`` items is created; each item has a
    latent quality drawn from N(0, 1), shifted down by ``bias`` for the
    minority group A.  Each query rates ``items_per_query`` items sampled
    from the pool (stratified so both groups are present), with relevance
    a noisy rounding of quality clipped to the 0..4 rating scale.  Sharing
    items across queries lets a per-item model generalize across per-query
    splits, mirroring the recommender setting.
    """
    if items_per_query < 4:
        raise ConfigurationError("items_per_query must be >= 4")
    if not (0.0 < minority_fraction < 1.0):
        raise ConfigurationError("minority_fraction must be in (0, 1)")
    if bias < 0:
        raise ConfigurationError("bias must be >= 0")
    if num_queries < 1:
        raise ConfigurationError("num_queries must be >= 1")

    rng = np.random.default_rng(seed)
    pool_size = 2 * items_per_query
    n_a = max(1, int(round(minority_fraction * pool_size)))
    n_a = min(n_a, pool_size - 1)
    pool_groups = np.array([GROUP_A] * n_a + [GROUP_B] * (pool_size - n_a), dtype=np.int8)
    quality = rng.standard_normal(pool_size)
    quality[pool_groups == GROUP_A] -= bias

    per_query_a = max(1, int(round(minority_fraction * items_per_query)))
    per_query_a = min(per_query_a, items_per_query - 1)
    a_pool = np.flatnonzero(pool_groups == GROUP_A)
    b_pool = np.flatnonzero(pool_groups == GROUP_B)
    if per_query_a > len(a_pool) or items_per_query - per_query_a > len(b_pool):
        raise ConfigurationError("minority_fraction incompatible with items_per_query")

    rows: list[tuple[str, int, float, int]] = []
    for k in range(num_queries):
        picked_a = rng.choice(a_pool, size=per_query_a, replace=False)
        picked_b = rng.choice(b_pool, size=items_per_query - per_query_a, replace=False)
        picked = np.concatenate([picked_a, picked_b])
        noise = rng.normal(0.0, 0.5, size=len(picked))
        rel = np.clip(np.round(quality[picked] + noise), 0.0, 4.0)
        for iid, r in zip(picked, rel):
            rows.append((f"q{k}", int(iid), float(r), int(pool_groups[iid])))
    return _build_dataset(rows)


def split(d: Dataset, fractions: tuple[float, float, float],
          seed: int) -> tuple[Dataset, Dataset, Dataset, int]:
    """Per-query split of each item list into train / valid / test.

    Queries with fewer items than split parts go entirely to train; the
    returned counter reports how many queries were handled that way.
    """
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ConfigurationError("fractions must be three positive numbers")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigurationError("fractions must sum to 1")

    rng = np.random.default_rng(seed)
    parts: list[list[QueryGroup]] = [[], [], []]
    tiny_queries = 0
    observed = {q.query_id: frozenset(int(i) for i in q.item_ids) for q in d.queries}

    for q in d.queries:
        n = q.num_items
        if n < 3:
            tiny_queries += 1
            counts = [n, 0, 0]
            perm = np.arange(n)
        else:
            perm = rng.permutation(n)
            counts = [int(f * n) for f in fractions]
            remainders = [f * n - c for f, c in zip(fractions, counts)]
            while sum(counts) < n:
                j = int(np.argmax(remainders))
                counts[j] += 1
                remainders[j] = -1.0
        start = 0
        for part, c in zip(parts, counts):
            sel = np.sort(perm[start:start + c])
            start += c
            if c == 0:
                continue
            part.append(QueryGroup(
                query_id=q.query_id,
                query_index=q.query_index,
                item_ids=q.item_ids[sel],
                feature_idx=q.feature_idx[sel],
                relevance=q.relevance[sel],
                groups=q.groups[sel],
            ))

    out = []
    for part in parts:
        out.append(Dataset(
            queries=part,
            item_index=d.item_index,
            item_groups=d.item_groups,
            num_query_rows=d.num_query_rows,
            num_item_rows=d.num_item_rows,
            observed=observed,
        ))
    return out[0], out[1], out[2], tiny_queries


def sample_batch(d: Dataset, sizes: tuple[int, int, int, int],
                 rng: np.random.Generator) -> BatchSample:
    """Draw the pair batch B and per-query sub-batches for one iteration.

    All draws are uniform without replacement; requested sizes are capped
    at the source sizes.  The draws come in a fixed order, so a generator
    state fixes the batch: the pair batch first, then for each sampled
    query in ascending order its items, its group-A and its group-B items.
    A query missing a group draws nothing for it and is marked ``skipped``.
    """
    n_pairs, n_q, n_a, n_b = sizes
    if min(sizes) < 1:
        raise ConfigurationError("batch sizes must be >= 1")
    view = d.flat
    total = len(view.query_of)
    if total == 0:
        raise EmptyDatasetError("cannot sample from an empty dataset")
    pairs = rng.choice(total, size=min(n_pairs, total), replace=False)
    queries, pair_row = np.unique(view.query_of[pairs], return_inverse=True)

    widest = int(view.sizes.max())
    items, group_a, group_b = (np.full((len(queries), min(n, widest)), -1, dtype=np.int64)
                               for n in (n_q, n_a, n_b))
    offsets = view.offsets.tolist()
    for r, q in enumerate(queries.tolist()):
        n = offsets[q + 1] - offsets[q]
        take = min(n_q, n)
        items[r, :take] = offsets[q] + rng.choice(n, size=take, replace=False)
        for out, pool, cap in ((group_a, view.group_a[q], n_a),
                               (group_b, view.group_b[q], n_b)):
            if len(pool):
                take = min(cap, len(pool))
                out[r, :take] = pool[rng.choice(len(pool), size=take, replace=False)]
    return BatchSample(pairs=pairs, pair_row=pair_row.reshape(-1), queries=queries,
                       items=items, group_a=group_a, group_b=group_b,
                       skipped=~view.has_both_groups[queries], offsets=view.offsets)
