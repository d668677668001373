"""Dataset representation, CSV ingestion, synthetic data and minibatch sampling.

Items within a query belong to one of two disjoint groups: group A (the
protected / minority group, encoded 0 on disk) and group B (the majority
group, encoded 1).  Queries keep a fixed ``query_index`` row so that the
same scoring model can be shared by train / validation / test splits.

A ``Dataset`` is one set of read-only CSR arrays: every query's items
concatenated in query order, so that a (query, item) pair is one flat
position and query k owns positions ``offsets[k]:offsets[k+1]``.
``Dataset.query(k)`` shows query k as a ``QueryGroup`` of views, for the
per-query reference oracles.  A ``BatchSample`` holds flat positions: the
pair batch as one vector and each sampled query's sub-batches as one row
of a padded matrix (-1 marks an empty slot).
"""

from __future__ import annotations

import csv
from array import array
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


# item ids, their feature rows and their group tags, sorted by item id
Vocabulary = namedtuple("Vocabulary", "ids rows groups")


def ideal_dcg(labels: np.ndarray) -> float:
    """Max achievable DCG for a label multiset (the NDCG normalizer)."""
    gains = np.sort(2.0 ** np.asarray(labels, dtype=np.float64) - 1.0)[::-1]
    ranks = np.arange(1, len(gains) + 1)
    return float(np.sum(gains / np.log2(1.0 + ranks)))


def label_softmax(labels: np.ndarray) -> np.ndarray:
    """softmax(y) over one query's labels, the ListNet target distribution."""
    p = np.exp(labels - labels.max())
    return p / p.sum()


class Dataset:
    """Queries as read-only CSR arrays over a shared item vocabulary.

    Per query k: ``query_ids``, model row ``query_index``, size N_q
    (``sizes``), ``offsets``, the number of group-A items ``sizes_a``,
    ``has_both_groups`` and the NDCG normalizer ``ideal_dcg``.  Per flat
    position: ``item_ids``, ``feature_idx`` (rows of the model's item table),
    ``relevance``, ``groups``, the owning query's position ``query_of`` and
    model row ``query_row``, and the ListNet target ``label_softmax``
    (softmax of the query's labels).

    ``observed`` holds the sorted, distinct codes ``model row *
    len(vocab.ids) + vocabulary position`` of the (query, item) pairs known
    for each model row, every pair of the dataset among them, so that
    evaluation can sample genuinely unobserved items as negatives.  By
    default they are the dataset's own pairs; ``split`` parts share their
    source's.
    """

    def __init__(self, query_ids, query_index, sizes, item_ids, feature_idx, relevance,
                 groups, vocab: Vocabulary, num_query_rows: int,
                 observed: np.ndarray | None = None):
        self.query_ids = np.asarray(query_ids, dtype=str)
        self.query_index = np.asarray(query_index, dtype=np.int64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.item_ids = np.asarray(item_ids, dtype=np.int64)
        self.feature_idx = np.asarray(feature_idx, dtype=np.int64)
        self.relevance = np.asarray(relevance, dtype=np.float64)
        self.groups = np.asarray(groups, dtype=np.int8)
        self.vocab = vocab
        self.num_query_rows, self.num_item_rows = num_query_rows, len(vocab.ids)
        self.num_queries, self.total_pairs = len(self.sizes), len(self.item_ids)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)]).astype(np.int64)
        self.query_of = np.repeat(np.arange(self.num_queries), self.sizes)
        self.query_row = self.query_index[self.query_of]
        if observed is None:
            observed = np.sort(self.query_row * len(vocab.ids)
                               + np.searchsorted(vocab.ids, self.item_ids))
        self.observed = observed
        labels = [self.relevance[a:b] for a, b in zip(self.offsets[:-1], self.offsets[1:])]
        self.label_softmax = np.concatenate([label_softmax(y) for y in labels]
                                            + [self.relevance[:0]])
        self.ideal_dcg = np.array([ideal_dcg(y) for y in labels], dtype=np.float64)
        self.sizes_a = np.bincount(self.query_of[self.groups == GROUP_A],
                                   minlength=self.num_queries)
        self.has_both_groups = (self.sizes_a > 0) & (self.sizes_a < self.sizes)
        for a in (*vars(self).values(), *vocab):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    def query(self, k: int) -> QueryGroup:
        """Query k as a QueryGroup of read-only views."""
        s = slice(self.offsets[k], self.offsets[k + 1])
        return QueryGroup(str(self.query_ids[k]), int(self.query_index[k]), self.item_ids[s],
                          self.feature_idx[s], self.relevance[s], self.groups[s])

    @property
    def queries(self) -> list[QueryGroup]:
        """Every query as a view (``query``), built anew on each access."""
        return [self.query(k) for k in range(self.num_queries)]

    def take(self, positions: np.ndarray) -> "Dataset":
        """The pairs at ascending flat ``positions``, as a dataset of the queries
        that keep any; model rows, vocabulary and observed pairs are shared."""
        sizes = np.bincount(self.query_of[positions], minlength=self.num_queries)
        kept = sizes > 0
        return Dataset(self.query_ids[kept], self.query_index[kept], sizes[kept],
                       self.item_ids[positions], self.feature_idx[positions],
                       self.relevance[positions], self.groups[positions], self.vocab,
                       self.num_query_rows, self.observed)


def spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``starts[r]:starts[r] + lengths[r]``, concatenated."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def padded(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Consecutive runs of ``values``, ``sizes[r]`` long, as the rows of a
    matrix padded with -1."""
    filled = np.arange(sizes.max(initial=0)) < sizes[:, None]
    out = np.full(filled.shape, -1, dtype=np.int64)
    out[filled] = values
    return out


def along(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(values, order, axis=-1)`` for ``order`` of the same
    leading shape, as one take at flat positions: faster on many short rows."""
    lead = order.shape[:-1]
    rows = np.arange(int(np.prod(lead))).reshape(lead + (1,))
    return values.reshape(-1)[order + values.shape[-1] * rows]


def smallest_keys(keys: np.ndarray, seg: np.ndarray, n: np.ndarray,
                  size: np.ndarray) -> np.ndarray:
    """Indices of the ``n[s]`` smallest ``keys`` (in [0, 1)) of each segment s
    (``seg``: ints in [0, len(n))), ordered by segment, then key; ``size[s]``
    is the number of keys of segment s.  Keys equal in their first 32 bits
    keep the order of their indices.  With independent uniform keys, a
    uniform draw without replacement per segment (Efraimidis & Spirakis, IPL
    2006).  Only keys under a cut that leaves n[s] with overwhelming odds are
    sorted, and a segment the cut leaves short sorts all of its keys; one
    value sort of packed codes orders them (``_smallest_sorted``)."""
    n = np.minimum(n, size)
    if np.all(n + 4 * np.sqrt(n) + 8 >= size):      # every key is under the cut below
        return _smallest_sorted(seg, (keys * 2.0 ** 32).astype(np.int64), n, size)
    low = keys < ((n + 4 * np.sqrt(n) + 8) / np.maximum(size, 1))[seg]
    idx = np.flatnonzero(low)
    s = seg[idx]
    count = np.bincount(s, minlength=len(n))
    if np.any(count < n):
        idx = np.flatnonzero(low | (count < n)[seg])
        s, count = seg[idx], np.where(count < n, size, count)
    return idx[_smallest_sorted(s, (keys[idx] * 2.0 ** 32).astype(np.int64), n, count)]


def _smallest_sorted(seg: np.ndarray, key32: np.ndarray, n: np.ndarray,
                     count: np.ndarray) -> np.ndarray:
    """Positions of the ``n[s]`` smallest ``key32`` (ints in [0, 2**32)) of each
    segment s, ordered by segment, key, then position; ``count[s]``, at least
    ``n[s]``, is the number of keys of segment s.

    One value sort orders the int64 codes (segment, key, position), packed
    from the high bits down.  Segment and position share the 31 bits beside
    the key; when they need more, each half of the segments is sorted apart.
    """
    m = len(seg)
    pos_bits, seg_bits = max(m - 1, 0).bit_length(), max(len(n) - 1, 0).bit_length()
    if pos_bits + seg_bits > 31:
        if len(n) == 1:
            raise ConfigurationError(f"cannot order {m} keys of one segment in one sort")
        half = len(n) // 2
        lower, upper = np.flatnonzero(seg < half), np.flatnonzero(seg >= half)
        return np.concatenate([
            lower[_smallest_sorted(seg[lower], key32[lower], n[:half], count[:half])],
            upper[_smallest_sorted(seg[upper] - half, key32[upper], n[half:], count[half:])]])
    code = np.sort(seg.astype(np.int64) << (32 + pos_bits) | key32 << pos_bits | np.arange(m))
    return code[spans(np.cumsum(count) - count, n)] & ((1 << pos_bits) - 1)


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
    offsets: np.ndarray     # Dataset.offsets of the sampled dataset

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


def _build_dataset(names, query_of, item_ids, relevance, groups) -> Dataset:
    """Group (query, item_id, relevance, group) rows by query in the order of
    ``names``, row j's query being ``names[query_of[j]]``; item feature rows
    follow first appearance."""
    query_of = np.asarray(query_of, dtype=np.int64)
    item_ids, groups = np.asarray(item_ids, dtype=np.int64), np.asarray(groups, dtype=np.int8)
    ids, where, vocab_pos = np.unique(item_ids, return_index=True, return_inverse=True)
    pair = query_of * len(ids) + vocab_pos
    order = np.argsort(pair, kind="stable")
    repeated = order[1:][pair[order[1:]] == pair[order[:-1]]]
    if len(repeated):
        r = repeated.min()
        raise DuplicateItemError(f"duplicate (query, item) pair ({names[query_of[r]]}, "
                                 f"{item_ids[r]})")
    clash = np.flatnonzero(groups != groups[where][vocab_pos])
    if len(clash):
        r = clash[0]
        raise ParseError(f"item {item_ids[r]} is tagged group {groups[where[vocab_pos[r]]]} "
                         f"and, in query {names[query_of[r]]}, group {groups[r]}")
    rows = np.empty(len(ids), dtype=np.int64)
    rows[np.argsort(where)] = np.arange(len(ids))
    flat = np.argsort(query_of, kind="stable")
    return Dataset(names, np.arange(len(names)), np.bincount(query_of, minlength=len(names)),
                   item_ids[flat], rows[vocab_pos[flat]], np.asarray(relevance)[flat],
                   groups[flat], Vocabulary(ids, rows, groups[where]), len(names))


def _csv_rows(fh, path: str):
    """The rows of ``csv.reader(fh)``; bad UTF-8 or a csv error ends in ParseError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


def load_csv(path: str) -> Dataset:
    """Load ``query_id,item_id,relevance,group`` rows; header auto-detected.

    Group 0 is the protected group A, 1 the majority group B.  Each field
    goes into its column as its row is read, so memory follows the columns.
    """
    first: dict[str, int] = {}
    query_of, item_ids, relevance, groups = array("q"), array("q"), array("d"), array("b")
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, parts in enumerate(_csv_rows(fh, path), start=1):
            if not parts or (len(parts) == 1 and not parts[0].strip()):
                continue
            if lineno == 1 and len(parts) == 4:
                # a header if neither the item id nor the relevance is a number
                try:
                    float(parts[2])
                except ValueError:
                    if not parts[1].strip().lstrip("+-").isdecimal():
                        continue
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                iid = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer item id {parts[1]!r}")
            if not -2 ** 63 <= iid < 2 ** 63:
                raise ParseError(f"line {lineno}: item id {parts[1]!r} is outside int64")
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
            query_of.append(first.setdefault(parts[0].strip(), len(first)))
            item_ids.append(iid)
            relevance.append(rel)
            groups.append(int(grp))
    if not item_ids:
        raise EmptyDatasetError(f"{path}: no data rows")
    return _build_dataset(list(first), query_of, item_ids, relevance, groups)


def save_csv(d: Dataset, path: str) -> None:
    """Serialize back to the load_csv format (with header)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "item_id", "relevance", "group"])
        writer.writerows(zip(d.query_ids[d.query_of].tolist(), d.item_ids.tolist(),
                             (int(r) if r == int(r) else r for r in d.relevance.tolist()),
                             d.groups.tolist()))


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
    if not 0 <= bias < float("inf"):
        raise ConfigurationError("bias must be finite and >= 0")
    if num_queries < 1:
        raise ConfigurationError("num_queries must be >= 1")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")

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

    picked, rel = [], []
    for k in range(num_queries):
        picked_a = rng.choice(a_pool, size=per_query_a, replace=False)
        picked_b = rng.choice(b_pool, size=items_per_query - per_query_a, replace=False)
        picked.append(np.concatenate([picked_a, picked_b]))
        noise = rng.normal(0.0, 0.5, size=items_per_query)
        rel.append(np.clip(np.round(quality[picked[-1]] + noise), 0.0, 4.0))
    picked = np.concatenate(picked)
    return _build_dataset([f"q{k}" for k in range(num_queries)],
                          np.repeat(np.arange(num_queries), items_per_query),
                          picked, np.concatenate(rel), pool_groups[picked])


def split(d: Dataset, fractions: tuple[float, float, float],
          seed: int) -> tuple[Dataset, Dataset, Dataset, int]:
    """Per-query split of each item list into train / valid / test.

    Queries with fewer items than split parts go entirely to train; the
    returned counter reports how many queries were handled that way.  Each
    part keeps the items' order and shares ``d``'s vocabulary and observed
    pairs.
    """
    if len(fractions) != 3 or not all(f > 0 for f in fractions):
        raise ConfigurationError("fractions must be three positive numbers")
    if not abs(sum(fractions) - 1.0) <= 1e-9:
        raise ConfigurationError("fractions must sum to 1")
    if seed < 0:
        raise ConfigurationError(f"split seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    n = d.sizes
    exact = np.asarray(fractions, dtype=np.float64) * n[:, None]
    counts = exact.astype(np.int64)
    # largest remainders first, ties to the earlier part
    order = np.argsort(counts - exact, axis=1, kind="stable")
    counts[np.arange(len(n))[:, None], order] += np.arange(3) < (n - counts.sum(axis=1))[:, None]
    tiny = n < 3
    counts[tiny] = 0
    counts[tiny, 0] = n[tiny]
    # one permutation per query of 3+ items, in query order; the item at slot
    # s of a query's permutation goes to the part whose range of slots holds s
    local = np.concatenate([rng.permutation(k) if k >= 3 else np.arange(k)
                            for k in n.tolist()] + [n[:0]])
    start = d.offsets[d.query_of]
    ends = np.cumsum(counts, axis=1)[d.query_of, :2]
    part = np.empty(d.total_pairs, dtype=np.int64)
    part[start + local] = np.sum(np.arange(d.total_pairs)[:, None] - start[:, None] >= ends, axis=1)
    train, valid, test = (d.take(np.flatnonzero(part == j)) for j in range(3))
    return train, valid, test, int(tiny.sum())


def sample_batch(d: Dataset, sizes: tuple[int, int, int, int],
                 rng: np.random.Generator) -> BatchSample:
    """Draw the pair batch B and per-query sub-batches for one iteration.

    All draws are uniform without replacement; requested sizes are capped
    at the source sizes.  A generator state fixes the batch: one call draws
    the pair batch, then one call gives every item of the sampled queries
    two uniform keys for ``smallest_keys``: one per query, one per query and
    group.  A query missing a group draws nothing for it and is marked
    ``skipped``.
    """
    n_pairs, n_q, n_a, n_b = sizes
    if min(sizes) < 1:
        raise ConfigurationError("batch sizes must be >= 1")
    total = d.total_pairs
    if total == 0:
        raise EmptyDatasetError("cannot sample from an empty dataset")
    pairs = rng.choice(total, size=min(n_pairs, total), replace=False)
    queries, pair_row = np.unique(d.query_of[pairs], return_inverse=True)
    counts, counts_a = d.sizes[queries], d.sizes_a[queries]
    pos = spans(d.offsets[queries], counts)
    row = np.repeat(np.arange(len(queries)), counts)
    keys = rng.random(2 * len(pos))
    items = pos[smallest_keys(keys[:len(pos)], row, np.full(len(queries), n_q), counts)]
    seg = 2 * row + d.groups[pos]        # GROUP_A even, GROUP_B odd
    picked = smallest_keys(keys[len(pos):], seg, np.tile([n_a, n_b], len(queries)),
                           np.stack([counts_a, counts - counts_a], axis=1).ravel())
    in_a = seg[picked] % 2 == GROUP_A
    group_a = padded(pos[picked[in_a]], np.minimum(counts_a, n_a))
    group_b = padded(pos[picked[~in_a]], np.minimum(counts - counts_a, n_b))
    return BatchSample(pairs=pairs, pair_row=pair_row.reshape(-1), queries=queries,
                       items=padded(items, np.minimum(counts, n_q)), group_a=group_a,
                       group_b=group_b, skipped=~d.has_both_groups[queries],
                       offsets=d.offsets)
