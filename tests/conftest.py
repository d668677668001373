"""Shared fixtures: small datasets and models used across the suite."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from fairtopk.data import GROUP_A, GROUP_B, Dataset, Vocabulary, generate_synthetic
from fairtopk.fairness import exposures, rank_order, topk_gaps
from fairtopk.model import FactorizationScorer
from fairtopk.optimizer import TrainerState


@dataclass(frozen=True)
class Query:
    """One hand-built query: its id, model row and per-item arrays."""

    query_id: str
    query_index: int
    item_ids: np.ndarray
    feature_idx: np.ndarray
    relevance: np.ndarray
    groups: np.ndarray


def queries_of(d):
    """Every query of ``d`` as a Query of views of its flat arrays."""
    return [Query(str(d.query_ids[k]), int(d.query_index[k]),
                  *(a[d.offsets[k]:d.offsets[k + 1]]
                    for a in (d.item_ids, d.feature_idx, d.relevance, d.groups)))
            for k in range(d.num_queries)]


def make_dataset(queries, vocab=None, num_query_rows=None, observed=None):
    """A Dataset of Query records, in their order, over ``vocab``
    (default: their own items).  ``observed`` maps a query id to item ids
    known for it besides its own; ids outside the vocabulary are ignored."""
    def cat(name, dtype):
        return np.concatenate([getattr(q, name) for q in queries] + [np.zeros(0, dtype)])

    item_ids, feature_idx, groups = (cat("item_ids", np.int64), cat("feature_idx", np.int64),
                                     cat("groups", np.int8))
    if vocab is None:
        ids, first = np.unique(item_ids, return_index=True)
        vocab = Vocabulary(ids, feature_idx[first], groups[first])
    rows = np.array([q.query_index for q in queries], dtype=np.int64)
    codes = None
    if observed is not None:
        seen = [np.append(q.item_ids, list(observed.get(q.query_id, ()))) for q in queries]
        ids = np.concatenate(seen + [np.zeros(0, np.int64)]).astype(np.int64)
        pos = np.searchsorted(vocab.ids, ids)
        known = vocab.ids[np.minimum(pos, len(vocab.ids) - 1)] == ids
        row = np.repeat(rows, [len(s) for s in seen])
        codes = np.unique(row[known] * len(vocab.ids) + pos[known])
    return Dataset([q.query_id for q in queries], rows, [len(q.item_ids) for q in queries],
                   item_ids, feature_idx, cat("relevance", np.float64), groups, vocab,
                   int(rows.max(initial=-1)) + 1 if num_query_rows is None else num_query_rows,
                   codes)


def ideal_dcg(labels):
    """Max achievable DCG for one query's labels, the reference NDCG normalizer."""
    gains = np.sort(2.0 ** np.asarray(labels, dtype=np.float64) - 1.0)[::-1]
    ranks = np.arange(1, len(gains) + 1)
    return float(np.sum(gains / np.log2(1.0 + ranks)))


def scored_list(item_bias, groups):
    """The scores of a one-query model whose item biases are the given values,
    the list's group tags, and its exact signed top-k gaps for k = 1..n, items
    ranked by score, ties by position."""
    n = len(item_bias)
    m = FactorizationScorer(1, n, 2, bound=50.0)
    m.params.values[:] = 0.0
    m.item_bias[:] = np.arctanh(np.asarray(item_bias) / 50.0)
    scores, groups = m.score_many(0, np.arange(n)), np.asarray(groups, dtype=np.int8)
    return scores, groups, topk_gaps(scores, groups, rank_order(scores, np.arange(n)))


def full_list_disparity(scores, groups):
    """Half the squared gap between the group-averaged exposures of one list
    of both groups, the reference full-list disparity."""
    e = exposures(scores)
    return 0.5 * float(e[groups == GROUP_A].mean() - e[groups == GROUP_B].mean()) ** 2


def label_softmax(labels):
    """softmax(y) over one query's labels, the reference ListNet target."""
    p = np.exp(labels - labels.max())
    return p / p.sum()


def write_wide_vocabulary_csv(path):
    """A CSV of 2,000 queries of 20 items over a 20,000-item vocabulary: ten
    items of each query are its own, ten drawn from the rest.  Returns the path."""
    rng = np.random.default_rng(0)
    rows = []
    for k in range(2000):
        others = rng.choice(19_990, 10, replace=False)
        ids = np.append(np.arange(10 * k, 10 * k + 10), others + 10 * (others >= 10 * k))
        rows += [f"q{k},{i},{r},{i % 2}" for i, r in zip(ids, rng.integers(0, 5, 20))]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def bound_state(cfg, model, d):
    """A fresh TrainerState for ``model``, bound to ``d``."""
    state = TrainerState.fresh(cfg, len(model.params.values))
    state.bind(d)
    return state


@pytest.fixture
def small_data():
    return generate_synthetic(4, 8, 0.4, 1.0, seed=3)


@pytest.fixture
def small_model(small_data):
    return FactorizationScorer(small_data.num_query_rows,
                               small_data.num_item_rows, 3, seed=3)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class CountingGenerator:
    """A numpy Generator that counts the method calls made on it."""

    def __init__(self, *args, **kwargs):
        self.rng, self.calls = np.random.Generator(np.random.PCG64(*args, **kwargs)), 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


@pytest.fixture
def counting_rng():
    """Builds a CountingGenerator from default_rng's arguments."""
    return CountingGenerator


@pytest.fixture
def strict_json():
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return lambda text: json.loads(text, parse_constant=refuse)
