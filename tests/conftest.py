"""Shared fixtures: small datasets and models used across the suite."""

import json

import numpy as np
import pytest

from fairtopk.data import generate_synthetic
from fairtopk.model import FactorizationScorer


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
