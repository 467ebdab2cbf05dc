"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.arrays.associative import AssociativeArray
from repro.graphs.digraph import EdgeKeyedDigraph
from repro.values.semiring import get_op_pair

# Exotic pairs register on import (also re-exported via tests.helpers).
import repro.values.exotic  # noqa: F401


@pytest.fixture
def plus_times():
    return get_op_pair("plus_times")


@pytest.fixture
def min_plus():
    return get_op_pair("min_plus")


@pytest.fixture
def small_graph():
    """Two parallel edges a→b, an edge b→c, and a self-loop at c."""
    return EdgeKeyedDigraph([
        ("e1", "a", "b"),
        ("e2", "a", "b"),
        ("e3", "b", "c"),
        ("e4", "c", "c"),
    ])


@pytest.fixture
def tiny_array():
    """2×3 array: [[1, 2, 0], [0, 0, 3]] over rows r1,r2 / cols c1..c3."""
    return AssociativeArray(
        {("r1", "c1"): 1, ("r1", "c2"): 2, ("r2", "c3"): 3},
        row_keys=["r1", "r2"],
        col_keys=["c1", "c2", "c3"],
    )
