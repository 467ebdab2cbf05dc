"""Tests for row/column reductions."""

from __future__ import annotations

import math

import pytest

from repro.arrays.associative import AssociativeArray
from repro.arrays.reductions import (
    col_counts,
    reduce_cols,
    reduce_rows,
    row_counts,
    scale_cols,
    scale_rows,
    total_reduce,
)
from repro.values.operations import MAX_ZERO, MIN, PLUS, TIMES
from repro.values.exotic import SKEW_PLUS


@pytest.fixture
def arr():
    return AssociativeArray(
        {("r1", "c1"): 1, ("r1", "c2"): 2, ("r2", "c2"): 3,
         ("r2", "c3"): 4},
        row_keys=["r1", "r2", "r3"], col_keys=["c1", "c2", "c3"])


class TestReduce:
    def test_reduce_rows_plus(self, arr):
        assert reduce_rows(arr, PLUS) == {"r1": 3, "r2": 7}

    def test_reduce_rows_max(self, arr):
        assert reduce_rows(arr, MAX_ZERO) == {"r1": 2, "r2": 4}

    def test_reduce_cols_plus(self, arr):
        assert reduce_cols(arr, PLUS) == {"c1": 1, "c2": 5, "c3": 4}

    def test_empty_rows_omitted(self, arr):
        assert "r3" not in reduce_rows(arr, PLUS)

    def test_reduce_rows_fold_order_key_sorted(self):
        # Non-associative ⊕̃: fold must run in column-key order.
        a = AssociativeArray({("r", "c2"): 2, ("r", "c1"): 1,
                              ("r", "c3"): 3},
                             row_keys=["r"], col_keys=["c1", "c2", "c3"])
        got = reduce_rows(a, SKEW_PLUS)[("r")]
        want = SKEW_PLUS(SKEW_PLUS(1, 2), 3)
        assert got == want

    @pytest.mark.parametrize("backend", ["dict", "numeric"])
    @pytest.mark.parametrize("axis", ["rows", "cols"])
    def test_float_sum_is_a_left_fold_on_both_backends(self, axis,
                                                       backend):
        # (3 + 1e16) + -1e16 is 4.0 in float64; 3 + (1e16 + -1e16), the
        # grouping ``np.add.reduceat`` uses, would be 3.0.
        cells = ["k1", "k2", "k3"]
        values = dict(zip(cells, (3.0, 1e16, -1e16)))
        if axis == "rows":
            a = AssociativeArray({("x", k): v for k, v in values.items()},
                                 row_keys=["x"], col_keys=cells)
            got = reduce_rows(a.with_backend(backend), PLUS)
        else:
            a = AssociativeArray({(k, "x"): v for k, v in values.items()},
                                 row_keys=cells, col_keys=["x"])
            got = reduce_cols(a.with_backend(backend), PLUS)
        assert got == {"x": 4.0}

    def test_total_reduce(self, arr):
        assert total_reduce(arr, PLUS) == 10
        assert total_reduce(arr, MAX_ZERO) == 4

    def test_total_reduce_empty_is_identity(self):
        empty = AssociativeArray.empty(["r"], ["c"])
        assert total_reduce(empty, PLUS) == 0
        assert total_reduce(empty, MIN) == math.inf


class TestCounts:
    def test_row_counts_zero_filled(self, arr):
        assert row_counts(arr) == {"r1": 2, "r2": 2, "r3": 0}

    def test_col_counts(self, arr):
        assert col_counts(arr) == {"c1": 1, "c2": 2, "c3": 1}

    def test_counts_on_music_are_figure1_counts(self):
        from repro.datasets.music import FIGURE1_ROW_COUNTS, music_incidence
        assert row_counts(music_incidence()) == FIGURE1_ROW_COUNTS


class TestScaling:
    def test_scale_rows(self, arr):
        scaled = scale_rows(arr, {"r1": 10}, TIMES)
        assert scaled.get("r1", "c2") == 20
        assert scaled.get("r2", "c2") == 3  # missing factor → identity

    def test_scale_rows_explicit_missing(self, arr):
        scaled = scale_rows(arr, {}, TIMES, missing=0)
        assert scaled.nnz == 0  # everything multiplied by 0 → dropped

    def test_scale_cols_right_operand(self):
        from repro.values.operations import CONCAT
        a = AssociativeArray({("r", "c"): "ab"}, zero="\0")
        scaled = scale_cols(a, {"c": "xy"}, CONCAT)
        assert scaled.get("r", "c") == "abxy"  # factor on the right

    def test_scale_preserves_keysets_and_zero(self, arr):
        scaled = scale_rows(arr, {"r1": 2}, TIMES)
        assert scaled.row_keys == arr.row_keys
        assert scaled.col_keys == arr.col_keys
        assert scaled.zero == arr.zero

    def test_degree_normalisation_use_case(self):
        """Row-stochastic normalisation: A(r,c) / rowsum(r)."""
        from repro.values.operations import BinaryOp
        a = AssociativeArray({("r", "c1"): 1.0, ("r", "c2"): 3.0})
        sums = reduce_rows(a, PLUS)
        div = BinaryOp("divide_into", lambda s, v: v / s, 1.0)
        normal = scale_rows(a, sums, div)
        assert normal.get("r", "c1") == 0.25
        assert normal.get("r", "c2") == 0.75
