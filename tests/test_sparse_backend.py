"""Tests for the vectorised kernels (repro.arrays.sparse_backend)."""

from __future__ import annotations

import math
import random

import pytest

from repro.arrays.associative import AssociativeArray
from repro.arrays.matmul import MatmulError, multiply, multiply_generic
from repro.arrays.sparse_backend import (
    KERNELS,
    from_scipy,
    multiply_vectorized,
    to_scipy,
    vectorizable,
)
from repro.values.semiring import get_op_pair

from tests.helpers import SAFE_NUMERIC_PAIRS


def _random_pair_of_arrays(seed, m=9, k=11, n=8, density=0.35, zero=0.0):
    """Two conformable random arrays with values in 1..9."""
    rng = random.Random(seed)
    rows = [f"r{i:02d}" for i in range(m)]
    inner = [f"k{i:02d}" for i in range(k)]
    cols = [f"c{i:02d}" for i in range(n)]
    a = {(r, kk): float(rng.randint(1, 9))
         for r in rows for kk in inner if rng.random() < density}
    b = {(kk, c): float(rng.randint(1, 9))
         for kk in inner for c in cols if rng.random() < density}
    return (AssociativeArray(a, row_keys=rows, col_keys=inner, zero=zero),
            AssociativeArray(b, row_keys=inner, col_keys=cols, zero=zero))


class TestVectorizable:
    def test_numeric_ufunc_pair(self):
        a, b = _random_pair_of_arrays(1)
        assert vectorizable(a, b, get_op_pair("plus_times"))
        assert vectorizable(a, b, get_op_pair("max_min"))

    def test_non_ufunc_pair_rejected(self):
        a, b = _random_pair_of_arrays(1)
        assert not vectorizable(a, b, get_op_pair("skew_plus_times"))

    def test_non_numeric_values_rejected(self):
        zero = get_op_pair("string_max_min").zero
        a = AssociativeArray({("r", "k"): "s"}, zero=zero)
        b = AssociativeArray({("k", "c"): "t"}, zero=zero)
        assert not vectorizable(a, b, get_op_pair("string_max_min"))
        assert not vectorizable(a, b, get_op_pair("plus_times"))

    def test_multiply_vectorized_refuses_unvectorizable(self):
        zero = get_op_pair("max_concat").zero
        a = AssociativeArray({("r", "k"): "s"}, zero=zero)
        b = AssociativeArray({("k", "c"): "t"}, zero=zero)
        with pytest.raises(MatmulError, match="not vectorisable"):
            multiply_vectorized(a, b, get_op_pair("max_concat"),
                                kernel="sortmerge")


class TestKernelModePairing:
    def test_dense_blocked_requires_dense_mode(self):
        a, b = _random_pair_of_arrays(2)
        with pytest.raises(MatmulError, match="dense semantics"):
            multiply_vectorized(a, b, get_op_pair("plus_times"),
                                kernel="dense_blocked", mode="sparse")

    def test_sortmerge_requires_sparse_mode(self):
        a, b = _random_pair_of_arrays(2)
        with pytest.raises(MatmulError, match="sparse semantics"):
            multiply_vectorized(a, b, get_op_pair("plus_times"),
                                kernel="sortmerge", mode="dense")

    def test_scipy_kernel_only_for_plus_times(self):
        a, b = _random_pair_of_arrays(2)
        with pytest.raises(MatmulError, match="scipy kernel"):
            multiply_vectorized(a, b, get_op_pair("max_min"),
                                kernel="scipy")

    def test_unknown_kernel(self):
        a, b = _random_pair_of_arrays(2)
        with pytest.raises(MatmulError, match="unknown kernel"):
            multiply_vectorized(a, b, get_op_pair("plus_times"),
                                kernel="nope")


class TestKernelAgreement:
    """Every vectorised kernel must agree with the generic reference."""

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("name", SAFE_NUMERIC_PAIRS)
    def test_dense_blocked_matches_generic_dense(self, name, seed):
        pair = get_op_pair(name)
        a, b = _random_pair_of_arrays(seed, zero=pair.zero)
        ref = multiply_generic(a, b, pair, mode="dense")
        got = multiply_vectorized(a, b, pair, kernel="dense_blocked",
                                  mode="dense")
        assert got.allclose(ref), name

    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_scipy_matches_generic(self, seed):
        pair = get_op_pair("plus_times")
        a, b = _random_pair_of_arrays(seed)
        ref = multiply_generic(a, b, pair, mode="sparse")
        got = multiply_vectorized(a, b, pair, kernel="scipy")
        assert got.allclose(ref)

    def test_auto_kernel_on_large_input_matches_generic(self):
        pair = get_op_pair("max_plus")
        a, b = _random_pair_of_arrays(9, m=30, k=40, n=25, density=0.4,
                                      zero=pair.zero)
        ref = multiply_generic(a, b, pair, mode="sparse")
        got = multiply(a, b, pair)  # auto → sortmerge at this size
        assert got.allclose(ref)

    def test_empty_operands(self):
        pair = get_op_pair("min_plus")
        a = AssociativeArray.empty(["r"], ["k"], zero=pair.zero)
        b = AssociativeArray.empty(["k"], ["c"], zero=pair.zero)
        got = multiply_vectorized(a, b, pair, kernel="sortmerge")
        assert got.nnz == 0

    def test_no_shared_inner_entries(self):
        pair = get_op_pair("plus_times")
        a = AssociativeArray({("r", "k1"): 1.0},
                             row_keys=["r"], col_keys=["k1", "k2"])
        b = AssociativeArray({("k2", "c"): 1.0},
                             row_keys=["k1", "k2"], col_keys=["c"])
        got = multiply_vectorized(a, b, pair, kernel="sortmerge")
        assert got.nnz == 0

    def test_dense_blocked_with_inf_zero(self):
        """min.+ fills with +∞; annihilation must be native."""
        pair = get_op_pair("min_plus")
        a = AssociativeArray({("r", "k1"): 2.0},
                             row_keys=["r"], col_keys=["k1", "k2"],
                             zero=math.inf)
        b = AssociativeArray({("k1", "c"): 3.0, ("k2", "c"): 1.0},
                             row_keys=["k1", "k2"], col_keys=["c"],
                             zero=math.inf)
        got = multiply_vectorized(a, b, pair, kernel="dense_blocked",
                                  mode="dense")
        # min(2+3, ∞+1) = 5.
        assert got.get("r", "c") == 5.0

    def test_block_boundary_exactness(self):
        """More rows than the dense block size: block seams are invisible."""
        pair = get_op_pair("max_times")
        a, b = _random_pair_of_arrays(11, m=150, k=20, n=10, density=0.3)
        ref = multiply_generic(a, b, pair, mode="sparse")
        got = multiply_vectorized(a, b, pair, kernel="dense_blocked",
                                  mode="dense")
        assert got.allclose(ref)


class TestScipyInterop:
    def test_roundtrip(self):
        a, _ = _random_pair_of_arrays(13)
        m = to_scipy(a)
        back = from_scipy(m, a.row_keys, a.col_keys)
        assert back.allclose(a)

    def test_to_scipy_requires_zero_zero(self):
        a = AssociativeArray({("r", "c"): 1.0}, zero=math.inf)
        with pytest.raises(ValueError, match="zero == 0"):
            to_scipy(a)

    def test_from_scipy_shape_mismatch(self):
        a, _ = _random_pair_of_arrays(13)
        m = to_scipy(a)
        with pytest.raises(ValueError, match="shape"):
            from_scipy(m, ["just_one_row"], a.col_keys)

    def test_kernels_constant(self):
        assert set(KERNELS) == {"scipy", "sortmerge", "dense_blocked"}
