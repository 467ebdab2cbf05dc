"""Sortmerge kernel equivalence, property-based.

The whole-catalog speed path must be *exactly* interchangeable with the
reference implementation: for every certified ufunc op-pair and random
conformable arrays, ``sortmerge`` ≡ ``generic`` (and ≡ ``scipy`` where
scipy applies, i.e. genuine ``+.×``).  Degenerate shapes — empty inner
dimension, single-row/column operands — and NaN-zero domains (which
must fall back to the generic path, never run vectorised) are covered
deterministically.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings

from repro.arrays.associative import AssociativeArray
from repro.arrays.matmul import (
    MatmulError,
    _pick_kernel,
    multiply,
    multiply_generic,
    multiply_sortmerge,
)
from repro.arrays.sparse_backend import multiply_vectorized
from repro.graphs.algorithms import semiring_vecmat
from repro.values.semiring import get_op_pair

from tests.helpers import SAFE_NUMERIC_PAIRS
from tests.property.strategies import conformable_numeric_arrays

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


def _make_sortmerge_test(name: str):
    pair = get_op_pair(name)

    @settings(max_examples=40, **COMMON)
    @given(ab=conformable_numeric_arrays(zero=float(pair.zero)))
    def _test(ab):
        a, b = ab
        ref = multiply_generic(a, b, pair, mode="sparse")
        got = multiply_vectorized(a, b, pair, kernel="sortmerge")
        assert got.allclose(ref)

    _test.__name__ = f"test_sortmerge_{name}"
    return _test


for _name in SAFE_NUMERIC_PAIRS:
    globals()[f"test_sortmerge_{_name}"] = _make_sortmerge_test(_name)
del _name


@settings(max_examples=40, **COMMON)
@given(ab=conformable_numeric_arrays())
def test_sortmerge_matches_scipy_on_plus_times(ab):
    a, b = ab
    pair = get_op_pair("plus_times")
    sm = multiply_vectorized(a, b, pair, kernel="sortmerge")
    sc = multiply_vectorized(a, b, pair, kernel="scipy")
    assert sm.allclose(sc)


@settings(max_examples=30, **COMMON)
@given(ab=conformable_numeric_arrays(zero=math.inf))
def test_vecmat_vectorized_matches_reference(ab):
    """The vectorised vector–matrix relaxation (which shares the
    sortmerge grouping helper) agrees with the per-edge reference loop
    on every random square min.+ adjacency and frontier."""
    a, _b = ab
    pair = get_op_pair("min_plus")
    verts = list(a.row_keys) + [f"x{i}" for i in range(len(a.col_keys))]
    data = {}
    for (r, c), v in a.to_dict().items():
        data[(r, f"x{list(a.col_keys).index(c)}")] = v
    adj = AssociativeArray(data, row_keys=verts, col_keys=verts,
                           zero=pair.zero)
    frontier = {v: float(i % 4) for i, v in enumerate(verts) if i % 2 == 0}
    fast = semiring_vecmat(frontier, adj.with_backend("numeric"), pair)
    ref = semiring_vecmat(frontier, adj.with_backend("dict"), pair)
    assert fast == ref


class TestDegenerateShapes:
    def test_empty_inner_dimension(self):
        pair = get_op_pair("min_plus")
        a = AssociativeArray.empty(["r0", "r1"], [], zero=pair.zero)
        b = AssociativeArray.empty([], ["c0", "c1", "c2"], zero=pair.zero)
        got = multiply(a, b, pair, kernel="sortmerge")
        assert got.nnz == 0
        assert got.shape == (2, 3)

    def test_no_shared_inner_codes(self):
        pair = get_op_pair("max_min")
        a = AssociativeArray({("r", "k1"): 2.0}, row_keys=["r"],
                             col_keys=["k1", "k2"], zero=pair.zero)
        b = AssociativeArray({("k2", "c"): 3.0}, row_keys=["k1", "k2"],
                             col_keys=["c"], zero=pair.zero)
        assert multiply(a, b, pair, kernel="sortmerge").nnz == 0

    @pytest.mark.parametrize("name", SAFE_NUMERIC_PAIRS)
    def test_single_row_operand(self, name):
        pair = get_op_pair(name)
        a = AssociativeArray({("r", "k0"): 2.0, ("r", "k2"): 5.0},
                             row_keys=["r"], col_keys=["k0", "k1", "k2"],
                             zero=pair.zero)
        b = AssociativeArray(
            {("k0", "c0"): 3.0, ("k2", "c0"): 1.0, ("k2", "c1"): 4.0},
            row_keys=["k0", "k1", "k2"], col_keys=["c0", "c1"],
            zero=pair.zero)
        ref = multiply_generic(a, b, pair)
        got = multiply(a, b, pair, kernel="sortmerge")
        assert got.allclose(ref)

    @pytest.mark.parametrize("name", SAFE_NUMERIC_PAIRS)
    def test_single_column_output(self, name):
        pair = get_op_pair(name)
        a = AssociativeArray(
            {("r0", "k0"): 2.0, ("r1", "k0"): 7.0, ("r1", "k1"): 1.0},
            row_keys=["r0", "r1"], col_keys=["k0", "k1"], zero=pair.zero)
        b = AssociativeArray({("k0", "c"): 3.0, ("k1", "c"): 6.0},
                             row_keys=["k0", "k1"], col_keys=["c"],
                             zero=pair.zero)
        ref = multiply_generic(a, b, pair)
        got = multiply(a, b, pair, kernel="sortmerge")
        assert got.allclose(ref)


class TestNaNZeroDomain:
    """Arrays whose zero is NaN cannot drive the vectorised filters
    (NaN != NaN): auto routing must stay generic and the sortmerge
    kernel must refuse cleanly."""

    def _nan_zero_operands(self):
        pair = get_op_pair("min_plus")
        a = AssociativeArray({("r", "k0"): 2.0, ("r", "k1"): 5.0},
                             row_keys=["r"], col_keys=["k0", "k1"],
                             zero=float("nan"))
        b = AssociativeArray({("k0", "c"): 3.0, ("k1", "c"): 1.0},
                             row_keys=["k0", "k1"], col_keys=["c"],
                             zero=float("nan"))
        return a, b, pair

    def test_auto_routes_generic(self):
        a, b, pair = self._nan_zero_operands()
        assert _pick_kernel(a, b, pair, "sparse") == "generic"
        got = multiply(a, b, pair)                   # auto
        ref = multiply_generic(a, b, pair)
        assert got.to_dict() == ref.to_dict()

    def test_sortmerge_refuses(self):
        a, b, pair = self._nan_zero_operands()
        with pytest.raises(MatmulError, match="vectoris"):
            multiply_sortmerge(a, b, pair)


class TestExtensionCatalog:
    """Certified ufunc pairs beyond the paper-figure seven also ride
    sortmerge (the log semiring's logaddexp.⊕ has a ufunc form)."""

    def test_log_semiring_matches_generic(self):
        import tests.helpers  # noqa: F401  (registers extension pairs)
        pair = get_op_pair("log_semiring")
        a = AssociativeArray(
            {("r0", "k0"): -1.5, ("r0", "k1"): -0.25, ("r1", "k1"): -3.0},
            row_keys=["r0", "r1"], col_keys=["k0", "k1"], zero=pair.zero)
        b = AssociativeArray(
            {("k0", "c0"): -0.5, ("k1", "c0"): -2.0, ("k1", "c1"): -1.0},
            row_keys=["k0", "k1"], col_keys=["c0", "c1"], zero=pair.zero)
        ref = multiply_generic(a, b, pair)
        got = multiply(a, b, pair, kernel="sortmerge")
        assert got.allclose(ref)
        assert _pick_kernel(a.with_backend("numeric"),
                            b.with_backend("numeric"),
                            pair, "sparse") == "sortmerge"
