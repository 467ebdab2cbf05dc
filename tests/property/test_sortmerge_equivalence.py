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

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arrays.associative import AssociativeArray
from repro.arrays.backend import VECTORIZE_MIN_NNZ
from repro.arrays.matmul import (
    MatmulError,
    _pick_kernel,
    multiply,
    multiply_generic,
    multiply_sortmerge,
)
from repro.arrays.sparse_backend import multiply_vectorized
from repro.graphs.algorithms import (
    khop_kernel,
    semiring_khop,
    semiring_vecmat,
)
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
        assert got == ref

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
    assert sm == sc


def _square_from(a: AssociativeArray, zero) -> AssociativeArray:
    """A square array over ``a``'s rows and renamed columns: ``a``'s
    entries, plus a reverse edge for each odd value so that walks run
    past one hop."""
    verts = list(a.row_keys) + [f"x{i}" for i in range(len(a.col_keys))]
    pos = a.col_keys.position_map()
    data = {(r, f"x{pos[c]}"): v for (r, c), v in a.to_dict().items()}
    data.update({(f"x{pos[c]}", r): v + 1.0
                 for (r, c), v in a.to_dict().items() if v % 2})
    return AssociativeArray(data, row_keys=verts, col_keys=verts,
                            zero=zero)


@pytest.mark.parametrize("name", SAFE_NUMERIC_PAIRS)
@settings(max_examples=30, **COMMON)
@given(ab=conformable_numeric_arrays(zero=0.0))
def test_vecmat_vectorized_matches_reference(name, ab):
    """The vectorised vector–matrix product (one ``sortmerge_vecmat``
    call) equals the per-edge reference loop on every random square
    adjacency and frontier."""
    pair = get_op_pair(name)
    adj = _square_from(ab[0], pair.zero)
    verts = list(adj.row_keys)
    frontier = {v: float(i % 4) for i, v in enumerate(verts) if i % 2 == 0}
    fast = semiring_vecmat(frontier, adj.with_backend("numeric"), pair)
    ref = semiring_vecmat(frontier, adj.with_backend("dict"), pair)
    assert fast == ref


@pytest.mark.parametrize("name", SAFE_NUMERIC_PAIRS)
@settings(max_examples=30, **COMMON)
@given(ab=conformable_numeric_arrays(zero=0.0), k=st.integers(0, 3),
       pick=st.integers(0, 63))
def test_khop_matches_vecmat_loop(name, ab, k, pick):
    """``semiring_khop`` on the numeric-backed array (sortmerge route)
    equals ``k`` reference ``semiring_vecmat`` steps on its dict-pinned
    copy, exactly."""
    pair = get_op_pair(name)
    adj = _square_from(ab[0], pair.zero)
    numeric, pinned = adj.with_backend("numeric"), adj.with_backend("dict")
    assert khop_kernel(numeric, pair) == "sortmerge"
    assert khop_kernel(pinned, pair) == "generic"
    source = list(adj.row_keys)[pick % len(adj.row_keys)]
    want = {source: pair.one}
    for _ in range(k):
        want = semiring_vecmat(want, pinned, pair)
    assert semiring_khop(numeric, source, k, pair) == want


class TestFloatFoldOrder:
    """A column fed ``3, 1e16, −1e16`` in row order: the left fold gives
    4.0, ``np.add.reduceat``'s pairwise fold 3.0.  Padding past
    ``VECTORIZE_MIN_NNZ`` puts a dict-backed array on the vectorised
    route."""

    PAIR = get_op_pair("plus_times")

    def _adjacency(self) -> AssociativeArray:
        data = {("s", "a0"): 1.0, ("s", "a1"): 1.0, ("s", "a2"): 1.0,
                ("a0", "t"): 3.0, ("a1", "t"): 1e16, ("a2", "t"): -1e16}
        data.update({(f"p{i:03d}", f"q{i:03d}"): 1.0
                     for i in range(VECTORIZE_MIN_NNZ)})
        keys = {k for rc in data for k in rc}
        adj = AssociativeArray(data, row_keys=keys, col_keys=keys,
                               zero=self.PAIR.zero)
        assert adj.backend == "dict" and adj.nnz > VECTORIZE_MIN_NNZ
        assert khop_kernel(adj, self.PAIR) == "sortmerge"
        return adj

    def test_reduceat_would_fold_pairwise(self):
        terms = np.array([3.0, 1e16, -1e16])
        assert np.add.reduceat(terms, [0])[0] == 3.0
        assert (3.0 + 1e16) - 1e16 == 4.0

    def test_vecmat_left_folds(self):
        got = semiring_vecmat({"a0": 1.0, "a1": 1.0, "a2": 1.0},
                              self._adjacency(), self.PAIR)
        assert got == {"t": 4.0}

    def test_khop_left_folds(self):
        assert semiring_khop(self._adjacency(), "s", 2, self.PAIR) == \
            {"t": 4.0}


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
        assert got == ref

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
        assert got == ref


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
        assert got == ref
        assert _pick_kernel(a.with_backend("numeric"),
                            b.with_backend("numeric"),
                            pair, "sparse") == "sortmerge"
