"""Kernel equivalence, property-based.

The optimization contract of the hpc-parallel guides: vectorised kernels
must be *exactly* interchangeable with the reference implementation.  For
every ufunc op-pair and random conformable arrays:

* ``dense_blocked`` (dense semantics) ≡ generic dense;
* ``scipy`` ≡ generic sparse for ``+.×``;
* and for compliant pairs, sparse ``sortmerge`` ≡ dense
  ``dense_blocked`` — Theorem II.1 again, now as a kernel-level
  statement.

``sortmerge`` ≡ generic sparse lives in
:mod:`tests.property.test_sortmerge_equivalence`.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.arrays.matmul import multiply_generic
from repro.arrays.sparse_backend import multiply_vectorized
from repro.values.semiring import get_op_pair

from tests.helpers import SAFE_NUMERIC_PAIRS
from tests.property.strategies import conformable_numeric_arrays

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


def _make_dense_test(name: str):
    pair = get_op_pair(name)

    @settings(max_examples=25, **COMMON)
    @given(ab=conformable_numeric_arrays(zero=float(pair.zero)))
    def _test(ab):
        a, b = ab
        ref = multiply_generic(a, b, pair, mode="dense")
        got = multiply_vectorized(a, b, pair, kernel="dense_blocked",
                                  mode="dense")
        assert got == ref

    _test.__name__ = f"test_dense_blocked_{name}"
    return _test


def _make_cross_mode_test(name: str):
    pair = get_op_pair(name)

    @settings(max_examples=25, **COMMON)
    @given(ab=conformable_numeric_arrays(zero=float(pair.zero)))
    def _test(ab):
        a, b = ab
        sparse = multiply_vectorized(a, b, pair, kernel="sortmerge")
        dense = multiply_vectorized(a, b, pair, kernel="dense_blocked",
                                    mode="dense")
        assert sparse == dense

    _test.__name__ = f"test_cross_mode_{name}"
    return _test


for _name in SAFE_NUMERIC_PAIRS:
    globals()[f"test_dense_blocked_{_name}"] = _make_dense_test(_name)
    globals()[f"test_cross_mode_{_name}"] = _make_cross_mode_test(_name)
del _name


@settings(max_examples=40, **COMMON)
@given(ab=conformable_numeric_arrays())
def test_scipy_matches_generic(ab):
    a, b = ab
    pair = get_op_pair("plus_times")
    ref = multiply_generic(a, b, pair, mode="sparse")
    got = multiply_vectorized(a, b, pair, kernel="scipy")
    assert got == ref
