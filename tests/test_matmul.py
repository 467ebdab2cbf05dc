"""Unit tests for repro.arrays.matmul (Definition I.3)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.arrays.associative import AssociativeArray
from repro.arrays.matmul import (
    MatmulError,
    _stable_key_order,
    multiply,
    multiply_generic,
    sortmerge_coo,
    sortmerge_vecmat,
)
from repro.core.construction import adjacency_array
from repro.values.semiring import get_op_pair

from tests.helpers import SAFE_NUMERIC_PAIRS


def _arr(data, rows, cols, zero=0):
    return AssociativeArray(data, row_keys=rows, col_keys=cols, zero=zero)


class TestConformability:
    def test_inner_keys_must_match(self):
        a = _arr({("r", "k1"): 1}, ["r"], ["k1"])
        b = _arr({("k2", "c"): 1}, ["k2"], ["c"])
        with pytest.raises(MatmulError, match="inner key sets"):
            multiply(a, b, get_op_pair("plus_times"))

    def test_unknown_mode(self):
        a = _arr({("r", "k"): 1}, ["r"], ["k"])
        b = _arr({("k", "c"): 1}, ["k"], ["c"])
        with pytest.raises(MatmulError, match="unknown mode"):
            multiply(a, b, get_op_pair("plus_times"), mode="lazy")


class TestHandComputed:
    """2×2 by 2×2 products, worked by hand."""

    A = _arr({("x", "k1"): 2, ("x", "k2"): 3, ("y", "k1"): 4},
             ["x", "y"], ["k1", "k2"])
    B = _arr({("k1", "u"): 5, ("k2", "u"): 7, ("k2", "v"): 1},
             ["k1", "k2"], ["u", "v"])

    def test_plus_times(self):
        c = multiply(self.A, self.B, get_op_pair("plus_times"),
                     kernel="generic")
        # c(x,u) = 2·5 + 3·7 = 31 ; c(x,v) = 3·1 = 3 ; c(y,u) = 4·5 = 20
        assert c.get("x", "u") == 31
        assert c.get("x", "v") == 3
        assert c.get("y", "u") == 20
        assert c.get("y", "v") == 0
        assert c.zero == 0

    def test_max_times(self):
        c = multiply(self.A, self.B, get_op_pair("max_times"),
                     kernel="generic")
        assert c.get("x", "u") == max(2 * 5, 3 * 7)

    def test_min_plus(self):
        a = self.A.with_zero(math.inf)
        b = self.B.with_zero(math.inf)
        c = multiply(a, b, get_op_pair("min_plus"), kernel="generic")
        # c(x,u) = min(2+5, 3+7) = 7
        assert c.get("x", "u") == 7
        assert c.zero == math.inf

    def test_max_min(self):
        c = multiply(self.A, self.B, get_op_pair("max_min"),
                     kernel="generic")
        # c(x,u) = max(min(2,5), min(3,7)) = 3
        assert c.get("x", "u") == 3

    def test_result_key_sets(self):
        c = multiply(self.A, self.B, get_op_pair("plus_times"))
        assert c.row_keys == self.A.row_keys
        assert c.col_keys == self.B.col_keys


class TestSparseVsDense:
    @pytest.mark.parametrize("name", SAFE_NUMERIC_PAIRS)
    def test_modes_agree_for_safe_pairs(self, name):
        pair = get_op_pair(name)
        a = _arr({("x", "k1"): 2, ("x", "k2"): 3, ("y", "k3"): 5},
                 ["x", "y"], ["k1", "k2", "k3"], zero=pair.zero)
        b = _arr({("k1", "u"): 5, ("k2", "u"): 7, ("k3", "v"): 2},
                 ["k1", "k2", "k3"], ["u", "v"], zero=pair.zero)
        sparse = multiply(a, b, pair, mode="sparse", kernel="generic")
        dense = multiply(a, b, pair, mode="dense", kernel="generic")
        assert sparse == dense, name

    def test_modes_diverge_for_non_annihilating_pair(self):
        """nonneg_max_plus: unstored zeros contribute under dense
        evaluation — the Theorem II.1 content, observable."""
        pair = get_op_pair("nonneg_max_plus")
        a = _arr({("x", "k1"): 2}, ["x"], ["k1", "k2"])
        b = _arr({("k2", "u"): 3}, ["k1", "k2"], ["u"])
        sparse = multiply(a, b, pair, mode="sparse", kernel="generic")
        dense = multiply(a, b, pair, mode="dense", kernel="generic")
        # Sparse: no shared inner key → no entry.  Dense: terms
        # max(2⊗0, 0⊗3) = max(2, 3) = 3 → spurious entry.
        assert sparse.nnz == 0
        assert dense.get("x", "u") == 3

    def test_empty_inner_keyset(self):
        pair = get_op_pair("plus_times")
        a = AssociativeArray.empty(["x"], [], zero=0)
        b = AssociativeArray.empty([], ["u"], zero=0)
        for mode in ("sparse", "dense"):
            c = multiply(a, b, pair, mode=mode, kernel="generic")
            assert c.nnz == 0 and c.shape == (1, 1)

    def test_empty_operands(self):
        pair = get_op_pair("plus_times")
        a = AssociativeArray.empty(["x"], ["k"], zero=0)
        b = AssociativeArray.empty(["k"], ["u"], zero=0)
        c = multiply(a, b, pair, kernel="generic")
        assert c.nnz == 0


class TestFoldOrder:
    def test_non_associative_add_folds_in_inner_key_order(self):
        """⊕̃ = a + b + a²b is non-associative: the fold must follow the
        inner key set's total order."""
        pair = get_op_pair("skew_plus_times")
        a = _arr({("x", "k1"): 1, ("x", "k2"): 2, ("x", "k3"): 3},
                 ["x"], ["k1", "k2", "k3"])
        b = _arr({("k1", "u"): 1, ("k2", "u"): 1, ("k3", "u"): 1},
                 ["k1", "k2", "k3"], ["u"])
        c = multiply(a, b, pair, kernel="generic")
        add = pair.add
        expected = add(add(1, 2), 3)   # left fold over k1 < k2 < k3
        assert c.get("x", "u") == expected
        wrong_order = add(add(3, 2), 1)
        assert expected != wrong_order  # the test has teeth

    def test_non_commutative_mul_operand_order(self):
        """⊗ = concat: A-value ⊗ B-value, never the reverse."""
        pair = get_op_pair("max_concat")
        zero = pair.zero
        a = _arr({("x", "k"): "left"}, ["x"], ["k"], zero=zero)
        b = _arr({("k", "u"): "right"}, ["k"], ["u"], zero=zero)
        c = multiply(a, b, pair, kernel="generic")
        assert c.get("x", "u") == "leftright"

    def test_dense_mode_fold_covers_whole_inner_keyset(self):
        pair = get_op_pair("skew_plus_times")
        a = _arr({("x", "k2"): 2}, ["x"], ["k1", "k2"])
        b = _arr({("k2", "u"): 1}, ["k1", "k2"], ["u"])
        dense = multiply(a, b, pair, mode="dense", kernel="generic")
        # Terms in order: k1 → 0⊗0 = 0, k2 → 2⊗1 = 2; fold 0 ⊕̃ 2 = 2.
        assert dense.get("x", "u") == 2


class TestSortmergeGrouping:
    """What the sortmerge property suite cannot see: it compares results
    with ``allclose``, so a ``⊕`` fold run in the wrong order passes as
    long as the rounding error stays small."""

    def test_float_sum_witness_equals_generic_fold(self):
        """``(3 + 1e16) − 1e16`` is 2 or 4 in float64; adding the 1e16
        terms first gives 3.  Every one of the 60 × 80 (row, col)
        groups gets those three terms on three inner keys, generated
        key by key, so an unstable sort of the equal group keys would
        reorder some groups, and a fold that is not strictly left to
        right (``np.add.reduceat``) gives 3 in all of them: either
        breaks ``==`` with the generic fold."""
        pair = get_op_pair("plus_times")
        rows = [f"r{i:02d}" for i in range(60)]
        cols = [f"c{j:02d}" for j in range(80)]
        inner = ["k0", "k1", "k2"]
        weight = {"k0": 3.0, "k1": 1e16, "k2": -1e16}
        a = _arr({(r, k): 1.0 for r in rows for k in inner}, rows, inner)
        b = _arr({(k, c): weight[k] for k in inner for c in cols},
                 inner, cols)
        ref = multiply(a, b, pair, kernel="generic")
        assert ref.get("r00", "c00") == (3.0 + 1e16) - 1e16 != 3.0
        assert multiply(a, b, pair, kernel="sortmerge") == ref
        # The transpose-free construction route folds the same way.
        eout = a.transpose()
        assert adjacency_array(eout, b, pair, kernel="sortmerge") == ref

    @pytest.mark.parametrize("high", [1 << 20, 1 << 50, 1 << 52])
    def test_tagged_sort_is_the_stable_argsort(self, high):
        """5000 keys over 64 distinct values below ``high``: key plus a
        13-bit tag fits 63 bits up to ``high = 2**50`` (one sort of the
        tagged keys); keys at or above 2**50 take the stable argsort."""
        rng = np.random.default_rng(7)
        key = rng.integers(0, 64, 5000) * (high // 64)
        order, sorted_key = _stable_key_order(key, high)
        want = np.argsort(key, kind="stable")
        np.testing.assert_array_equal(order, want)
        np.testing.assert_array_equal(sorted_key, key[want])

    def test_packed_key_past_int64(self):
        """Row × column code space beyond 2**63: the (row, col) key
        cannot be packed, and a lexsort groups the terms instead."""
        pair = get_op_pair("min_plus")
        big = 1 << 40
        rows, cols, vals = sortmerge_coo(
            np.array([0, 0, 1]), np.array([big, 3, big]),
            np.array([1.0, 2.0, 3.0]),
            np.array([0, 1, 1]), np.array([big, big, 5]),
            np.array([10.0, 20.0, 30.0]), pair)
        # Terms: k0 → (big, big) 11, (3, big) 12; k1 → (big, big) 23,
        # (big, 5) 33.
        assert rows.tolist() == [3, big, big]
        assert cols.tolist() == [big, 5, big]
        assert vals.tolist() == [12.0, 33.0, 11.0]


class TestSortmergeVecmat:
    """The k-hop step: a sparse row vector times ``A`` on sortmerge."""

    def _square(self, zero):
        keys = ["a", "b", "c", "d"]
        data = {("a", "b"): 2.0, ("a", "c"): 5.0, ("b", "c"): 3.0,
                ("c", "a"): 4.0, ("c", "c"): 1.0}
        return _arr(data, keys, keys, zero=zero)

    @pytest.mark.parametrize("name", SAFE_NUMERIC_PAIRS)
    def test_equals_the_one_row_generic_product(self, name):
        pair = get_op_pair(name)
        adj = self._square(pair.zero)
        x = _arr({("x", "a"): 7.0, ("x", "c"): 0.5}, ["x"],
                 list(adj.row_keys), zero=pair.zero)
        want = multiply(x, adj, pair, kernel="generic")
        cols, vals = sortmerge_vecmat(
            np.array([0, 2]), np.array([7.0, 0.5]),
            adj.numeric_backend(), pair)
        keys = adj.col_keys.keys()
        assert {keys[c]: v for c, v in zip(cols.tolist(),
                                           vals.tolist())} == \
            {c: v for _x, c, v in want.entries()}
        assert cols.tolist() == sorted(cols.tolist())

    def test_rows_without_entries_skip_the_kernel(self, monkeypatch):
        import repro.arrays.matmul as matmul
        pair = get_op_pair("plus_times")
        nb = self._square(pair.zero).numeric_backend()
        calls = []
        monkeypatch.setattr(matmul, "sortmerge_coo",
                            lambda *args: calls.append(args))
        cols, vals = sortmerge_vecmat(np.array([3]), np.array([1.0]), nb,
                                      pair)
        assert cols.size == 0 and vals.size == 0
        assert not calls


class TestKernelSelection:
    def test_generic_forced_for_non_numeric(self):
        pair = get_op_pair("string_max_min")
        zero = pair.zero
        a = _arr({("x", "k"): "abc"}, ["x"], ["k"], zero=zero)
        b = _arr({("k", "u"): "abd"}, ["k"], ["u"], zero=zero)
        c = multiply(a, b, pair)  # auto must fall back to generic
        assert c.get("x", "u") == "abc"

    def test_explicit_bad_kernel_name(self):
        a = _arr({("x", "k"): 1}, ["x"], ["k"])
        b = _arr({("k", "u"): 1}, ["k"], ["u"])
        with pytest.raises(MatmulError, match="unknown kernel"):
            multiply(a, b, get_op_pair("plus_times"), kernel="turbo")

    def test_dot_method_delegates(self, tiny_array):
        pair = get_op_pair("plus_times")
        other = _arr({("c1", "z"): 1}, ["c1", "c2", "c3"], ["z"])
        c = tiny_array.dot(other, pair)
        assert c.get("r1", "z") == 1


class TestAutoKernelRouting:
    """auto routes certified ufunc pairs to sortmerge; scipy keeps +.×."""

    def _large_numeric_pair(self, pair):
        import random
        rng = random.Random(5)
        rows = [f"r{i}" for i in range(40)]
        inner = [f"k{i}" for i in range(40)]
        cols = [f"c{i}" for i in range(40)]
        da = {(rng.choice(rows), rng.choice(inner)): float(rng.randint(1, 9))
              for _ in range(600)}
        db = {(rng.choice(inner), rng.choice(cols)): float(rng.randint(1, 9))
              for _ in range(600)}
        a = AssociativeArray(da, row_keys=rows, col_keys=inner,
                             zero=pair.zero).with_backend("numeric")
        b = AssociativeArray(db, row_keys=inner, col_keys=cols,
                             zero=pair.zero).with_backend("numeric")
        return a, b

    @pytest.mark.parametrize("name", [n for n in SAFE_NUMERIC_PAIRS
                                      if n != "plus_times"])
    def test_ufunc_pairs_route_to_sortmerge(self, name):
        from repro.arrays.matmul import _pick_kernel
        pair = get_op_pair(name)
        a, b = self._large_numeric_pair(pair)
        assert _pick_kernel(a, b, pair, "sparse") == "sortmerge"

    def test_plus_times_keeps_scipy(self):
        from repro.arrays.matmul import _pick_kernel
        pair = get_op_pair("plus_times")
        a, b = self._large_numeric_pair(pair)
        assert _pick_kernel(a, b, pair, "sparse") == "scipy"

    def test_sortmerge_requires_sparse_mode(self):
        pair = get_op_pair("min_plus")
        a = _arr({("x", "k"): 1.0}, ["x"], ["k"], zero=pair.zero)
        b = _arr({("k", "u"): 1.0}, ["k"], ["u"], zero=pair.zero)
        with pytest.raises(MatmulError, match="sparse semantics"):
            multiply(a, b, pair, kernel="sortmerge", mode="dense")
