"""Tests for row-partitioned parallel multiplication."""

from __future__ import annotations

import random

import pytest

from repro.arrays.associative import AssociativeArray
from repro.arrays.keys import KeyError_
from repro.arrays.matmul import MatmulError, multiply
from repro.arrays.parallel import (
    parallel_multiply,
    partition_rows,
    stack_rows,
)
from repro.values.semiring import OpPair, get_op_pair
from repro.values.operations import PLUS, TIMES
from repro.values.domains import NonNegativeReals


def _random_pair(seed, m=20, k=15, n=12, zero=0.0):
    rng = random.Random(seed)
    rows = [f"r{i:02d}" for i in range(m)]
    inner = [f"k{i:02d}" for i in range(k)]
    cols = [f"c{i:02d}" for i in range(n)]
    a = {(r, kk): float(rng.randint(1, 9))
         for r in rows for kk in inner if rng.random() < 0.3}
    b = {(kk, c): float(rng.randint(1, 9))
         for kk in inner for c in cols if rng.random() < 0.3}
    return (AssociativeArray(a, row_keys=rows, col_keys=inner, zero=zero),
            AssociativeArray(b, row_keys=inner, col_keys=cols, zero=zero))


class TestPartition:
    def test_blocks_cover_rows_in_order(self):
        a, _ = _random_pair(1)
        blocks = partition_rows(a, 3)
        covered = [r for blk in blocks for r in blk.row_keys]
        assert covered == list(a.row_keys)

    def test_block_entries_partition_data(self):
        a, _ = _random_pair(1)
        blocks = partition_rows(a, 4)
        merged = {}
        for blk in blocks:
            merged.update(blk.to_dict())
        assert merged == a.to_dict()

    def test_more_parts_than_rows(self):
        a = AssociativeArray({("r1", "c"): 1, ("r2", "c"): 2})
        blocks = partition_rows(a, 10)
        assert len(blocks) == 2

    def test_invalid_parts(self):
        a, _ = _random_pair(1)
        with pytest.raises(ValueError):
            partition_rows(a, 0)

    def test_empty_array(self):
        a = AssociativeArray.empty([], ["c"])
        assert partition_rows(a, 3) == [a]


class TestStack:
    def test_roundtrip(self):
        a, _ = _random_pair(2)
        assert stack_rows(partition_rows(a, 5)) == a

    def test_rejects_column_mismatch(self):
        x = AssociativeArray({("r1", "c"): 1})
        y = AssociativeArray({("r2", "d"): 1})
        with pytest.raises(KeyError_, match="column"):
            stack_rows([x, y])

    def test_rejects_zero_mismatch(self):
        x = AssociativeArray({("r1", "c"): 1}, zero=0)
        y = AssociativeArray({("r2", "c"): 1},
                             row_keys=["r2"], col_keys=["c"], zero=-1)
        with pytest.raises(KeyError_, match="zero"):
            stack_rows([x, y])

    def test_rejects_duplicate_rows(self):
        x = AssociativeArray({("r1", "c"): 1})
        with pytest.raises(KeyError_, match="duplicate"):
            stack_rows([x, x])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            stack_rows([])


class TestParallelMultiply:
    @pytest.mark.parametrize("pair_name", ["plus_times", "min_plus",
                                           "max_min"])
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_equals_serial(self, pair_name, executor):
        pair = get_op_pair(pair_name)
        a, b = _random_pair(3, zero=float(pair.zero))
        want = multiply(a, b, pair, kernel="generic")
        got = parallel_multiply(a, b, pair, n_workers=4,
                                executor=executor, kernel="generic")
        assert got == want

    def test_process_pool(self):
        pair = get_op_pair("plus_times")
        a, b = _random_pair(4)
        want = multiply(a, b, pair, kernel="generic")
        got = parallel_multiply(a, b, pair, n_workers=2,
                                executor="process", kernel="generic")
        assert got == want

    def test_vectorized_kernel_through_threads(self):
        pair = get_op_pair("max_plus")
        a, b = _random_pair(5, zero=float(pair.zero))
        want = multiply(a, b, pair, kernel="generic")
        got = parallel_multiply(a, b, pair, n_workers=3,
                                executor="thread", kernel="sortmerge")
        assert got.allclose(want)

    def test_single_worker_shortcut(self):
        pair = get_op_pair("plus_times")
        a, b = _random_pair(6)
        assert parallel_multiply(a, b, pair, n_workers=1) \
            == multiply(a, b, pair)

    def test_unknown_executor(self):
        pair = get_op_pair("plus_times")
        a, b = _random_pair(7)
        with pytest.raises(MatmulError, match="executor"):
            parallel_multiply(a, b, pair, executor="gpu")

    def test_unregistered_pair_rejected(self):
        rogue = OpPair("rogue_t", "r", PLUS, TIMES, NonNegativeReals())
        a, b = _random_pair(8)
        with pytest.raises(MatmulError, match="not registered"):
            parallel_multiply(a, b, rogue)

    def test_invalid_workers(self):
        pair = get_op_pair("plus_times")
        a, b = _random_pair(9)
        with pytest.raises(ValueError):
            parallel_multiply(a, b, pair, n_workers=0)
