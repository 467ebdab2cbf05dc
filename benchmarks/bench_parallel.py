"""Parallel-decomposition bench: row-partitioned multiply ablation.

Times serial vs thread-pooled row-block multiplication at two sizes and
for both the generic and sortmerge kernels — the 1-D decomposition
ablation.  Correctness against the unpartitioned product is asserted in
every case.
"""

from __future__ import annotations

import pytest

from repro.arrays.matmul import multiply
from repro.arrays.parallel import parallel_multiply
from repro.graphs.generators import rmat_multigraph, random_incidence_values
from repro.graphs.incidence import incidence_arrays
from repro.values.semiring import get_op_pair


def _operands(scale, n_edges, pair_name, seed=77):
    pair = get_op_pair(pair_name)
    graph = rmat_multigraph(scale, n_edges, seed=seed)
    ow, iw = random_incidence_values(graph, pair, seed=seed + 1)
    eout, ein = incidence_arrays(graph, zero=pair.zero,
                                 out_values=ow, in_values=iw)
    return eout.transpose(), ein, pair


@pytest.mark.parametrize("executor", ["serial", "thread"])
@pytest.mark.parametrize("scale,n_edges", [(7, 800), (9, 4000)])
def test_parallel_generic(benchmark, executor, scale, n_edges):
    a, b, pair = _operands(scale, n_edges, "plus_times")
    want = multiply(a, b, pair, kernel="generic")
    got = benchmark(lambda: parallel_multiply(
        a, b, pair, n_workers=4, executor=executor, kernel="generic"))
    assert got == want


@pytest.mark.parametrize("executor", ["serial", "thread"])
@pytest.mark.parametrize("scale,n_edges", [(9, 4000)])
def test_parallel_sortmerge(benchmark, executor, scale, n_edges):
    a, b, pair = _operands(scale, n_edges, "min_plus")
    want = multiply(a, b, pair, kernel="generic")
    got = benchmark(lambda: parallel_multiply(
        a, b, pair, n_workers=4, executor=executor, kernel="sortmerge"))
    assert got.allclose(want)
