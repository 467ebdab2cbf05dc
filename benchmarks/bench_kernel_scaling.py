"""Kernel ablation and scaling study (extension; the paper is
correctness-only, DESIGN.md exp id ``scaling``).

Measures the generic fold kernel against the vectorised sortmerge /
scipy / dense-blocked kernels across graph size and op-pair, on R-MAT
multigraphs (skewed degrees — the representative GraphBLAS workload).
The headline shape: vectorised kernels win beyond a few hundred nonzeros,
with scipy fastest for ``+.×`` and ``sortmerge`` the general-semiring
workhorse; the dense kernel's cube cost crosses over at high density.
"""

from __future__ import annotations

import pytest

from repro.arrays.matmul import multiply_generic
from repro.arrays.sparse_backend import multiply_vectorized
from repro.core.construction import adjacency_array
from repro.graphs.generators import rmat_multigraph, random_incidence_values
from repro.graphs.incidence import incidence_arrays
from repro.values.semiring import get_op_pair


def _operands(scale, n_edges, pair_name, seed=99):
    pair = get_op_pair(pair_name)
    graph = rmat_multigraph(scale, n_edges, seed=seed)
    ow, iw = random_incidence_values(graph, pair, seed=seed + 1)
    eout, ein = incidence_arrays(graph, zero=pair.zero,
                                 out_values=ow, in_values=iw)
    return eout.transpose(), ein, pair


SIZES = [(5, 150), (7, 800), (9, 4000)]


@pytest.mark.parametrize("scale,n_edges", SIZES)
@pytest.mark.parametrize("pair_name", ["plus_times", "min_plus"])
def test_generic_kernel(benchmark, scale, n_edges, pair_name):
    a, b, pair = _operands(scale, n_edges, pair_name)
    result = benchmark(lambda: multiply_generic(a, b, pair))
    assert result.nnz > 0


@pytest.mark.parametrize("scale,n_edges", SIZES)
@pytest.mark.parametrize("pair_name", ["plus_times", "min_plus"])
def test_sortmerge_kernel(benchmark, scale, n_edges, pair_name):
    a, b, pair = _operands(scale, n_edges, pair_name)
    ref = multiply_generic(a, b, pair)
    result = benchmark(
        lambda: multiply_vectorized(a, b, pair, kernel="sortmerge"))
    assert result.allclose(ref)


@pytest.mark.parametrize("scale,n_edges", SIZES)
def test_scipy_kernel_plus_times(benchmark, scale, n_edges):
    a, b, pair = _operands(scale, n_edges, "plus_times")
    ref = multiply_generic(a, b, pair)
    result = benchmark(
        lambda: multiply_vectorized(a, b, pair, kernel="scipy"))
    assert result.allclose(ref)


@pytest.mark.parametrize("scale,n_edges", SIZES[:2])
@pytest.mark.parametrize("pair_name", ["plus_times", "min_plus"])
def test_dense_blocked_kernel(benchmark, scale, n_edges, pair_name):
    a, b, pair = _operands(scale, n_edges, pair_name)
    ref = multiply_generic(a, b, pair, mode="dense")
    result = benchmark(
        lambda: multiply_vectorized(a, b, pair, kernel="dense_blocked",
                                    mode="dense"))
    assert result.allclose(ref)


@pytest.mark.parametrize("scale,n_edges", SIZES)
def test_end_to_end_adjacency_auto_kernel(benchmark, scale, n_edges):
    """The full paper pipeline at scale with automatic kernel choice."""
    pair = get_op_pair("plus_times")
    graph = rmat_multigraph(scale, n_edges, seed=5)
    eout, ein = incidence_arrays(graph)
    from repro.core.construction import is_adjacency_array_of_graph
    adj = benchmark(lambda: adjacency_array(eout, ein, pair))
    assert is_adjacency_array_of_graph(adj, graph)
