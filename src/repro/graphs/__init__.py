"""Graph substrate: edge-keyed multigraphs, incidence arrays, generators.

The paper's graphs are directed multigraphs whose edge set ``K`` is itself
a finite totally ordered key set (edges are first-class keys — rows of the
incidence arrays).  This package provides:

* :mod:`repro.graphs.digraph` — :class:`EdgeKeyedDigraph`, supporting
  self-loops and parallel edges (both are load-bearing: the Theorem II.1
  witness graphs are built from exactly those);
* :mod:`repro.graphs.incidence` — Definition I.4 construction and
  validation of ``Eout``/``Ein`` and the graph ⇄ incidence round-trip;
* :mod:`repro.graphs.generators` — seeded random multigraphs and random
  incidence values over arbitrary value domains;
* :mod:`repro.graphs.algorithms` — downstream consumers of adjacency
  arrays over semirings (k-hop frontiers, BFS, SSSP, components,
  triangles).
"""

from repro.graphs.digraph import EdgeKeyedDigraph, GraphError
from repro.graphs.incidence import (
    graph_from_incidence,
    incidence_arrays,
    is_source_incidence_of,
    is_target_incidence_of,
)
from repro.graphs.generators import (
    complete_bipartite_graph,
    cycle_graph,
    erdos_renyi_multigraph,
    path_graph,
    random_incidence_values,
    rmat_multigraph,
    star_graph,
)

__all__ = [
    "EdgeKeyedDigraph",
    "GraphError",
    "incidence_arrays",
    "graph_from_incidence",
    "is_source_incidence_of",
    "is_target_incidence_of",
    "erdos_renyi_multigraph",
    "rmat_multigraph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_bipartite_graph",
    "random_incidence_values",
]
