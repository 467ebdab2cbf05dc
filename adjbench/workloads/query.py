"""``query``: the in-process query service under ``+.×``.

One synchronous caller, closed loop, against an
``AdjacencyService`` loaded the way ``repro serve --source`` loads it
(from an adjacency TSV the benchmark writes from its own fold), with
the default 1024-entry cache.

Main ops are point reads — ``neighbors`` out/in and single-vertex
``degrees`` — on vertices drawn in proportion to their degree on the
side read, so the working set exceeds the cache and some reads hit.
Second ops are ``khop`` with k=3 from uniformly drawn sources that have
an out-edge; most of them miss the cache.  The caller thinks (spins)
after each hop; see :attr:`Query.THINK_S`.  Point reads exercise
dispatch, cache and instrumentation; hops exercise expression planning
and execution.  ``path_lengths`` is left out: its cost swings by 7×
with the source vertex, which no class can absorb steadily.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Tuple

import numpy as np

import repro
from adjbench import inputs
from adjbench.harness import Op, Record, Workload

KHOP_K = 3

READ_KINDS = ("out", "in", "degree")

#: Hops checked against the ``semiring_vecmat`` reference loop per run.
SAMPLED_HOPS = 3


class Query(Workload):
    name = "query"
    SCALE = 14
    EDGES = 100_000
    #: Reads per hop.  A run then holds several hundred reads, and the
    #: collector's gen-1 pauses (one per ~1.5k reads) stay well short of
    #: the ten that would put them at the reads' tail: at 20-300 reads
    #: per hop the tail was a pause whose length swings with the
    #: machine's memory speed, far more than the probe does.
    READS_PER_HOP = 5
    #: The caller thinks 75 ms after each hop, so a 10-second run holds
    #: about 120 hops and 600 reads.  The host stalls memory-bound work
    #: in bursts (a fixed 6 ms NumPy sort: 0 to 73 ops over 1.5x its
    #: median per 10-second window); a run spent back to back in ops had
    #: about ten stalled hops, right at the tail's rank, and its hop tail
    #: spread 23-31% over ten seeds.  With the think time the tail is the
    #: hops' own ~91st percentile (spread 3% and 13% in two ten-seed
    #: sets).
    THINK_S = 0.075
    WARMUP_OPS = 200 * 6
    TRACE_OPS = 270 * 6

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        edges, rng = inputs.make_graph(seed, self.SCALE, self.EDGES)
        f = inputs.fold(edges.src, edges.dst, edges.w_out, edges.w_in)
        labels = edges.labels
        self._out, self._in = inputs.square_dicts(f, labels)
        self._path = workdir / "adjacency.tsv"
        inputs.write_adjacency_tsv(f, labels, self._path)
        out_v = sorted(self._out)
        in_v = sorted(self._in)
        out_deg = np.array([len(self._out[v]) for v in out_v])
        in_deg = np.array([len(self._in[v]) for v in in_v])
        # Reads as compact arrays (kind, vertex index): the benchmark's own
        # objects stay out of the collector's way during the run.
        n = 200_000
        self._out_v, self._in_v = out_v, in_v
        self._kinds = rng.integers(0, 3, n)
        self._out_pick = inputs.weighted_draw(rng, out_deg, n)
        self._in_pick = inputs.weighted_draw(rng, in_deg, n)
        self._hops = [out_v[i] for i in
                      rng.integers(0, len(out_v), 2000).tolist()]
        self._sampled: List[Tuple[str, dict]] = []
        self.sizes = {"rmat_scale": self.SCALE, "edges": self.EDGES,
                      "adjacency_nnz": int(f.vals.size),
                      "vertices": len(set(out_v) | set(in_v)),
                      "cache_size": 1024, "khop_k": KHOP_K,
                      "reads_per_hop": self.READS_PER_HOP}

    def setup(self) -> None:
        self.instance = repro.AdjacencyService.from_tsv(
            self._path, repro.get_op_pair("plus_times"))

    def _read(self, i: int) -> Op:
        svc = self.instance
        kind = READ_KINDS[int(self._kinds[i])]
        vertex = (self._in_v[int(self._in_pick[i])] if kind == "in"
                  else self._out_v[int(self._out_pick[i])])
        if kind == "degree":
            want = len(self._out[vertex])
            return ("main", lambda: svc.degrees(vertex=vertex),
                    lambda got: self._count_check(got == want))
        adj = self._out if kind == "out" else self._in
        want = adj[vertex]
        return ("main",
                lambda: svc.neighbors(vertex, direction=kind),
                lambda got: self._count_check(got == want))

    def _hop(self, vertex: str) -> Op:
        svc = self.instance

        def check(got) -> bool:
            if len(self._sampled) < SAMPLED_HOPS and got:
                self._sampled.append((vertex, got))
            return self._count_check(isinstance(got, dict))
        return "second", (lambda: svc.khop(vertex, KHOP_K)), check

    def _count_check(self, ok: bool) -> bool:
        self.checks += 1
        return ok

    def ops(self) -> Iterator[Op]:
        reads = itertools.cycle(range(self._kinds.size))
        for vertex in itertools.cycle(self._hops):
            for _ in range(self.READS_PER_HOP):
                yield self._read(next(reads))
            yield self._hop(vertex)

    def final_checks(self, rec: Record) -> int:
        """Sampled hops against the ``semiring_vecmat`` reference loop
        over a dict-pinned copy of the benchmark's own fold."""
        from repro.graphs.algorithms import semiring_vecmat
        pair = repro.get_op_pair("plus_times")
        data = {(a, b): v for a, row in self._out.items()
                for b, v in row.items()}
        verts = sorted(set(self._out) | set(self._in))
        ref = repro.AssociativeArray(data, row_keys=verts, col_keys=verts,
                                     backend="dict")
        failed = 0
        for vertex, got in self._sampled:
            frontier = {vertex: pair.one}
            for _ in range(KHOP_K):
                frontier = semiring_vecmat(frontier, ref, pair)
            self.checks += 1
            if frontier != got:
                failed += 1
                rec.fail(f"khop from {vertex}: differs from semiring_vecmat")
        return failed
