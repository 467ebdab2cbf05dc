"""``construct``: the paper's operation, ``A = Eoutᵀ ⊕.⊗ Ein``.

A library caller on one thread, closed loop, over incidence operands
built and promoted during set-up.  Main ops rotate through the six
non-``+.×`` figure pairs (routed to the ``sortmerge`` kernel); second
ops are ``+.×`` (routed to scipy).  Kernels, the transpose and index
builds do nearly all the work; no serve, expr, shard or HTTP code runs.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, Tuple

import numpy as np

import repro
from adjbench import inputs
from adjbench.harness import Op, Record, Workload

MAIN_PAIRS = ("max_times", "min_times", "max_plus", "min_plus", "max_min",
              "min_max")
SECOND_PAIR = "plus_times"


class Construct(Workload):
    name = "construct"
    SCALE = 14
    EDGES = 100_000
    WARMUP_OPS = 24
    TRACE_OPS = 48
    #: The caller thinks 140 ms after each main/second pair, so a
    #: 10-second run holds about 45 pairs and a third of it is spent in
    #: ops.  Back to back, the host's stall bursts (figures at
    #: ``Query.THINK_S``) hit more than the ten ops beyond the main tail:
    #: the six pairs each took ~84 ms, and the top eleven of 93 ran
    #: 114-173 ms.  Over five seeds this cut the main tail's spread from
    #: 22% to 6% (7% and 13% in two later ten-seed sets).
    THINK_S = 0.14

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        edges, self._rng = inputs.make_graph(seed, self.SCALE, self.EDGES)
        self._eout_d, self._ein_d = inputs.incidence_dicts(edges)
        self._expected: Dict[str, inputs.Fold] = {}
        for pair in (SECOND_PAIR,) + MAIN_PAIRS:
            self._expected[pair] = inputs.fold(edges.src, edges.dst,
                                               edges.w_out, edges.w_in, pair)
        f = self._expected[SECOND_PAIR]
        self._row_labels = tuple(edges.labels[i] for i in f.row_ids.tolist())
        self._col_labels = tuple(edges.labels[i] for i in f.col_ids.tolist())
        self._pairs = {p: repro.get_op_pair(p)
                       for p in (SECOND_PAIR,) + MAIN_PAIRS}
        # One sampled product per class gets the Definition I.3 check.
        self._sample_pair = MAIN_PAIRS[seed % len(MAIN_PAIRS)]
        self._samples: Dict[str, Any] = {}
        self.sizes = {"rmat_scale": self.SCALE, "edges": self.EDGES,
                      "adjacency_nnz": int(f.vals.size),
                      "out_vertices": len(self._row_labels),
                      "in_vertices": len(self._col_labels),
                      "sampled_pairs": [self._sample_pair, SECOND_PAIR]}

    def setup(self) -> None:
        eout = repro.AssociativeArray(self._eout_d)
        ein = repro.AssociativeArray(self._ein_d)
        by_zero: Dict[Any, Tuple[Any, Any]] = {}
        operands = {}
        for name, pair in self._pairs.items():
            key = repr(pair.zero)
            if key not in by_zero:
                a, b = (eout, ein) if pair.is_zero(0) else \
                    (eout.with_zero(pair.zero), ein.with_zero(pair.zero))
                a.numeric_backend()
                b.numeric_backend()
                by_zero[key] = (a, b)
            operands[name] = by_zero[key]
        self.instance = operands

    def _op(self, cls: str, name: str) -> Op:
        a, b = self.instance[name]
        pair = self._pairs[name]
        expected = self._expected[name]

        def check(result) -> bool:
            self.checks += 1
            if name not in self._samples and name in (self._sample_pair,
                                                      SECOND_PAIR):
                self._samples[name] = result
            nb = result.numeric_backend()
            return (nb is not None
                    and result.row_keys.keys() == self._row_labels
                    and result.col_keys.keys() == self._col_labels
                    and np.array_equal(nb.rows, expected.rows)
                    and np.array_equal(nb.cols, expected.cols)
                    and np.array_equal(nb.vals, expected.vals))
        return cls, (lambda: repro.adjacency_array(a, b, pair)), check

    def ops(self) -> Iterator[Op]:
        # Strict alternation: every op follows one of the other class,
        # so each class meets the same allocator and cache state.
        for i in itertools.count():
            yield self._op("main", MAIN_PAIRS[i % len(MAIN_PAIRS)])
            yield self._op("second", SECOND_PAIR)

    def final_checks(self, rec: Record) -> int:
        failed = 0
        for name, result in self._samples.items():
            a, b = self.instance[name]
            reference = repro.adjacency_array(a, b, self._pairs[name],
                                              kernel="generic")
            if not (result == reference
                    and repro.is_adjacency_array_of(result, a, b)):
                failed += 1
                rec.fail(f"{name}: differs from the generic fold")
        return failed
