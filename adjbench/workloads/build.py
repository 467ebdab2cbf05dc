"""``build``: what ``repro build`` and then ``repro serve --source`` do.

The benchmark writes an incidence TSV pair during set-up.  Main ops run
a ``ShardedAdjacencyPlan`` under ``+.×`` with the CLI's defaults
(4 shards, thread executor, TSV shards, a temporary workdir) and
``--workers`` capped at ``nproc``, then write the adjacency TSV the way
the CLI does.  Second ops load that file into an ``AdjacencyService``
(``from_tsv``), as ``repro serve --source`` does.

TSV parsing, partitioning, the shard executor and the merge dominate;
the kernel is a small share.  This is the only workload where
``repro.shard`` and ``arrays.io`` changes show.

Set-up is the CLI's start-up: a fresh interpreter importing the CLI and
constructing the plan (which certifies the op-pair) — what every
``repro build`` invocation pays before it reads a line.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import repro
from repro.arrays import io as tsv_io
from adjbench import inputs
from adjbench.harness import Op, Workload

CLI_SHARDS = 4
CLI_WORKERS = 4

#: Vertices whose neighbors are compared after each service load.
SAMPLED_VERTICES = 8

_STARTUP = (
    "import repro.cli\n"
    "from repro import ShardedAdjacencyPlan, get_op_pair\n"
    "ShardedAdjacencyPlan(get_op_pair('plus_times'), n_shards={shards}, "
    "executor='thread', n_workers={workers}, shard_format='tsv')\n")


class Build(Workload):
    name = "build"
    SCALE = 14
    EDGES = 10_000
    WARMUP_OPS = 4
    TRACE_OPS = 12

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        edges, rng = inputs.make_graph(seed, self.SCALE, self.EDGES)
        self._eout = workdir / "eout.tsv"
        self._ein = workdir / "ein.tsv"
        self._adj = workdir / "adjacency.tsv"
        inputs.write_incidence_tsv(edges, self._eout, self._ein)
        f = inputs.fold(edges.src, edges.dst, edges.w_out, edges.w_in)
        self._out, _in = inputs.square_dicts(f, edges.labels)
        self._expected = {(a, b): v for a, row in self._out.items()
                          for b, v in row.items()}
        verts = sorted(self._out)
        self._sample = [verts[i] for i in
                        rng.integers(0, len(verts), SAMPLED_VERTICES).tolist()]
        self._workers = min(CLI_WORKERS, os.cpu_count() or 1)
        self._pair = repro.get_op_pair("plus_times")
        self.sizes = {"rmat_scale": self.SCALE, "edges": self.EDGES,
                      "adjacency_nnz": len(self._expected),
                      "shards": CLI_SHARDS, "workers": self._workers,
                      "executor": "thread"}

    def setup(self) -> None:
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parent.parent))
        subprocess.run(
            [sys.executable, "-c", _STARTUP.format(shards=CLI_SHARDS,
                                                   workers=self._workers)],
            env=env, check=True, timeout=120)

    def _build(self):
        plan = repro.ShardedAdjacencyPlan(
            self._pair, n_shards=CLI_SHARDS, executor="thread",
            n_workers=self._workers, shard_format="tsv", overwrite=True)
        result = plan.run((str(self._eout), str(self._ein)))
        tsv_io.write_tsv_triples(result.adjacency, self._adj)
        return result.nnz

    def _check_written(self, nnz) -> bool:
        self.checks += 1
        got = {}
        with open(self._adj, encoding="utf-8") as fh:
            for line in fh:
                a, b, v = line.rstrip("\n").split("\t")
                got[(a, b)] = float(v)
        return nnz == len(self._expected) and got == self._expected

    def _load(self):
        return repro.AdjacencyService.from_tsv(self._adj, self._pair)

    def _check_loaded(self, service) -> bool:
        self.checks += 1
        return all(service.neighbors(v) == self._out[v] for v in self._sample)

    def ops(self) -> Iterator[Op]:
        while True:
            yield "main", self._build, self._check_written
            yield "second", self._load, self._check_loaded
