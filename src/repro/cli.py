"""Command-line interface.

``python -m repro <command>`` (or just ``repro`` once installed):

``figures``
    Run every paper experiment and print the paper-vs-measured report
    (exit 1 on any mismatch) — the one-command reproduction.
``catalog``
    Certify the whole op-pair catalog and print the verdict table.
``certify PAIR``
    Certify one op-pair; prints criteria verdicts and, for violators, the
    lemma witness graph.
``music [--pair NAME] [--weighted]``
    Print the music-figure product for one op-pair (Figures 3/5 rows).
``render FIGURE``
    Print one regenerated figure (fig1..fig5, criteria, structured).
``build EOUT.tsv EIN.tsv -o ADJ.tsv``
    Out-of-core construction: shard a TSV incidence pair on disk, build
    per-shard adjacency arrays in parallel, ⊕-merge, write the adjacency
    array back out as TSV triples (see :mod:`repro.shard`).
``explain EOUT.tsv EIN.tsv``
    Show the lazy expression engine's optimized plan for the adjacency
    construction (applied rewrites with the algebraic properties that
    licensed them, refusals, per-node cost estimates) without — or,
    with ``--execute``, after — running it (see :mod:`repro.expr`).
``serve --source ADJ.tsv``
    Run the concurrent adjacency query service over HTTP: load an
    adjacency TSV (or a kept shard-manifest workdir), answer
    ``/query/*`` reads from immutable epoch snapshots, accept streamed
    edge deltas on ``POST /edges`` + ``/publish`` (see
    :mod:`repro.serve`).
``query KIND [VERTEX]``
    Ask a running server one question (``neighbors``, ``degrees``,
    ``khop``, ``path-lengths``, ``top-k``, ``stats``) and print the
    JSON answer.
``trace --source ADJ.tsv`` / ``trace --id TRACE_ID [--url URL]``
    Run one traced k-hop query against a local source and print the
    span tree (service → cache → kernel) — or fetch one
    finished trace from a running server by id; a miss prints the
    structured "no such trace (ring evicted?)" error with the ring's
    retention bounds (see :mod:`repro.obs.trace`).  ``--list`` prints
    a running server's newest-first trace index instead.
``profile start|stop|dump|diff``
    The sampling profiler (:mod:`repro.obs.profile`): ``start``/
    ``stop`` manage a running server's process-wide session over HTTP
    (``POST /profile/start|stop``); ``dump`` snapshots a live remote
    session (``GET /profile``) *or* profiles a local k-hop workload
    over ``--source`` for ``--seconds``, printing the hottest
    functions and optionally writing collapsed stacks (``-o``) and a
    self-contained HTML flamegraph (``--flame``); ``diff`` compares
    two profile artifacts (collapsed files or profile JSON)
    function-by-function, most regressed first.  Every dump carries
    the sampler's self-measured ``overhead_ratio``.
``events [--follow] [--interval S] [--since SEQ] [--kind KIND]``
    Print a running server's structured event log (epoch publications,
    rewrite refusals, shard spills, cache invalidations, kernel
    choices, profiler sessions) as JSON Lines; ``--follow`` tails it
    with a seq cursor every ``--interval`` seconds, and ``--kind``
    filters by exact kind, comma-separated kinds, or a ``prefix.*``
    wildcard (``--kind 'profile.*'``; see :mod:`repro.obs.events`).

Performance is measured outside the package, by the repository
benchmark: ``python3 adjbench/run.py --workload NAME --seed N
--seconds S`` (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Constructing adjacency arrays from incidence arrays "
                    "(Jananthan, Dibert & Kepner, 2017) — reproduction CLI.")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures",
                   help="run all experiments; print paper-vs-measured")

    sub.add_parser("catalog", help="certify the full op-pair catalog")

    p_cert = sub.add_parser("certify", help="certify one op-pair")
    p_cert.add_argument("pair", help="registry name, e.g. plus_times")
    p_cert.add_argument("--seed", type=int, default=0xA55)
    p_cert.add_argument("--samples", type=int, default=400)

    p_music = sub.add_parser("music",
                             help="print a Figure 3/5 product table")
    p_music.add_argument("--pair", default="plus_times")
    p_music.add_argument("--weighted", action="store_true",
                         help="use Figure 4's weighted E1 (Figure 5)")

    p_render = sub.add_parser("render", help="print one regenerated figure")
    p_render.add_argument("figure",
                          choices=["fig1", "fig2", "fig3", "fig4", "fig5",
                                   "criteria", "reverse", "structured"])

    p_build = sub.add_parser(
        "build",
        help="construct an adjacency TSV from a TSV incidence pair "
             "through on-disk shards")
    p_build.add_argument("eout", help="Eout TSV-triple file (edge, vertex, "
                                      "value)")
    p_build.add_argument("ein", help="Ein TSV-triple file")
    p_build.add_argument("-o", "--output", required=True,
                         help="output adjacency TSV-triple file")
    p_build.add_argument("--pair", default="plus_times",
                         help="op-pair registry name (default: plus_times)")
    p_build.add_argument("--shards", type=int, default=4,
                         help="number of edge shards (default: 4)")
    p_build.add_argument("--workers", type=int, default=4,
                         help="worker count (default: 4)")
    p_build.add_argument("--executor", default="thread",
                         choices=["serial", "thread", "process"],
                         help="per-shard execution backend")
    p_build.add_argument("--strategy", default="round_robin",
                         choices=["round_robin", "hash"],
                         help="edge-key → shard assignment")
    p_build.add_argument("--kernel", default="auto",
                         choices=["auto", "generic", "scipy", "sortmerge",
                                  "dense_blocked"],
                         help="multiply kernel")
    p_build.add_argument("--backend", default="auto",
                         choices=["auto", "dict", "numeric"],
                         help="array storage backend per shard (dict pins "
                              "the generic paths; numeric compiles the "
                              "columnar/CSR form at ingest and keeps it "
                              "through the ⊕-merge)")
    p_build.add_argument("--mode", default="sparse",
                         choices=["sparse", "dense"],
                         help="evaluation mode (dense = faithful "
                              "Definition I.3 semantics; required by "
                              "--kernel dense_blocked)")
    p_build.add_argument("--workdir", default=None,
                         help="shard/spill directory, kept after the run; "
                              "an existing shard set there is replaced.  "
                              "Default: a temporary directory")
    p_build.add_argument("--unsafe-ok", action="store_true",
                         help="accept op-pairs that fail the Theorem II.1 "
                              "criteria or have order-sensitive ⊕")
    p_build.add_argument("--quiet", action="store_true",
                         help="suppress the summary report")

    p_explain = sub.add_parser(
        "explain",
        help="print the optimizer's plan for an incidence-to-adjacency "
             "expression (rewrites, licenses, cost estimates)")
    p_explain.add_argument("eout", help="Eout TSV-triple file (edge, "
                                        "vertex, value)")
    p_explain.add_argument("ein", help="Ein TSV-triple file")
    p_explain.add_argument("--pair", default="plus_times",
                           help="op-pair registry name (default: "
                                "plus_times)")
    p_explain.add_argument("--khop", type=int, default=None, metavar="K",
                           help="plan the K-hop power chain A·A·…·A over "
                                "the squared adjacency (shows "
                                "common-subexpression sharing)")
    p_explain.add_argument("--reduce", default=None,
                           choices=["rows", "cols"],
                           help="plan a trailing ⊕-reduction (shows "
                                "reduction-into-matmul fusion)")
    p_explain.add_argument("--no-optimize", action="store_true",
                           help="plan the expression exactly as written "
                                "(no rewrites)")
    p_explain.add_argument("--execute", action="store_true",
                           help="also run the plan and report the result")

    p_serve = sub.add_parser(
        "serve",
        help="serve adjacency queries over HTTP from a TSV file or "
             "shard workdir")
    p_serve.add_argument("--source", required=True,
                         help="adjacency TSV-triple file (src, dst, "
                              "value — e.g. repro build output) or a "
                              "kept shard workdir with a manifest.json")
    p_serve.add_argument("--pair", default=None,
                         help="op-pair registry name (default: a "
                              "manifest source's recorded pair, else "
                              "plus_times)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8631,
                         help="TCP port (default: 8631; 0 = ephemeral)")
    p_serve.add_argument("--cache-size", type=int, default=1024,
                         help="query-cache capacity (0 disables caching)")
    p_serve.add_argument("--unsafe-ok", action="store_true",
                         help="accept op-pairs that fail the Theorem "
                              "II.1 criteria or have order-sensitive ⊕")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log each HTTP request to stderr")
    p_serve.add_argument("--log-events", action="store_true",
                         dest="log_events",
                         help="route the per-request access log onto "
                              "the structured event ring (kind "
                              "http.log) instead of stderr — bounded "
                              "and filterable, so it stays sane under "
                              "generated load")

    p_query = sub.add_parser(
        "query", help="query a running adjacency service over HTTP")
    p_query.add_argument("kind",
                         choices=["neighbors", "degrees", "khop",
                                  "path-lengths", "top-k", "stats"])
    p_query.add_argument("vertex", nargs="?",
                         help="subject vertex (required by neighbors, "
                              "khop, path-lengths)")
    p_query.add_argument("--direction", default=None,
                         choices=["out", "in"],
                         help="edge direction for neighbors/degrees")
    p_query.add_argument("-k", type=int, default=None, dest="k",
                         help="hop count (khop) or result count (top-k)")
    p_query.add_argument("--query-pair", default=None, metavar="PAIR",
                         help="fold khop under this certified op-pair")
    p_query.add_argument("--url", default="http://127.0.0.1:8631",
                         help="server base URL")

    p_trace = sub.add_parser(
        "trace",
        help="run one traced k-hop query against a local source and "
             "print its span tree, or fetch a finished trace by id "
             "from a running server")
    p_trace.add_argument("--source", default=None,
                         help="adjacency TSV-triple file or kept shard "
                              "workdir (as in `repro serve`); required "
                              "unless --id is given")
    p_trace.add_argument("--id", default=None, dest="trace_id",
                         metavar="TRACE_ID",
                         help="fetch this finished trace from a running "
                              "server (GET /trace/<id>) instead of "
                              "running a local query; a miss reports "
                              "the trace ring's retention bounds")
    p_trace.add_argument("--url", default="http://127.0.0.1:8631",
                         help="server base URL for --id")
    p_trace.add_argument("--pair", default=None,
                         help="op-pair registry name (default: the "
                              "source's recorded pair, else plus_times)")
    p_trace.add_argument("--vertex", default=None,
                         help="query source vertex (default: the "
                              "snapshot's first vertex)")
    p_trace.add_argument("-k", type=int, default=2, dest="k",
                         help="hop count of the traced query (default: 2)")
    p_trace.add_argument("--unsafe-ok", action="store_true",
                         help="accept op-pairs that fail the Theorem "
                              "II.1 criteria or have order-sensitive ⊕")
    p_trace.add_argument("--json", action="store_true",
                         help="print the trace as JSON instead of a tree")
    p_trace.add_argument("--list", action="store_true", dest="list_traces",
                         help="print a running server's newest-first "
                              "trace index (GET /trace) instead of "
                              "running or fetching one trace")

    p_profile = sub.add_parser(
        "profile",
        help="sampling profiler: manage a server's session, dump a "
             "local or remote profile, or diff two profiles")
    pr = p_profile.add_subparsers(dest="profile_command", required=True)

    pr_start = pr.add_parser(
        "start", help="start a running server's profile session "
                      "(POST /profile/start)")
    pr_start.add_argument("--url", default="http://127.0.0.1:8631",
                          help="server base URL")
    pr_start.add_argument("--hz", type=float, default=None,
                          help="sampling rate (default: the server's, "
                               "97 Hz)")
    pr_start.add_argument("--memory", action="store_true",
                          help="also run tracemalloc heap-growth "
                               "accounting (slower; off by default)")

    pr_stop = pr.add_parser(
        "stop", help="stop the server's session and print the profile "
                     "(POST /profile/stop)")
    pr_stop.add_argument("--url", default="http://127.0.0.1:8631",
                         help="server base URL")
    pr_stop.add_argument("--flame", default=None, metavar="FILE",
                         help="also fetch the finished profile's HTML "
                              "flamegraph (GET /profile/flame) to FILE")
    pr_stop.add_argument("--json", action="store_true",
                         help="print the full profile dump as JSON")

    pr_dump = pr.add_parser(
        "dump", help="snapshot a live remote session (--url), or "
                     "profile a local k-hop workload over --source")
    pr_dump.add_argument("--url", default=None,
                         help="running server base URL (GET /profile); "
                              "mutually exclusive with --source")
    pr_dump.add_argument("--source", default=None,
                         help="adjacency TSV-triple file or kept shard "
                              "workdir to profile in-process")
    pr_dump.add_argument("--pair", default=None,
                         help="op-pair registry name for --source")
    pr_dump.add_argument("--unsafe-ok", action="store_true",
                         help="accept non-compliant op-pairs for "
                              "--source")
    pr_dump.add_argument("--seconds", type=float, default=2.0,
                         help="how long to drive the local workload "
                              "(default: 2)")
    pr_dump.add_argument("--hz", type=float, default=None,
                         help="sampling rate for --source (default: 97)")
    pr_dump.add_argument("-k", type=int, default=3, dest="k",
                         help="hop count of the driven k-hop queries "
                              "(default: 3)")
    pr_dump.add_argument("--vertex", default=None,
                         help="query source vertex (default: cycle "
                              "over the snapshot's vertices)")
    pr_dump.add_argument("--memory", action="store_true",
                         help="also run tracemalloc heap-growth "
                              "accounting for --source")
    pr_dump.add_argument("-o", "--out", default=None, metavar="FILE",
                         help="write collapsed stacks (Brendan Gregg "
                              "format) to FILE")
    pr_dump.add_argument("--flame", default=None, metavar="FILE",
                         help="write a self-contained HTML flamegraph "
                              "to FILE")
    pr_dump.add_argument("--top", type=int, default=15,
                         help="hottest functions to print (default: 15)")
    pr_dump.add_argument("--json", action="store_true",
                         help="print the full dump as JSON")

    pr_diff = pr.add_parser(
        "diff", help="function-level diff of two profile artifacts, "
                     "most regressed first")
    pr_diff.add_argument("baseline",
                         help="collapsed-stack file or profile JSON")
    pr_diff.add_argument("candidate", help="same formats as baseline")
    pr_diff.add_argument("--top", type=int, default=10,
                         help="rows to print (default: 10)")

    p_events = sub.add_parser(
        "events",
        help="print a running server's structured event log as JSONL")
    p_events.add_argument("--url", default="http://127.0.0.1:8631",
                          help="server base URL")
    p_events.add_argument("--since", type=int, default=None,
                          help="only events with seq > SINCE")
    p_events.add_argument("--kind", default=None,
                          help="filter by event kind: exact "
                               "(epoch_published), comma-separated "
                               "alternatives, or a prefix wildcard "
                               "(profile.*); known kinds include "
                               "epoch_published, rewrite_refused, "
                               "shard_spill, cache_invalidation, "
                               "expr.kernel, profile.start, "
                               "profile.stop, http.log, http.error")
    p_events.add_argument("--limit", type=int, default=None,
                          help="keep only the newest LIMIT events")
    p_events.add_argument("--follow", action="store_true",
                          help="poll for new events (seq cursor) until "
                               "interrupted")
    p_events.add_argument("--interval", type=float, default=1.0,
                          help="poll interval seconds for --follow "
                               "(default: 1.0)")

    return parser


def _cmd_figures() -> int:
    from repro.experiments.harness import render_report, run_all
    report = run_all()
    print(render_report(report))
    return 0 if report.all_matched else 1


def _cmd_catalog() -> int:
    from repro.core.certify import certify
    from repro.values import exotic  # noqa: F401 — registers pairs
    from repro.values.semiring import get_op_pair, list_op_pairs
    rows = []
    for name in list_op_pairs():
        pair = get_op_pair(name)
        cert = certify(pair, seed=0xA55)
        verdict = "SAFE  " if cert.safe else "UNSAFE"
        expected = pair.expected_safe
        mark = " " if expected is None or expected == cert.safe else "!"
        detail = ""
        if not cert.safe:
            violation = cert.criteria.first_violation()
            if violation is not None:
                detail = f"  ({violation.property_name})"
        rows.append(f"{verdict}{mark} {pair.display:24s} [{name}]{detail}")
    print("\n".join(rows))
    return 0


def _cmd_certify(name: str, seed: int, samples: int) -> int:
    from repro.core.certify import certify
    from repro.values import exotic  # noqa: F401
    from repro.values.semiring import SemiringError, get_op_pair
    try:
        pair = get_op_pair(name)
    except SemiringError as exc:
        print(exc, file=sys.stderr)
        return 2
    cert = certify(pair, seed=seed, samples=samples)
    print(cert.summary())
    if cert.witness is not None:
        from repro.arrays.printing import format_array
        print("\nwitness graph edges:",
              ", ".join(f"{k}: {s}→{t}"
                        for k, s, t in cert.witness.graph.edges()))
        print("Eout:")
        print(format_array(cert.witness.eout))
        print("Ein:")
        print(format_array(cert.witness.ein))
        print("EoutᵀEin (dense):")
        print(format_array(cert.witness.product) or "(all zero)")
    return 0 if cert.safe else 1


def _cmd_music(pair_name: str, weighted: bool) -> int:
    from repro.arrays.printing import format_array
    from repro.core.construction import correlate
    from repro.datasets.music import music_e1, music_e1_weighted, music_e2
    from repro.values.semiring import SemiringError, get_op_pair
    try:
        pair = get_op_pair(pair_name)
    except SemiringError as exc:
        print(exc, file=sys.stderr)
        return 2
    e1 = music_e1_weighted() if weighted else music_e1()
    e2 = music_e2()
    if not pair.is_zero(0):
        e1 = e1.with_zero(pair.zero)
        e2 = e2.with_zero(pair.zero)
    adj = correlate(e1, e2, pair)
    source = "Figure 5 (weighted E1)" if weighted else "Figure 3"
    print(format_array(
        adj, title=f"{source}: E1ᵀ {pair.display} E2", max_col_width=22))
    return 0


def _cmd_render(figure: str) -> int:
    from repro.experiments.figures import all_experiments
    for exp in all_experiments():
        if exp.name == figure:
            print(exp.render())
            return 0
    print(f"unknown figure {figure!r}", file=sys.stderr)  # pragma: no cover
    return 2  # pragma: no cover


def _cmd_build(args) -> int:
    from repro.arrays.io import write_tsv_triples
    from repro.shard import ShardedAdjacencyPlan, ShardError
    from repro.values.semiring import SemiringError, get_op_pair
    try:
        pair = get_op_pair(args.pair)
    except SemiringError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        plan = ShardedAdjacencyPlan(
            pair,
            n_shards=args.shards,
            executor=args.executor,
            n_workers=args.workers,
            mode=args.mode,
            kernel=args.kernel,
            backend=args.backend,
            strategy=args.strategy,
            shard_format="tsv",
            workdir=args.workdir,
            keep_workdir=args.workdir is not None,
            overwrite=True,  # pointing --workdir at a dir again is intent
            unsafe_ok=args.unsafe_ok,
        )
    except ShardError as exc:
        # The library hint names the keyword argument; translate to the
        # CLI spelling.
        msg = str(exc).replace("unsafe_ok=True", "--unsafe-ok")
        print(f"refused: {msg}", file=sys.stderr)
        return 1
    try:
        result = plan.run((args.eout, args.ein))
        write_tsv_triples(result.adjacency, args.output)
    except (ValueError, TypeError, OSError) as exc:
        # ValueError covers ShardError/KeyError_/MatmulError/GraphError;
        # TypeError covers algebra failures on malformed TSV values
        # (e.g. a text field where the op-pair expects a number).
        print(f"build failed: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        m = result.manifest
        t = result.timings
        print(f"built {args.output}: {result.nnz} stored entries "
              f"({result.adjacency.shape[0]}×{result.adjacency.shape[1]})")
        waived = args.unsafe_ok and (not plan.certification.safe
                                     or plan.order_sensitive)
        print(f"  op-pair   {pair.display} [{pair.name}]"
              + ("  (UNSAFE — guarantees waived)" if waived else ""))
        print(f"  edges     {m.n_edges} across {m.n_shards} shards "
              f"({m.strategy}); per-shard nnz {list(result.shard_nnz)}")
        print(f"  executor  {args.executor} ×{args.workers} workers, "
              f"kernel={args.kernel}, backend={args.backend}")
        if args.workdir is not None:
            print(f"  manifest  {Path(args.workdir) / 'manifest.json'}")
        print("  timings   " + "  ".join(
            f"{k}={v:.3f}s" for k, v in t.items()))
    return 0


def _cmd_explain(args) -> int:
    import time
    from repro.arrays.associative import AssociativeArray
    from repro.arrays.io import iter_tsv_triples
    from repro.expr import lazy, plan
    from repro.values.semiring import SemiringError, get_op_pair
    try:
        pair = get_op_pair(args.pair)
    except SemiringError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        eout = AssociativeArray.from_triples(
            iter_tsv_triples(args.eout), zero=pair.zero)
        ein = AssociativeArray.from_triples(
            iter_tsv_triples(args.ein), zero=pair.zero)
    except (OSError, ValueError) as exc:
        print(f"cannot load incidence pair: {exc}", file=sys.stderr)
        return 2
    if eout.row_keys != ein.row_keys:
        edges = eout.row_keys.union(ein.row_keys)
        eout = eout.with_keys(edges)
        ein = ein.with_keys(edges)
    expr = lazy(eout, "Eout").T.matmul(lazy(ein, "Ein"), pair)
    if args.khop is not None:
        if args.khop < 1:
            print("--khop must be >= 1", file=sys.stderr)
            return 2
        # Square the adjacency over the vertex union, then chain hops;
        # CSE shares the squared-adjacency subtree across every hop.
        vertices = eout.col_keys.union(ein.col_keys)
        squared = expr.with_keys(vertices, vertices)
        expr = squared
        for _ in range(args.khop - 1):
            expr = expr.matmul(squared, pair)
    if args.reduce == "rows":
        expr = expr.reduce_rows(pair.add)
    elif args.reduce == "cols":
        expr = expr.reduce_cols(pair.add)
    try:
        the_plan = plan(expr, optimize_plan=not args.no_optimize)
    except ValueError as exc:
        print(f"planning failed: {exc}", file=sys.stderr)
        return 1
    print(the_plan.explain())
    if args.execute:
        t0 = time.perf_counter()
        result = the_plan.execute()
        elapsed = time.perf_counter() - t0
        print(f"\nexecuted in {elapsed:.3f}s: "
              f"{result.shape[0]}×{result.shape[1]} array, "
              f"{result.nnz} stored entries ({result.backend} backend)")
    return 0


def load_service(source: str, pair_name: Optional[str] = None, *,
                 cache_size: int = 1024, unsafe_ok: bool = False):
    """Build an :class:`~repro.serve.AdjacencyService` from ``--source``.

    A directory (or a path to a ``manifest.json``) is treated as a kept
    shard workdir and constructed on load; anything else is read as an
    adjacency TSV-triple file.  ``pair_name=None`` means "not chosen":
    a manifest source then uses its recorded op-pair, a TSV source
    defaults to ``plus_times``.  Raises ``ValueError`` subclasses with
    user-facing messages; ``FileNotFoundError`` for a missing source.
    """
    from repro.serve import AdjacencyService
    from repro.values.semiring import get_op_pair
    path = Path(source)
    options = {"cache_size": cache_size, "unsafe_ok": unsafe_ok}
    if path.is_dir() or path.name == "manifest.json":
        # The manifest records its own op-pair; an explicit --pair wins.
        pair = get_op_pair(pair_name) if pair_name is not None else None
        return AdjacencyService.from_manifest(path, pair, **options)
    if not path.exists():
        raise FileNotFoundError(f"no such source: {path}")
    return AdjacencyService.from_tsv(
        path, get_op_pair(pair_name or "plus_times"), **options)


def _cmd_serve(args) -> int:
    from repro.serve import build_server
    from repro.values.semiring import SemiringError
    try:
        service = load_service(
            args.source, args.pair,
            cache_size=args.cache_size, unsafe_ok=args.unsafe_ok)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (SemiringError, ValueError) as exc:
        # ServeError / ShardError / KeyError_ are ValueErrors with
        # user-facing messages; the library hint names the keyword
        # argument — translate to the CLI spelling.
        msg = str(exc).replace("unsafe_ok=True", "--unsafe-ok")
        print(f"refused: {msg}", file=sys.stderr)
        return 1
    server = build_server(service, args.host, args.port,
                          quiet=not args.verbose,
                          log_events=args.log_events)
    host, port = server.server_address[:2]
    snap = service.snapshot()
    print(f"serving {args.source} on http://{host}:{port}  "
          f"(epoch {snap.epoch}, {len(snap.vertices)} vertices, "
          f"{snap.nnz} entries, op-pair {service.op_pair.name})")
    print("  GET  /health  /healthz  /stats  /metrics  /trace  /events")
    print("  GET  /query/<kind>?vertex=...&k=...  /profile[/flame]")
    print("  POST /edges   /publish   /profile/start   /profile/stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
    return 0


def _cmd_query(args) -> int:
    import json
    from urllib import error as urlerror
    from urllib import request as urlrequest
    from urllib.parse import urlencode
    kind = args.kind.replace("-", "_")
    if kind == "stats":
        url = f"{args.url.rstrip('/')}/stats"
    else:
        params = {}
        if args.vertex is not None:
            params["vertex"] = args.vertex
        if args.direction is not None:
            params["direction"] = args.direction
        if args.k is not None:
            params["k"] = args.k
        if args.query_pair is not None:
            params["pair"] = args.query_pair
        url = f"{args.url.rstrip('/')}/query/{kind}"
        if params:
            url += "?" + urlencode(params)
    try:
        with urlrequest.urlopen(url, timeout=30) as resp:
            doc = json.loads(resp.read().decode("utf-8"))
    except urlerror.HTTPError as exc:
        try:
            doc = json.loads(exc.read().decode("utf-8"))
            message = doc.get("error", str(exc))
        except Exception:
            message = str(exc)
        print(f"query failed: {message}", file=sys.stderr)
        return 1
    except urlerror.URLError as exc:
        print(f"cannot reach {args.url}: {exc.reason}", file=sys.stderr)
        return 1
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _fetch_json(url: str, timeout: float = 30.0):
    """``(status, doc)`` for one GET; HTTP errors still parse the JSON
    body (the server's structured errors are the interesting part)."""
    import json
    from urllib import error as urlerror
    from urllib import request as urlrequest
    try:
        with urlrequest.urlopen(url, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urlerror.HTTPError as exc:
        try:
            return exc.code, json.loads(exc.read().decode("utf-8"))
        except Exception:
            return exc.code, {"error": str(exc), "status": exc.code}


def _post_json(url: str, payload=None, timeout: float = 30.0):
    """``(status, doc)`` for one JSON POST; structured error bodies
    parse just like :func:`_fetch_json`."""
    import json
    from urllib import error as urlerror
    from urllib import request as urlrequest
    body = json.dumps(payload or {}).encode("utf-8")
    req = urlrequest.Request(
        url, data=body, headers={"Content-Type": "application/json"},
        method="POST")
    try:
        with urlrequest.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urlerror.HTTPError as exc:
        try:
            return exc.code, json.loads(exc.read().decode("utf-8"))
        except Exception:
            return exc.code, {"error": str(exc), "status": exc.code}


def _cmd_trace_fetch(args) -> int:
    """``repro trace --id``: one finished trace from a running server."""
    import json
    from urllib import error as urlerror
    url = f"{args.url.rstrip('/')}/trace/{args.trace_id}"
    try:
        status, doc = _fetch_json(url)
    except urlerror.URLError as exc:
        print(f"cannot reach {args.url}: {exc.reason}", file=sys.stderr)
        return 1
    if status != 200:
        print(f"trace lookup failed: {doc.get('error', status)}",
              file=sys.stderr)
        retention = doc.get("retention")
        if isinstance(retention, dict):
            print("  ring retention: "
                  + ", ".join(f"{k}={v}"
                              for k, v in sorted(retention.items())),
                  file=sys.stderr)
        return 1
    print(json.dumps(doc, indent=2, sort_keys=True, default=str))
    return 0


def _cmd_trace_list(args) -> int:
    """``repro trace --list``: a server's newest-first trace index."""
    import json
    from urllib import error as urlerror
    url = f"{args.url.rstrip('/')}/trace"
    try:
        status, doc = _fetch_json(url)
    except urlerror.URLError as exc:
        print(f"cannot reach {args.url}: {exc.reason}", file=sys.stderr)
        return 1
    if status != 200:
        print(f"trace index fetch failed: {doc.get('error', status)}",
              file=sys.stderr)
        return 1
    traces = doc.get("traces", [])
    if args.json:
        print(json.dumps(traces, indent=2, sort_keys=True, default=str))
        return 0
    if not traces:
        print("no finished traces in the ring")
        return 0
    print(f"{len(traces)} finished trace(s), newest first:")
    print("  trace_id    duration_ms  spans  name")
    for row in traces:
        ms = row.get("duration_ms")
        print(f"  {row.get('trace_id', '?'):<10}  "
              f"{ms if ms is not None else float('nan'):>11.3f}  "
              f"{row.get('spans', 0):>5}  {row.get('name', '?')}")
    return 0


def _cmd_trace(args) -> int:
    import json
    from repro.obs.trace import render_trace
    from repro.values.semiring import SemiringError
    if args.list_traces:
        return _cmd_trace_list(args)
    if args.trace_id is not None:
        return _cmd_trace_fetch(args)
    if args.source is None:
        print("--source is required unless --id is given",
              file=sys.stderr)
        return 2
    try:
        service = load_service(
            args.source, args.pair, unsafe_ok=args.unsafe_ok)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (SemiringError, ValueError) as exc:
        msg = str(exc).replace("unsafe_ok=True", "--unsafe-ok")
        print(f"refused: {msg}", file=sys.stderr)
        return 1
    snapshot = service.snapshot()
    vertex = args.vertex
    if vertex is None:
        if not len(snapshot.vertices):
            print("source has no vertices to query", file=sys.stderr)
            return 1
        vertex = snapshot.vertices[0]
    elif vertex not in snapshot.vertices:
        for cast in (int, float):
            try:
                if cast(vertex) in snapshot.vertices:
                    vertex = cast(vertex)
                    break
            except ValueError:
                continue
    try:
        frontier = service.khop(vertex, args.k)
    except ValueError as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 1
    root = service.tracer.latest()
    if root is None:  # pragma: no cover - query() always traces
        print("no trace was recorded", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(root.to_dict(), indent=2, default=str))
    else:
        print(f"khop(vertex={vertex!r}, k={args.k}): "
              f"{len(frontier)} frontier entries, epoch {service.epoch}")
        print(render_trace(root))
    return 0


def _cmd_events(args) -> int:
    import json
    import time as time_mod
    from urllib import error as urlerror
    from urllib.parse import urlencode
    base = f"{args.url.rstrip('/')}/events"
    cursor = args.since

    def fetch(since):
        params = {}
        if since is not None:
            params["since"] = since
        if args.kind is not None:
            params["kind"] = args.kind
        if args.limit is not None:
            params["limit"] = args.limit
        url = base + ("?" + urlencode(params) if params else "")
        return _fetch_json(url)

    try:
        status, doc = fetch(cursor)
    except urlerror.URLError as exc:
        print(f"cannot reach {args.url}: {exc.reason}", file=sys.stderr)
        return 1
    if status != 200:
        print(f"events fetch failed: {doc.get('error', status)}",
              file=sys.stderr)
        return 1
    for event in doc.get("events", []):
        print(json.dumps(event, sort_keys=True, default=str))
        cursor = event.get("seq", cursor)
    if not args.follow:
        retention = doc.get("retention", {})
        print("retention: "
              + ", ".join(f"{k}={v}"
                          for k, v in sorted(retention.items())),
              file=sys.stderr)
        return 0
    try:
        while True:   # pragma: no cover - interactive tail
            time_mod.sleep(max(args.interval, 0.05))
            try:
                status, doc = fetch(cursor)
            except urlerror.URLError as exc:
                print(f"lost {args.url}: {exc.reason}", file=sys.stderr)
                return 1
            if status != 200:
                print(f"events fetch failed: {doc.get('error', status)}",
                      file=sys.stderr)
                return 1
            for event in doc.get("events", []):
                print(json.dumps(event, sort_keys=True, default=str),
                      flush=True)
                cursor = event.get("seq", cursor)
    except KeyboardInterrupt:   # pragma: no cover - interactive
        return 0


def _print_profile_summary(doc, top: int = 15) -> None:
    """The human-readable core of a profile dump: identity line,
    honesty line, hottest functions, per-span CPU."""
    print(f"profile {doc.get('profile_id', '?')}: "
          f"{doc.get('samples', 0)} samples @ {doc.get('hz', '?')} Hz "
          f"over {doc.get('duration_seconds', 0.0):.2f}s "
          f"({doc.get('distinct_stacks', 0)} distinct stacks, "
          f"{doc.get('threads_seen', 0)} thread(s))")
    print(f"  sampler overhead: {float(doc.get('overhead_ratio', 0.0)):.2%} "
          "of wall time (self-measured)")
    rows = doc.get("top_functions", [])[:top]
    if rows:
        print("  hottest functions (self%  total%  function):")
        for row in rows:
            print(f"    {row['self_pct']:>6.2f}  {row['total_pct']:>6.2f}"
                  f"  {row['function']}")
    span_cpu = doc.get("span_cpu", [])
    if span_cpu:
        print("  sampled CPU per finished span (newest last):")
        for entry in span_cpu[-10:]:
            print(f"    {entry['name']}  {entry['cpu_ms']:.1f} ms "
                  f"({entry['cpu_samples']} samples)  "
                  f"trace {entry['trace_id']}")
    memory = doc.get("memory")
    if memory and memory.get("enabled"):
        print(f"  heap: current {memory.get('current_bytes', 0)} B, "
              f"peak {memory.get('peak_bytes', 0)} B, "
              f"{len(memory.get('deltas', []))} labelled delta(s)")
        for delta in memory.get("deltas", [])[-5:]:
            print(f"    {delta['label']}: {delta['grew_bytes']:+d} B")


def _cmd_profile_dump_local(args) -> int:
    """Profile a local k-hop workload: the in-process spelling of
    ``repro profile dump`` (no server needed)."""
    import json
    from repro.obs.profile import start_profile, stop_profile
    from repro.values.semiring import SemiringError
    try:
        # cache_size=0: repeated queries must exercise the kernels, not
        # the LRU — a cached dump would profile dictionary lookups.
        service = load_service(args.source, args.pair, cache_size=0,
                               unsafe_ok=args.unsafe_ok)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (SemiringError, ValueError) as exc:
        msg = str(exc).replace("unsafe_ok=True", "--unsafe-ok")
        print(f"refused: {msg}", file=sys.stderr)
        return 1
    vertices = list(service.snapshot().vertices)
    if not vertices:
        print("source has no vertices to query", file=sys.stderr)
        return 1
    chosen = [args.vertex] if args.vertex is not None else vertices
    import time as time_mod
    session = start_profile(hz=args.hz or 97.0, memory=args.memory)
    queries = 0
    try:
        deadline = time_mod.perf_counter() + max(args.seconds, 0.1)
        while time_mod.perf_counter() < deadline:
            service.khop(chosen[queries % len(chosen)], args.k)
            queries += 1
    finally:
        profile = stop_profile()
    doc = profile.to_dict(top=max(args.top, 1))
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True, default=str))
    else:
        print(f"drove {queries} khop(k={args.k}) queries over "
              f"{len(chosen)} vertex(es), uncached")
        _print_profile_summary(doc, top=args.top)
    if args.out is not None:
        Path(args.out).write_text(profile.collapsed(), encoding="utf-8")
        print(f"wrote collapsed stacks: {args.out}")
    if args.flame is not None:
        Path(args.flame).write_text(profile.flamegraph_html(),
                                    encoding="utf-8")
        print(f"wrote flamegraph: {args.flame}")
    return 0


def _cmd_profile(args) -> int:
    import json
    from urllib import error as urlerror
    from repro.obs.profile import (ProfileError, diff_function_tables,
                                   load_profile_functions,
                                   render_profile_diff)
    if args.profile_command == "diff":
        try:
            baseline = load_profile_functions(args.baseline)
            candidate = load_profile_functions(args.candidate)
        except ProfileError as exc:
            print(exc, file=sys.stderr)
            return 2
        rows = diff_function_tables(baseline, candidate,
                                    top=max(args.top, 1))
        print(f"baseline  {args.baseline}")
        print(f"candidate {args.candidate}")
        print(render_profile_diff(rows))
        return 0
    base = args.url.rstrip("/") if args.url else None
    try:
        if args.profile_command == "start":
            payload = {"memory": args.memory}
            if args.hz is not None:
                payload["hz"] = args.hz
            status, doc = _post_json(f"{base}/profile/start", payload)
            if status != 200:
                print(f"profile start failed: {doc.get('error', status)}",
                      file=sys.stderr)
                return 1
            print(f"profiling started: session {doc.get('profile_id')} "
                  f"@ {doc.get('hz')} Hz"
                  + (" with memory accounting" if doc.get("memory")
                     else ""))
            return 0
        if args.profile_command == "stop":
            status, doc = _post_json(f"{base}/profile/stop")
            if status != 200:
                print(f"profile stop failed: {doc.get('error', status)}",
                      file=sys.stderr)
                return 1
            if args.json:
                print(json.dumps(doc, indent=2, sort_keys=True,
                                 default=str))
            else:
                _print_profile_summary(doc)
            if args.flame is not None:
                from urllib import request as urlrequest
                with urlrequest.urlopen(f"{base}/profile/flame",
                                        timeout=30) as resp:
                    Path(args.flame).write_bytes(resp.read())
                print(f"wrote flamegraph: {args.flame}")
            return 0
        if args.profile_command == "dump":
            if args.url is not None and args.source is not None:
                print("--url and --source are mutually exclusive",
                      file=sys.stderr)
                return 2
            if args.url is None:
                if args.source is None:
                    print("one of --url or --source is required",
                          file=sys.stderr)
                    return 2
                return _cmd_profile_dump_local(args)
            url = f"{base}/profile"
            if args.out is not None:
                url += "?stacks=1"
            status, doc = _fetch_json(url)
            if status != 200:
                print(f"profile dump failed: {doc.get('error', status)}",
                      file=sys.stderr)
                return 1
            if args.json:
                print(json.dumps(doc, indent=2, sort_keys=True,
                                 default=str))
            else:
                _print_profile_summary(doc, top=args.top)
            if args.out is not None:
                stacks = doc.get("stacks", {})
                text = "\n".join(f"{k} {v}" for k, v in sorted(
                    stacks.items(), key=lambda kv: -kv[1]))
                Path(args.out).write_text(text + ("\n" if text else ""),
                                          encoding="utf-8")
                print(f"wrote collapsed stacks: {args.out}")
            if args.flame is not None:
                from urllib import request as urlrequest
                with urlrequest.urlopen(f"{base}/profile/flame",
                                        timeout=30) as resp:
                    Path(args.flame).write_bytes(resp.read())
                print(f"wrote flamegraph: {args.flame}")
            return 0
    except urlerror.URLError as exc:
        print(f"cannot reach {args.url}: {exc.reason}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")  # pragma: no cover


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "figures":
        return _cmd_figures()
    if args.command == "catalog":
        return _cmd_catalog()
    if args.command == "certify":
        return _cmd_certify(args.pair, args.seed, args.samples)
    if args.command == "music":
        return _cmd_music(args.pair, args.weighted)
    if args.command == "render":
        return _cmd_render(args.figure)
    if args.command == "build":
        return _cmd_build(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "events":
        return _cmd_events(args)
    if args.command == "profile":
        return _cmd_profile(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
