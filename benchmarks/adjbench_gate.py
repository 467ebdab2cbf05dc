"""Gate a change on the repository benchmark: parent against head, one machine.

    python benchmarks/adjbench_gate.py run --parent DIR --head DIR \\
        --out results.jsonl
    python benchmarks/adjbench_gate.py check results.jsonl

``run`` drives ``adjbench/run.py`` (the ``command`` of ``BENCHMARK.json``)
for every declared workload in two checkouts: ``PAIRS`` pairs of runs,
each run lasting the declared ``run_seconds``.  Pair ``i`` runs seed
``SEED + i`` on both sides, each workload's two runs back to back, and
the side that goes first alternates from pair to pair, so a drift of the
machine falls on both sides alike.  Each run's result (the last line of
its output) is appended to the JSONL file, tagged with its pair, side,
workload and seed.  ``run`` exits 1 when a head run is not
``"correct": true`` with ``"failed": 0``.

``check`` exits 1 when a head run is not ``"correct": true`` with
``"failed": 0``, or when, on any workload, the head median of an
end-to-end metric is worse than the parent median by more than that
metric's ``bound`` in ``BENCHMARK.json``.  That is the acceptance rule
for a change, run on one machine: no baseline file is locked or
refreshed, and both sides see the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "head")

#: Seed of pair 0; pair ``i`` runs ``SEED + i`` on both sides.
SEED = 101

#: Pairs of runs per workload.  Same-commit runs of 10 s on 2 vCPUs put
#: the chance of a false failure near 8.5% at nine pairs (2% at 13),
#: mostly from the ``ingest_http`` publish tail.
PAIRS = 9

#: A run that has not printed its result after this long is failed.
RUN_TIMEOUT_S = 900


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _command(spec: dict) -> List[str]:
    cmd = list(spec["command"])
    if Path(cmd[0]).name.startswith("python"):
        cmd[0] = sys.executable
    return cmd


def run_once(checkout: Path, cmd: List[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in ``checkout``; its result line, or a failed
    stand-in carrying the tail of its error output."""
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", f"{seconds:g}", "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=checkout, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "failed": None,
                "error": f"no result after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
        if proc.returncode == 0 and isinstance(doc, dict):
            return doc
    except (IndexError, ValueError):
        pass
    return {"correct": False, "failed": None,
            "error": f"exit {proc.returncode}: "
                     + (proc.stderr.strip()[-400:] or "no result line")}


def _correct(doc: dict) -> bool:
    return doc.get("correct") is True and doc.get("failed") == 0


def run_pairs(parent: Path, head: Path, out: Path, *, pairs: int,
              seconds: float, seed: int, workloads: List[str],
              spec: dict) -> bool:
    """Run and record every pair; whether every head run was correct."""
    cmd = _command(spec)
    dirs = {"parent": parent, "head": head}
    ok = True
    with open(out, "a", encoding="utf-8") as fh:
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    doc = run_once(dirs[side], cmd, workload, seed + i,
                                   seconds)
                    row = {"pair": i, "side": side, "workload": workload,
                           "seed": seed + i, "seconds": seconds,
                           "result": doc}
                    fh.write(json.dumps(row) + "\n")
                    fh.flush()
                    ok = ok and (side == "parent" or _correct(doc))
                    print(f"pair {i} {workload:12s} {side:6s} "
                          f"correct={doc.get('correct')} "
                          f"failed={doc.get('failed')}", file=sys.stderr)
    return ok


def load_rows(path: Path) -> List[dict]:
    return [json.loads(line) for line in
            Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]


def _worse_by(parent: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``parent``, as a fraction of the
    parent (negative when better)."""
    if parent == 0:
        if head == parent:
            return 0.0
        worse = head > 0 if better == "lower" else head < 0
        return float("inf") if worse else float("-inf")
    change = (head - parent) / abs(parent)
    return change if better == "lower" else -change


def check(rows: List[dict], spec: dict) -> Tuple[bool, List[str]]:
    """The gate's verdict over ``rows`` and one report line per finding."""
    ok = True
    lines: List[str] = []
    values: Dict[Tuple[str, str], Dict[str, List[float]]] = {}
    for row in rows:
        doc = row["result"]
        if row["side"] == "head" and not _correct(doc):
            ok = False
            lines.append(f"FAIL {row['workload']} pair {row['pair']}: head "
                         f"run correct={doc.get('correct')} "
                         f"failed={doc.get('failed')}"
                         + (f" ({doc['error']})" if "error" in doc else ""))
        per = values.setdefault((row["workload"], row["side"]), {})
        for name, metric in (doc.get("metrics") or {}).items():
            per.setdefault(name, []).append(float(metric["value"]))
    for workload in (w["name"] for w in spec["workloads"]):
        parent = values.get((workload, "parent"), {})
        head = values.get((workload, "head"), {})
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], float(metric["bound"])
            if not parent.get(name) or not head.get(name):
                ok = False
                lines.append(f"FAIL {workload:12s} {name:15s} no "
                             f"{'head' if parent.get(name) else 'parent'} "
                             "value to compare")
                continue
            p_med = statistics.median(parent[name])
            h_med = statistics.median(head[name])
            worse = _worse_by(p_med, h_med, metric["better"])
            verdict = "FAIL" if worse > bound else "ok  "
            ok = ok and worse <= bound
            lines.append(f"{verdict} {workload:12s} {name:15s} parent "
                         f"{p_med:12.4f}  head {h_med:12.4f}  "
                         f"worse {worse:+7.1%}  "
                         f"(bound {bound:.0%}, "
                         f"{len(parent[name])}/{len(head[name])} runs)")
    return ok, lines


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run parent and head, pair by pair")
    run.add_argument("--parent", type=Path, required=True)
    run.add_argument("--head", type=Path, required=True)
    run.add_argument("--out", type=Path, required=True,
                     help="JSONL file the results are appended to")
    chk = sub.add_parser("check", help="apply the gate to a results file")
    chk.add_argument("results", type=Path)
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    spec = load_spec()
    if args.command == "run":
        ok = run_pairs(args.parent.resolve(), args.head.resolve(), args.out,
                       pairs=PAIRS, seconds=spec["run_seconds"], seed=SEED,
                       workloads=[w["name"] for w in spec["workloads"]],
                       spec=spec)
        return 0 if ok else 1
    ok, lines = check(load_rows(args.results), spec)
    print("\n".join(lines))
    print("gate: pass" if ok else "gate: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
