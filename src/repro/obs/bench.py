"""Versioned benchmark harness with locked manifests and regression gates.

The ``benchmarks/bench_*.py`` scripts each print one JSON
document — honest measurements with no trajectory.  This module wraps
them into **runs**: a run has an id, a locked manifest (git sha,
machine info, config hash), the per-benchmark reports, and the
*headline metrics* each script nominates (its ``headline(report)``
hook).  Artifacts:

* ``BENCH_<runid>.json`` — the whole run, machine-readable;
* ``report.md`` — the human-readable summary table.

Two runs diff with :func:`compare`: every headline metric shared by
both runs is checked against a regression threshold in its declared
direction (``lower`` is better for latencies, ``higher`` for
speedups/throughput).  ``repro bench --compare A B`` exits non-zero on
any regression — the CI gate consumes exactly this against the
committed ``BENCH_baseline.json``.

Script contract (all existing smoke benches already satisfy it):

* ``run(quick: bool) -> dict`` — execute and return the JSON report;
* ``headline(report: dict) -> dict`` *(optional)* — nominate gateable
  metrics as ``{name: {"value": float, "direction": "lower"|"higher",
  "unit": str}}``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.events import emit_event
from repro.obs.metrics import get_registry
from repro.obs.profile import (active_session, heap_delta, start_profile,
                               stop_profile)

__all__ = [
    "SCRIPT_BENCHMARKS",
    "BenchError",
    "MetricDelta",
    "CompareResult",
    "run_metadata",
    "config_hash",
    "discover_benchmarks",
    "run_benchmarks",
    "harvest_exemplars",
    "render_markdown",
    "load_run",
    "compare",
    "describe_with_exemplars",
    "describe_profile_diff",
    "refresh_baseline",
    "DEFAULT_THRESHOLD",
]

#: The script benchmarks the harness knows how to drive, in run order.
#: (Discovered dynamically too — this tuple is the curated smoke set.)
SCRIPT_BENCHMARKS: Tuple[str, ...] = (
    "bench_shard", "bench_matmul", "bench_semiring_matmul",
    "bench_serve", "bench_expr", "bench_loadgen")

#: Default regression threshold: 20% — the CI gate's bar.
DEFAULT_THRESHOLD = 0.20


class BenchError(RuntimeError):
    """Raised for harness misuse: unknown benchmarks, unreadable runs."""


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def _git_sha(cwd: Optional[Path] = None) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):   # pragma: no cover
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _module_version(name: str) -> Optional[str]:
    try:
        module = __import__(name)
    except ImportError:   # pragma: no cover - both are baked into CI
        return None
    return getattr(module, "__version__", None)


def run_metadata(cwd: Optional[Union[str, Path]] = None) -> Dict[str, Any]:
    """Machine/commit attribution for one run (or one ``-s`` bench
    session): git sha, interpreter and numeric-stack versions, platform.

    Everything here answers "could this number be compared with that
    one?" — the manifest half of a locked run.
    """
    return {
        "git_sha": _git_sha(Path(cwd) if cwd is not None else None),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": _module_version("numpy"),
        "scipy": _module_version("scipy"),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def config_hash(config: Dict[str, Any]) -> str:
    """Stable digest of a run configuration (key-order independent)."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _run_id(sha: Optional[str]) -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    suffix = (sha or "nogit")[:7]
    return f"{stamp}-{suffix}"


# ---------------------------------------------------------------------------
# Discovery and execution
# ---------------------------------------------------------------------------

def _default_bench_dir() -> Path:
    """``benchmarks/`` next to the repo the package is imported from,
    falling back to the working directory's ``benchmarks/``."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "benchmarks"
        if (candidate / "bench_shard.py").exists():
            return candidate
    return Path.cwd() / "benchmarks"


def discover_benchmarks(bench_dir: Optional[Union[str, Path]] = None
                        ) -> List[str]:
    """Names of every harness-runnable script in ``bench_dir`` — i.e.
    modules exposing ``run(quick)`` (checked cheaply by source grep so
    discovery does not import, and thus execute, anything)."""
    root = Path(bench_dir) if bench_dir is not None \
        else _default_bench_dir()
    names: List[str] = []
    for path in sorted(root.glob("bench_*.py")):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:   # pragma: no cover - unreadable file
            continue
        if "def run(" in text and "def main(" in text:
            names.append(path.stem)
    return names


def _load_bench_module(name: str, bench_dir: Path):
    path = bench_dir / f"{name}.py"
    if not path.exists():
        raise BenchError(
            f"unknown benchmark {name!r} (no {path}); known: "
            f"{', '.join(discover_benchmarks(bench_dir)) or 'none'}")
    spec = importlib.util.spec_from_file_location(
        f"repro_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not hasattr(module, "run"):
        raise BenchError(f"benchmark {name!r} has no run(quick) hook")
    return module


def run_benchmarks(
    names: Optional[Sequence[str]] = None,
    *,
    quick: bool = True,
    outdir: Optional[Union[str, Path]] = None,
    bench_dir: Optional[Union[str, Path]] = None,
    progress: bool = False,
    profile: bool = False,
) -> Dict[str, Any]:
    """Execute benchmarks under one locked run; returns the run doc.

    ``names`` defaults to the curated smoke set
    (:data:`SCRIPT_BENCHMARKS`).  When ``outdir`` is given the run doc
    is written as ``BENCH_<runid>.json`` plus ``report.md`` (and the
    doc's ``"artifacts"`` entry records both paths).

    ``profile=True`` runs the whole set under a sampling-profiler
    session (:mod:`repro.obs.profile`), attaching a ``"profile"``
    section — per-function sample table, hottest functions, and the
    self-measured ``overhead_ratio`` — to the run doc, plus
    ``profile.collapsed`` and ``profile_flame.html`` artifacts when
    ``outdir`` is given.  Two such runs diff function-by-function under
    ``repro bench --compare``.  Memory accounting stays *off* here:
    tracemalloc taxes every allocation and would pollute the very
    timings being locked.
    """
    root = Path(bench_dir) if bench_dir is not None \
        else _default_bench_dir()
    chosen = list(names) if names else list(SCRIPT_BENCHMARKS)
    meta = run_metadata(root.parent)
    config = {"benchmarks": chosen, "quick": quick}
    run_id = _run_id(meta.get("git_sha"))
    results: Dict[str, Any] = {}
    headline: Dict[str, Dict[str, Any]] = {}
    timings: Dict[str, float] = {}
    session = None
    if profile:
        if active_session() is not None:
            raise BenchError(
                "a profile session is already active; stop it before "
                "`repro bench --profile` (the run must own its sampler "
                "for an honest overhead ratio)")
        session = start_profile()
    try:
        for name in chosen:
            module = _load_bench_module(name, root)
            if progress:
                print(f"[{run_id}] running {name} "
                      f"({'quick' if quick else 'full'}) ...",
                      file=sys.stderr)
            t0 = time.perf_counter()
            with heap_delta(f"bench_{name}"):
                report = module.run(quick)
            timings[name] = round(time.perf_counter() - t0, 4)
            results[name] = report
            extract = getattr(module, "headline", None)
            if extract is not None:
                headline[name] = extract(report)
    finally:
        run_profile = stop_profile() if session is not None else None
    doc: Dict[str, Any] = {
        "run_id": run_id,
        "manifest": {
            **meta,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                        time.gmtime()),
            "config": config,
            "config_hash": config_hash(config),
        },
        "bench_seconds": timings,
        "headline": headline,
        "results": results,
    }
    # Whatever trace exemplars the benchmarks left on the process-global
    # histograms ride along with the run, so a regression in a headline
    # metric can be chased to a concrete trace id.
    exemplars = harvest_exemplars()
    if exemplars:
        doc["exemplars"] = exemplars
    if run_profile is not None:
        doc["profile"] = {
            "profile_id": run_profile.profile_id,
            "hz": run_profile.hz,
            "samples": run_profile.samples,
            "duration_seconds": round(run_profile.duration, 4),
            "overhead_ratio": round(run_profile.overhead_ratio, 5),
            "top_functions": run_profile.top_functions(20),
            "functions": run_profile.function_totals(),
        }
    if outdir is not None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        json_path = out / f"BENCH_{run_id}.json"
        json_path.write_text(json.dumps(doc, indent=2, ensure_ascii=False)
                             + "\n", encoding="utf-8")
        md_path = out / "report.md"
        md_path.write_text(render_markdown(doc), encoding="utf-8")
        doc["artifacts"] = {"json": str(json_path), "markdown": str(md_path)}
        if run_profile is not None:
            collapsed_path = out / "profile.collapsed"
            collapsed_path.write_text(run_profile.collapsed(),
                                      encoding="utf-8")
            flame_path = out / "profile_flame.html"
            flame_path.write_text(
                run_profile.flamegraph_html(f"bench {run_id}"),
                encoding="utf-8")
            doc["artifacts"]["collapsed"] = str(collapsed_path)
            doc["artifacts"]["flamegraph"] = str(flame_path)
    emit_event("bench_run", run_id=run_id, benchmarks=",".join(chosen),
               quick=quick, seconds=round(sum(timings.values()), 4))
    return doc


def harvest_exemplars(registry: Any = None) -> Dict[str, Dict[str, Any]]:
    """Slowest-bucket exemplars of every histogram on ``registry``
    (default: the process-global one), keyed ``name{labels}``.

    Empty for histograms that never saw a traced observation — the
    harness never fabricates a trace link.
    """
    reg = registry if registry is not None else get_registry()
    out: Dict[str, Dict[str, Any]] = {}
    for family in reg.families():
        if family.kind != "histogram":
            continue
        for labels, inst in sorted(family.children.items()):
            ex = inst.exemplar()
            if ex is None:
                continue
            label_text = ",".join(f"{k}={v}" for k, v in labels)
            key = f"{family.name}{{{label_text}}}" if label_text \
                else family.name
            out[key] = ex
    return out


def render_markdown(doc: Dict[str, Any]) -> str:
    """``report.md`` for one run: manifest block + headline table."""
    m = doc.get("manifest", {})
    lines = [
        f"# Benchmark run `{doc.get('run_id', '?')}`",
        "",
        f"- **commit:** `{m.get('git_sha') or 'unknown'}`",
        f"- **created:** {m.get('created_at', '?')}",
        f"- **python:** {m.get('python', '?')} "
        f"({m.get('implementation', '?')}) · numpy {m.get('numpy', '?')} "
        f"· scipy {m.get('scipy', '?')}",
        f"- **machine:** {m.get('platform', '?')} "
        f"({m.get('cpu_count', '?')} cpus)",
        f"- **config hash:** `{m.get('config_hash', '?')}` "
        f"(quick={m.get('config', {}).get('quick')})",
        "",
        "## Headline metrics",
        "",
        "| benchmark | metric | value | unit | direction |",
        "|---|---|---:|---|---|",
    ]
    for bench, metrics in sorted(doc.get("headline", {}).items()):
        for name, spec in sorted(metrics.items()):
            value = spec.get("value")
            shown = f"{value:.6g}" if isinstance(value, (int, float)) \
                else str(value)
            lines.append(
                f"| {bench} | {name} | {shown} "
                f"| {spec.get('unit', '')} "
                f"| {spec.get('direction', 'lower')} is better |")
    lines.append("")
    lines.append("## Wall time per benchmark")
    lines.append("")
    for bench, seconds in sorted(doc.get("bench_seconds", {}).items()):
        lines.append(f"- `{bench}`: {seconds:.3f}s")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Comparison / regression gate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricDelta:
    """One headline metric diffed across two runs."""

    benchmark: str
    metric: str
    direction: str          # "lower" | "higher" (which way is better)
    baseline: float
    candidate: float
    change: float           # signed relative change vs baseline
    regression: bool
    unit: str = ""

    def describe(self) -> str:
        arrow = "↑" if self.candidate >= self.baseline else "↓"
        verdict = "REGRESSION" if self.regression else "ok"
        return (f"{self.benchmark}.{self.metric}: "
                f"{self.baseline:.6g} → {self.candidate:.6g} "
                f"{self.unit} ({arrow}{abs(self.change) * 100:.1f}%, "
                f"{self.direction} is better) [{verdict}]")


@dataclass
class CompareResult:
    """The full diff of two runs' headline metrics."""

    baseline_id: str
    candidate_id: str
    threshold: float
    deltas: List[MetricDelta] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def describe(self) -> str:
        lines = [
            f"baseline  {self.baseline_id}",
            f"candidate {self.candidate_id}",
            f"threshold {self.threshold * 100:.0f}% "
            f"({len(self.deltas)} shared headline metric(s))",
        ]
        lines += ["  " + d.describe() for d in self.deltas]
        for name in self.missing:
            lines.append(f"  {name}: present in only one run (skipped)")
        lines.append(
            f"verdict: {'OK' if self.ok else 'REGRESSION'} "
            f"({len(self.regressions)} regression(s))")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "baseline": self.baseline_id,
            "candidate": self.candidate_id,
            "threshold": self.threshold,
            "ok": self.ok,
            "deltas": [vars(d) for d in self.deltas],
            "missing": list(self.missing),
        }


def load_run(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a run doc from a ``BENCH_*.json`` file — or from a
    directory, picking its lexically latest ``BENCH_*.json`` (run ids
    start with a UTC timestamp, so lexical order is creation order)."""
    p = Path(path)
    if p.is_dir():
        candidates = sorted(p.glob("BENCH_*.json"))
        if not candidates:
            raise BenchError(f"no BENCH_*.json in {p}")
        p = candidates[-1]
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read run {p}: {exc}") from None
    if not isinstance(doc, dict) or "headline" not in doc:
        raise BenchError(
            f"{p} is not a harness run (no 'headline' section); "
            "was it produced by `repro bench`?")
    return doc


def compare(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> CompareResult:
    """Diff two run docs' headline metrics against ``threshold``.

    A metric regresses when it moves in its *worse* direction by more
    than ``threshold`` (relative): a ``lower``-is-better latency that
    grows >20%, a ``higher``-is-better speedup that shrinks >20%.
    Metrics present in only one run are reported but never gate.
    """
    if threshold < 0:
        raise BenchError(f"threshold must be >= 0, got {threshold}")
    result = CompareResult(
        baseline_id=str(baseline.get("run_id", "?")),
        candidate_id=str(candidate.get("run_id", "?")),
        threshold=threshold)
    base_h = baseline.get("headline", {})
    cand_h = candidate.get("headline", {})
    names = set()
    for bench in set(base_h) | set(cand_h):
        for metric in set(base_h.get(bench, {})) | set(
                cand_h.get(bench, {})):
            names.add((bench, metric))
    for bench, metric in sorted(names):
        a = base_h.get(bench, {}).get(metric)
        b = cand_h.get(bench, {}).get(metric)
        if a is None or b is None:
            result.missing.append(f"{bench}.{metric}")
            continue
        try:
            av, bv = float(a["value"]), float(b["value"])
        except (KeyError, TypeError, ValueError):
            result.missing.append(f"{bench}.{metric}")
            continue
        direction = str(a.get("direction", "lower"))
        change = (bv - av) / av if av else (0.0 if bv == av else
                                            float("inf"))
        if direction == "higher":
            regression = change < -threshold
        else:
            regression = change > threshold
        result.deltas.append(MetricDelta(
            benchmark=bench, metric=metric, direction=direction,
            baseline=av, candidate=bv, change=change,
            regression=regression, unit=str(a.get("unit", ""))))
    return result


def describe_with_exemplars(result: CompareResult,
                            candidate: Dict[str, Any]) -> str:
    """:meth:`CompareResult.describe` plus the candidate run's exemplar
    trace links — so a regression verdict names the trace ids behind
    the slowest observed buckets, not just the moved numbers."""
    text = result.describe()
    exemplars = candidate.get("exemplars") or {}
    if not exemplars:
        return text
    lines = [text, "", "exemplar traces (candidate run):"]
    for key, ex in sorted(exemplars.items()):
        lines.append(
            f"  {key}: trace {ex.get('trace_id', '?')} "
            f"span {ex.get('span_id', '?')} "
            f"value {float(ex.get('value', 0.0)):.6g}")
    return "\n".join(lines)


def describe_profile_diff(baseline: Dict[str, Any],
                          candidate: Dict[str, Any],
                          *, top: int = 10) -> Optional[str]:
    """Function-level profile diff of two run docs, or ``None``.

    When both runs were produced with ``--profile``, their per-function
    sample tables diff by self-time share (most regressed first) — the
    attribution a failed headline gate needs.  ``None`` when either run
    carries no profile (the caller prints nothing rather than a
    fabricated diff).
    """
    from repro.obs.profile import diff_function_tables, render_profile_diff
    base = (baseline.get("profile") or {}).get("functions")
    cand = (candidate.get("profile") or {}).get("functions")
    if not base or not cand:
        return None
    rows = diff_function_tables(base, cand, top=top)
    return render_profile_diff(rows)


# ---------------------------------------------------------------------------
# Baseline lifecycle
# ---------------------------------------------------------------------------

def refresh_baseline(
    run: Dict[str, Any],
    baseline_path: Union[str, Path],
    *,
    reason: str,
    cwd: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Re-lock ``baseline_path`` to ``run``, recording provenance.

    The written doc is the run plus a ``manifest["baseline_refresh"]``
    block — the operator's ``reason``, the git sha the refresh happened
    at, the refresh timestamp, and the run id of the baseline being
    superseded — so a future "why did the bar move?" reads the answer
    out of the baseline file itself.  ``reason`` is mandatory and
    non-empty by design: an unexplained baseline refresh is how
    regression gates rot.
    """
    if not reason or not reason.strip():
        raise BenchError(
            "baseline refresh requires a non-empty --reason; the "
            "manifest records why the bar moved")
    path = Path(baseline_path)
    previous_run_id: Optional[str] = None
    if path.exists():
        try:
            previous_run_id = str(load_run(path).get("run_id"))
        except BenchError:
            previous_run_id = None   # corrupt old baseline; still refresh
    doc = dict(run)
    manifest = dict(doc.get("manifest", {}))
    manifest["baseline_refresh"] = {
        "reason": reason.strip(),
        "git_sha": _git_sha(Path(cwd) if cwd is not None else None),
        "refreshed_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "previous_run_id": previous_run_id,
    }
    doc["manifest"] = manifest
    doc.pop("artifacts", None)   # paths of the source run, not of this file
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    emit_event("baseline_refresh", run_id=str(doc.get("run_id", "?")),
               path=str(path), reason=reason.strip(),
               previous_run_id=previous_run_id)
    return doc
