"""Continuous sampling profiler with per-span CPU attribution.

The attribution half of the observability stack: the repository
benchmark (``adjbench/``) can *detect* a slowdown, this module says
**where the time and memory went** — stdlib only, always-on-capable,
honest about its own overhead.

* **Sampling** — every tick walks :func:`sys._current_frames` at a
  configurable rate (:data:`DEFAULT_HZ`), aggregating each thread's
  stack into **collapsed-stack** form (Brendan Gregg's
  ``root;child;leaf count`` lines), renderable as a self-contained HTML
  flamegraph (:func:`render_flamegraph_html`) or a text tree
  (:func:`render_flamegraph_text`).  A session started on the main
  thread ticks from a wall-clock ``ITIMER_REAL`` timer whose ``SIGALRM``
  handler runs on the main thread itself, so it needs no GIL handoff: a
  sampler *thread* starves while the main thread drops and retakes the
  GIL faster than the switch interval (a k-hop loop of small scipy
  calls does), and no switch request is ever raised.  ``ITIMER_PROF``
  would not do: the kernel sends an expired process CPU timer to the
  thread that is on the CPU, so the main thread's handler would not run
  while it waits in ``join()`` on a busy worker.  Sessions started off
  the main thread, or while another owner holds ``SIGALRM`` or the real
  timer, use a daemon sampler thread instead.  No
  ``threading.setprofile`` / ``sys.settrace`` anywhere: unprofiled code
  runs untouched.
* **Per-span CPU attribution** — while a session is active, a span
  observer (:func:`repro.obs.trace.set_span_observer`) mirrors each
  thread's innermost open span into a table the sampler can read
  (``contextvars`` — the mechanism behind
  :func:`repro.obs.trace.current_ids` — are invisible across threads,
  so the push/pop feed is the cross-thread spelling of the same hook).
  Samples land on the innermost span; when a span closes its sampled
  CPU is stamped into its attrs (``cpu_samples``, ``cpu_ms``), so
  ``GET /trace/<id>`` and ``repro trace`` report sampled CPU next to
  wall time with no extra plumbing.
* **Memory accounting** — with ``memory=True`` the session runs
  :mod:`tracemalloc` and :func:`heap_delta` snapshots heap growth
  around labelled blocks (epoch publications), recording
  the per-site top growers.  Off by default: tracemalloc taxes every
  allocation, and the sampler alone is the always-on mode.
* **Honesty** — every dump carries ``overhead_ratio``: the sampler's
  self-measured frame-walk time divided by the session's wall time.
  CI gates this under 10% on ``repro profile dump --source``'s local
  k-hop workload.

One session per process (the sampler is process-wide);
:func:`start_profile` / :func:`stop_profile` manage it, finished
profiles land in a bounded ring (:func:`get_profile_ring`) for
``GET /profile/flame`` after the fact, and ``profile.start`` /
``profile.stop`` events mark the window on the event ring.

Surfaces: ``GET /profile`` (+ structured 409 when idle),
``GET /profile/flame``, ``POST /profile/start|stop``, and
``repro profile start|stop|dump|diff``.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
import tracemalloc
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.events import emit_event
from repro.obs.trace import Span, set_span_observer

__all__ = [
    "DEFAULT_HZ",
    "ProfileError",
    "NoActiveProfile",
    "Profile",
    "ProfileRing",
    "ProfileSession",
    "start_profile",
    "stop_profile",
    "active_session",
    "get_profile_ring",
    "heap_delta",
    "parse_collapsed",
    "function_totals",
    "diff_function_tables",
    "render_profile_diff",
    "render_flamegraph_html",
    "render_flamegraph_text",
    "load_profile_functions",
]

#: Default sampling rate.  97 Hz is the profiler folklore choice — a
#: prime just under 100 so samples never phase-lock with 10 ms / 100 Hz
#: periodic work and misreport it as 0% or 100%.
DEFAULT_HZ = 97

#: Frames kept per sampled stack before truncation (deep k-hop chains
#: are real; unbounded recursion is not worth sampling forever).
DEFAULT_MAX_DEPTH = 512

#: How the CLI starts a session — named in the structured 409 so the
#: error teaches the fix.
START_HINT = ("no profile session is active; start one with "
              "`repro profile start` (POST /profile/start)")


class ProfileError(RuntimeError):
    """Raised for profiler misuse: double starts, bad rates, bad dumps."""


class NoActiveProfile(ProfileError):
    """Stop/dump with no session running; carries :data:`START_HINT`."""

    def __init__(self, message: str = START_HINT) -> None:
        super().__init__(message)


# ---------------------------------------------------------------------------
# Span observer: the cross-thread "which span is active" table
# ---------------------------------------------------------------------------

class _SpanTracker:
    """Mirror of each thread's innermost open span, plus sample counts.

    ``span_pushed``/``span_popped`` run on the *instrumented* threads
    (dict writes, GIL-atomic); :meth:`attribute` runs on the sampler
    thread.  On pop, the span's accumulated samples are stamped into
    its attrs — after that the finished trace tree itself carries the
    CPU attribution.
    """

    def __init__(self, hz: float, max_completed: int = 1024) -> None:
        self._hz = hz
        self._active: Dict[int, Span] = {}
        self._counts: Dict[int, int] = {}
        self.completed: Deque[Dict[str, Any]] = deque(maxlen=max_completed)

    # -- called from instrumented threads (via trace.set_span_observer)
    def span_pushed(self, span: Span) -> None:
        self._active[threading.get_ident()] = span

    def span_popped(self, span: Span) -> None:
        ident = threading.get_ident()
        if span.parent is not None:
            self._active[ident] = span.parent
        else:
            self._active.pop(ident, None)
        samples = self._counts.pop(id(span), 0)
        if samples:
            cpu_ms = round(samples * 1000.0 / self._hz, 3)
            span.set_attr("cpu_samples", samples)
            span.set_attr("cpu_ms", cpu_ms)
            self.completed.append({
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "name": span.name,
                "cpu_samples": samples,
                "cpu_ms": cpu_ms,
            })

    # -- called from the sampler thread
    def attribute(self, ident: int) -> None:
        span = self._active.get(ident)
        if span is not None:
            key = id(span)
            self._counts[key] = self._counts.get(key, 0) + 1

    def live_attribution(self) -> List[Dict[str, Any]]:
        """Samples on spans still open right now (a live dump's view)."""
        out: List[Dict[str, Any]] = []
        for span in list(self._active.values()):
            samples = self._counts.get(id(span), 0)
            if samples:
                out.append({
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "name": span.name,
                    "cpu_samples": samples,
                    "cpu_ms": round(samples * 1000.0 / self._hz, 3),
                })
        return out


# ---------------------------------------------------------------------------
# The samplers: a timer-signal handler on the main thread, or a thread
# ---------------------------------------------------------------------------

def _frame_label(frame: Any) -> str:
    """One stack entry: ``module.qualname`` (readable, low cardinality —
    no filenames or line numbers, so recursion folds onto one frame)."""
    code = frame.f_code
    name = getattr(code, "co_qualname", None) or code.co_name
    module = frame.f_globals.get("__name__") or "?"
    return f"{module}.{name}"


class _Sampler(threading.Thread):
    """Walks ``sys._current_frames()`` at the session's rate.

    Runs as a daemon so a crashed owner never leaves a non-daemon
    thread pinning the interpreter.  The tick loop drops missed ticks
    instead of bunching them — under a long GIL hold the sampler falls
    behind honestly rather than firing a catch-up burst that would
    overweight whatever ran right after.
    """

    def __init__(self, session: "ProfileSession") -> None:
        super().__init__(name="repro-profile-sampler", daemon=True)
        self._session = session
        # Not named ``_stop``: threading.Thread owns a private method
        # by that name and shadowing it breaks ``join()``.
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)

    def run(self) -> None:
        interval = 1.0 / self._session.hz
        next_tick = time.perf_counter() + interval
        while not self._halt.is_set():
            delay = next_tick - time.perf_counter()
            if delay > 0:
                self._halt.wait(delay)
            if self._halt.is_set():
                return
            t0 = time.perf_counter()
            frames = sys._current_frames()
            frames.pop(self.ident, None)
            self._session._take_sample(frames)
            now = time.perf_counter()
            self._session._walk_seconds += now - t0
            next_tick += interval
            if next_tick < now:   # behind: drop missed ticks
                next_tick = now + interval


class _TimerSampler:
    """Samples from a ``SIGALRM`` handler driven by ``ITIMER_REAL``.

    The handler runs on the main thread between bytecodes, or when a
    blocking call there is interrupted, and samples the main thread at
    the frame it interrupted.  Ticks that fall due while one is being
    handled are dropped, like the thread sampler's missed ticks.
    """

    def __init__(self, session: "ProfileSession") -> None:
        self._session = session
        self._busy = False

    @staticmethod
    def available() -> bool:
        """Whether this thread may own ``SIGALRM`` and the real timer:
        it is the main thread, and nobody else holds either."""
        return (threading.current_thread() is threading.main_thread()
                and hasattr(signal, "setitimer")
                and signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
                and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0))

    def start(self) -> None:
        interval = 1.0 / self._session.hz
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if threading.current_thread() is threading.main_thread():
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        else:
            # Only the main thread may reinstall a handler; this one
            # stays behind as a no-op, since no tick is due any more.
            self._busy = True

    def _tick(self, _signum: int, frame: Any) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            frames = sys._current_frames()
            # The main thread's own entry is this handler's frame.
            frames[threading.get_ident()] = frame
            self._session._take_sample(frames)
            self._session._walk_seconds += time.perf_counter() - t0
        finally:
            self._busy = False


# ---------------------------------------------------------------------------
# Collapsed-stack utilities (shared by sessions, dumps, and the CLI)
# ---------------------------------------------------------------------------

def parse_collapsed(text: str) -> Dict[Tuple[str, ...], int]:
    """Parse Brendan Gregg collapsed-stack lines back into stack counts.

    Each non-empty line is ``frame;frame;...;frame count`` — the exact
    inverse of :meth:`Profile.collapsed`, so a dumped file round-trips
    into :func:`render_flamegraph_html` and :func:`diff_function_tables`.
    """
    stacks: Dict[Tuple[str, ...], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        stack_text, _, count_text = line.rpartition(" ")
        if not stack_text:
            raise ProfileError(
                f"line {lineno}: expected 'frame;...;frame count', "
                f"got {line!r}")
        try:
            count = int(count_text)
        except ValueError:
            raise ProfileError(
                f"line {lineno}: sample count must be an integer, "
                f"got {count_text!r}") from None
        key = tuple(stack_text.split(";"))
        stacks[key] = stacks.get(key, 0) + count
    return stacks


def function_totals(stacks: Dict[Tuple[str, ...], int]
                    ) -> Dict[str, Dict[str, int]]:
    """Per-function sample totals from stack counts.

    ``self`` counts samples where the function was the running leaf;
    ``total`` counts samples where it appeared anywhere on the stack
    (each function counted once per sample, however often recursion
    repeats it).
    """
    out: Dict[str, Dict[str, int]] = {}
    for stack, count in stacks.items():
        if not stack:
            continue
        leaf = stack[-1]
        row = out.setdefault(leaf, {"self": 0, "total": 0})
        row["self"] += count
        for frame in set(stack):
            out.setdefault(frame, {"self": 0, "total": 0})["total"] += count
    return out


def diff_function_tables(
    baseline: Dict[str, Dict[str, Any]],
    candidate: Dict[str, Dict[str, Any]],
    *,
    top: int = 10,
    min_delta_pct: float = 0.1,
) -> List[Dict[str, Any]]:
    """Top functions whose **self-time share** moved between two
    profiles, most-regressed first.

    Shares (percent of each profile's own total samples) rather than
    raw counts, so two runs of different lengths diff honestly.  Rows
    below ``min_delta_pct`` percentage points of movement are noise and
    dropped.
    """
    def shares(table: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
        total = sum(int(row.get("self", 0)) for row in table.values())
        if total <= 0:
            return {}
        return {name: 100.0 * int(row.get("self", 0)) / total
                for name, row in table.items()}

    base = shares(baseline)
    cand = shares(candidate)
    rows: List[Dict[str, Any]] = []
    for name in set(base) | set(cand):
        b, c = base.get(name, 0.0), cand.get(name, 0.0)
        delta = c - b
        if abs(delta) < min_delta_pct:
            continue
        rows.append({
            "function": name,
            "baseline_self_pct": round(b, 2),
            "candidate_self_pct": round(c, 2),
            "delta_pct": round(delta, 2),
        })
    rows.sort(key=lambda r: -r["delta_pct"])
    return rows[:top]


def render_profile_diff(rows: Sequence[Dict[str, Any]]) -> str:
    """The function-level diff as an aligned text table."""
    if not rows:
        return "profile diff: no function moved materially"
    lines = ["profile diff (self-time share, most regressed first):",
             "  delta_pp  baseline  candidate  function"]
    for row in rows:
        lines.append(
            f"  {row['delta_pct']:>+8.2f}  "
            f"{row['baseline_self_pct']:>7.2f}%  "
            f"{row['candidate_self_pct']:>8.2f}%  {row['function']}")
    return "\n".join(lines)


def load_profile_functions(path: Union[str, "Any"]) -> Dict[str, Dict[str, Any]]:
    """Function-total table from a profile artifact on disk.

    Accepts a collapsed-stack text file (``repro profile dump -o``
    output) or a profile JSON dump (``"functions"`` or ``"stacks"``
    key) — whatever the operator has at hand.
    """
    from pathlib import Path
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ProfileError(f"cannot read profile {p}: {exc}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProfileError(f"{p}: malformed JSON: {exc}") from None
        if isinstance(doc.get("functions"), dict):
            return doc["functions"]
        if isinstance(doc.get("stacks"), dict):
            return function_totals(parse_collapsed(
                "\n".join(f"{k} {v}" for k, v in doc["stacks"].items())))
        raise ProfileError(
            f"{p}: no 'functions' or 'stacks' section — "
            "not a profile dump")
    return function_totals(parse_collapsed(text))


# ---------------------------------------------------------------------------
# Flamegraph rendering (iterative throughout: 1k-frame stacks are real)
# ---------------------------------------------------------------------------

def _build_tree(stacks: Dict[Tuple[str, ...], int]) -> Dict[str, Any]:
    """Merge stack counts into one tree (iteratively — no recursion)."""
    root: Dict[str, Any] = {"name": "all", "value": 0, "children": {}}
    for stack, count in stacks.items():
        root["value"] += count
        node = root
        for frame in stack:
            child = node["children"].get(frame)
            if child is None:
                child = {"name": frame, "value": 0, "children": {}}
                node["children"][frame] = child
            child["value"] += count
            node = child
    return root


def render_flamegraph_text(
    stacks: Dict[Tuple[str, ...], int],
    *,
    max_depth: int = 40,
    min_pct: float = 0.5,
) -> str:
    """The sample tree as indented text (the terminal's flamegraph).

    Children print heaviest-first; subtrees below ``min_pct`` of all
    samples collapse into one ``… (n more)`` line so a hot path reads
    top-to-bottom without noise.
    """
    root = _build_tree(stacks)
    total = root["value"]
    if total == 0:
        return "(no samples)"
    lines = [f"flamegraph: {total} samples"]
    stack: List[Tuple[Dict[str, Any], int]] = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if depth > 0:
            pct = 100.0 * node["value"] / total
            lines.append(f"{'  ' * depth}{node['name']}  "
                         f"{pct:.1f}% ({node['value']})")
        if depth >= max_depth:
            continue
        children = sorted(node["children"].values(),
                          key=lambda c: -c["value"])
        shown = [c for c in children
                 if 100.0 * c["value"] / total >= min_pct]
        hidden = len(children) - len(shown)
        if hidden > 0:
            lines.append(f"{'  ' * (depth + 1)}… ({hidden} more)")
        for child in reversed(shown):
            stack.append((child, depth + 1))
    return "\n".join(lines)


_FLAME_CSS = """
body { font: 12px/1.4 -apple-system, 'Segoe UI', sans-serif; margin: 16px; }
h1 { font-size: 15px; } .meta { color: #666; margin-bottom: 12px; }
#flame { position: relative; }
.fr { position: absolute; height: 15px; overflow: hidden;
      white-space: nowrap; text-overflow: ellipsis; font-size: 10px;
      line-height: 15px; padding: 0 3px; box-sizing: border-box;
      border: 1px solid rgba(255,255,255,.7); border-radius: 2px;
      cursor: default; }
.fr:hover { border-color: #000; }
"""


def _flame_color(index: int) -> str:
    """A deterministic warm palette keyed on node order (no RNG — dumps
    must be byte-stable for artifact diffing)."""
    hues = (18, 28, 8, 35, 12, 24, 4, 31)
    hue = hues[index % len(hues)]
    light = 55 + (index * 7) % 18
    return f"hsl({hue},86%,{light}%)"


def render_flamegraph_html(
    stacks: Dict[Tuple[str, ...], int],
    *,
    title: str = "repro profile",
    meta: Optional[Dict[str, Any]] = None,
    min_frac: float = 0.001,
) -> str:
    """A self-contained HTML flamegraph (no external assets).

    Frames are absolutely positioned divs — a flat element list, so a
    1000-frame stack renders without nesting 1000 elements inside each
    other.  Frames narrower than ``min_frac`` of the root are pruned
    (they would be sub-pixel anyway); each div's tooltip carries the
    full frame name, sample count, and share.
    """
    root = _build_tree(stacks)
    total = root["value"]
    rows: List[str] = []
    max_depth = 0
    if total:
        # Iterative layout: (node, depth, left-edge as fraction of root).
        work: List[Tuple[Dict[str, Any], int, float]] = [(root, 0, 0.0)]
        index = 0
        while work:
            node, depth, left = work.pop()
            frac = node["value"] / total
            if depth > 0 and frac >= min_frac:
                pct = 100.0 * frac
                label = (node["name"].replace("&", "&amp;")
                         .replace("<", "&lt;").replace(">", "&gt;"))
                tip = f"{label} — {node['value']} samples ({pct:.2f}%)"
                rows.append(
                    f'<div class="fr" title="{tip}" style="'
                    f'left:{left * 100:.4f}%;width:{pct:.4f}%;'
                    f'top:{(depth - 1) * 16}px;'
                    f'background:{_flame_color(index)}">{label}</div>')
                index += 1
                max_depth = max(max_depth, depth)
            if depth > 0 and frac < min_frac:
                continue
            edge = left
            for child in sorted(node["children"].values(),
                                key=lambda c: c["name"]):
                work.append((child, depth + 1, edge))
                edge += child["value"] / total
    meta_bits = [f"{total} samples"]
    for key, value in sorted((meta or {}).items()):
        meta_bits.append(f"{key}={value}")
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        f"<title>{title}</title><style>{_FLAME_CSS}</style></head><body>"
        f"<h1>{title}</h1><div class='meta'>{' · '.join(meta_bits)}</div>"
        f"<div id='flame' style='height:{max_depth * 16 + 2}px'>"
        + "".join(rows)
        + "</div></body></html>")


# ---------------------------------------------------------------------------
# Profiles, the ring, and the session
# ---------------------------------------------------------------------------

class Profile:
    """One finished profiling session's aggregated result."""

    __slots__ = ("profile_id", "hz", "started_at", "duration", "samples",
                 "stacks", "span_cpu", "thread_samples", "memory",
                 "overhead_ratio")

    def __init__(self, *, profile_id: str, hz: float, started_at: float,
                 duration: float, samples: int,
                 stacks: Dict[Tuple[str, ...], int],
                 span_cpu: List[Dict[str, Any]],
                 thread_samples: Dict[int, int],
                 memory: Optional[Dict[str, Any]],
                 overhead_ratio: float) -> None:
        self.profile_id = profile_id
        self.hz = hz
        self.started_at = started_at
        self.duration = duration
        self.samples = samples
        self.stacks = dict(stacks)
        self.span_cpu = list(span_cpu)
        self.thread_samples = dict(thread_samples)
        self.memory = memory
        self.overhead_ratio = overhead_ratio

    # -- exports --------------------------------------------------------
    def collapsed(self) -> str:
        """Brendan Gregg collapsed-stack text, heaviest stack first."""
        rows = sorted(self.stacks.items(), key=lambda kv: (-kv[1], kv[0]))
        return "\n".join(f"{';'.join(stack)} {count}"
                         for stack, count in rows) + ("\n" if rows else "")

    def function_totals(self) -> Dict[str, Dict[str, int]]:
        return function_totals(self.stacks)

    def top_functions(self, n: int = 20) -> List[Dict[str, Any]]:
        """Hottest functions by self samples, with total (inclusive)
        samples and shares alongside."""
        table = self.function_totals()
        total = max(self.samples, 1)
        rows = sorted(table.items(),
                      key=lambda kv: (-kv[1]["self"], -kv[1]["total"],
                                      kv[0]))
        return [{
            "function": name,
            "self": counts["self"],
            "total": counts["total"],
            "self_pct": round(100.0 * counts["self"] / total, 2),
            "total_pct": round(100.0 * counts["total"] / total, 2),
        } for name, counts in rows[:n] if counts["total"] > 0]

    def flamegraph_html(self, title: Optional[str] = None) -> str:
        return render_flamegraph_html(
            self.stacks,
            title=title or f"repro profile {self.profile_id}",
            meta={"hz": self.hz,
                  "duration_s": round(self.duration, 3),
                  "overhead": f"{self.overhead_ratio:.2%}"})

    def to_dict(self, *, top: int = 20,
                stacks: bool = False) -> Dict[str, Any]:
        """JSON-ready dump: identity, honesty block, hottest functions,
        span attribution, memory accounting — plus, on request, the raw
        collapsed stacks (they dominate the payload, so opt-in)."""
        doc: Dict[str, Any] = {
            "profile_id": self.profile_id,
            "hz": self.hz,
            "started_at": self.started_at,
            "duration_seconds": round(self.duration, 4),
            "samples": self.samples,
            "distinct_stacks": len(self.stacks),
            "threads_seen": len(self.thread_samples),
            "overhead_ratio": round(self.overhead_ratio, 5),
            "top_functions": self.top_functions(top),
            "span_cpu": list(self.span_cpu),
        }
        if self.memory is not None:
            doc["memory"] = self.memory
        if stacks:
            doc["stacks"] = {";".join(k): v
                             for k, v in self.stacks.items()}
        return doc

    def __repr__(self) -> str:   # pragma: no cover - cosmetic
        return (f"Profile({self.profile_id!r}, {self.samples} samples "
                f"@ {self.hz} Hz, {self.duration:.2f}s)")


class ProfileRing:
    """Bounded, thread-safe ring of finished profiles.

    The same retention contract as the trace and event rings: the last
    ``max_profiles`` sessions stay inspectable (``GET /profile/flame``
    after a session ends), older ones drop silently-but-countably.
    """

    def __init__(self, max_profiles: int = 8) -> None:
        if max_profiles < 1:
            raise ProfileError(
                f"max_profiles must be >= 1, got {max_profiles}")
        self.max_profiles = max_profiles
        self._lock = threading.Lock()
        self._profiles: Deque[Profile] = deque(maxlen=max_profiles)
        self._dropped = 0

    def add(self, profile: Profile) -> None:
        with self._lock:
            if len(self._profiles) == self.max_profiles:
                self._dropped += 1
            self._profiles.append(profile)

    def latest(self) -> Optional[Profile]:
        with self._lock:
            return self._profiles[-1] if self._profiles else None

    def get(self, profile_id: str) -> Optional[Profile]:
        with self._lock:
            for profile in self._profiles:
                if profile.profile_id == profile_id:
                    return profile
        return None

    def profiles(self) -> List[Dict[str, Any]]:
        """Newest-first index (id, when, samples, duration)."""
        with self._lock:
            rows = list(self._profiles)
        return [{
            "profile_id": p.profile_id,
            "started_at": p.started_at,
            "duration_seconds": round(p.duration, 4),
            "samples": p.samples,
            "hz": p.hz,
        } for p in reversed(rows)]

    def retention(self) -> Dict[str, Any]:
        with self._lock:
            return {"max_profiles": self.max_profiles,
                    "stored": len(self._profiles),
                    "dropped": self._dropped}

    def clear(self) -> None:
        with self._lock:
            self._profiles.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._profiles)


class ProfileSession:
    """One live sampling session (use :func:`start_profile` normally).

    ``hz`` bounds: past ~1000 Hz the sampler would spend more time
    holding the GIL than the workload; below 1 Hz nothing statistical
    survives.  ``memory=True`` additionally runs :mod:`tracemalloc`
    for :func:`heap_delta` accounting (measurably slower — leave it off
    for always-on use).
    """

    _ids = 0
    _ids_lock = threading.Lock()

    def __init__(self, *, hz: float = DEFAULT_HZ, memory: bool = False,
                 max_depth: int = DEFAULT_MAX_DEPTH) -> None:
        if not 1 <= hz <= 1000:
            raise ProfileError(f"hz must be in [1, 1000], got {hz}")
        if max_depth < 1:
            raise ProfileError(f"max_depth must be >= 1, got {max_depth}")
        with ProfileSession._ids_lock:
            ProfileSession._ids += 1
            self.profile_id = f"p{ProfileSession._ids:06d}"
        self.hz = float(hz)
        self.memory = bool(memory)
        self.max_depth = max_depth
        self.started_at = 0.0
        self._t0 = 0.0
        # Re-entrant: the timer sampler's handler can interrupt the
        # main thread inside a dump that already holds it.
        self._lock = threading.RLock()
        self._stacks: Dict[Tuple[str, ...], int] = {}
        self._samples = 0
        self._thread_samples: Dict[int, int] = {}
        self._walk_seconds = 0.0
        self._tracker = _SpanTracker(self.hz)
        self._sampler: Optional[Union[_Sampler, _TimerSampler]] = None
        self._memory_deltas: List[Dict[str, Any]] = []
        self._started_tracemalloc = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ProfileSession":
        if self._sampler is not None:
            raise ProfileError("profile session already started")
        if self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        set_span_observer(self._tracker)
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self._sampler = _TimerSampler(self) if _TimerSampler.available() \
            else _Sampler(self)
        self._sampler.start()
        emit_event("profile.start", profile_id=self.profile_id,
                   hz=self.hz, memory=self.memory)
        return self

    def stop(self) -> Profile:
        sampler = self._sampler
        if sampler is None:
            raise ProfileError("profile session was never started")
        sampler.stop()
        self._sampler = None
        set_span_observer(None)
        duration = time.perf_counter() - self._t0
        memory: Optional[Dict[str, Any]] = None
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            memory = {
                "enabled": True,
                "current_bytes": current,
                "peak_bytes": peak,
                "deltas": list(self._memory_deltas),
            }
            if self._started_tracemalloc:
                tracemalloc.stop()
        with self._lock:
            profile = Profile(
                profile_id=self.profile_id, hz=self.hz,
                started_at=self.started_at, duration=duration,
                samples=self._samples, stacks=self._stacks,
                span_cpu=list(self._tracker.completed),
                thread_samples=self._thread_samples,
                memory=memory,
                overhead_ratio=self._overhead_ratio(duration))
        emit_event("profile.stop", profile_id=self.profile_id,
                   samples=profile.samples,
                   duration_seconds=round(duration, 4),
                   overhead_ratio=round(profile.overhead_ratio, 5))
        return profile

    # -- sampling (samplers only) ---------------------------------------
    def _take_sample(self, frames: Dict[int, Any]) -> None:
        """Record one stack per ``{thread ident: innermost frame}``."""
        rows: List[Tuple[int, Tuple[str, ...]]] = []
        for ident, frame in frames.items():
            stack: List[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                stack.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            if frame is not None:
                stack.append("<truncated>")
            stack.reverse()   # collapsed form is root-first
            rows.append((ident, tuple(stack)))
        with self._lock:
            for ident, key in rows:
                self._stacks[key] = self._stacks.get(key, 0) + 1
                self._samples += 1
                self._thread_samples[ident] = \
                    self._thread_samples.get(ident, 0) + 1
        for ident, _key in rows:
            self._tracker.attribute(ident)

    def _overhead_ratio(self, wall: float) -> float:
        return (self._walk_seconds / wall) if wall > 0 else 0.0

    # -- memory accounting ---------------------------------------------
    def record_heap_delta(self, entry: Dict[str, Any]) -> None:
        with self._lock:
            self._memory_deltas.append(entry)
            del self._memory_deltas[:-256]   # bounded, newest kept

    # -- live inspection ------------------------------------------------
    @property
    def running(self) -> bool:
        return self._sampler is not None

    def dump(self, *, top: int = 20, stacks: bool = False) -> Dict[str, Any]:
        """A live snapshot of the running session (no stop needed)."""
        wall = time.perf_counter() - self._t0
        with self._lock:
            snapshot = Profile(
                profile_id=self.profile_id, hz=self.hz,
                started_at=self.started_at, duration=wall,
                samples=self._samples, stacks=dict(self._stacks),
                span_cpu=list(self._tracker.completed),
                thread_samples=dict(self._thread_samples),
                memory=None, overhead_ratio=self._overhead_ratio(wall))
        doc = snapshot.to_dict(top=top, stacks=stacks)
        doc["running"] = self.running
        doc["live_span_cpu"] = self._tracker.live_attribution()
        if self.memory:
            current, peak = tracemalloc.get_traced_memory() \
                if tracemalloc.is_tracing() else (0, 0)
            with self._lock:
                doc["memory"] = {"enabled": True,
                                 "current_bytes": current,
                                 "peak_bytes": peak,
                                 "deltas": list(self._memory_deltas)}
        return doc

    def snapshot_profile(self) -> Profile:
        """The live stacks as a :class:`Profile` (for flame rendering
        mid-session)."""
        wall = time.perf_counter() - self._t0
        with self._lock:
            return Profile(
                profile_id=self.profile_id, hz=self.hz,
                started_at=self.started_at, duration=wall,
                samples=self._samples, stacks=dict(self._stacks),
                span_cpu=list(self._tracker.completed),
                thread_samples=dict(self._thread_samples),
                memory=None, overhead_ratio=self._overhead_ratio(wall))


# ---------------------------------------------------------------------------
# Process-global session management
# ---------------------------------------------------------------------------

_RING = ProfileRing()
_ACTIVE: Optional[ProfileSession] = None
_ACTIVE_LOCK = threading.Lock()


def get_profile_ring() -> ProfileRing:
    """The process-global ring of finished profiles."""
    return _RING


def active_session() -> Optional[ProfileSession]:
    """The live process-global session, or ``None``."""
    return _ACTIVE


def start_profile(*, hz: float = DEFAULT_HZ, memory: bool = False,
                  max_depth: int = DEFAULT_MAX_DEPTH) -> ProfileSession:
    """Start the process-global sampling session.

    One at a time by construction — the sampler is process-wide, and
    two would bill each other's frame walks as workload.  Raises
    :class:`ProfileError` if one is already running.
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is not None:
            raise ProfileError(
                f"profile session {_ACTIVE.profile_id} is already "
                "active; stop it first (`repro profile stop` / "
                "POST /profile/stop)")
        session = ProfileSession(hz=hz, memory=memory, max_depth=max_depth)
        session.start()
        _ACTIVE = session
        return session


def stop_profile() -> Profile:
    """Stop the process-global session; the finished profile lands in
    the ring and is returned.  Raises :class:`NoActiveProfile` when
    nothing is running."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is None:
            raise NoActiveProfile()
        session, _ACTIVE = _ACTIVE, None
    profile = session.stop()
    _RING.add(profile)
    return profile


# ---------------------------------------------------------------------------
# Heap-growth accounting around labelled blocks
# ---------------------------------------------------------------------------

class _HeapDelta:
    """Context manager behind :func:`heap_delta`; no-op unless the
    active session has memory accounting on."""

    __slots__ = ("label", "_session", "_before", "_snap")

    def __init__(self, label: str) -> None:
        self.label = label
        self._session: Optional[ProfileSession] = None

    def __enter__(self) -> "_HeapDelta":
        session = _ACTIVE
        if session is not None and session.memory \
                and tracemalloc.is_tracing():
            self._session = session
            self._before = tracemalloc.get_traced_memory()[0]
            self._snap = tracemalloc.take_snapshot()
        return self

    def __exit__(self, *exc: Any) -> None:
        session = self._session
        if session is None:
            return
        after = tracemalloc.get_traced_memory()[0]
        top: List[Dict[str, Any]] = []
        try:
            diff = tracemalloc.take_snapshot().compare_to(
                self._snap, "lineno")
            for stat in diff[:5]:
                if stat.size_diff <= 0:
                    break
                frame = stat.traceback[0]
                top.append({"site": f"{frame.filename}:{frame.lineno}",
                            "grew_bytes": stat.size_diff,
                            "count_diff": stat.count_diff})
        except Exception:   # snapshot diffing must never break the block
            pass
        session.record_heap_delta({
            "label": self.label,
            "grew_bytes": after - self._before,
            "at": time.time(),
            "top": top,
        })


def heap_delta(label: str) -> _HeapDelta:
    """Measure heap growth across a block, when accounting is on.

    The instrumentation call for labelled allocation sites — epoch
    publications.  Without an active ``memory=True``
    session the cost is one module-global read; with one, tracemalloc
    snapshots bracket the block and the top growth sites land in the
    session's ``memory["deltas"]``.
    """
    return _HeapDelta(label)
