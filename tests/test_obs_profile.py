"""Tests for the sampling profiler (repro.obs.profile)."""

from __future__ import annotations

import signal
import sys
import threading
import time

import pytest

from repro.obs.profile import (
    NoActiveProfile,
    Profile,
    ProfileError,
    ProfileRing,
    ProfileSession,
    START_HINT,
    active_session,
    diff_function_tables,
    function_totals,
    get_profile_ring,
    heap_delta,
    load_profile_functions,
    parse_collapsed,
    render_flamegraph_html,
    render_flamegraph_text,
    render_profile_diff,
    start_profile,
    stop_profile,
)
from repro.obs.trace import Tracer, get_span_observer, render_trace, span


@pytest.fixture(autouse=True)
def _clean_global_session():
    """Leave no process-global session (or observer) behind a test."""
    yield
    try:
        stop_profile()
    except ProfileError:
        pass
    assert active_session() is None
    assert get_span_observer() is None


def _mk_profile(pid: str, stacks=None, **over) -> Profile:
    base = dict(profile_id=pid, hz=97.0, started_at=0.0, duration=1.0,
                samples=sum((stacks or {}).values()),
                stacks=stacks or {}, span_cpu=[], thread_samples={},
                memory=None, overhead_ratio=0.001)
    base.update(over)
    return Profile(**base)


# -- staged workload --------------------------------------------------------

def _hot_spin(seconds: float) -> int:
    """The staged hot function: burns CPU while holding the GIL."""
    x = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for _ in range(2000):
            x += 1
    return x


def _anchored_workload(seconds: float) -> int:
    """Anchor frame: lets assertions scope to *this* thread's samples
    (pytest workers and other daemons also get sampled)."""
    return _hot_spin(seconds)


class TestSamplerAccuracy:
    def test_staged_hot_function_dominates(self):
        session = start_profile(hz=150)
        try:
            _anchored_workload(1.0)
        finally:
            profile = stop_profile()
        assert profile.samples > 0
        assert profile.hz == 150.0
        anchored = hot = 0
        for stack, count in profile.stacks.items():
            if any(f.endswith("._anchored_workload") for f in stack):
                anchored += count
                if any(f.endswith("._hot_spin") for f in stack):
                    hot += count
        assert anchored >= 20, profile.collapsed()
        # >= 80% of the samples under the anchor land in the hot leaf.
        assert hot / anchored >= 0.8, profile.collapsed()
        assert session.profile_id == profile.profile_id

    def test_overhead_is_self_measured_and_small(self):
        start_profile(hz=50)
        _hot_spin(0.4)
        profile = stop_profile()
        assert 0.0 < profile.overhead_ratio < 0.5
        doc = profile.to_dict()
        assert doc["overhead_ratio"] == round(profile.overhead_ratio, 5)

    def test_stacks_are_root_first(self):
        start_profile(hz=100)
        _anchored_workload(0.5)
        profile = stop_profile()
        stack = next(s for s in profile.stacks
                     if any(f.endswith("._hot_spin") for f in s))
        i_anchor = next(i for i, f in enumerate(stack)
                        if f.endswith("._anchored_workload"))
        i_hot = next(i for i, f in enumerate(stack)
                     if f.endswith("._hot_spin"))
        assert i_anchor < i_hot   # caller above callee

    def test_max_depth_truncates_instead_of_dying(self):
        def recurse(n, seconds):
            if n > 0:
                return recurse(n - 1, seconds)
            return _hot_spin(seconds)

        start_profile(hz=100, max_depth=16)
        recurse(60, 0.4)
        profile = stop_profile()
        deep = [s for s in profile.stacks if "<truncated>" in s]
        assert deep, profile.collapsed()
        assert all(len(s) <= 17 for s in profile.stacks)


class TestTimerSampler:
    def test_ticks_while_no_other_thread_can_take_the_gil(self):
        """A session started on the main thread samples from a timer
        signal handler that runs on the main thread, so it ticks even
        when a sampler thread could never get the GIL — here a switch
        interval far longer than the test, the limit of the convoy a
        k-hop loop of small scipy calls causes."""
        old = sys.getswitchinterval()
        sys.setswitchinterval(60.0)
        try:
            session = start_profile(hz=100)
            deadline = time.perf_counter() + 20.0
            while (session._samples < 20
                   and time.perf_counter() < deadline):
                _hot_spin(0.01)
            profile = stop_profile()
        finally:
            sys.setswitchinterval(old)
        assert profile.samples >= 20, profile.collapsed()

    def test_stop_hands_back_the_signal_and_the_timer(self):
        start_profile(hz=100)
        assert signal.getsignal(signal.SIGALRM) is not signal.SIG_DFL
        stop_profile()
        assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_an_owned_sigalrm_keeps_the_thread_sampler(self):
        def owner(_signum, _frame):
            pass

        previous = signal.signal(signal.SIGALRM, owner)
        try:
            session = start_profile(hz=100)
            deadline = time.perf_counter() + 20.0
            while (session._samples < 5
                   and time.perf_counter() < deadline):
                _anchored_workload(0.01)
            profile = stop_profile()
            assert signal.getsignal(signal.SIGALRM) is owner
        finally:
            signal.signal(signal.SIGALRM, previous)
        assert profile.samples >= 5


class TestSpanAttribution:
    def test_nested_spans_get_self_time(self):
        tracer = Tracer()
        start_profile(hz=150)
        with tracer.span("outer") as outer:
            with span("inner") as inner:
                _hot_spin(0.6)
            _hot_spin(0.25)          # outer's own (self) time
        profile = stop_profile()
        assert inner.attrs.get("cpu_samples", 0) >= 10
        assert outer.attrs.get("cpu_samples", 0) >= 3
        # Self-time semantics: the inner burn is not billed to outer.
        assert inner.attrs["cpu_samples"] > outer.attrs["cpu_samples"]
        assert inner.attrs["cpu_ms"] == pytest.approx(
            inner.attrs["cpu_samples"] * 1000.0 / 150, abs=0.01)
        names = {row["name"] for row in profile.span_cpu}
        assert {"outer", "inner"} <= names
        text = render_trace(tracer.latest())
        assert "cpu_ms=" in text and "cpu_samples=" in text

    def test_spans_on_worker_threads_are_attributed(self):
        tracer = Tracer()
        start_profile(hz=150)

        def work():
            with tracer.span("worker.root"):
                _hot_spin(0.5)

        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=30)
        profile = stop_profile()
        rows = [r for r in profile.span_cpu if r["name"] == "worker.root"]
        assert rows and rows[0]["cpu_samples"] > 0
        root = tracer.latest()
        assert root.attrs.get("cpu_samples", 0) > 0

    def test_untraced_work_stamps_nothing(self):
        tracer = Tracer()
        with tracer.span("quiet"):
            pass                      # no session running
        assert "cpu_samples" not in tracer.latest().attrs


class TestSessionLifecycle:
    def test_one_session_at_a_time(self):
        session = start_profile(hz=10)
        with pytest.raises(ProfileError) as exc:
            start_profile(hz=10)
        assert session.profile_id in str(exc.value)
        stop_profile()

    def test_stop_without_start_names_the_verb(self):
        with pytest.raises(NoActiveProfile) as exc:
            stop_profile()
        assert str(exc.value) == START_HINT
        assert "repro profile start" in str(exc.value)

    def test_validation(self):
        with pytest.raises(ProfileError):
            ProfileSession(hz=0.5)
        with pytest.raises(ProfileError):
            ProfileSession(hz=2000)
        with pytest.raises(ProfileError):
            ProfileSession(max_depth=0)
        with pytest.raises(ProfileError):
            ProfileRing(max_profiles=0)

    def test_live_dump_keeps_running(self):
        session = start_profile(hz=100)
        _hot_spin(0.3)
        doc = session.dump(top=5)
        assert doc["running"] is True
        assert doc["samples"] > 0
        assert doc["top_functions"]
        assert "overhead_ratio" in doc
        profile = stop_profile()
        assert profile.samples >= doc["samples"]

    def test_finished_profile_lands_in_ring(self):
        ring = get_profile_ring()
        start_profile(hz=10)
        profile = stop_profile()
        assert ring.get(profile.profile_id) is profile
        assert ring.profiles()[0]["profile_id"] == profile.profile_id


class TestProfileRing:
    def test_eviction_and_retention(self):
        ring = ProfileRing(max_profiles=2)
        for i in range(3):
            ring.add(_mk_profile(f"px{i}"))
        assert len(ring) == 2
        assert ring.get("px0") is None
        assert ring.get("px2") is not None
        assert [p["profile_id"] for p in ring.profiles()] == ["px2", "px1"]
        assert ring.latest().profile_id == "px2"
        assert ring.retention() == {"max_profiles": 2, "stored": 2,
                                    "dropped": 1}
        ring.clear()
        assert ring.latest() is None and len(ring) == 0


class TestCollapsedStacks:
    STACKS = {("main", "a", "b"): 7, ("main", "a"): 2, ("main", "c"): 1}

    def test_collapsed_round_trips(self):
        profile = _mk_profile("p1", dict(self.STACKS))
        text = profile.collapsed()
        assert text.splitlines()[0] == "main;a;b 7"   # heaviest first
        assert text.endswith("\n")
        assert parse_collapsed(text) == self.STACKS

    def test_parse_tolerates_comments_and_blanks(self):
        parsed = parse_collapsed("# comment\n\nmain;a 3\nmain;a 2\n")
        assert parsed == {("main", "a"): 5}

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ProfileError):
            parse_collapsed("main;a notanumber")
        with pytest.raises(ProfileError):
            parse_collapsed("loneframe")

    def test_function_totals_self_vs_total(self):
        table = function_totals(self.STACKS)
        assert table["b"] == {"self": 7, "total": 7}
        assert table["a"] == {"self": 2, "total": 9}
        assert table["main"] == {"self": 0, "total": 10}

    def test_recursion_counts_once_per_sample(self):
        table = function_totals({("f", "f", "f"): 4})
        assert table["f"] == {"self": 4, "total": 4}

    def test_top_functions_ranked_by_self(self):
        profile = _mk_profile("p2", dict(self.STACKS))
        top = profile.top_functions(2)
        assert [r["function"] for r in top] == ["b", "a"]
        assert top[0]["self_pct"] == 70.0
        assert top[0]["total_pct"] == 70.0


class TestProfileDiff:
    BASE = {"hot": {"self": 50, "total": 100},
            "warm": {"self": 30, "total": 30},
            "cool": {"self": 20, "total": 20}}
    CAND = {"hot": {"self": 80, "total": 100},
            "warm": {"self": 10, "total": 10},
            "cool": {"self": 10, "total": 10}}

    def test_diff_uses_shares_not_counts(self):
        # Candidate counted twice as long: raw counts double but the
        # shares are identical, so nothing moves.
        doubled = {k: {"self": v["self"] * 2, "total": v["total"] * 2}
                   for k, v in self.BASE.items()}
        assert diff_function_tables(self.BASE, doubled) == []

    def test_diff_most_regressed_first(self):
        rows = diff_function_tables(self.BASE, self.CAND)
        assert rows[0]["function"] == "hot"
        assert rows[0]["delta_pct"] == 30.0
        assert rows[0]["baseline_self_pct"] == 50.0
        assert rows[0]["candidate_self_pct"] == 80.0
        assert [r["function"] for r in rows[1:]] == ["cool", "warm"]

    def test_noise_floor_and_top(self):
        rows = diff_function_tables(self.BASE, self.CAND, top=1)
        assert len(rows) == 1
        near = {"hot": {"self": 5001, "total": 5001},
                "warm": {"self": 4999, "total": 4999}}
        base = {"hot": {"self": 5000, "total": 5000},
                "warm": {"self": 5000, "total": 5000}}
        assert diff_function_tables(base, near) == []

    def test_render_profile_diff(self):
        text = render_profile_diff(diff_function_tables(self.BASE,
                                                        self.CAND))
        assert "most regressed first" in text
        assert "+30.00" in text and "hot" in text
        assert render_profile_diff([]) == \
            "profile diff: no function moved materially"

    def test_load_profile_functions_formats(self, tmp_path):
        import json
        table = {"f": {"self": 3, "total": 5}}
        bench = tmp_path / "BENCH_x.json"
        bench.write_text(json.dumps({"profile": {"functions": table}}))
        assert load_profile_functions(bench)["f"]["self"] == 3
        raw = tmp_path / "dump.json"
        raw.write_text(json.dumps({"functions": table}))
        assert load_profile_functions(raw) == table
        collapsed = tmp_path / "prof.collapsed"
        collapsed.write_text("main;f 3\nmain 1\n")
        loaded = load_profile_functions(collapsed)
        assert loaded["f"] == {"self": 3, "total": 3}


class TestFlamegraphs:
    def test_deep_stack_renders_without_recursion(self):
        deep = tuple(f"mod.f{i}" for i in range(1200))
        stacks = {deep: 5, deep[:600]: 3, ("mod.f0", "mod.other"): 2}
        html = render_flamegraph_html(stacks, title="deep test")
        assert "deep test" in html
        assert "mod.f1199" in html
        assert html.count('class="fr"') > 1200
        text = render_flamegraph_text(stacks, max_depth=50)
        assert text.startswith("flamegraph: 10 samples")
        assert "mod.f0" in text

    def test_html_is_self_contained_and_escaped(self):
        stacks = {("m.<lambda>", "m.run"): 4}
        html = render_flamegraph_html(stacks, meta={"hz": 97})
        assert "&lt;lambda&gt;" in html and "m.<lambda>" not in html
        assert "hz=97" in html
        assert "http" not in html.split("</style>")[1]   # no external assets

    def test_pruning_drops_subpixel_frames(self):
        stacks = {("m.big",): 10_000, ("m.tiny",): 1}
        html = render_flamegraph_html(stacks, min_frac=0.001)
        assert "m.big" in html and "m.tiny" not in html

    def test_empty_profile_renders(self):
        assert "0 samples" in render_flamegraph_html({})
        assert render_flamegraph_text({}) == "(no samples)"

    def test_deterministic_output(self):
        stacks = {("m.a", "m.b"): 3, ("m.a", "m.c"): 2}
        assert render_flamegraph_html(stacks) == \
            render_flamegraph_html(stacks)


class TestMemoryAccounting:
    def test_heap_delta_noop_without_session(self):
        with heap_delta("quiet"):
            data = [b"x" * 1024 for _ in range(10)]
        assert len(data) == 10   # nothing raised, nothing recorded

    def test_heap_delta_records_growth(self):
        start_profile(hz=5, memory=True)
        keep = []
        with heap_delta("staged_growth"):
            keep.append(bytearray(512 * 1024))
        profile = stop_profile()
        assert profile.memory is not None
        assert profile.memory["enabled"] is True
        assert profile.memory["peak_bytes"] > 0
        deltas = profile.memory["deltas"]
        growth = next(d for d in deltas if d["label"] == "staged_growth")
        assert growth["grew_bytes"] >= 512 * 1024
        assert growth["top"], growth
        assert "grew_bytes" in growth["top"][0]

    def test_memory_off_by_default(self):
        start_profile(hz=5)
        with heap_delta("ignored"):
            pass
        profile = stop_profile()
        assert profile.memory is None
