"""Tests for the versioned benchmark harness (repro.obs.bench)."""

from __future__ import annotations

import json

import pytest

from repro.obs.bench import (
    DEFAULT_THRESHOLD,
    SCRIPT_BENCHMARKS,
    BenchError,
    compare,
    config_hash,
    describe_with_exemplars,
    discover_benchmarks,
    harvest_exemplars,
    load_run,
    refresh_baseline,
    render_markdown,
    run_benchmarks,
    run_metadata,
)

DUMMY_BENCH = '''\
"""A trivial harness-compatible benchmark."""

def run(quick):
    return {"benchmark": "bench_dummy", "quick": quick,
            "value": 1.0 if quick else 2.0}

def headline(report):
    return {"latency_s": {"value": report["value"],
                          "direction": "lower", "unit": "s"}}

def main(argv=None):
    return 0
'''


def make_run_doc(run_id: str, headline: dict) -> dict:
    """A minimal harness run doc with fabricated headline metrics."""
    return {"run_id": run_id, "manifest": {}, "results": {},
            "headline": headline}


def metric(value: float, direction: str = "lower", unit: str = "s"):
    return {"value": value, "direction": direction, "unit": unit}


@pytest.fixture()
def bench_dir(tmp_path):
    d = tmp_path / "benchmarks"
    d.mkdir()
    (d / "bench_dummy.py").write_text(DUMMY_BENCH, encoding="utf-8")
    (d / "bench_helperless.py").write_text(
        "# no run()/main() hooks here\n", encoding="utf-8")
    return d


class TestMetadata:
    def test_run_metadata_fields(self):
        meta = run_metadata()
        assert {"git_sha", "python", "numpy", "scipy", "platform",
                "machine", "cpu_count"} <= set(meta)
        assert meta["python"].count(".") == 2
        assert meta["cpu_count"] >= 1

    def test_git_sha_in_repo(self):
        sha = run_metadata(".").get("git_sha")
        assert sha is None or (len(sha) == 40
                               and all(c in "0123456789abcdef"
                                       for c in sha))

    def test_config_hash_stable_and_order_independent(self):
        a = config_hash({"benchmarks": ["x"], "quick": True})
        b = config_hash({"quick": True, "benchmarks": ["x"]})
        assert a == b and len(a) == 16
        assert a != config_hash({"benchmarks": ["x"], "quick": False})


class TestDiscoveryAndExecution:
    def test_discover_skips_hookless_scripts(self, bench_dir):
        assert discover_benchmarks(bench_dir) == ["bench_dummy"]

    def test_default_discovery_finds_smoke_set(self):
        names = discover_benchmarks()
        assert set(SCRIPT_BENCHMARKS) <= set(names)

    def test_unknown_benchmark_raises(self, bench_dir):
        with pytest.raises(BenchError, match="unknown benchmark"):
            run_benchmarks(["bench_missing"], bench_dir=bench_dir)

    def test_run_writes_versioned_artifacts(self, bench_dir, tmp_path):
        out = tmp_path / "runs"
        doc = run_benchmarks(["bench_dummy"], quick=True, outdir=out,
                             bench_dir=bench_dir)
        assert doc["results"]["bench_dummy"]["quick"] is True
        assert doc["headline"]["bench_dummy"]["latency_s"]["value"] == 1.0
        assert doc["manifest"]["config"] == {
            "benchmarks": ["bench_dummy"], "quick": True}
        assert doc["manifest"]["config_hash"] == config_hash(
            doc["manifest"]["config"])
        assert doc["bench_seconds"]["bench_dummy"] >= 0.0
        json_path = doc["artifacts"]["json"]
        assert json_path.endswith(f"BENCH_{doc['run_id']}.json")
        on_disk = json.loads((out / f"BENCH_{doc['run_id']}.json")
                             .read_text(encoding="utf-8"))
        assert on_disk["run_id"] == doc["run_id"]
        report = (out / "report.md").read_text(encoding="utf-8")
        assert doc["run_id"] in report
        assert "latency_s" in report

    def test_render_markdown_headline_table(self, bench_dir):
        doc = run_benchmarks(["bench_dummy"], bench_dir=bench_dir)
        md = render_markdown(doc)
        assert "## Headline metrics" in md
        assert "| bench_dummy | latency_s | 1 | s | lower is better |" in md


class TestLoadRun:
    def test_load_file_and_directory(self, tmp_path):
        early = make_run_doc("20250101-000000-aaaaaaa",
                             {"b": {"m": metric(1.0)}})
        late = make_run_doc("20260101-000000-bbbbbbb",
                            {"b": {"m": metric(2.0)}})
        for doc in (early, late):
            (tmp_path / f"BENCH_{doc['run_id']}.json").write_text(
                json.dumps(doc), encoding="utf-8")
        by_file = load_run(tmp_path / f"BENCH_{early['run_id']}.json")
        assert by_file["run_id"] == early["run_id"]
        # A directory picks the lexically latest run.
        assert load_run(tmp_path)["run_id"] == late["run_id"]

    def test_errors(self, tmp_path):
        with pytest.raises(BenchError, match="no BENCH"):
            load_run(tmp_path)
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(BenchError, match="cannot read"):
            load_run(bad)
        notrun = tmp_path / "BENCH_notrun.json"
        notrun.write_text('{"results": {}}', encoding="utf-8")
        with pytest.raises(BenchError, match="headline"):
            load_run(notrun)


class TestCompare:
    def test_detects_lower_is_better_regression(self):
        base = make_run_doc("base", {"serve": {
            "khop_cold_ms": metric(10.0, "lower", "ms")}})
        cand = make_run_doc("cand", {"serve": {
            "khop_cold_ms": metric(15.0, "lower", "ms")}})   # +50%
        result = compare(base, cand, threshold=0.20)
        assert not result.ok
        (delta,) = result.regressions
        assert delta.metric == "khop_cold_ms"
        assert delta.change == pytest.approx(0.5)
        assert "REGRESSION" in result.describe()

    def test_detects_higher_is_better_regression(self):
        base = make_run_doc("base", {"expr": {
            "speedup": metric(4.0, "higher", "x")}})
        cand = make_run_doc("cand", {"expr": {
            "speedup": metric(2.0, "higher", "x")}})   # halved
        result = compare(base, cand)
        assert not result.ok and result.regressions[0].change == -0.5

    def test_within_threshold_is_ok_both_directions(self):
        base = make_run_doc("base", {
            "a": {"lat": metric(10.0, "lower")},
            "b": {"spd": metric(4.0, "higher")}})
        cand = make_run_doc("cand", {
            "a": {"lat": metric(11.5, "lower")},      # +15% < 20%
            "b": {"spd": metric(3.5, "higher")}})     # -12.5% < 20%
        result = compare(base, cand, threshold=DEFAULT_THRESHOLD)
        assert result.ok and len(result.deltas) == 2
        # An *improvement* past the threshold is never a regression.
        faster = make_run_doc("fast", {
            "a": {"lat": metric(1.0, "lower")},
            "b": {"spd": metric(40.0, "higher")}})
        assert compare(base, faster).ok

    def test_one_sided_metrics_reported_never_gate(self):
        base = make_run_doc("base", {"a": {"old": metric(1.0)}})
        cand = make_run_doc("cand", {"a": {"new": metric(99.0)}})
        result = compare(base, cand)
        assert result.ok
        assert sorted(result.missing) == ["a.new", "a.old"]
        assert "skipped" in result.describe()

    def test_threshold_validation_and_to_dict(self):
        base = make_run_doc("base", {"a": {"m": metric(1.0)}})
        with pytest.raises(BenchError, match="threshold"):
            compare(base, base, threshold=-0.1)
        result = compare(base, base)
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["ok"] is True
        assert doc["baseline"] == "base" and doc["candidate"] == "base"

    def test_end_to_end_fabricated_pair_from_disk(self, tmp_path):
        """The CI gate's exact shape: two run files, one regression."""
        fast = make_run_doc("20250101-000000-fast", {"serve": {
            "khop_cold_ms": metric(5.0, "lower", "ms"),
            "khop_cached_speedup": metric(10.0, "higher", "x")}})
        slow = make_run_doc("20250102-000000-slow", {"serve": {
            "khop_cold_ms": metric(9.0, "lower", "ms"),      # +80%
            "khop_cached_speedup": metric(9.5, "higher", "x")}})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(fast), encoding="utf-8")
        b.write_text(json.dumps(slow), encoding="utf-8")
        result = compare(load_run(a), load_run(b), threshold=0.2)
        assert [d.metric for d in result.regressions] == ["khop_cold_ms"]
        # And in the non-regressing order it passes.
        assert compare(load_run(b), load_run(a), threshold=0.2).ok


class TestExemplarsAndCalibrationInRuns:
    def test_harvest_exemplars_keys_by_name_and_labels(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer
        reg = MetricsRegistry()
        hist = reg.histogram("bench_latency_seconds", "test", op="khop")
        tracer = Tracer()
        with tracer.span("op"):
            hist.observe(0.5)
        exemplars = harvest_exemplars(reg)
        (key,) = exemplars
        assert key == "bench_latency_seconds{op=khop}"
        ex = exemplars[key]
        assert ex["value"] == 0.5
        assert ex["trace_id"] and ex["span_id"]

    def test_harvest_skips_untraced_histograms(self):
        from repro.obs.metrics import MetricsRegistry
        reg = MetricsRegistry()
        reg.histogram("quiet_seconds", "test").observe(0.1)   # no trace
        assert harvest_exemplars(reg) == {}

    def test_describe_with_exemplars_links_traces(self):
        base = make_run_doc("base", {"serve": {
            "khop_cold_ms": metric(10.0, "lower", "ms")}})
        cand = make_run_doc("cand", {"serve": {
            "khop_cold_ms": metric(15.0, "lower", "ms")}})
        cand["exemplars"] = {"serve_latency_seconds{query=khop}": {
            "trace_id": "tdeadbeef", "span_id": "s01", "value": 0.0153}}
        text = describe_with_exemplars(
            compare(base, cand, threshold=0.2), cand)
        assert "REGRESSION" in text
        assert "exemplar traces (candidate run):" in text
        assert "trace tdeadbeef span s01" in text

    def test_describe_without_exemplars_is_plain(self):
        base = make_run_doc("base", {"a": {"m": metric(1.0)}})
        result = compare(base, base)
        assert describe_with_exemplars(result, base) == result.describe()


class TestBaselineRefresh:
    def test_refresh_records_provenance(self, tmp_path):
        baseline = tmp_path / "BENCH_baseline.json"
        old = make_run_doc("20250101-000000-old",
                           {"a": {"m": metric(1.0)}})
        baseline.write_text(json.dumps(old), encoding="utf-8")
        new = make_run_doc("20250601-000000-new",
                           {"a": {"m": metric(2.0)}})
        new["artifacts"] = {"json": "/somewhere/BENCH_new.json"}
        written = refresh_baseline(new, baseline,
                                   reason="kernel rewrite landed",
                                   cwd=".")
        on_disk = json.loads(baseline.read_text(encoding="utf-8"))
        assert on_disk == written
        prov = on_disk["manifest"]["baseline_refresh"]
        assert prov["reason"] == "kernel rewrite landed"
        assert prov["previous_run_id"] == "20250101-000000-old"
        assert "refreshed_at" in prov
        assert prov["git_sha"] is None or len(prov["git_sha"]) == 40
        # Source-run artifact paths do not leak into the baseline file.
        assert "artifacts" not in on_disk

    def test_refresh_requires_reason(self, tmp_path):
        run = make_run_doc("r", {"a": {"m": metric(1.0)}})
        with pytest.raises(BenchError, match="reason"):
            refresh_baseline(run, tmp_path / "b.json", reason="   ")

    def test_refresh_without_previous_baseline(self, tmp_path):
        run = make_run_doc("r", {"a": {"m": metric(1.0)}})
        doc = refresh_baseline(run, tmp_path / "fresh.json",
                               reason="first lock")
        prov = doc["manifest"]["baseline_refresh"]
        assert prov["previous_run_id"] is None

    def test_refresh_tolerates_corrupt_previous(self, tmp_path):
        baseline = tmp_path / "BENCH_baseline.json"
        baseline.write_text("{not json", encoding="utf-8")
        run = make_run_doc("r", {"a": {"m": metric(1.0)}})
        doc = refresh_baseline(run, baseline, reason="recover")
        assert doc["manifest"]["baseline_refresh"][
            "previous_run_id"] is None
        assert load_run(baseline)["run_id"] == "r"

    def test_refreshed_baseline_still_gates(self, tmp_path):
        """After a refresh, --compare against the new baseline still
        catches a fabricated >20% regression (the CI step's shape)."""
        baseline = tmp_path / "BENCH_baseline.json"
        run = make_run_doc("20250601-000000-new", {"serve": {
            "khop_cold_ms": metric(10.0, "lower", "ms")}})
        refresh_baseline(run, baseline, reason="re-lock for test")
        bad = make_run_doc("cand", {"serve": {
            "khop_cold_ms": metric(15.0, "lower", "ms")}})   # +50%
        result = compare(load_run(baseline), bad, threshold=0.2)
        assert not result.ok

    def test_refresh_emits_event(self, tmp_path):
        from repro.obs.events import get_event_log
        log = get_event_log()
        start = log.retention()["last_seq"] or 0
        run = make_run_doc("r2", {"a": {"m": metric(1.0)}})
        refresh_baseline(run, tmp_path / "b.json", reason="why not")
        refreshes = [e for e in log.events(since=start)
                     if e["kind"] == "baseline_refresh"]
        assert refreshes and refreshes[-1]["reason"] == "why not"
