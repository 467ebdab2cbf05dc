"""Tests for the parent-vs-head benchmark gate (benchmarks/adjbench_gate.py)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "adjbench_gate", ROOT / "benchmarks" / "adjbench_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = {
    "command": ["python3", "adjbench/run.py"],
    "run_seconds": 10,
    "workloads": [{"name": "construct"}, {"name": "query"}],
    "end_to_end": [
        {"name": "p50_ms", "better": "lower", "bound": 0.2},
        {"name": "ops_per_s", "better": "higher", "bound": 0.2},
    ],
}


def _rows(pairs=3, scale=None, correct=True):
    """Result rows of ``pairs`` pairs; ``scale`` maps (workload, metric)
    to a factor applied to every head value."""
    scale = scale or {}
    rows = []
    for i in range(pairs):
        for workload in ("construct", "query"):
            for side in ("parent", "head"):
                metrics = {}
                for name, value in (("p50_ms", 10.0 + i),
                                    ("ops_per_s", 100.0 + i)):
                    if side == "head":
                        value *= scale.get((workload, name), 1.0)
                    metrics[name] = {"value": value, "unit": "-"}
                ok = correct or side == "parent"
                rows.append({"pair": i, "side": side, "workload": workload,
                             "seed": 101 + i, "result": {
                                 "correct": ok, "attempted": 10,
                                 "failed": 0 if ok else 1,
                                 "metrics": metrics}})
    return rows


def test_identical_sides_pass(gate):
    ok, lines = gate.check(_rows(), SPEC)
    assert ok, lines
    assert len(lines) == 4 and all(line.startswith("ok") for line in lines)


def test_a_median_inside_its_bound_passes(gate):
    ok, _ = gate.check(_rows(scale={("query", "p50_ms"): 1.19,
                                    ("query", "ops_per_s"): 0.81}), SPEC)
    assert ok


def test_a_median_past_its_bound_fails(gate):
    ok, lines = gate.check(_rows(scale={("query", "p50_ms"): 1.21}), SPEC)
    assert not ok
    (failed,) = [line for line in lines if line.startswith("FAIL")]
    assert "query" in failed and "p50_ms" in failed


def test_higher_is_better_metrics_fail_when_they_drop(gate):
    ok, lines = gate.check(_rows(scale={("construct", "ops_per_s"): 0.79}),
                           SPEC)
    assert not ok
    assert any("construct" in line and "ops_per_s" in line
               for line in lines if line.startswith("FAIL"))
    ok, _ = gate.check(_rows(scale={("construct", "ops_per_s"): 1.5}), SPEC)
    assert ok


def test_the_median_not_one_outlier_decides(gate):
    rows = _rows(pairs=3)
    for row in rows:
        if (row["side"], row["workload"], row["pair"]) == \
                ("head", "query", 0):
            row["result"]["metrics"]["p50_ms"]["value"] *= 10
    ok, lines = gate.check(rows, SPEC)
    assert ok, lines


def test_an_incorrect_head_run_fails(gate):
    ok, lines = gate.check(_rows(correct=False), SPEC)
    assert not ok
    assert any("head run correct=False" in line for line in lines)


def test_a_missing_head_workload_or_metric_fails(gate):
    rows = [r for r in _rows()
            if not (r["side"] == "head" and r["workload"] == "query")]
    ok, lines = gate.check(rows, SPEC)
    assert not ok
    assert any("no head value" in line for line in lines)
    rows = _rows()
    for row in rows:
        if row["side"] == "head":
            del row["result"]["metrics"]["ops_per_s"]
    ok, lines = gate.check(rows, SPEC)
    assert not ok


def test_no_runs_fail(gate):
    ok, _ = gate.check([], SPEC)
    assert not ok


def _stub_checkouts(tmp_path, log, head_correct=True):
    """Parent and head checkouts whose ``adjbench/run.py`` logs its
    side, workload, seed and seconds, then prints a result line."""
    for side in ("parent", "head"):
        correct = head_correct or side == "parent"
        script = tmp_path / side / "adjbench" / "run.py"
        script.parent.mkdir(parents=True)
        script.write_text(
            "import json, sys\n"
            "args = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
            f"with open({str(log)!r}, 'a') as fh:\n"
            f"    fh.write('{side} ' + args['--workload'] + ' '"
            " + args['--seed'] + ' ' + args['--seconds'] + '\\n')\n"
            "print('table line')\n"
            "metric = {'value': 1.0, 'unit': '-'}\n"
            f"print(json.dumps({{'correct': {correct}, 'attempted': 1,"
            f" 'failed': {0 if correct else 1},"
            " 'metrics': {'p50_ms': metric, 'ops_per_s': metric}}))\n")


def test_run_alternates_sides_with_shared_seeds(gate, tmp_path):
    """``run`` drives both checkouts' own benchmark command, the same
    seed on both sides of a pair, the first side alternating."""
    log = tmp_path / "calls.log"
    _stub_checkouts(tmp_path, log)
    out = tmp_path / "results.jsonl"
    assert gate.run_pairs(tmp_path / "parent", tmp_path / "head", out,
                          pairs=2, seconds=0.5, seed=7,
                          workloads=["construct", "query"], spec=SPEC)
    assert log.read_text().splitlines() == [
        "parent construct 7 0.5", "head construct 7 0.5",
        "parent query 7 0.5", "head query 7 0.5",
        "head construct 8 0.5", "parent construct 8 0.5",
        "head query 8 0.5", "parent query 8 0.5"]
    rows = gate.load_rows(out)
    assert [(r["pair"], r["side"]) for r in rows][:2] == [(0, "parent"),
                                                          (0, "head")]
    ok, lines = gate.check(rows, SPEC)
    assert ok, lines


def test_run_fails_on_an_incorrect_head_run(gate, tmp_path):
    log = tmp_path / "calls.log"
    _stub_checkouts(tmp_path, log, head_correct=False)
    assert not gate.run_pairs(tmp_path / "parent", tmp_path / "head",
                              tmp_path / "results.jsonl", pairs=1,
                              seconds=0.5, seed=7, workloads=["query"],
                              spec=SPEC)


def test_the_cli_runs_the_declared_pairs_and_seconds(gate, tmp_path,
                                                     monkeypatch):
    calls = []
    monkeypatch.setattr(gate, "load_spec", lambda: SPEC)
    monkeypatch.setattr(gate, "run_pairs",
                        lambda *args, **kwargs: calls.append(kwargs) or False)
    assert gate.main(["run", "--parent", str(tmp_path), "--head",
                      str(tmp_path), "--out", str(tmp_path / "r.jsonl")]) == 1
    (kwargs,) = calls
    assert (kwargs["pairs"], kwargs["seconds"], kwargs["seed"]) == \
        (gate.PAIRS, SPEC["run_seconds"], gate.SEED)
    assert kwargs["workloads"] == ["construct", "query"]


def test_a_run_without_a_result_line_is_a_failed_run(gate, tmp_path):
    script = tmp_path / "adjbench" / "run.py"
    script.parent.mkdir(parents=True)
    script.write_text("import sys\nsys.exit('no sources')\n")
    doc = gate.run_once(tmp_path, [sys.executable, "adjbench/run.py"],
                        "query", 1, 1.0)
    assert doc["correct"] is False and "no sources" in doc["error"]


def test_the_cli_exits_one_on_a_regression(gate, tmp_path, monkeypatch):
    monkeypatch.setattr(gate, "load_spec", lambda: SPEC)
    results = tmp_path / "results.jsonl"
    results.write_text("".join(
        json.dumps(r) + "\n"
        for r in _rows(scale={("construct", "p50_ms"): 1.5})))
    assert gate.main(["check", str(results)]) == 1
    results.write_text("".join(json.dumps(r) + "\n" for r in _rows()))
    assert gate.main(["check", str(results)]) == 0


def test_the_declaration_gives_every_metric_a_direction_and_bound(gate):
    spec = gate.load_spec()
    assert spec["workloads"] and spec["end_to_end"]
    for metric in spec["end_to_end"]:
        assert metric["better"] in ("lower", "higher")
        assert 0 < float(metric["bound"]) < 1


DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared_rows(moved=None, factor=1.0, pairs=3):
    """Result rows for every workload and end-to-end metric that
    ``BENCHMARK.json`` declares, both sides alike except that the head
    value of ``moved`` (a (workload, metric) pair) is scaled by
    ``factor``."""
    rows = []
    for i in range(pairs):
        for workload in (w["name"] for w in DECLARED["workloads"]):
            for side in ("parent", "head"):
                metrics = {}
                for metric in DECLARED["end_to_end"]:
                    value = 2.0 + 0.1 * i
                    if side == "head" and moved == (workload,
                                                    metric["name"]):
                        value *= factor
                    metrics[metric["name"]] = {"value": value,
                                               "unit": metric["unit"]}
                rows.append({"pair": i, "side": side, "workload": workload,
                             "seed": 101 + i, "result": {
                                 "correct": True, "attempted": 10,
                                 "failed": 0, "metrics": metrics}})
    return rows


@pytest.mark.parametrize("workload,metric", [
    (w["name"], m) for w in DECLARED["workloads"]
    for m in DECLARED["end_to_end"]],
    ids=lambda v: v if isinstance(v, str) else v["name"])
def test_every_declared_metric_is_gated_at_its_own_bound(gate, workload,
                                                         metric):
    """Half a bound worse passes; one and a half bounds worse fails on
    exactly that workload and metric, in the metric's own direction."""
    bound = float(metric["bound"])
    sign = 1.0 if metric["better"] == "lower" else -1.0
    moved = (workload, metric["name"])
    ok, lines = gate.check(
        _declared_rows(moved, 1.0 + sign * 0.5 * bound), DECLARED)
    assert ok, lines
    ok, lines = gate.check(
        _declared_rows(moved, 1.0 + sign * 1.5 * bound), DECLARED)
    assert not ok
    (failed,) = [line for line in lines if line.startswith("FAIL")]
    assert failed.split()[1:3] == [workload, metric["name"]]
    ok, lines = gate.check(
        _declared_rows(moved, 1.0 - sign * 1.5 * bound), DECLARED)
    assert ok, lines


@pytest.mark.parametrize("parent,head,better,worse", [
    (10.0, 12.0, "lower", 0.2),
    (10.0, 8.0, "lower", -0.2),
    (10.0, 8.0, "higher", 0.2),
    (10.0, 12.0, "higher", -0.2),
    (0.0, 0.0, "lower", 0.0),
    (0.0, 1.0, "lower", float("inf")),
    (0.0, 1.0, "higher", float("-inf")),
])
def test_worse_by_is_a_signed_fraction_of_the_parent(gate, parent, head,
                                                     better, worse):
    assert gate._worse_by(parent, head, better) == pytest.approx(worse)
