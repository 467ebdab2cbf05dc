"""Tests of the benchmark's own statistics and layer ledger.

Run with ``PYTHONPATH=src python -m pytest adjbench``.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from adjbench import ledger as ledger_mod
from adjbench import stats
from adjbench.ledger import PATCHES, Ledger, Span, covered


# -- the tail -----------------------------------------------------------------

def test_tail_is_the_sample_of_rank_n_minus_10():
    values = list(range(1, 101))
    random.Random(7).shuffle(values)
    assert stats.tail(values) == 90          # ten samples (91..100) beyond
    assert stats.tail_percentile(100) == 90.0


def test_tail_of_eleven_samples_is_the_smallest():
    assert stats.tail([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0,
                       11.0]) == 1.0


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_probe_factor_is_the_median_probe_over_the_reference():
    probe = stats.Probe()
    assert probe.factor() == 1.0
    probe.samples[:] = [stats.PROBE_REF_S * x for x in (2.0, 3.0, 100.0)]
    assert probe.factor() == pytest.approx(3.0)
    assert probe.run() > 0 and len(probe.samples) == 4


# -- self time ----------------------------------------------------------------

def _span(layer, t0, t1, parent=None):
    sp = Span(layer, parent)
    sp.t0, sp.t1 = t0, t1
    if parent is not None:
        parent.children.append(sp)
    return sp


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 9), (9.5, 12)], 0, 10) == 5 + 1 + 0.5
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    led = Ledger()
    op = _span(None, 0.0, 12.0)
    parent = _span("shard.execute", 1.0, 11.0, op)
    # Two shard tasks on different workers overlap in [3, 4].
    _span("arrays.matmul.scipy", 2.0, 4.0, parent)
    _span("arrays.matmul.scipy", 3.0, 6.0, parent)
    _span("arrays.backend.index", 8.0, 9.0, parent)
    led._fold(op, "main", root_is_op=True)
    tot = led.totals["main"]
    assert tot["shard.execute"] == pytest.approx(10.0 - (4.0 + 1.0))
    assert tot["arrays.matmul.scipy"] == pytest.approx(2.0 + 3.0)
    assert tot["arrays.backend.index"] == pytest.approx(1.0)
    assert tot["unattributed"] == pytest.approx(2.0)


def test_leaf_time_leaves_the_enclosing_span():
    led = Ledger()
    op = _span(None, 0.0, 5.0)
    sp = _span("serve.service", 0.0, 5.0, op)
    sp.leaf = {"obs.instrument": [1.5, 3]}
    led._fold(op, "main", root_is_op=True)
    tot = led.totals["main"]
    assert tot["serve.service"] == pytest.approx(3.5)
    assert tot["obs.instrument"] == pytest.approx(1.5)
    assert tot["obs.instrument#calls"] == 3


def test_spans_on_worker_threads_nest_under_the_op_thread():
    led = Ledger()
    led.begin_op("main")
    outer = led.open("shard.execute")
    barrier = threading.Barrier(2)

    def worker():
        sp = led.open("arrays.matmul.scipy")
        barrier.wait(timeout=10)     # both workers overlap in time
        time.sleep(0.02)
        led.close(sp)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    led.close(outer)
    led.end_op()
    tot = led.totals["main"]
    assert len(outer.children) == 2
    union = covered([(c.t0, c.t1) for c in outer.children], outer.t0, outer.t1)
    assert tot["shard.execute"] == pytest.approx(outer.t1 - outer.t0 - union)
    assert tot["arrays.matmul.scipy"] > tot["shard.execute"]
    assert led.ops["main"] == 1


# -- the patched program ------------------------------------------------------

repro = pytest.importorskip("repro")


def _operands():
    eout = repro.AssociativeArray(
        {(f"e{i:04d}", f"v{i % 37:02d}"): 1 + i % 5 for i in range(600)},
        backend="numeric")
    ein = repro.AssociativeArray(
        {(f"e{i:04d}", f"v{(7 * i) % 41:02d}"): 1 + i % 3 for i in range(600)},
        backend="numeric")
    return eout, ein


def _ledger_of(op):
    led = Ledger()
    led.install(PATCHES)
    try:
        led.begin_op("main")
        op()
        led.end_op()
    finally:
        led.uninstall()
    return {k: v for k, v in led.totals["main"].items()}


def test_uninstall_restores_every_patched_name():
    from repro.arrays.associative import AssociativeArray
    from repro.serve.http import _Handler
    before = (AssociativeArray.transpose, vars(_Handler).get("parse_request"))
    led = Ledger()
    led.install(PATCHES)
    assert AssociativeArray.transpose is not before[0]
    led.uninstall()
    assert (AssociativeArray.transpose,
            vars(_Handler).get("parse_request")) == before
    assert led._gc_callback not in __import__("gc").callbacks


def test_a_staged_slow_function_shows_in_its_layer_only(monkeypatch):
    eout, ein = _operands()
    pair = repro.get_op_pair("plus_times")
    op = lambda: repro.adjacency_array(eout, ein, pair)  # noqa: E731
    op()                                 # warm the cached views
    base = _ledger_of(op)

    from repro.arrays.associative import AssociativeArray
    original = AssociativeArray.transpose

    def slow_transpose(self):
        time.sleep(0.05)
        return original(self)
    monkeypatch.setattr(AssociativeArray, "transpose", slow_transpose)
    staged = _ledger_of(op)

    layer = "arrays.associative.transpose"
    assert staged[layer] - base[layer] >= 0.045
    for key in set(base) | set(staged):
        if key != layer and not key.endswith("#calls"):
            assert abs(staged.get(key, 0.0) - base.get(key, 0.0)) < 0.02, key
    assert staged["arrays.matmul.calls.scipy"] == 1


def test_kernel_counts_terms_and_computed_bytes():
    eout, ein = _operands()
    pair = repro.get_op_pair("plus_times")
    got = _ledger_of(lambda: repro.adjacency_array(eout, ein, pair))
    assert got["arrays.matmul.calls.scipy"] == 1
    assert got["arrays.matmul.terms"] == 600      # one term per edge
    assert got["arrays.matmul.bytes"] > ledger_mod.ENTRY_BYTES * 1200


# -- the declared metrics -----------------------------------------------------

def test_benchmark_json_declares_what_the_run_reports():
    import json
    from pathlib import Path

    from adjbench import harness
    from adjbench.workloads import WORKLOADS

    doc = json.loads((Path(__file__).resolve().parent.parent
                      / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    assert declared == harness.per_layer_names()
    rec = harness.Record()
    for i in range(30):
        rec.add("main", 0.001 * (i + 1), True)
        rec.add("second", 0.01 * (i + 1), True)
    metrics, _detail = harness.end_to_end(rec, 1.0, 100.0, normalize=())
    assert {(m["name"], m["unit"]) for m in doc["end_to_end"]} == \
        {(k, v["unit"]) for k, v in metrics.items()}
    assert metrics["tail_ms"]["value"] == pytest.approx(20.0)
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
