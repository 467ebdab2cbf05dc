"""Tests for the persistent kernel-calibration store
(repro.obs.calibration) and its cost-model integration."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.calibration import (
    SCHEMA,
    CalibrationStore,
    calibration_enabled,
    default_path,
    get_calibration_store,
    machine_fingerprint,
    reset_calibration_store,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestFingerprint:
    def test_stable_and_short(self):
        assert machine_fingerprint() == machine_fingerprint()
        assert len(machine_fingerprint()) == 12

    def test_distinct_machines_distinct_prints(self):
        a = machine_fingerprint({"machine": "x86_64", "cpu_count": 8})
        b = machine_fingerprint({"machine": "arm64", "cpu_count": 8})
        assert a != b


class TestStore:
    def test_record_and_rate(self, tmp_path):
        store = CalibrationStore(tmp_path / "cal.json")
        assert store.rate("scipy") is None
        store.record("scipy", terms=1000.0, seconds=0.01)
        assert store.rate("scipy") == pytest.approx(1e-5)

    def test_ewma_blends_samples(self, tmp_path):
        store = CalibrationStore(tmp_path / "cal.json", alpha=0.5)
        store.record("scipy", terms=100.0, seconds=0.01)   # 1e-4
        store.record("scipy", terms=100.0, seconds=0.03)   # 3e-4
        assert store.rate("scipy") == pytest.approx(2e-4)
        kernels = store.kernels()
        assert kernels["scipy"]["samples"] == 2
        assert kernels["scipy"]["terms_total"] == 200.0

    def test_degenerate_samples_ignored(self, tmp_path):
        store = CalibrationStore(tmp_path / "cal.json")
        store.record("scipy", terms=0.0, seconds=0.1)
        store.record("scipy", terms=10.0, seconds=0.0)
        assert store.rate("scipy") is None

    def test_round_trip_across_instances(self, tmp_path):
        path = tmp_path / "cal.json"
        first = CalibrationStore(path)
        first.record("sortmerge", terms=500.0, seconds=0.02)
        first.save()
        second = CalibrationStore(path)    # fresh load, same machine
        assert second.rate("sortmerge") == pytest.approx(0.02 / 500.0)
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCHEMA

    def test_corrupt_file_starts_fresh(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("{not json")
        store = CalibrationStore(path)
        assert store.rate("scipy") is None
        store.record("scipy", 10.0, 0.1)
        store.save()
        assert json.loads(path.read_text())["schema"] == SCHEMA

    def test_wrong_schema_starts_fresh(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text(json.dumps({"schema": "other/v9",
                                    "machines": {}}))
        assert CalibrationStore(path).rate("scipy") is None

    def test_rates_are_fingerprint_isolated(self, tmp_path):
        path = tmp_path / "cal.json"
        store = CalibrationStore(path)
        store.record("scipy", 100.0, 0.01)
        store.save()
        # Another "machine" writing to the same file must not see (or
        # clobber) this fingerprint's rates.
        doc = json.loads(path.read_text())
        other_fp = "0" * 12
        doc["machines"][other_fp] = {
            "info": {}, "kernels": {"scipy": {"seconds_per_term": 99.0}}}
        path.write_text(json.dumps(doc))
        reloaded = CalibrationStore(path)
        assert reloaded.rate("scipy") == pytest.approx(1e-4)
        snap = reloaded.snapshot()
        assert snap["active_fingerprint"] == reloaded.fingerprint
        assert other_fp in snap["machines"]

    def test_maybe_save_throttles(self, tmp_path):
        path = tmp_path / "cal.json"
        store = CalibrationStore(path)
        for _ in range(3):
            store.record("scipy", 10.0, 0.01)
        assert store.maybe_save(min_updates=8) is False
        assert not path.exists()
        for _ in range(10):
            store.record("scipy", 10.0, 0.01)
        assert store.maybe_save(min_updates=8, min_interval=0.0) is True
        assert path.exists()

    def test_flush_persists_pending(self, tmp_path):
        path = tmp_path / "cal.json"
        store = CalibrationStore(path)
        store.flush()                      # nothing dirty — no file
        assert not path.exists()
        store.record("generic", 10.0, 0.01)
        store.flush()
        assert path.exists()


class TestEnvironment:
    def test_default_path_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CALIBRATION_PATH",
                           str(tmp_path / "here.json"))
        assert default_path() == tmp_path / "here.json"

    def test_toggle_disables_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_CALIBRATION", "0")
        reset_calibration_store()
        try:
            assert not calibration_enabled()
            assert get_calibration_store() is None
        finally:
            monkeypatch.delenv("REPRO_CALIBRATION")
            reset_calibration_store()

    def test_global_store_is_singleton(self):
        reset_calibration_store()
        try:
            a = get_calibration_store()
            assert a is not None
            assert get_calibration_store() is a
        finally:
            reset_calibration_store()


class TestCostModelIntegration:
    def test_seconds_per_term_prefers_measured(self, tmp_path,
                                               monkeypatch):
        from repro.expr.cost import record_kernel_sample, seconds_per_term
        monkeypatch.setenv("REPRO_CALIBRATION_PATH",
                           str(tmp_path / "cal.json"))
        reset_calibration_store()
        try:
            kernel = "cal_test_kernel_a"
            rate, source = seconds_per_term(kernel)
            assert rate is None and source == ""
            record_kernel_sample(kernel, terms=1000.0, seconds=0.01)
            rate, source = seconds_per_term(kernel)
            assert source == "measured"
            assert rate == pytest.approx(1e-5)
        finally:
            reset_calibration_store()

    def test_seconds_per_term_falls_back_to_calibrated(self, tmp_path,
                                                       monkeypatch):
        from repro.expr.cost import seconds_per_term
        path = tmp_path / "cal.json"
        seeded = CalibrationStore(path)
        kernel = "cal_test_kernel_b"   # never measured in-process
        seeded.record(kernel, terms=100.0, seconds=0.02)
        seeded.save()
        monkeypatch.setenv("REPRO_CALIBRATION_PATH", str(path))
        reset_calibration_store()
        try:
            rate, source = seconds_per_term(kernel)
            assert source == "calibrated"
            assert rate == pytest.approx(2e-4)
        finally:
            reset_calibration_store()


_PROCESS_A = """
import sys
sys.path.insert(0, {src!r})
from repro.arrays.associative import AssociativeArray
from repro.expr import lazy, plan
from repro.values.semiring import get_op_pair

pair = get_op_pair("plus_times")
n = 40
eout = AssociativeArray.from_triples(
    [(f"e{{i}}", f"v{{i % n}}", 1.0) for i in range(4 * n)], zero=0.0)
ein = AssociativeArray.from_triples(
    [(f"e{{i}}", f"v{{(i + 1) % n}}", 1.0) for i in range(4 * n)], zero=0.0)
expr = lazy(eout, "Eout").T.matmul(lazy(ein, "Ein"), pair)
result = plan(expr).execute()
assert result.nnz > 0
"""

_PROCESS_B = """
import sys
sys.path.insert(0, {src!r})
from repro.arrays.associative import AssociativeArray
from repro.expr import lazy, plan
from repro.expr.cost import estimate_plan, seconds_per_term
from repro.values.semiring import get_op_pair

pair = get_op_pair("plus_times")
n = 40
eout = AssociativeArray.from_triples(
    [(f"e{{i}}", f"v{{i % n}}", 1.0) for i in range(4 * n)], zero=0.0)
ein = AssociativeArray.from_triples(
    [(f"e{{i}}", f"v{{(i + 1) % n}}", 1.0) for i in range(4 * n)], zero=0.0)
expr = lazy(eout, "Eout").T.matmul(lazy(ein, "Ein"), pair)
the_plan = plan(expr)
ests = estimate_plan(the_plan.root)
products = [e for e in ests.values() if e.kernel != "-"]
assert products, "no product node in the plan"
calibrated = [e for e in products if e.seconds_source == "calibrated"]
assert calibrated, (
    "cold process produced no calibrated estimates: "
    + repr([(e.kernel, e.seconds_source) for e in products]))
assert all(e.seconds is not None and e.seconds > 0 for e in calibrated)
text = the_plan.explain()
assert "calibrated" in text, text
print("COLD_CALIBRATED_OK")
"""


class TestTwoProcessCalibration:
    def test_cold_process_plans_with_calibrated_rates(self, tmp_path):
        """The acceptance path: process A executes products and persists
        its measured rates at exit; a *fresh* process B, having run
        nothing, produces explain() estimates sourced from the
        calibration store — measured, not static."""
        path = tmp_path / "calibration.json"
        env = dict(os.environ)
        env["REPRO_CALIBRATION_PATH"] = str(path)
        env.pop("REPRO_CALIBRATION", None)

        run_a = subprocess.run(
            [sys.executable, "-c", _PROCESS_A.format(src=SRC)],
            env=env, capture_output=True, text=True, timeout=120)
        assert run_a.returncode == 0, run_a.stderr
        assert path.exists(), "process A persisted no calibration"
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCHEMA
        assert doc["machines"], "no machine entry was calibrated"

        run_b = subprocess.run(
            [sys.executable, "-c", _PROCESS_B.format(src=SRC)],
            env=env, capture_output=True, text=True, timeout=120)
        assert run_b.returncode == 0, run_b.stderr
        assert "COLD_CALIBRATED_OK" in run_b.stdout
