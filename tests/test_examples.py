"""Every shipped example must run clean — they are executable docs."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True, text=True, timeout=240)


@pytest.mark.parametrize("script,expect", [
    ("quickstart.py", "reverse-graph adjacency verified"),
    ("music_graph.py", "All five figures reproduce exactly."),
    ("semiring_gallery.py", "Every catalog verdict matches the paper."),
    ("document_words.py", "zero-divisor failure, live"),
    ("flight_network.py", "Section IV in action"),
    ("sharded_build.py", "sharded construction verified against batch"),
    ("adjacency_service.py", "adjacency service demo complete"),
    ("lazy_pipeline.py", "lazy pipeline demo complete"),
    ("observability.py", "observability demo complete"),
    ("profiling.py", "profiling demo complete"),
])
def test_example_runs_and_reports(script, expect):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert expect in proc.stdout


def test_scaling_study_quick():
    proc = _run("scaling_study.py", "--quick")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "speedup" in proc.stdout
