"""Shared helpers for the benchmark suite.

Every benchmark doubles as a regeneration harness: it times the operation
*and* asserts (or prints) the same rows the paper reports, so
``pytest benchmarks/bench_*.py --benchmark-only`` both measures and
re-verifies.

Run with ``-s`` to see the regenerated figure tables inline.  Each
emitted artifact carries one attribution line (git commit,
python/numpy/scipy versions), so a pasted banner is attributable to a
commit and numeric stack.
"""

from __future__ import annotations

import platform
import subprocess
from pathlib import Path
from typing import Optional

import pytest  # noqa: F401 - conftest module; fixtures may hang off it

_METADATA_LINE: Optional[str] = None


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _metadata_line() -> str:
    """One attribution line, computed once per pytest session."""
    global _METADATA_LINE
    if _METADATA_LINE is None:
        import numpy
        try:
            import scipy
            scipy_version = scipy.__version__
        except ImportError:
            scipy_version = None
        _METADATA_LINE = (
            f"-- commit {_git_sha()[:12]} · python "
            f"{platform.python_version()} · numpy {numpy.__version__} "
            f"· scipy {scipy_version} --")
    return _METADATA_LINE


def emit(title: str, text: str) -> None:
    """Print a regenerated artifact under a banner (visible with -s)."""
    banner = f"== {title} =="
    print()
    print(banner)
    print(_metadata_line())
    print(text)
