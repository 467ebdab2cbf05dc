"""Run one benchmark workload and print its metrics.

    python3 adjbench/run.py --workload construct --seed 1 --seconds 10 --trace 0

Run from the repository root: the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable table and a ``report`` JSON line that declares the
run's inputs (seed, sizes, op counts, nproc, interpreter and library
versions) and the raw, unnormalised figures.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the
per-layer ledger (:mod:`adjbench.ledger`) and the tracing overhead.

Hidden inputs are pinned: ``PYTHONHASHSEED`` is derived from
``--seed`` (the process re-executes itself once to apply it), the
kernel calibration store points at a fresh file, and temporary files go
to a per-run directory under ``.adjbench_work/`` that is removed at the
end.  A directory without the program's sources exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _pin_hash_seed(seed: int) -> None:
    want = str(seed % (2 ** 32))
    if os.environ.get("PYTHONHASHSEED") != want:
        env = dict(os.environ, PYTHONHASHSEED=want)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def main(argv=None) -> int:
    args = _parse(argv if argv is not None else sys.argv[1:])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    _pin_hash_seed(args.seed)
    # A terminated run still stops its server child and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".adjbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.environ["REPRO_CALIBRATION_PATH"] = str(workdir / "calibration.json")
    os.environ["TMPDIR"] = str(workdir)
    import tempfile
    tempfile.tempdir = str(workdir)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        return _run(args, workdir)
    finally:
        # Flush the kernel calibration store now: its exit hook would
        # otherwise write into the work directory after it is removed.
        calibration = sys.modules.get("repro.obs.calibration")
        if calibration is not None:
            calibration.reset_calibration_store()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".adjbench_work").rmdir()
        except OSError:
            pass


def _versions():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _run(args, workdir: Path) -> int:
    from adjbench import harness
    from adjbench.ledger import Ledger
    from adjbench.workloads import WORKLOADS, load

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = load(args.workload)(args.seed, workdir)
    rec = harness.Record()
    try:
        setups = harness.timed_setups(wl)
        wl.start()
        wl.segment(rec, n_ops=wl.WARMUP_OPS, measure=False)
        if args.trace:
            ledger = Ledger()
            for traced in (False, True, False, True):
                wl.segment(rec, n_ops=wl.TRACE_OPS,
                           ledger=ledger if traced else None)
            rss = wl.peak_rss_mb()
            totals, n_ops, wire = wl.layer_totals(ledger)
            metrics = harness.per_layer(totals, n_ops,
                                        harness.tracing_overhead(rec), wire)
            detail = {"traced_ops": dict(n_ops)}
        else:
            wl.segment(rec, seconds=args.seconds)
            rss = wl.peak_rss_mb()
            metrics, detail = harness.end_to_end(
                rec, statistics.median(setups), rss, wl.NORMALIZE)
        failed_checks = wl.final_checks(rec)
    finally:
        wl.close()

    attempted = len(rec.ops)
    failed = sum(1 for op in rec.ops if not op[2]) + failed_checks
    import numpy as np
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "versions": _versions(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "sizes": wl.sizes, "setups_s": setups,
        "ops": {cls: sum(1 for op in rec.ops if op[0] == cls)
                for cls in harness.CLASSES},
        "checked": wl.checks, "failures": rec.failures,
        "detail": detail, **wl.extra_report(),
    }
    for name in sorted(metrics):
        m = metrics[name]
        print(f"{name:44s} {m['value']:14.4f} {m['unit']}")
    print("report " + json.dumps(report, default=lambda o: float(o)
                                 if isinstance(o, np.floating) else str(o)))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
