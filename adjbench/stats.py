"""Latency statistics and the machine-speed probe.

``tail`` is the sample of rank n−10: the highest percentile with at
least ten samples beyond it.

On the shared 2-vCPU virtual machine this benchmark was tuned on,
speed drifts by 10–30% over tens of seconds (other tenants; the guest
sees no steal time and thread CPU time equals wall time, so measuring
CPU time does not remove it).  A
fixed probe — a pure-Python dict loop and a NumPy sort, code that never
changes with the program — runs every ``PROBE_EVERY_S`` seconds between
ops.  A workload that normalises divides its latencies by one factor
per run: the median probe time of the run over ``PROBE_REF_S``.
Reported times are then "ms on a machine where the probe takes
``PROBE_REF_S``"; raw times are reported alongside.

Over two batches of ten 4-second runs each, this cut the quartile
spread of the main-class medians from 9.2% and 23.8% (raw) to 5.3% and
5.3% (construct), from 8.7% and 8.7% to 5.6% and 4.4% (build), and from
32.0% and 13.0% to 13.9% and 5.5% (query point reads).  It does less
for tails, which are made of collector pauses and scheduler stalls.
Probe parts that miss the cache were tried and dropped: they pick up
the program's own cache footprint.  For the same reason each probe
first runs once untimed: ``construct``'s ops evict the probe's data, and
a cold probe widened its main-class p50 spread over ten 10-second runs
from 8.3% (raw) to 16.2%; with the warm pass, five runs in a noisier
period went from 28.2% (raw) to 9.3%.  A per-op rolling factor was
dropped too: it added noise to the tails.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

#: Samples beyond the reported tail.
TAIL_BEYOND = 10

#: Probe cadence during measurement, and the reference probe time.
PROBE_EVERY_S = 0.1
PROBE_REF_S = 0.001


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def tail(values: Sequence[float]) -> float:
    """The sample of rank n−10 (ten samples lie beyond it).

    Raises ``ValueError`` for fewer than eleven samples: no percentile
    then has ten samples beyond it.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, "
                         f"got {n}")
    return float(np.sort(np.asarray(values, dtype=np.float64))[n - 1 - TAIL_BEYOND])


def tail_percentile(n: int) -> float:
    """The percentile :func:`tail` reports for ``n`` samples."""
    return 100.0 * (n - TAIL_BEYOND) / n


class Probe:
    """A fixed unit of interpreter and NumPy work, timed."""

    def __init__(self) -> None:
        self._table = {i: i for i in range(4096)}
        self._sortee = np.random.default_rng(12345).random(40_000)
        self.samples: List[float] = []

    def _work(self) -> None:
        table = self._table
        s = 0
        for i in range(6000):
            s += table[i & 4095]
        np.sort(self._sortee)

    def run(self) -> float:
        # The untimed pass brings the probe's data back into the cache
        # after an op has evicted it.
        self._work()
        t0 = time.perf_counter()
        self._work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def factor(self) -> float:
        """This run's slowdown against :data:`PROBE_REF_S` (1.0 without
        probes)."""
        return median(self.samples) / PROBE_REF_S if self.samples else 1.0


def summarize(lat: Sequence[float]) -> Dict[str, float]:
    """Median and tail of one op class, with the tail's percentile.

    A class whose ops mostly failed may have ten samples or fewer; its
    tail is then its slowest sample (percentile 100), and an empty
    class reads 0 — the failures already make the run incorrect.
    """
    n = len(lat)
    if n <= TAIL_BEYOND:
        top = float(max(lat)) if n else 0.0
        return {"n": n, "p50": median(lat) if n else 0.0, "tail": top,
                "tail_pct": 100.0}
    return {"n": n, "p50": median(lat), "tail": tail(lat),
            "tail_pct": tail_percentile(n)}
