"""Host-speed probe: a fixed piece of work that does not use the package.

On a shared host the same code runs up to half again as slow for minutes at
a time, when other tenants load the machine. Timing the probe just before
and just after a unit of work measures how fast the host was during it;
dividing by that puts the unit's time into seconds of the reference host,
so the benchmark compares program versions, not host load.

The probe mixes what the workloads spend time on: the split search of a
regression tree (argsort, gather and cumulative sums down the columns of an
8000 x 12 matrix), small matrix products in a Python loop (network epochs)
and dict updates (interpreter overhead). It runs in as many threads at
once as the workload's pool: a two-thread workload slows when either vCPU
is loaded, and over 50-s windows of ``hyperopt_forecast`` a two-thread probe
tracked that better than a one-thread probe did.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

#: Probe level (see ``level``) by thread count on the reference host: a
#: two-vCPU Intel Xeon x86-64 virtual machine, Python 3.11, numpy 2.4, BLAS
#: pinned to one thread.
REFERENCE_S = {1: 0.050, 2: 0.080}
#: Probes per level; the median of them is the level.
PROBES = 5

_rng = np.random.default_rng(12345)
_M = _rng.standard_normal((8000, 12))
_R = _rng.standard_normal(8000)
_A = _rng.standard_normal((64, 16))
_B = _rng.standard_normal((16, 8))


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    s = 0.0
    n = len(_R)
    positions = np.arange(1, n)
    for _ in range(4):
        for j in range(_M.shape[1]):
            order = np.argsort(_M[:, j], kind="stable")
            xs, rs = _M[order, j], _R[order]
            cs, css = np.cumsum(rs), np.cumsum(rs ** 2)
            i = positions[(xs[:-1] != xs[1:]) & (positions >= 5) & (positions <= n - 5)]
            gains = css[i - 1] - cs[i - 1] ** 2 / i
            s += float(gains[int(np.argmax(gains))])
    h = np.zeros((64, 8))
    for _ in range(1500):
        h = np.tanh(_A @ _B + 0.5 * h)
        s += float(h[0, 0])
    d: dict[int, int] = {}
    for i in range(60000):
        d[i % 101] = d.get(i % 101, 0) + i
    elapsed = time.perf_counter() - t0
    if not np.isfinite(s):
        raise RuntimeError("host-speed probe computed a non-finite sum")
    return elapsed


def _probe_threads(threads: int) -> float:
    """Seconds for ``threads`` probes run at once, one per thread."""
    if threads == 1:
        return probe()
    workers = [threading.Thread(target=probe) for _ in range(threads)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return time.perf_counter() - t0


def level(threads: int) -> float:
    """Median of PROBES probe times in ``threads`` threads: how slow the host is now."""
    return statistics.median(_probe_threads(threads) for _ in range(PROBES))
