"""A fixed reference computation, timed alongside the workload to gauge machine speed.

On a machine shared with other tenants the speed of one core drifts by
tens of percent over minutes, and every timing of a run drifts with it.
The benchmark times this computation between passes and scales its
end-to-end times by REF_S / (its fastest time in the run), which cancels
most of the drift.  The mix mirrors the program's: interpreter-bound
Python, small-array numpy calls with fancy indexing, small symmetric
eigenproblems, and a medium matrix product.
"""

from __future__ import annotations

import time

import numpy as np

# Fastest time of `run` on an uncontended core of the baseline machine
# (2-vCPU x86_64 VM, Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one thread).
REF_S = 0.0175
# About one reference run per this many seconds of pass time.
REF_EVERY_S = 0.5

_rng = np.random.default_rng(0)
_G = _rng.standard_normal((12, 12))
_G = _G @ _G.T
_X = _rng.choice(np.array([-1, 1]), size=(24, 7))
_B = _rng.choice(np.array([-1, 1]), size=(24, 400)).astype(float)


def run() -> float:
    """Seconds taken by one run of the reference computation."""
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i
    for _ in range(500):
        np.linalg.eigvalsh(_G)
    for j in range(500):
        _X[:, [j % 7, (j + 1) % 7]].prod(axis=1) @ _X[:, j % 7]
    for _ in range(30):
        _B.T @ _B
    return time.perf_counter() - t0
