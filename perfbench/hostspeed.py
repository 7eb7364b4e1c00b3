"""Host-speed reference: a fixed piece of work that does not touch posikit.

On a shared host the same work runs up to 1.8x slower in states that last
from seconds to tens of minutes. The benchmark times this kernel after
every job, so each run carries a measure of how fast the host was while the
jobs ran, and the bounded timings are reported at a nominal host speed
(``REFERENCE_S``). The kernel mimics what the workload's jobs spend their
time on. Every workload gets small dense linear algebra called from a
Python loop (per-replication refits), plain interpreted Python (argument
handling, the lattice walk) and a small matrix product reduced by
``max |.|``. The fold-heavy ``calibrate`` workload also gets one 8192 x 512
product of draws and directions, a block of the Monte Carlo fold that
streams through the cache: without it the kernel speeds up and slows down
more than the fold does and over-corrects those jobs, and with it the
kernel under-corrects the ``coverage`` jobs.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median time between jobs on a 2-core Xeon (Sapphire Rapids,
# KVM guest). Constants: changing one rescales every normalised figure of
# that workload.
REFERENCE_S = {"calibrate": 0.025, "coverage": 0.011}

_rng = np.random.default_rng(20130605)
_X = _rng.standard_normal((14, 10))
_Y = _rng.standard_normal((14, 40))
_D = _rng.standard_normal((2048, 10))
_Z = _rng.standard_normal((10, 256))
_DRAWS = _rng.standard_normal((8192, 10))
_DIRECTIONS = _rng.standard_normal((512, 10))


def _common() -> float:
    acc = 0.0
    for _ in range(100):
        q, r = np.linalg.qr(_X)
        acc += float(np.linalg.solve(r, q.T @ _Y)[0, 0])
    s = 0
    for i in range(30_000):
        s += i * i % 7
    return acc + s + float(np.abs(_D @ _Z).max())


def _fold_block() -> float:
    # Allocated per call, as the fold allocates its buffer per job, so that
    # it is not resident while the jobs run and peak_rss_mb stays posikit's.
    buf = _DRAWS @ _DIRECTIONS.T
    return max(float(buf.max(axis=1).max()), -float(buf.min(axis=1).min()))


_KERNELS = {"calibrate": (_common, _fold_block), "coverage": (_common,)}


def reference_seconds(workload: str) -> float:
    """Wall time of one run of the workload's reference kernel."""
    start = time.perf_counter()
    for part in _KERNELS[workload]:
        part()
    return time.perf_counter() - start
