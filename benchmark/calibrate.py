"""Host-speed calibration kernels for the timed loop.

The shared host this benchmark was tuned on changes speed by up to 2x
between 10 s windows, and process CPU time drifts with wall time, so a
raw latency measures the host as much as the library.  After each timed
query the run times one fixed calibration kernel and reports the query's
latency as a multiple of the kernel's time.  Host drift slows both
alike and cancels in the ratio; a change in the library moves only the
query.  Set-up is timed the same way, against the mean of a set-up
kernel run several times just before and just after it.

The kernels use no library code.  Each workload names the parts of
its kernel and their sizes (``Workload.calibration``) so that the kernel
does the same kind of work as the workload's queries:

- ``interpreter``: CPython dict, tuple, heap and list work, like the
  widest-path search and the graph generators;
- ``gather``: numpy gather, multiply and segmented sum over a random
  CSR pattern, the same array operations as the dense matvec;
- ``scatter``: a Python loop over the rows of a random CSR pattern with
  small numpy slices and masks per row and a dict accumulator, the
  pattern of the pruned push matvec.

``er-global`` queries use a gather of its graph's size, ``ba-local``
queries the scatter part, and ``grid-route`` queries a small gather and
the interpreter part, in about the split of their time.  Each kernel
takes 9-18 ms on a 2 vCPU Xeon guest.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

def interpreter(items: int) -> float:
    """Fixed pure-Python work; returns a checksum so it is not dead code."""
    table = {}
    heap = []
    for i in range(items):
        key = (i, (i * 7919) % items)
        table[key] = table.get(key, 0.0) + 1.0
        heapq.heappush(heap, (-((i * 104729) % 1013), i))
    total = 0.0
    while heap:
        w, i = heapq.heappop(heap)
        total += table[(i, (i * 7919) % items)] - w
    return total + sum([v for v in table.values() if v > 0.0])


class Gather:
    """Fixed sparse matrix-vector products on a random CSR pattern:
    ``y = reduceat(w * y[index])``, ``reps`` times."""

    def __init__(self, rows: int, arcs: int, reps: int):
        rng = np.random.default_rng(0)
        self.x = rng.random(rows)
        self.index = rng.integers(0, rows, arcs)
        self.weights = rng.random(arcs)
        self.offsets = np.arange(0, arcs, arcs // rows)
        self.reps = reps

    def __call__(self) -> float:
        y = self.x
        for _ in range(self.reps):
            y = np.add.reduceat(self.weights * y[self.index], self.offsets)
            y /= y.max()
        return float(y.sum())


class Scatter:
    """Fixed row-by-row sparse scatter into a dict: per row, slice a
    random CSR pattern, mask, scale and accumulate the survivors, the
    pattern of a pruned push matvec."""

    def __init__(self, rows: int, arcs_per_row: int):
        rng = np.random.default_rng(0)
        self.offsets = np.arange(0, rows * arcs_per_row + 1, arcs_per_row)
        self.index = rng.integers(0, rows, rows * arcs_per_row)
        self.weights = rng.random(rows * arcs_per_row)
        self.values = rng.random(rows).tolist()

    def __call__(self) -> float:
        out = {}
        offsets, index, weights = self.offsets, self.index, self.weights
        for u, val in enumerate(self.values):
            lo, hi = offsets[u], offsets[u + 1]
            wt = weights[lo:hi]
            mask = wt > 0.25 * val
            if not mask.any():
                continue
            adds = val * wt[mask]
            for x, a in zip(index[lo:hi][mask].tolist(), adds.tolist()):
                out[x] = out.get(x, 0.0) + a
        return sum(out.values())


def kernel(spec: dict):
    """A no-argument callable running the parts ``spec`` names, in order:
    ``{"gather": (rows, arcs, reps), "interpreter": items}``."""
    parts = []
    if "gather" in spec:
        parts.append(Gather(*spec["gather"]))
    if "scatter" in spec:
        parts.append(Scatter(*spec["scatter"]))
    if "interpreter" in spec:
        items = spec["interpreter"]
        parts.append(lambda: interpreter(items))
    if not parts or set(spec) - {"gather", "scatter", "interpreter"}:
        raise ValueError(f"bad calibration kernel {spec!r}")

    def run() -> float:
        return sum(part() for part in parts)

    return run


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def mean_time(fn, reps: int) -> float:
    return statistics.fmean(timed(fn) for _ in range(reps))
