"""Reference estimators: dense exact solve, power method, random walks.

The resistance distance between s and t is the quadratic form
``(e_s - e_t)^T L^+ (e_s - e_t)`` in the pseudoinverse of the combinatorial
Laplacian L = D - W.  The two iterative estimators here approximate the
equivalent lazy-walk series

    r(s, t) = sum_i [ w_i(s) / (2 d_s) - w_i(t) / (2 d_t) ]
            - sum_i [ w_i'(s) / (2 d_s) - w_i'(t) / (2 d_t) ]

where w_i (w_i') is the i-step lazy-walk distribution started at s (at t),
truncated after l + 1 terms: the power method tracks the signed distribution
r_i = ((I + P)/2)^i (e_s - e_t) exactly, the random-walk estimator samples
it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UnsupportedInputError
from .graph import Graph, _check_vertex, _integers
from .kernels import apply_lazy_walk

__all__ = [
    "RDEstimate",
    "exact_rd",
    "power_method_rd",
    "random_walk_rd",
    "power_method_iteration_bound",
]

EXACT_NODE_CAP = 2000


@dataclass
class RDEstimate:
    """Result of a single resistance-distance computation.

    ``iterations`` counts the method's outer iterations, ``touched_edges``
    the number of arc relaxations performed (the work measure reported by
    the benchmark CLI), and ``wall_time`` the elapsed seconds.
    ``healthy`` is false when the Lanczos estimators (``lz``, ``lzpush``)
    ended with an indefinite I - T, i.e. a Ritz value at or above 1, where
    ``value`` cannot be trusted.
    """

    value: float
    iterations: int
    touched_edges: int
    wall_time: float
    method: str
    healthy: bool = True


def _check_pair(g: Graph, s: int, t: int) -> None:
    _check_vertex(g, s, "s")
    _check_vertex(g, t, "t")


def _check_bound_args(kappa: float, eps: float) -> None:
    """Raise ValueError unless ``kappa`` >= 1 and ``eps`` > 0 are finite:
    the arguments of the three iteration bounds."""
    if not (1.0 <= kappa < math.inf and 0.0 < eps < math.inf):
        raise ValueError("need kappa >= 1 and eps > 0")


def _ceil_bound(bound: float) -> int:
    """``max(1, ceil(bound))`` for an iteration bound; raise ValueError
    when it overflowed float64, as at finite arguments such as
    kappa = 1e308 or eps = 5e-324."""
    if not math.isfinite(bound):
        raise ValueError("iteration bound overflows: kappa too large or eps too small")
    return max(1, math.ceil(bound))


def power_method_iteration_bound(kappa: float, eps: float) -> int:
    """Iterations sufficient for the power method to reach error ``eps``:
    ``ceil(2 kappa ln(kappa / eps))``.  Raises ValueError unless kappa >= 1
    and eps > 0 are finite, or when the bound overflows float64."""
    _check_bound_args(kappa, eps)
    return _ceil_bound(2.0 * kappa * math.log(kappa / eps))


def exact_rd(g: Graph, s: int, t: int, cap: int = EXACT_NODE_CAP) -> float:
    """Resistance distance via a dense Laplacian eigendecomposition.

    Intended as a ground-truth oracle for small graphs; refuses graphs
    with more than ``cap`` vertices.  The null eigenvalue of a connected
    Laplacian is simple, so the smallest eigenvalue is dropped by index
    after checking it is zero to within 1e-9 (relative to the largest).
    """
    _check_pair(g, s, t)
    n = g.node_count
    if n > cap:
        raise UnsupportedInputError(
            f"exact_rd is a dense oracle, refusing n={n} > cap={cap}"
        )
    if s == t:
        return 0.0
    lap = np.zeros((n, n))
    lap[g.arc_sources, g.neighbors] = -g.weights
    np.fill_diagonal(lap, g.weighted_degrees)
    eigvals, eigvecs = np.linalg.eigh(lap)
    scale = max(1.0, float(eigvals[-1]))
    if abs(eigvals[0]) > 1e-9 * scale:
        raise NumericalError(
            f"smallest Laplacian eigenvalue {eigvals[0]:.3e} is not numerically zero"
        )
    if n > 1 and eigvals[1] <= 1e-9 * scale:
        raise NumericalError(
            "Laplacian null space is not simple; graph appears disconnected"
        )
    diff = eigvecs[s, 1:] - eigvecs[t, 1:]
    return float(np.sum(diff * diff / eigvals[1:]))


def power_method_rd(g: Graph, s: int, t: int, l: int) -> RDEstimate:
    """Truncated lazy-walk series, accumulated through exact matvecs.

    Runs ``l`` lazy-walk steps on r_0 = e_s - e_t, accumulating the
    estimate before each step (l + 1 terms in total).  Deterministic;
    touches all 2m arcs per step.
    """
    _check_pair(g, s, t)
    (l,) = _integers(l=l)
    if l < 0:
        raise ValueError("iteration count l must be nonnegative")
    start = time.perf_counter()
    if s == t:
        return RDEstimate(0.0, 0, 0, time.perf_counter() - start, "pm")
    half_inv_ds = 0.5 / g.weighted_degrees[s]
    half_inv_dt = 0.5 / g.weighted_degrees[t]
    r = np.zeros(g.node_count)
    r[s] = 1.0
    r[t] = -1.0
    acc = 0.0
    for _ in range(l):
        acc += r[s] * half_inv_ds - r[t] * half_inv_dt
        r = apply_lazy_walk(g, r)
    acc += r[s] * half_inv_ds - r[t] * half_inv_dt
    return RDEstimate(
        value=float(acc),
        iterations=l,
        touched_edges=(l + 1) * 2 * g.edge_count,
        wall_time=time.perf_counter() - start,
        method="pm",
    )


def random_walk_rd(
    g: Graph, s: int, t: int, l: int, n_r: int, seed: int
) -> RDEstimate:
    """Monte Carlo version of the truncated lazy-walk series.

    For each length i = 0..l, simulates ``n_r`` lazy walks from s and
    ``n_r`` from t, and replaces the exact i-step return probabilities by
    empirical frequencies.  Unweighted graphs only.

    Randomness is counter based: batch (i, side) draws from a Philox
    stream keyed by ``(seed, 2 i + side)``, and walk j consumes exactly
    the block ``[2 i j, 2 i (j + 1))`` of that stream (one stay/move coin
    and one neighbor pick per step).  Results therefore do not depend on
    how walks are scheduled, only on the seed.
    """
    _check_pair(g, s, t)
    l, n_r, seed = _integers(l=l, n_r=n_r, seed=seed)
    if l < 0:
        raise ValueError("walk length l must be nonnegative")
    if n_r < 1:
        raise ValueError("need at least one walk per length")
    if not g.is_unweighted:
        raise UnsupportedInputError(
            "random_walk_rd simulates unit-weight walks; "
            "use power_method_rd for weighted graphs"
        )
    start = time.perf_counter()
    if s == t:
        return RDEstimate(0.0, 0, 0, time.perf_counter() - start, "rw")

    offsets = g.offsets
    neighbors = g.neighbors
    degrees = g.weighted_degrees.astype(np.int64)
    half_inv_ds = 0.5 / g.weighted_degrees[s]
    half_inv_dt = 0.5 / g.weighted_degrees[t]
    seed_word = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    touched = 0
    acc = 0.0

    def endpoint_counts(origin: int, i: int, side: int):
        """Fractions of the n_r length-i lazy walks from ``origin`` that
        end at s and at t."""
        nonlocal touched
        if i == 0:
            return (1.0 if origin == s else 0.0), (1.0 if origin == t else 0.0)
        key = np.array([seed_word, np.uint64(2 * i + side)], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        draws = gen.random((n_r, 2 * i))
        pos = np.full(n_r, origin, dtype=np.int64)
        for step in range(i):
            movers = np.nonzero(draws[:, 2 * step] >= 0.5)[0]
            if movers.size == 0:
                continue
            mpos = pos[movers]
            pick = (draws[movers, 2 * step + 1] * degrees[mpos]).astype(np.int64)
            pos[movers] = neighbors[offsets[mpos] + pick]
            touched += movers.size
        return (
            float(np.count_nonzero(pos == s)) / n_r,
            float(np.count_nonzero(pos == t)) / n_r,
        )

    for i in range(l + 1):
        xs, xt = endpoint_counts(s, i, 0)
        ys, yt = endpoint_counts(t, i, 1)
        acc += (xs - ys) * half_inv_ds + (yt - xt) * half_inv_dt
    return RDEstimate(
        value=float(acc),
        iterations=l,
        touched_edges=touched,
        wall_time=time.perf_counter() - start,
        method="rw",
    )
