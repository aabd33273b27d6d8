"""Spectral estimation: lambda_2(A), lambda_min(A), and the condition
number kappa = 2 / (1 - lambda_2(A)) of the lazy walk.

Both extreme eigenvalues come out of one Krylov space.  The Lanczos
recurrence of :func:`resistor.lanczos.run_recurrence` runs on the
normalized adjacency A from a seeded random start with the known top
eigenvector u_1 = D^{1/2} 1 / ||D^{1/2} 1|| projected out, so A acts on
the complement of u_1, whose extreme eigenvalues are lambda_min(A) and
lambda_2(A).  The extreme eigenvalues of the tridiagonal T then converge
to them, without reorthogonalization (Paige 1980), from almost every
start (Kuczynski & Wozniakowski 1992).

The recurrence runs once, for at most ``max_iter`` steps, and the
extreme Ritz values are read off the leading k x k block of T at the
checkpoints k = 16, 24, 32, 40, 50, 62, 77, 96, ..., each the larger of
the last plus 8 and 5/4 of it.  The run stops when both move less than
``tol`` between two checkpoints, or when the recurrence breaks down (the
Krylov space is exhausted and the Ritz values are exact).  Running out
of ``max_iter`` returns the estimate of the full T flagged as
unconverged instead of raising, so callers can decide what to do.

A checkpoint costs two Sturm bisections of its T, at most O(k) work per
bisection step, against the k products of the recurrence itself.  The
geometric schedule keeps that work linear in the final order k: the
orders of all checkpoints sum to about 5 k, and the run stops within a
quarter of the step at which the extremes settle (doubling would stop
within a factor of 2).  Each checkpoint's bisections resume from the
record of the last one's (:func:`resistor.kernels._eigen_range_resumed`):
its T extends the last T row for row, and the Gershgorin bracket, and
with it the bisection's midpoints, mostly stays put, so a midpoint seen
before is decided by the pivots it left there, or by a pass over the new
rows alone.  Every decision is that of a cold bisection, so the extremes
are those of :func:`resistor.kernels.tridiag_eigen_range` of the
checkpoint's T to the bit; on the grid-route lattice the passes read
about half the pivot rows of cold ones.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _integers
from .kernels import SparseVector, TridiagonalMatrix, _dot, _eigen_range_resumed
from .lanczos import run_recurrence

__all__ = ["SpectralEstimate", "estimate_spectrum"]


@dataclass
class SpectralEstimate:
    """Spectral summary of the normalized adjacency.

    ``mu2 = 1 - lambda2_a`` is the normalized-Laplacian spectral gap and
    ``kappa = 2 / mu2`` the lazy-walk condition number.  ``iterations``
    counts the matrix-vector products, which is the order of the final
    T; ``residual`` is the larger move of the two extreme Ritz values
    since the previous checkpoint (0 on a breakdown, infinite when there
    was none); ``converged`` is False when ``max_iter`` ran out first.
    """

    lambda2_a: float
    lambda_min_a: float
    mu2: float
    kappa: float
    iterations: int
    residual: float
    converged: bool
    wall_time: float


def _start_vector(g: Graph, seed: int) -> SparseVector:
    """The seeded random unit start vector, with u_1 projected out."""
    sqrt_d = g.sqrt_degrees
    u1 = sqrt_d / math.sqrt(_dot(sqrt_d, sqrt_d))
    x = np.random.default_rng(seed).standard_normal(g.node_count)
    x -= _dot(u1, x) * u1
    return SparseVector.from_dense(x / math.sqrt(_dot(x, x)))


def estimate_spectrum(
    g: Graph, tol: float = 1e-9, max_iter: int = 200_000, seed: int = 0
) -> SpectralEstimate:
    """Estimate lambda_2(A), lambda_min(A), and kappa by Lanczos.

    Deterministic for a given seed.  ``max_iter`` caps the Lanczos steps;
    it must be an int or a numpy integer (not a bool) and at least 1.
    ``tol`` bounds the move of the extreme Ritz values between
    checkpoints (k = 16, 24, 32, 40, 50, ..., growing by 5/4, so the
    bisections of all of them cost at most about 5 times those of the
    final T, and each resumes from the one before), not the eigenvalue
    error itself; it must be finite and positive.  The
    Ritz values lie inside [lambda_min(A), lambda_2(A)], so lambda_2 and
    kappa are approached from below.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and > 0")
    (max_iter,) = _integers(max_iter=max_iter)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    start = time.perf_counter()
    v1 = _start_vector(g, seed)

    extremes, residual, converged = None, np.inf, False
    record = None
    checkpoint = 16

    def settle(alphas, betas, breakdown: bool) -> bool:
        # Ritz extremes of T, bisected from where the last checkpoint's
        # stopped, and their move since that checkpoint
        nonlocal extremes, record, residual, converged
        previous = extremes
        extremes, record = _eigen_range_resumed(
            TridiagonalMatrix(alphas, betas), tol / 10, record
        )
        residual = 0.0 if breakdown else np.inf
        if previous is not None and not breakdown:
            residual = max(abs(a - b) for a, b in zip(extremes, previous))
        converged = residual < tol
        return converged

    def visit(i: int, supp, v, alphas, betas) -> bool:
        nonlocal checkpoint
        if len(alphas) < checkpoint:
            return False
        checkpoint = max(checkpoint + 8, checkpoint * 5 // 4)
        return settle(alphas, betas[:-1], False)

    run = run_recurrence(g, v1, max_iter, visit=visit)
    if not converged:
        settle(run.alphas, run.betas, run.breakdown)

    lambda_min, lambda2 = extremes
    mu2 = 1.0 - lambda2
    return SpectralEstimate(
        lambda2_a=float(lambda2),
        lambda_min_a=float(lambda_min),
        mu2=float(mu2),
        kappa=float(2.0 / mu2),
        iterations=run.k_effective,
        residual=float(residual),
        converged=bool(converged),
        wall_time=time.perf_counter() - start,
    )
