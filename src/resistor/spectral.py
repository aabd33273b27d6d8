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

The recurrence is run for k = 16, 32, 64, ... steps, capped at
``max_iter``, each run replaying the previous one.  Convergence is
declared when both extreme Ritz values move less than ``tol`` between
runs, or when the recurrence breaks down (the Krylov space is exhausted
and the Ritz values are exact).  Running out of ``max_iter`` returns the
last estimate flagged as unconverged instead of raising, so callers can
decide what to do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .kernels import SparseVector, TridiagonalMatrix, tridiag_eigen_range
from .lanczos import run_recurrence

__all__ = ["SpectralEstimate", "estimate_spectrum"]


@dataclass
class SpectralEstimate:
    """Spectral summary of the normalized adjacency.

    ``mu2 = 1 - lambda2_a`` is the normalized-Laplacian spectral gap and
    ``kappa = 2 / mu2`` the lazy-walk condition number.  ``iterations``
    counts the matrix-vector products over all runs; ``residual`` is the
    larger move of the two extreme Ritz values in the last run (0 on a
    breakdown, infinite after a single run); ``converged`` is False when
    ``max_iter`` ran out first.
    """

    lambda2_a: float
    lambda_min_a: float
    mu2: float
    kappa: float
    iterations: int
    residual: float
    converged: bool
    wall_time: float


def estimate_spectrum(
    g: Graph, tol: float = 1e-9, max_iter: int = 200_000, seed: int = 0
) -> SpectralEstimate:
    """Estimate lambda_2(A), lambda_min(A), and kappa by Lanczos.

    Deterministic for a given seed.  ``max_iter`` caps the Lanczos steps
    of one run.  ``tol`` bounds the move of the extreme Ritz values
    between runs, not the eigenvalue error itself.  The Ritz values lie
    inside [lambda_min(A), lambda_2(A)], so lambda_2 and kappa are
    approached from below.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    start = time.perf_counter()
    u1 = g.sqrt_degrees / np.linalg.norm(g.sqrt_degrees)
    x = np.random.default_rng(seed).standard_normal(g.node_count)
    x -= (u1 @ x) * u1
    v1 = SparseVector.from_dense(x / np.linalg.norm(x))

    k, iterations, previous = min(16, max_iter), 0, None
    while True:
        alphas, betas, _, breakdown, _ = run_recurrence(g, v1, k)
        iterations += len(alphas)
        extremes = tridiag_eigen_range(TridiagonalMatrix(alphas, betas), tol=tol / 10)
        residual = 0.0 if breakdown else np.inf
        if previous is not None and not breakdown:
            residual = max(abs(a - b) for a, b in zip(extremes, previous))
        converged = residual < tol
        if converged or k == max_iter:
            break
        k, previous = min(2 * k, max_iter), extremes

    lambda_min, lambda2 = extremes
    mu2 = 1.0 - lambda2
    return SpectralEstimate(
        lambda2_a=float(lambda2),
        lambda_min_a=float(lambda_min),
        mu2=float(mu2),
        kappa=float(2.0 / mu2),
        iterations=iterations,
        residual=float(residual),
        converged=bool(converged),
        wall_time=time.perf_counter() - start,
    )
