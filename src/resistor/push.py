"""Local Lanczos estimator (Lanczos Push): the recurrence on significant entries.

This is the only estimator whose per-iteration cost depends on the local
neighborhood of s and t instead of the whole graph.  It is the one
recurrence of :func:`resistor.lanczos.run_recurrence`, run with
``eps > 0``, which

* multiplies through a pruned operator that relaxes an arc (u, x) only
  when |v(u)| > eps * sqrt(d_u d_x)  (see :func:`resistor.kernels.amv`),
* applies the alpha/beta subtractions only on the significant set
  S_i = {u : |v_i(u)| > eps * d_u}  (see :func:`resistor.kernels.restrict`),
  with S_{i-1} cached from the previous iteration, and
* projects the trivial eigenvector u_1 ~ D^{1/2} 1 out of the pruned
  product before alpha is taken, and again out of each new iterate,
  each time over that vector's own support.

With ``eps = 0`` the same recurrence multiplies by A itself and is the
global method ``lz`` of :func:`resistor.lanczos.lanczos_rd`.  Both the
pruned matvec and the S_i-restricted subtractions put u_1 mass back,
which would give T a spurious eigenvalue at 1.  The projections cost
O(support) and are applied only when v_1 is orthogonal to u_1, as the
definitional start always is; for such a start every iterate is then
exactly orthogonal to u_1 in real arithmetic.

Degree-scaled thresholds make the pruning error at a vertex proportional
to its degree, which is what keeps the recurrence residual controlled:
with unit coefficient bounds the per-entry deviation from the exact
recurrence is at most 3 * eps * d_u per iteration (recorded per run when
``collect_stats`` is set; the recorded residual includes the u_1
projections, which that bound does not cover).

The resulting perturbed tridiagonal matrix T changes the estimate formula:
the perturbed basis is no longer orthogonal, so the output uses the full
first-row products v_1^T V instead of e_1^T, i.e.

    r = (1/d_s + 1/d_t) * (v_1^T V) (I - T)^{-1} e_1.

Since v_1 is supported on {s, t}, each product v_1^T v_j costs O(1) and is
accumulated online; no second pass and no stored basis.

Everything here assumes the spectrum-containment property of the perturbed
matrix: eigenvalues of T must stay within [lambda_min(A), lambda_2(A)], in
particular below 1 so that (I - T) is positive definite.  Every estimate
carries ``healthy``, false when I - T is indefinite;
:func:`check_assumption` verifies the full containment for a finished run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import _check_pair
from .graph import Graph
from .kernels import (
    SparseVector,
    TridiagonalMatrix,
    _check_eps,
    chebyshev_walk_norms,
    tridiag_eigen_range,
)
from .lanczos import LanczosRun, _estimate

__all__ = [
    "PushConfig",
    "AssumptionReport",
    "lanczos_push_rd",
    "subset_recurrence_trace",
    "check_assumption",
    "measure_c1",
    "measure_c1_plain",
    "measure_c2",
]


@dataclass
class PushConfig:
    """Parameters of a push run.

    ``epsilon = 0`` disables all pruning: the run is the global Lanczos
    recurrence of ``lz``.  ``collect_stats`` turns on the expensive
    diagnostics (exact matvecs per iteration) used by the locality
    studies; leave it off for production runs.
    """

    k: int
    epsilon: float
    collect_stats: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("iteration count k must be >= 1")
        _check_eps(self.epsilon)


@dataclass
class AssumptionReport:
    """Outcome of the eigenvalue-containment check for a perturbed T.

    ``lower_slack`` is lambda_min(T) - lambda_min(A) and ``upper_slack``
    is lambda_2(A) - lambda_max(T); the check passes when both are above
    ``-tol``.
    """

    passed: bool
    lambda_min_t: float
    lambda_max_t: float
    lambda_min_a: float
    lambda_2_a: float
    lower_slack: float
    upper_slack: float
    tol: float


def lanczos_push_rd(g: Graph, s: int, t: int, cfg: PushConfig):
    """Resistance distance through the pruned local recurrence.

    Returns ``(RDEstimate, TridiagonalMatrix, LanczosRun)``, the matrix
    being the run's ``t``.  Work scales with the sizes of the significant
    sets, not with the graph, for epsilon large enough to prune;
    breakdown before ``cfg.k`` iterations is benign (the reachable Krylov
    space was exhausted).  The estimate is flagged (``healthy`` false)
    when I - T is indefinite.
    """
    est, run = _estimate(
        g, s, t, cfg.k, cfg.epsilon, "lzpush", collect_stats=cfg.collect_stats
    )
    return est, run.t, run


def subset_recurrence_trace(
    g: Graph,
    s: int,
    t: int,
    k: int,
    eps: float,
    v1=None,
    s_overrides=None,
    collect_stats: bool = False,
) -> LanczosRun:
    """Run the subset recurrence and keep every intermediate vector.

    Returns the :class:`LanczosRun` with its ``vectors`` and ``estimate``.
    Diagnostic harness: ``v1`` (a SparseVector or a ``{vertex: value}``
    mapping) replaces the definitional start vector and is used exactly
    as given (a ``v1`` with a u_1 component runs without the u_1
    projection, so its recurrence is the plain pruned one), and
    ``s_overrides`` maps an iteration number (1-based) to the significant
    set to use at that iteration instead of the threshold rule.  Together
    they allow replaying a recurrence from any recorded intermediate
    state.
    """
    if v1 is not None and not isinstance(v1, SparseVector):
        v1 = SparseVector.from_mapping(v1, g.node_count)
    vectors = []

    def keep(i: int, supp, v: np.ndarray, alphas, betas) -> None:
        if isinstance(supp, slice):
            vectors.append(SparseVector.from_dense(v))
        else:
            vectors.append(SparseVector(supp, v[supp], g.node_count))

    _, run = _estimate(
        g, s, t, k, eps, "lzpush", v1,
        s_overrides=s_overrides, visit=keep, collect_stats=collect_stats,
    )
    run.vectors = vectors
    return run


def check_assumption(
    t: TridiagonalMatrix,
    lambda_min_a: float,
    lambda_2_a: float,
    tol: float = 1e-9,
) -> AssumptionReport:
    """Verify eigenvalue containment for a perturbed tridiagonal matrix.

    The pruned recurrence is trustworthy only while the eigenvalues of its
    T stay inside [lambda_min(A), lambda_2(A)]; in particular the upper
    bound keeps (I - T) positive definite.  ``tol`` is the slack allowed
    on both sides.
    """
    lo, hi = tridiag_eigen_range(t)
    lower_slack = lo - lambda_min_a
    upper_slack = lambda_2_a - hi
    return AssumptionReport(
        passed=bool(lower_slack >= -tol and upper_slack >= -tol),
        lambda_min_t=float(lo),
        lambda_max_t=float(hi),
        lambda_min_a=float(lambda_min_a),
        lambda_2_a=float(lambda_2_a),
        lower_slack=float(lower_slack),
        upper_slack=float(upper_slack),
        tol=float(tol),
    )


def _walk_norm_peak(g: Graph, s: int, t: int, k: int, weighted: bool = True) -> float:
    """Largest Chebyshev walk norm from s or t up to order k."""
    return float(
        max(
            chebyshev_walk_norms(g, s, k, weighted=weighted).max(),
            chebyshev_walk_norms(g, t, k, weighted=weighted).max(),
        )
    )


def _within_cap(value: float, cap: float) -> bool:
    """Whether a locality statistic respects its cap, up to rounding."""
    return bool(value <= cap + 1e-9 * (1.0 + cap))


def measure_c1(g: Graph, s: int, t: int, k: int) -> float:
    """Largest degree-scaled Chebyshev walk norm from s or t up to order k.

    This is the quantity that controls how much mass the first k
    iterations can spread from the endpoints.  Asserts the nominal cap
    sqrt(m), which does not hold in general: on the four-vertex toy graph
    (triangle plus pendant) the norm from the pendant reaches
    (sqrt(3) + 4 sqrt(2)) / 3 > 2 = sqrt(m) at k = 3.
    """
    _check_pair(g, s, t)
    c1 = _walk_norm_peak(g, s, t, k)
    cap = math.sqrt(g.edge_count)
    if not _within_cap(c1, cap):
        raise AssertionError(f"walk-norm cap violated: C1 = {c1} > sqrt(m) = {cap}")
    return c1


def measure_c1_plain(g: Graph, s: int, t: int, k: int) -> float:
    """Companion statistic to :func:`measure_c1` without the degree
    scaling (no cap applies)."""
    _check_pair(g, s, t)
    return _walk_norm_peak(g, s, t, k, weighted=False)


def measure_c2(stats: LanczosRun) -> float:
    """Largest per-iteration 1-norm term over a stats-collecting run.

    Requires a run made with ``collect_stats=True``.  Asserts the
    theoretical cap 3 * sqrt(n).
    """
    if not stats.c2_terms:
        raise ValueError(
            "stats carry no 1-norm terms; run with collect_stats enabled"
        )
    c2 = float(max(stats.c2_terms))
    cap = 3.0 * math.sqrt(stats.n)
    if not _within_cap(c2, cap):
        raise AssertionError(
            f"1-norm cap violated: C2 = {c2} > 3 sqrt(n) = {cap}"
        )
    return c2
