"""Local Lanczos estimator (Lanczos Push): the recurrence on significant entries.

This is the only estimator whose per-iteration cost depends on the local
neighborhood of s and t instead of the whole graph.  It is the one
recurrence of :func:`resistor.lanczos.run_recurrence`, run with
``eps > 0``, which

* multiplies through a pruned operator that relaxes an arc (u, x) only
  when |v(u)| > eps * sqrt(d_u d_x),
* applies the alpha/beta subtractions only on the significant set
  S_i = {u : |v_i(u)| > eps * d_u}, with S_{i-1} cached from the
  previous iteration (:func:`resistor.kernels.relax_arcs` states both
  tests), and
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
recurrence is at most 3 * eps * d_u per iteration.  When
``PushConfig.collect_stats`` is set, a ``visit`` hook of this module
records that residual (it includes the u_1 projections, which the bound
does not cover) and the 1-norm term C2 = <|v_i|, 1 + A 1> of every
iteration, at one dense product per step; the recurrence itself does no
diagnostic work.  :func:`locality_statistics` reads the constants C1 and
C2 and their caps off such a run.

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
    _dot,
    apply_normalized_adjacency,
    chebyshev_walk_norms,
    tridiag_eigen_range,
)
from .lanczos import LanczosRun, _check_ids, _check_k, _estimate

__all__ = [
    "PushConfig",
    "AssumptionReport",
    "lanczos_push_rd",
    "subset_recurrence_trace",
    "check_assumption",
    "locality_statistics",
]


@dataclass
class PushConfig:
    """Parameters of a push run.

    ``epsilon = 0`` disables all pruning: the run is the global Lanczos
    recurrence of ``lz``.  ``collect_stats`` records the locality
    statistics of the run (``c2_terms`` and ``delta_degree_ratios``) at
    one dense product per iteration; leave it off for production runs.
    ``k`` must be an int or a numpy integer (not a bool) and at least 1.
    """

    k: int
    epsilon: float
    collect_stats: bool = False

    def __post_init__(self):
        _check_k(self.k)
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
    sets, not with the graph, for epsilon large enough to prune.  A
    breakdown before ``cfg.k`` iterations is exact when nothing was
    pruned (the reachable Krylov space was exhausted); after pruning it
    means the pruning emptied the iterate.  The estimate is flagged
    (``healthy`` false) when I - T is indefinite or the run broke down
    after pruning.  With ``cfg.collect_stats`` the run carries
    its locality statistics; T, the estimate and the work counters are
    those of the run without them.
    """
    if not cfg.collect_stats:
        est, run = _estimate(g, s, t, cfg.k, cfg.epsilon, "lzpush")
        return est, run.t, run
    hook = _LocalityHook(g, cfg.k)
    # the hook stops the (k + 1)-step run at v_{k+1}: the k-step run
    est, run = _estimate(
        g, s, t, cfg.k + 1, cfg.epsilon, "lzpush", finish=hook.finish, visit=hook
    )
    return est, run.t, run


class _LocalityHook:
    """The ``visit`` hook that records the locality statistics of a run.

    A is symmetric with nonnegative entries, so the 1-norm term of v_i is
    ||v_i||_1 + ||A v_i^+||_1 + ||A v_i^-||_1 = <|v_i|, 1 + A 1>: with
    1 + A 1 formed once per run, each term costs O(support).  The
    residual of step i, beta_{i+1} v_{i+1} - (A v_i - alpha_i v_i -
    beta_i v_{i-1}), is formed when v_{i+1} arrives, from the kept
    v_{i-1}, v_i and A v_i: one dense vector, scattered from the compact
    values, and one dense product per step.  Installed on a
    run of k + 1 steps, it stops the run at v_{k+1}, the last vector the
    residual of step k needs.
    """

    def __init__(self, g: Graph, k: int):
        self.g, self.k = g, k
        self.weight = 1.0 + apply_normalized_adjacency(g, np.ones(g.node_count))
        # v_{i-1}, v_i and A v_i of the step in flight (v_0 = 0)
        self.v_prev = self.v = self.av = np.zeros(g.node_count)
        self.c2_terms: list = []
        self.delta_degree_ratios: list = []

    def __call__(self, i: int, supp, val: np.ndarray, alphas, betas) -> bool:
        v = np.zeros(self.g.node_count)
        v[supp] = val
        if i > 1:
            beta = betas[-2] if len(betas) > 1 else 0.0
            self._residual(betas[-1] * v, alphas[-1], beta)
        if i > self.k:
            return True
        self.c2_terms.append(_dot(np.abs(val), self.weight[supp]))
        self.v_prev, self.v = self.v, v
        self.av = apply_normalized_adjacency(self.g, v)
        return False

    def _residual(self, w, alpha: float, beta: float) -> None:
        exact = self.av - alpha * self.v - beta * self.v_prev
        self.delta_degree_ratios.append(
            float(np.max(np.abs(w - exact) / self.g.weighted_degrees))
        )

    def finish(self, run: LanczosRun) -> None:
        """Complete the statistics of the finished (k + 1)-step ``run`` and
        hand them to it, with the breakdown flag of the k-step run."""
        if len(self.delta_degree_ratios) < len(self.c2_terms):
            # the run broke down after its last step, whose w had a norm
            # below 1e-14: take it as 0
            beta = run.betas[-1] if len(run.betas) else 0.0
            self._residual(0.0, run.alphas[-1], beta)
        run.c2_terms = self.c2_terms
        run.delta_degree_ratios = self.delta_degree_ratios
        # a k-step run never breaks down at step k
        run.breakdown = run.breakdown and run.k_effective < self.k


def subset_recurrence_trace(
    g: Graph,
    s: int,
    t: int,
    k: int,
    eps: float,
    v1=None,
    s_overrides=None,
) -> LanczosRun:
    """Run the subset recurrence and keep every intermediate vector.

    Returns the :class:`LanczosRun` with its ``vectors`` and ``estimate``.
    Diagnostic harness: ``v1`` (a SparseVector or a ``{vertex: value}``
    mapping) replaces the definitional start vector and is used exactly
    as given (a ``v1`` with a u_1 component runs without the u_1
    projection, so its recurrence is the plain pruned one), and
    ``s_overrides`` maps an iteration number (1-based) to the significant
    set to use at that iteration instead of the threshold rule (eps > 0
    only).  Together they allow replaying a recurrence from any recorded
    intermediate state.  A ``v1`` or an override set with an id outside
    [0, n) raises IndexError; a ``v1`` of another dimension, with
    indices not strictly ascending or of norm 0, and overrides at
    eps = 0, raise ValueError.
    """
    if v1 is not None:
        if not isinstance(v1, SparseVector):
            v1 = SparseVector.from_mapping(v1, g.node_count)
        _check_start(g, v1)
    vectors = []

    def keep(i: int, supp, val: np.ndarray, alphas, betas) -> None:
        if isinstance(supp, slice):
            vectors.append(SparseVector.from_dense(val))
        else:
            vectors.append(SparseVector(supp, val.copy(), g.node_count))

    _, run = _estimate(
        g, s, t, k, eps, "lzpush", v1, s_overrides=s_overrides, visit=keep
    )
    run.vectors = vectors
    return run


def _check_start(g: Graph, v1: SparseVector) -> None:
    """Raise unless ``v1`` is a nonzero vector on the vertices of ``g``
    with strictly ascending indices and a finite squared norm, which also
    rules out a NaN or infinite entry."""
    if v1.dim != g.node_count:
        raise ValueError(
            f"start vector of dimension {v1.dim} does not match graph "
            f"with n={g.node_count}"
        )
    if np.any(np.diff(v1.idx) <= 0):
        raise ValueError("start vector indices must be strictly ascending")
    _check_ids(g, v1.idx)
    if not 0.0 < _dot(v1.val, v1.val) < math.inf:
        raise ValueError("start vector must have a finite, nonzero norm")


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
    on both sides; it must be finite and >= 0.
    """
    _check_eps(tol, "tol")
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


def locality_statistics(g: Graph, s: int, t: int, run: LanczosRun) -> dict:
    """C1 and C2 of a finished stats-collecting push run, against their caps.

    Returns ``c1``, ``c1_cap``, ``c1_within_cap``, ``c1_plain``, ``c2``,
    ``c2_cap`` and ``c2_within_cap``.  C1 is the largest degree-scaled
    Chebyshev walk norm from s or t up to order max(k_effective, 1), which
    bounds how far the first iterations spread mass from the endpoints;
    ``c1_plain`` drops the degree scaling and has no cap.  C2 is the
    largest 1-norm term of the run.  The caps sqrt(m) and 3 sqrt(n) do not
    hold in general (on the toy graph, a triangle plus a pendant, C1 from
    the pendant reaches (sqrt(3) + 4 sqrt(2)) / 3 > 2 = sqrt(m) at order
    3), so an excursion is flagged, never raised.  Raises ValueError for
    a run made without ``collect_stats``.
    """
    _check_pair(g, s, t)
    if not run.c2_terms:
        raise ValueError("stats carry no 1-norm terms; run with collect_stats enabled")
    k = max(run.k_effective, 1)
    c1 = _walk_norm_peak(g, s, t, k)
    c1_cap = math.sqrt(g.edge_count)
    c2 = float(max(run.c2_terms))
    c2_cap = 3.0 * math.sqrt(g.node_count)
    return {
        "c1": c1,
        "c1_cap": c1_cap,
        "c1_within_cap": _within_cap(c1, c1_cap),
        "c1_plain": _walk_norm_peak(g, s, t, k, weighted=False),
        "c2": c2,
        "c2_cap": c2_cap,
        "c2_within_cap": _within_cap(c2, c2_cap),
    }
