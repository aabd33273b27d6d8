"""Numerical primitives shared by the estimators.

Matrix conventions, for a graph with weighted degree matrix D and weighted
adjacency W:

* normalized adjacency  A = D^{-1/2} W D^{-1/2}  (symmetric, eigenvalues in
  [-1, 1], top eigenvector D^{1/2} 1),
* transition matrix     P = W D^{-1}             (column stochastic),
* lazy walk             (I + P) / 2.

The graph operators work on dense float64 vectors of length n, except the
pruned product :func:`relax_arcs`, which works on a sorted index array
and its value array; its docstring states Lanczos Push's pruning rule,
the arc test it applies and the S_i test of the pruned Lanczos step.  It
repeats its per-source terms over the arcs it gathers, reads the degree
factors at their heads (nothing is cached per arc), selects through
ascending positions and sums the survivors in arc order by
``np.add.at`` into a zeroed n-vector: its time and memory follow the
arcs it gathers, not n, and every target is summed from 0.0 in
ascending source order, as ``np.bincount`` sums it.  The Lanczos step
reads the sums at the sorted heads and zeroes them again in its one sort
per step.

The dense product :func:`apply_normalized_adjacency` sums each row in
contiguous column passes over the jagged-diagonal layout of
:class:`resistor.graph.JaggedLayout`, built on a graph's first dense
product and cached on it (``Graph.jagged``).  Every row is summed from 0.0
in CSR arc order, as one ``np.bincount`` over the arc sources sums it, so
the product is bit-identical to that one-pass form.  It is a thin wrapper
over :func:`_adjacency_into`, which writes the product into a caller's
output buffer through the caller's n-length scratch and 2m-length gather
buffers; the dense Lanczos step owns those buffers for its whole run and
allocates no vector per step.

Given a support of v (ascending ids that hold all its nonzero entries),
:func:`_adjacency_into` reads the support's arcs alone, the sparse side
of the push/pull switch of direction-optimizing BFS (Beamer, Asanović &
Patterson, SC'12).  It lists them in CSR order with
:func:`resistor.graph._arc_positions`, the arc walk of the pruned
product, and sums them by ``np.add.at`` into the zeroed output, so
every target is summed from 0.0 in ascending source order, as its
jagged row sums it, from the same terms: the product has the same bits,
reads no gather buffer and allocates only support-length arrays.
:func:`_support_pays` tells when it is the cheaper product: while
``SUPPORT_ARC_COST`` times the support's arcs plus ``SUPPORT_CALL_ARCS``
stays under 2m.

Every inner product that feeds T, a potential or a spectrum goes through
:func:`_dot`, the sum of ``np.einsum('i,i->', a, b)``, which never calls
BLAS: the sum does not depend on how many threads BLAS would split it over
(it may still differ between CPU families, whose SIMD paths differ).
:func:`_dot` calls the C function that ``np.einsum`` forwards to, with
the same operands and so the same sum, and skips the wrapper's
``__array_function__`` dispatch, about 1.5 us of a 2-4 us call; a pruned
Lanczos step makes seven such calls.  The per-step helpers call array
methods (``x.repeat``, ``x.cumsum``, ``x.sort``, ``x.searchsorted``)
instead of the dispatching ``np.*`` functions for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError
from .graph import Graph, _arc_positions, _check_vertex, _integers

__all__ = [
    "SparseVector",
    "TridiagonalMatrix",
    "apply_normalized_adjacency",
    "apply_transition",
    "apply_lazy_walk",
    "solve_checked",
    "tridiag_solve_e1",
    "tridiag_eigen_range",
    "chebyshev_walk_norms",
]

_PIVOT_FLOOR = 1e-14

# The cost of the dense product through a support, in arcs of the jagged
# product: SUPPORT_ARC_COST per arc it reads, and SUPPORT_CALL_ARCS per
# call with the Lanczos step's bookkeeping of the support ids.  Measured on
# ER and BA graphs of n = 3k to 200k and an 80 x 80 cut lattice (2-vCPU
# Xeon, numpy 2.4): an arc read through a support cost 4.3-6.9 jagged arcs,
# and a call about 40 us, 13k-23k jagged arcs on the graphs of n < 10k.
SUPPORT_ARC_COST = 8
SUPPORT_CALL_ARCS = 32_768


# The C function that np.einsum hands its operands to, unchanged, when
# ``optimize`` is False (its default); np.einsum itself where numpy keeps
# it under neither name.
try:
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:
    try:  # numpy 1.x
        from numpy.core.multiarray import c_einsum as _c_einsum
    except ImportError:
        _c_einsum = np.einsum


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product of two 1-d arrays, summed as
    ``np.einsum('i,i->', a, b)`` sums it, through einsum's C entry.

    Never calls BLAS, whose threaded ``ddot`` splits a long sum over a
    thread count set by the environment and so changes its last bits
    with that count.  The package's one reduction for T, potentials and
    spectra.
    """
    return float(_c_einsum("i,i->", a, b))


@dataclass
class SparseVector:
    """A sparse vector as sorted index and value arrays.

    ``idx`` holds the support in ascending order and ``val`` the matching
    values; an exact zero is never stored.  ``dim`` is the ambient
    dimension, kept for shape checks.  Callers read the two arrays
    directly; :meth:`to_dense` gives the n-vector.
    """

    idx: np.ndarray
    val: np.ndarray
    dim: int

    @classmethod
    def from_dense(cls, v: np.ndarray) -> "SparseVector":
        # the ids np.flatnonzero(v) gives, at a fraction of its cost
        idx = (v != 0.0).nonzero()[0]
        return cls(idx, v[idx], len(v))

    @classmethod
    def from_mapping(cls, entries, dim: int) -> "SparseVector":
        """From a ``{index: value}`` mapping; zero values are dropped."""
        idx = np.fromiter(entries.keys(), dtype=np.int64, count=len(entries))
        val = np.fromiter(entries.values(), dtype=np.float64, count=len(entries))
        order = np.argsort(idx)
        idx, val = idx[order], val[order]
        keep = val != 0.0
        return cls(idx[keep], val[keep], dim)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.idx] = self.val
        return out


@dataclass
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix T with diagonal ``alpha`` and
    off-diagonal ``beta`` (``len(beta) == len(alpha) - 1``)."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if self.alpha.ndim != 1 or self.beta.ndim != 1:
            raise ValueError("alpha and beta must be 1-d")
        if self.alpha.size == 0:
            raise ValueError("tridiagonal matrix must have order >= 1")
        if len(self.beta) != len(self.alpha) - 1:
            raise ValueError(
                f"off-diagonal length {len(self.beta)} does not match "
                f"order {len(self.alpha)}"
            )

    @property
    def order(self) -> int:
        return len(self.alpha)

    def to_dense(self) -> np.ndarray:
        k = self.order
        t = np.zeros((k, k))
        np.fill_diagonal(t, self.alpha)
        for i, b in enumerate(self.beta):
            t[i, i + 1] = t[i + 1, i] = b
        return t


# ---------------------------------------------------------------------------
# graph operators
# ---------------------------------------------------------------------------


def _check_dim(g: Graph, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (g.node_count,):
        raise ValueError(
            f"vector of shape {v.shape} does not match graph with n={g.node_count}"
        )
    return v


def apply_normalized_adjacency(g: Graph, v: np.ndarray) -> np.ndarray:
    """Return ``A v`` for the normalized adjacency A = D^{-1/2} W D^{-1/2}."""
    v = _check_dim(g, v)
    n = g.node_count
    return _adjacency_into(g, v, np.empty(n), np.empty(n), np.empty(len(g.neighbors)))


def _support_pays(g: Graph, support: np.ndarray) -> bool:
    """Whether the dense product through the vertex ids ``support`` costs
    less than the jagged one, judged from the arcs of the support (its
    degree sum) against the graph's 2m."""
    offsets = g.offsets
    arcs = int(offsets[1:][support].sum() - offsets[support].sum())
    return SUPPORT_ARC_COST * arcs + SUPPORT_CALL_ARCS < len(g.neighbors)


def _adjacency_into(
    g: Graph,
    v: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
    gather: np.ndarray,
    support: np.ndarray | None = None,
) -> np.ndarray:
    """Write ``A v`` into ``out`` and return it.

    Allocates no n- or 2m-length array: only the hubs' ``bincount``
    returns a new one, of fewer than ``JAGGED_MIN_ROWS`` sums, and a
    product through a support its support-length arrays.

    ``scratch`` (length n) holds D^{-1/2} v and then the row sums, and
    ``gather`` (length 2m) the arc contributions; their contents on entry
    do not matter.  ``v`` is a float64 n-vector, and no two of the four
    arrays may overlap.

    ``support``, when given, holds ascending vertex ids, at least one and
    each with at least one arc, among which are all the nonzero entries
    of ``v``.  The product then reads only the support's arcs
    (:func:`_support_product_into`), leaves ``scratch`` and ``gather``
    untouched, and its result has the same bits.
    """
    if support is not None:
        return _support_product_into(g, v, support, out)
    lay = g.jagged
    np.multiply(v, g.inv_sqrt_degrees, out=scratch)
    # the default mode="raise" buffers the output, about twice as slow
    contrib = scratch.take(lay.neighbors, out=gather, mode="wrap")
    if lay.weights is not None:
        contrib *= lay.weights
    # every row is summed from 0.0 in CSR arc order, as np.bincount over
    # the arc sources sums it, so the result is the same to the bit.  A
    # row starts at its first term plus 0.0, which is 0.0 plus it to the
    # bit (-0.0 included); column 0, which starts at arc 0, holds the
    # first term of every non-hub row with an arc, and rows of degree 0
    # (none where every vertex has an arc) start at 0.0
    rows = scratch
    body = rows[lay.hubs :]
    first = lay.columns[0][1] if lay.columns else 0
    np.add(contrib[:first], 0.0, out=body[:first])
    body[first:].fill(0.0)
    for start, length in lay.columns[1:]:
        body[:length] += contrib[start : start + length]
    if lay.hubs:
        rows[: lay.hubs] = np.bincount(lay.hub_rows, contrib[lay.hub_start :], lay.hubs)
    rows.take(lay.position, out=out, mode="wrap")
    out *= g.inv_sqrt_degrees
    return out


def _support_product_into(
    g: Graph, v: np.ndarray, support: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """:func:`_adjacency_into` through ``support``: ``A v`` from the arcs
    of the support alone.

    Lists the support's arcs with :func:`resistor.graph._arc_positions`,
    the walk of :func:`relax_arcs`, forms the terms
    ``(v[x] / sqrt(d_x)) [* w]`` and sums them by ``np.add.at`` into the
    zeroed ``out`` in CSR order, which is ascending by source, so every
    target is summed from 0.0 in ascending source order, as the jagged
    product sums its row, from the same terms.  The arcs it skips would
    add ±0.0 and change no sum.  Allocates support-length arrays only.
    """
    arc, count = _arc_positions(g.offsets, support)
    terms = (v[support] * g.inv_sqrt_degrees[support]).repeat(count)
    if not g.is_unweighted:
        terms *= g.weights[arc]
    out.fill(0.0)
    np.add.at(out, g.neighbors[arc], terms)
    out *= g.inv_sqrt_degrees
    return out


def apply_transition(g: Graph, v: np.ndarray) -> np.ndarray:
    """Return ``P v`` for the column-stochastic transition P = W D^{-1}.

    Uses P = D^{1/2} A D^{-1/2}, so both operators share one gather.
    """
    v = _check_dim(g, v)
    return g.sqrt_degrees * apply_normalized_adjacency(g, v * g.inv_sqrt_degrees)


def apply_lazy_walk(g: Graph, v: np.ndarray) -> np.ndarray:
    """Return ``(I + P) v / 2``, one step of the lazy random walk."""
    v = _check_dim(g, v)
    return 0.5 * (v + apply_transition(g, v))


def _check_eps(eps: float, name: str = "eps") -> None:
    """Raise ValueError unless the pruning threshold, or the tolerance
    called ``name``, is finite and >= 0."""
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0")


def relax_arcs(
    g: Graph, idx: np.ndarray, val: np.ndarray, size: np.ndarray, bar: np.ndarray,
    acc: np.ndarray,
) -> tuple:
    """Sum the pruned product of A on the sparse vector ``(idx, val)``
    into ``acc``; return ``(heads, skipped)``, the heads of the arcs
    relaxed and whether any arc of ``idx`` was not.

    Lanczos Push prunes by two tests, both strict.  The product relaxes
    an arc (u, x) iff |v(u)| > eps * sqrt(d_u d_x), adding
    v(u) / sqrt(d_u) * (w(u, x) / sqrt(d_x)) at x; this function applies
    that test.  The alpha/beta subtractions of the pruned Lanczos step
    (:class:`resistor.lanczos._PrunedIterates`) run on the significant
    set S_i = {u : |v_i(u)| > eps * d_u}; the step applies that test.
    At eps = 0 the product is the exact A v over the support of v.

    ``size`` is |val| and ``bar`` is eps * sqrt(d_u) on ``idx``.
    Selections go through ascending positions, so the arcs stay in CSR
    order, and ``np.add.at`` sums them into ``acc``, a zeroed float64
    n-vector: each target from 0.0 in ascending source order.  The
    caller reads the sums at the sorted distinct heads (a sum that
    cancelled reads 0.0 and is no part of the support) and zeroes them.
    ``skipped`` is set when a live source dropped an arc or a source fell
    below the live bar: every vertex of a graph has an arc, so such a
    source skipped at least one.  O(arcs gathered), none of it O(n).
    """
    # no arc of u relaxes unless |v(u)| beats the lightest threshold any
    # arc can have
    live = (size > bar * g.min_sqrt_degree).nonzero()[0]
    src = idx[live]
    arc, count = _arc_positions(g.offsets, src)
    heads = g.neighbors[arc]
    limit = bar[live].repeat(count)
    limit *= g.sqrt_degrees[heads]
    keep = (size[live].repeat(count) > limit).nonzero()[0]
    heads = heads[keep]
    terms = (val[live] * g.inv_sqrt_degrees[src]).repeat(count)[keep]
    scale = g.inv_sqrt_degrees[heads]
    if not g.is_unweighted:
        # an unweighted graph's weights are exactly 1.0
        scale *= g.weights[arc[keep]]
    terms *= scale
    np.add.at(acc, heads, terms)
    return heads, len(keep) < len(arc) or len(live) < len(idx)


# ---------------------------------------------------------------------------
# tridiagonal kernels
# ---------------------------------------------------------------------------


def _ldl_pivot(alpha: float, beta: float, d_prev: float) -> float:
    """Extend the LDL^T factorization of I - T by one row.

    Row i of I - T has diagonal 1 - alpha_i and off-diagonal -beta_i, so
    its pivot is d_i = 1 - alpha_i - beta_i^2 / d_{i-1} (the first row
    passes ``beta = 0``).  Raises :class:`SingularSystemError` when the
    pivot falls below 1e-14 in magnitude: T has an eigenvalue at 1, which
    the eigenvalue-containment assumption of the Lanczos estimators
    excludes.
    """
    d = (1.0 - alpha) - beta * (beta / d_prev)
    if abs(d) < _PIVOT_FLOOR:
        raise SingularSystemError(
            "(I - T) is numerically singular (zero pivot); the eigenvalue-"
            "containment assumption (eigenvalues of T inside "
            "[lambda_min(A), lambda_2(A)]) appears violated"
        )
    return d


def solve_checked(t: TridiagonalMatrix) -> tuple:
    """Solve ``(I - T) y = e_1`` by an LDL^T factorization and check that
    I - T is positive definite.

    Returns ``(y, healthy)``.  By Sylvester's law of inertia the pivots of
    I - T = L D L^T have the signs of its eigenvalues, so ``healthy`` is
    false, and the quadrature the estimators rely on no longer holds,
    exactly when a pivot is negative: T has an eigenvalue above 1.
    Runs in O(k) time and memory.  Raises :class:`SingularSystemError`
    when a pivot falls below 1e-14 in magnitude.
    """
    k = t.order
    d = np.empty(k)
    d_prev = 1.0
    for i, (alpha, beta) in enumerate(zip(t.alpha.tolist(), [0.0] + t.beta.tolist())):
        d[i] = d_prev = _ldl_pivot(alpha, beta, d_prev)
    lower = -t.beta / d[:-1]
    # forward substitution L z = e_1, then diagonal scale and back pass
    z = np.empty(k)
    z[0] = 1.0
    for i in range(k - 1):
        z[i + 1] = -lower[i] * z[i]
    z /= d
    y = np.empty(k)
    y[k - 1] = z[k - 1]
    for i in range(k - 2, -1, -1):
        y[i] = z[i] - lower[i] * y[i + 1]
    return y, bool(np.all(d > 0.0))


def tridiag_solve_e1(t: TridiagonalMatrix) -> np.ndarray:
    """The solution ``y`` of ``(I - T) y = e_1`` that :func:`solve_checked`
    returns."""
    return solve_checked(t)[0]


# The Sturm loops' pivot floor, large enough that b2 / d cannot overflow.
_STURM_FLOOR = 1e-154


def _sturm_some_below(alpha, beta_sq, x: float, d: float = 1.0) -> float:
    """Whether some eigenvalue of a symmetric tridiagonal T lies strictly
    below x, as the sign of the returned pivot: some does iff it is <= 0.

    Runs the pivots d_i = alpha_i - x - beta_i^2 / d_{i-1} of the LDL^T
    factorization of T - xI over the rows given, from a start row on:
    ``alpha`` holds their diagonal entries, ``beta_sq`` the squares of
    the off-diagonal entries that couple each of them to the row before
    it (0.0 for the first row of T), and ``d`` is the pivot of the row
    before the start row (1.0 for the first row of T).  A pivot below
    ``_STURM_FLOOR`` in magnitude is clamped to the floor with the sign
    it had, 0 counting as negative, and a NaN pivot counts as
    nonnegative.  The eigenvalues below x are as many as the negative
    pivots (Sylvester's law of inertia).

    Returns the first pivot <= 0, which decides the question for every
    T whose leading rows these are, or else the last pivot, clamped:
    positive or NaN, the verdict "none" for these rows, and the ``d``
    from which a later call over rows appended to T resumes.  The
    resumed loop runs the same float operations on the same operands as
    one pass from the first row would, so it gives the same pivots and
    the same verdict.  Pass Python float lists when counting often:
    indexing numpy scalars costs several times the arithmetic.
    """
    for a, b2 in zip(alpha, beta_sq):
        d = a - x - b2 / d
        if d <= 0.0:
            return d
        if d < _STURM_FLOOR:
            d = _STURM_FLOOR
    return d


def _sturm_all_below(alpha, beta_sq, x: float, d: float = 1.0) -> float:
    """Whether every eigenvalue of a symmetric tridiagonal T lies strictly
    below x, as the sign of the returned pivot: all do iff it is <= 0.

    The pivots, their floor and the arguments are those of
    :func:`_sturm_some_below`.  Returns the first pivot that is not
    <= 0 (positive or NaN), which decides "not all" for every T whose
    leading rows these are, or else the last pivot, clamped and
    negative: the verdict "all" for these rows, and the ``d`` from which
    a later call over appended rows resumes.
    """
    for a, b2 in zip(alpha, beta_sq):
        d = a - x - b2 / d
        if not d <= 0.0:
            return d
        if d > -_STURM_FLOOR:
            d = -_STURM_FLOOR
    return d


def _eigen_range_resumed(t: TridiagonalMatrix, tol: float, record=None):
    """:func:`tridiag_eigen_range` of ``t``, resumed from the ``record``
    of an earlier call on a leading block of ``t``.

    Returns ``(extremes, record)``.  A record is ``(order, (low, high))``:
    the order of the T it was made on and, for each side, a dict from
    every bisection midpoint x tried there to the pivot its Sturm loop
    returned (:func:`_sturm_some_below` for lambda_min,
    :func:`_sturm_all_below` for lambda_max).  Order 1 has no bisection
    and no record (None).

    Bisection at a midpoint in the record needs no pass from row 0.  T
    extends the recorded block row for row, and at the same x the loop
    over the shared rows runs the same float operations, so it gives the
    recorded pivots.  A pivot that decided there decides here too (some
    eigenvalue below x; not all below x); otherwise the loop resumes
    from the recorded last pivot over the new rows alone, and returns
    what one pass from row 0 would.  Every decision, and so every
    midpoint and both extremes, is that of a cold bisection of ``t``, to
    the bit, whether or not its Gershgorin bracket, and with it the
    midpoints, moved since the record: a midpoint not in the record gets
    a pass from row 0.
    """
    alpha = t.alpha
    k = t.order
    if k == 1:
        a = float(alpha[0])
        return (a, a), None
    beta = t.beta
    alpha_list, beta_sq = alpha.tolist(), [0.0, *(beta * beta).tolist()]
    radius = np.zeros(k)
    radius[:-1] += np.abs(beta)
    radius[1:] += np.abs(beta)
    lo = float(np.min(alpha - radius))
    hi = float(np.max(alpha + radius))
    shared, memos = record if record is not None else (0, ({}, {}))
    new_alpha, new_beta_sq = alpha_list[shared:], beta_sq[shared:]

    def bisect(sturm, open_verdict: bool, memo: dict, seen: dict) -> float:
        # smallest x at which the Sturm loop's pivot is <= 0 (some, or
        # all, eigenvalues strictly below x), located to within tol; a
        # recorded pivot resumes when its verdict is the one a loop that
        # ran every row returns, which appended rows can still change
        a, b = lo - tol, hi + tol
        while b - a > tol:
            mid = 0.5 * (a + b)
            if not a < mid < b:  # tol is below the float spacing here
                break
            d = memo.get(mid)
            if d is None:
                d = sturm(alpha_list, beta_sq, mid)
            elif (d <= 0.0) == open_verdict:
                d = sturm(new_alpha, new_beta_sq, mid, d)
            seen[mid] = d
            if d <= 0.0:
                b = mid
            else:
                a = mid
        return 0.5 * (a + b)

    low, high = {}, {}
    extremes = (
        bisect(_sturm_some_below, False, memos[0], low),
        bisect(_sturm_all_below, True, memos[1], high),
    )
    return extremes, (k, (low, high))


def tridiag_eigen_range(t: TridiagonalMatrix, tol: float = 1e-10):
    """Extreme eigenvalues ``(lambda_min, lambda_max)`` of a symmetric
    tridiagonal matrix, via Sturm-sequence bisection.

    O(k) memory; each bisection step costs O(k), and stops at the first
    pivot that decides it.  ``tol`` is the absolute bracket width at
    which bisection stops; it must be finite and >= 0.
    """
    _check_eps(tol, "tol")
    return _eigen_range_resumed(t, tol)[0]


# ---------------------------------------------------------------------------
# Chebyshev walk diagnostics
# ---------------------------------------------------------------------------


def chebyshev_walk_norms(g: Graph, u: int, k: int, weighted: bool = True) -> np.ndarray:
    """The sequence ``||D^{1/2} T_i(P) e_u||_1`` for i = 0..k.

    ``T_i`` is the Chebyshev polynomial applied to the transition matrix P
    through the recurrence T_0 = I, T_1 = P,
    T_{i+1} = 2 P T_i - T_{i-1}.  With ``weighted=False`` the plain norms
    ``||T_i(P) e_u||_1`` are returned instead.
    """
    (k,) = _integers(k=k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_vertex(g, u, "u")
    sqrt_d = np.sqrt(g.weighted_degrees) if weighted else None

    def measure(vec: np.ndarray) -> float:
        if weighted:
            return float(np.sum(np.abs(vec) * sqrt_d))
        return float(np.sum(np.abs(vec)))

    norms = np.empty(k + 1)
    prev = np.zeros(g.node_count)
    prev[u] = 1.0
    norms[0] = measure(prev)
    if k == 0:
        return norms
    cur = apply_transition(g, prev)
    norms[1] = measure(cur)
    for i in range(2, k + 1):
        prev, cur = cur, 2.0 * apply_transition(g, cur) - prev
        norms[i] = measure(cur)
    return norms
