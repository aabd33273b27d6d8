"""The Lanczos recurrence, and the global Lanczos estimators built on it.

The resistance distance can be written in the normalized adjacency A as

    r(s, t) = (1/d_s + 1/d_t) * v_1^T (I - A)^+ v_1,

with the unit start vector v_1 proportional to
e_s / sqrt(d_s) - e_t / sqrt(d_t).  Since v_1 is orthogonal to the top
eigenvector of A, k steps of the Lanczos recurrence reduce the quadratic
form to e_1^T (I - T)^{-1} e_1 on the k x k tridiagonal Rayleigh quotient
T, computable in O(k) once T is known.

:func:`run_recurrence` is the one three-term recurrence of the package.
With ``eps = 0`` it multiplies by A itself and is the global method
(``lz``, :func:`lanczos_rd` and :func:`lanczos_potential`); with
``eps > 0`` it multiplies by the pruned operator of
:func:`resistor.kernels.relax_arcs`, whose docstring states the pruning
rule, and is Lanczos Push (``lzpush``, see :mod:`resistor.push`).  Only
v_{i-1}, v_i and the next product are kept at any time.  Its ``visit``
hook sees each basis vector (its support and the values on it, the
dense n-vector at ``eps = 0``) together with the coefficients computed
so far and may stop the run, so callers that need more than T work
inside the one run: the potential factors I - T as T grows (the
D-Lanczos form of Saad 2003, section 6.7.1), the spectrum estimator
reads the extreme Ritz values off the leading blocks of T, and the
locality statistics of :mod:`resistor.push` form each step's residual.
Every run returns one :class:`LanczosRun` record, and ``lz``,
``lzpush`` and the trace of :mod:`resistor.push` build their estimates
on it along one path.

A dense run (``eps = 0``) is plain Lanczos on A, deflated.  It owns its
workspace: three n-vectors that take turns as v_{i-1}, v_i and the next
product, one n-vector of scratch and one 2m-vector for the jagged
product's arc gather (:func:`resistor.kernels._adjacency_into`).  Its
steps write the product into the buffer of v_{i-2} and make the
alpha/beta subtractions and the one u_1 projection through the scratch
vector, so a jagged step allocates no vector but the bool mask of its
support.  While the support is small the run also keeps its ascending
ids, and the product reads only their arcs (the support mode of
:func:`resistor.kernels._adjacency_into`, in support-length arrays):
v_1 sits on {s, t} and v_i on the (i-1)-hop ball around them, so the
early products of a query need a few hundred of the 2m arcs.  The ids
are read off that mask and kept while
:func:`resistor.kernels._support_pays` finds their arcs a small enough
share of 2m; the first step that fails the test goes over to the
jagged product for good, and a start with full support, such as the
spectrum's random one, never leaves it.  The product has the same bits
in both modes, and ``edges_relaxed`` counts the operator's 2m arcs in
both.  A dense run forms no inner product with v_1: Gauss quadrature on
T reads e_1 (Golub & Meurant, *Matrices, Moments and Quadrature*, 2010),
however much orthogonality the computed basis has lost (Paige 1980), so
its first row is (v_1^T v_1, 0, ..., 0).

A pruned run (``eps > 0``) carries each iterate only as its sorted
support and the values on it (:class:`_PrunedIterates`), and keeps the
values on S_i as the S_{i-1} values of the next step.  A step sorts the
heads of the arcs its pruned product summed, S_{i-1} and S_i once; the
product's support is what reads nonzero there, u_1 is projected out of
its compact values, the subtractions land in the same accumulator, and
w is read back off the sorted entries, which are then zeroed.  A
selection from two or more arrays goes through ascending positions, not
a mask per array.  The accumulator, the run's one n-vector, comes from
the graph's free list of zeroed vectors (``Graph.scratch_vectors``), so
no query does O(n) work once the list holds it, and none builds a
per-arc array.  The ``visit`` hook gets the compact arrays; the first
row is read off them by binary search.  The pruned run gives the same
T, first row and work counters, to the bit, as one with dense iterates.

Every inner product goes through :func:`resistor.kernels._dot`, so T
does not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import RDEstimate, _ceil_bound, _check_bound_args, _check_pair
from .graph import Graph, _check_vertex, _integers, _sorted_unique
from .kernels import (
    SparseVector,
    TridiagonalMatrix,
    _adjacency_into,
    _check_eps,
    _dot,
    _ldl_pivot,
    _support_pays,
    relax_arcs,
    solve_checked,
)

__all__ = [
    "LanczosRun",
    "lanczos_rd",
    "lanczos_potential",
    "lanczos_iteration_bound",
    "run_recurrence",
    "solve_checked",
]

BREAKDOWN_TOL = 1e-14

# The support of a dense iterate (eps = 0): its nonzero entries, found by
# mask where needed.  As an index it selects the whole vector.
_DENSE = slice(None)


@dataclass(eq=False)
class LanczosRun:
    """The record of one Lanczos recurrence: its T, its work counters and,
    for a trace, its basis.

    ``t`` is the tridiagonal matrix of the run, of order ``k_effective``,
    with ``alphas`` and ``betas`` views of its diagonal and off-diagonal;
    ``first_row`` holds the products v_1^T v_j of an eps > 0 run, which the
    pruning makes nonzero past j = 1, and (v_1^T v_1, 0, ..., 0) at eps = 0,
    where T alone decides the estimate.  ``breakdown`` is set when
    the recurrence ended early because the next off-diagonal fell below
    1e-14.  ``pruned`` is set when some step of an eps > 0 run skipped an
    arc or had S_i smaller than its support.  A breakdown of a run that
    pruned nothing means the Krylov space is exhausted, and the estimate
    is exact; after pruning it means the pruning emptied the iterate, and
    the estimate is flagged (``healthy`` false).

    ``edges_relaxed[i]`` counts arc relaxations in the product of
    iteration i + 1; at eps = 0 it is the operator's 2m arcs, also when the
    product read only the arcs of v_i's support.  ``touched_edges`` is
    their total.  ``support_sizes`` and ``subset_sizes`` count the nonzero
    entries of v_i and the significant set S_i.  ``extra_ops`` counts the
    O(support) bookkeeping (u_1 projections, two a step at eps > 0 and one
    at eps = 0, subtractions and inner products), kept separate from edge
    work.  ``c2_terms`` and ``delta_degree_ratios`` stay empty here; the
    locality hook of :func:`resistor.push.lanczos_push_rd` fills them, one
    entry per iteration, when ``PushConfig.collect_stats`` is set, at one
    dense product per step.  The former holds the 1-norm term
    ||v_i||_1 + ||A v_i^+||_1 + ||A v_i^-||_1 = <|v_i|, 1 + A 1>, the
    latter max_u |delta_i(u)| / d_u for the recurrence residual delta_i.

    ``vectors`` holds the basis vectors v_1, v_2, ... as
    :class:`SparseVector` objects (at eps > 0 the compact arrays the run
    carried, copied), kept only by
    :func:`resistor.push.subset_recurrence_trace`, and ``estimate`` the
    resistance estimate built on the run.  A query with s == t does no
    work: its run has ``k_effective`` 0 and estimate 0.
    """

    t: TridiagonalMatrix = None  # set, with first_row, when the run ends
    first_row: np.ndarray = None
    breakdown: bool = False
    pruned: bool = False
    subset_sizes: list = field(default_factory=list)
    support_sizes: list = field(default_factory=list)
    edges_relaxed: list = field(default_factory=list)
    c2_terms: list = field(default_factory=list)
    delta_degree_ratios: list = field(default_factory=list)
    touched_edges: int = 0
    extra_ops: int = 0
    peak_support: int = 0
    vectors: list = field(default_factory=list)
    estimate: float = math.nan

    @property
    def alphas(self) -> np.ndarray:
        return self.t.alpha

    @property
    def betas(self) -> np.ndarray:
        return self.t.beta

    @property
    def k_effective(self) -> int:
        return len(self.first_row)


def lanczos_iteration_bound(kappa: float, eps: float) -> int:
    """Iterations sufficient for the Lanczos estimator to reach error
    ``eps``: ``ceil(sqrt(kappa) ln(kappa / eps))``.  Raises ValueError
    unless kappa >= 1 and eps > 0 are finite, or when the bound overflows
    float64."""
    _check_bound_args(kappa, eps)
    return _ceil_bound(math.sqrt(kappa) * math.log(kappa / eps))


def _check_k(k) -> None:
    """Raise ValueError unless the iteration count ``k`` is an int or a
    numpy integer (a bool is neither) and at least 1."""
    (k,) = _integers(k=k)
    if k < 1:
        raise ValueError("iteration count k must be >= 1")


def _project_u1(
    w: np.ndarray, nonzero: np.ndarray, size: int, sqrt_d: np.ndarray,
    u1_norm_sq: float, scratch,
) -> None:
    """Project u_1 ~ D^{1/2} 1 out of the dense vector w over its nonzero
    support, in place; ``nonzero`` is the bool mask of that support and
    ``size`` its count.

    Subtracts c * D^{1/2} 1 restricted to the support, with
    c = <D^{1/2} 1, w> / sum_{u in supp w} d_u.  The result is exactly
    orthogonal to u_1 in real arithmetic and zero off the support.
    ``u1_norm_sq`` is ``_dot(sqrt_d, sqrt_d)``, the denominator whenever
    the support is all of w, and ``scratch`` an n-vector the projection
    works through.
    """
    if size == len(w):
        sd, norm_sq = sqrt_d, u1_norm_sq
    else:
        # the mask as 0.0 / 1.0 first: multiplying by the bool mask itself
        # would cast it through a buffer the ufunc allocates
        np.copyto(scratch, nonzero)
        sd = np.multiply(scratch, sqrt_d, out=scratch)
        norm_sq = _dot(sd, sd)
    if size:
        np.subtract(w, np.multiply(sd, _dot(sd, w) / norm_sq, out=scratch), out=w)


def _project_u1_compact(val: np.ndarray, sd: np.ndarray) -> int:
    """:func:`_project_u1` on the values ``val`` of a sparse vector, in
    place, with ``sd`` the square-rooted degrees on its support.  Returns
    the support size."""
    if len(val):
        val -= (_dot(sd, val) / _dot(sd, sd)) * sd
    return len(val)


def _orthogonal_to_u1(sqrt_d: np.ndarray, v: SparseVector) -> bool:
    """Whether a start vector is orthogonal to u_1, up to rounding."""
    terms = sqrt_d[v.idx] * v.val
    return abs(float(terms.sum())) <= 1e-12 * math.sqrt(_dot(terms, terms))


def _support_ids(g: Graph, nonzero: np.ndarray):
    """The ascending ids of the true entries of the bool n-vector
    ``nonzero`` if the next dense product pays to run through them
    (:func:`resistor.kernels._support_pays`), else None."""
    ids = nonzero.nonzero()[0]
    return ids if _support_pays(g, ids) else None


class _DenseIterates:
    """The iterates of a run at eps = 0, as n-vectors.

    Owns the workspace of the module docstring: three n-vectors that take
    turns as v_{i-1}, v_i and the next product, one n-vector of scratch
    and one 2m-vector for the jagged product's arc gather.  ``supp`` is
    always ``_DENSE`` and ``val`` the n-vector of v_i; S_i is all of v_i.
    ``ids`` holds the ascending ids of v_i's support while the product
    runs through them, and is None from the first step it does not.
    """

    pruned = False

    def __init__(self, g: Graph, v1: SparseVector, deflate: bool):
        n = g.node_count
        self.g, self.deflate = g, deflate
        self.u1_norm_sq = _dot(g.sqrt_degrees, g.sqrt_degrees) if deflate else None
        self.scratch, self.gather = np.empty(n), np.empty(len(g.neighbors))
        self.spare, self.val_prev, self.val = np.zeros(n), np.zeros(n), np.zeros(n)
        self.val[v1.idx] = v1.val
        self.supp, self.size = _DENSE, len(v1.idx)
        self.ids = _support_ids(g, self.val != 0.0)

    def overlap(self, v1: SparseVector) -> float:
        """v_1^T v_i for i > 1: zero, as in exact arithmetic, since T alone
        decides the estimate of a dense run."""
        return 0.0

    def step(self, run: LanczosRun, beta: float, s_cur) -> tuple:
        """One step from v_i: ``(alpha_i, beta_{i+1})``, with the work
        counted on ``run``.  ``s_cur`` is None: :func:`run_recurrence`
        refuses significant-set overrides at eps = 0."""
        g, v, w, scratch = self.g, self.val, self.spare, self.scratch
        run.subset_sizes.append(self.size)
        _adjacency_into(g, v, w, scratch, self.gather, support=self.ids)
        run.edges_relaxed.append(2 * g.edge_count)
        if beta != 0.0:
            np.subtract(w, np.multiply(self.val_prev, beta, out=scratch), out=w)
            run.extra_ops += run.subset_sizes[-2]
        alpha = _dot(w, v)
        np.subtract(w, np.multiply(v, alpha, out=scratch), out=w)
        run.extra_ops += run.support_sizes[-1] + run.subset_sizes[-1]
        # a bool mask and its count cost less than np.count_nonzero(w)
        nonzero = w != 0.0
        self.size_w = int(np.count_nonzero(nonzero))
        if self.deflate:
            # A keeps u_1^perp: only rounding put u_1 mass into w
            _project_u1(w, nonzero, self.size_w, g.sqrt_degrees, self.u1_norm_sq, scratch)
            run.extra_ops += self.size_w
        # the product runs through a support until the first step it does
        # not; the projection leaves w zero off the mask
        self.ids_w = None if self.ids is None else _support_ids(g, nonzero)
        return alpha, math.sqrt(_dot(w, w))

    def advance(self, beta_next: float) -> None:
        """Normalize the last step's w into v_{i+1} and recycle the buffer
        of v_{i-1}, which the next product overwrites whole."""
        w = self.spare
        w /= beta_next
        self.spare, self.val_prev, self.val = self.val_prev, self.val, w
        self.size, self.ids = self.size_w, self.ids_w

    def release(self) -> None:
        pass


def _take_zeroed(g: Graph) -> np.ndarray:
    """A zeroed n-vector off ``Graph.scratch_vectors``, or a new one if it is empty."""
    try:
        return g.scratch_vectors.pop()
    except IndexError:
        return np.zeros(g.node_count)


def _give_back(g: Graph, *vectors: np.ndarray) -> None:
    """Return n-vectors taken by :func:`_take_zeroed`, zeroed again."""
    g.scratch_vectors.extend(vectors)


class _PrunedIterates:
    """The iterates of a run at eps > 0, as compact arrays.

    v_i is its sorted support ``supp`` with the values ``val`` on it and
    ``sd``, the square-rooted degrees there, which the next pruned product
    reuses; no dense copy of it exists.  The values on S_i are kept as the
    S_{i-1} values of the next step, so no subtraction gathers from a
    basis vector.  One n-vector comes from the graph's free list
    (``Graph.scratch_vectors``): the accumulator in which the pruned
    product sums its arcs and then each step sums w, zeroed again on the
    entries it wrote.  :meth:`release` gives it back zeroed; a run that
    raises drops it.  Every step costs O(r log r) for the r arcs it
    relaxes plus its supports, the log from its one sort, and no step or
    query does O(n) work.
    """

    def __init__(self, g: Graph, v1: SparseVector, eps: float, deflate: bool):
        self.g, self.eps, self.deflate = g, eps, deflate
        self.acc = _take_zeroed(g)
        self.supp, self.val, self.size = v1.idx, v1.val, len(v1.idx)
        self.sd = g.sqrt_degrees[self.supp]
        self.s_prev, self.s_prev_val = self.supp[:0], self.val[:0]
        # whether any step so far skipped an arc or had S_i smaller than
        # its support
        self.pruned = False

    def values_at(self, idx: np.ndarray) -> np.ndarray:
        """v_i on the sorted vertex ids ``idx``, 0.0 off its support,
        which must not be empty (no step leaves it so)."""
        supp = self.supp
        pos = np.minimum(supp.searchsorted(idx), len(supp) - 1)
        return np.where(supp[pos] == idx, self.val[pos], 0.0)

    def overlap(self, v1: SparseVector) -> float:
        """v_1^T v_i, which the pruning makes nonzero for i > 1."""
        return _dot(v1.val, self.values_at(v1.idx))

    def step(self, run: LanczosRun, beta: float, s_cur) -> tuple:
        """One step from v_i: ``(alpha_i, beta_{i+1})``, with the work
        counted on ``run``; ``s_cur`` is S_i, or None for the threshold
        rule."""
        g, acc, supp, val, eps = self.g, self.acc, self.supp, self.val, self.eps
        size = np.abs(val)
        if s_cur is None:
            # the S_i test of relax_arcs' docstring, on the |v| that the
            # product reads too
            keep = (size > eps * g.weighted_degrees[supp]).nonzero()[0]
            s_cur, s_val = supp[keep], val[keep]
        else:
            s_val = self.values_at(s_cur)
        run.subset_sizes.append(len(s_cur))
        heads, skipped = relax_arcs(g, supp, val, size, eps * self.sd, acc)
        run.edges_relaxed.append(len(heads))
        self.pruned = self.pruned or skipped or len(s_cur) < self.size
        # every entry this step writes, sorted once: a head whose sum
        # cancelled, or that is only in S_{i-1} or S_i, reads 0.0 here
        touched = _sorted_unique(np.concatenate((heads, self.s_prev, s_cur)))
        if self.deflate:
            # alpha comes from the deflated product
            prod = acc[touched]
            hit = (prod != 0.0).nonzero()[0]
            prod_supp, prod = touched[hit], prod[hit]
            run.extra_ops += _project_u1_compact(prod, g.sqrt_degrees[prod_supp])
            acc[prod_supp] = prod
        if beta != 0.0:
            acc[self.s_prev] -= beta * self.s_prev_val
            run.extra_ops += run.subset_sizes[-2]
        alpha = _dot(acc[supp], val)
        acc[s_cur] -= alpha * s_val
        run.extra_ops += run.support_sizes[-1] + run.subset_sizes[-1]

        w = acc[touched]
        acc[touched] = 0.0
        nonzero = (w != 0.0).nonzero()[0]
        supp_w, w = touched[nonzero], w[nonzero]
        sd = g.sqrt_degrees[supp_w]
        if self.deflate:
            # the S_i-restricted subtractions put u_1 mass back
            run.extra_ops += _project_u1_compact(w, sd)
        self.pending = supp_w, w, sd, s_cur, s_val
        return alpha, math.sqrt(_dot(w, w))

    def advance(self, beta_next: float) -> None:
        """Normalize the last step's w into v_{i+1}."""
        supp_w, w, sd, s_cur, s_val = self.pending
        w /= beta_next
        self.s_prev, self.s_prev_val = s_cur, s_val
        self.supp, self.val, self.sd, self.size = supp_w, w, sd, len(supp_w)

    def release(self) -> None:
        """Give the zeroed accumulator back to the graph's free list."""
        _give_back(self.g, self.acc)


def _check_ids(g: Graph, ids: np.ndarray) -> None:
    """Raise IndexError unless the ascending vertex ids ``ids`` are all
    in [0, n): only the two ends need testing."""
    if len(ids):
        _check_vertex(g, int(ids[0]))
        _check_vertex(g, int(ids[-1]))


def run_recurrence(
    g: Graph,
    v1: SparseVector,
    k: int,
    eps: float = 0.0,
    s_overrides=None,
    visit=None,
):
    """Run k steps of the (pruned) Lanczos recurrence from the unit vector v1.

    Each iteration forms w = A~ v_i with A~ = A at ``eps = 0`` and the
    pruned operator of :func:`resistor.kernels.relax_arcs` otherwise,
    projects u_1 out of it (eps > 0 only), subtracts beta_i v_{i-1} on
    S_{i-1} and alpha_i v_i on S_i, where S_i = {u : |v_i(u)| > eps * d_u}
    (all of v_i at eps = 0), projects u_1 out again and normalizes.  At
    eps = 0 only the second projection runs: A keeps u_1^perp, so the
    product gains u_1 mass from rounding alone, and the second projection
    removes it.  At eps > 0 the pruned product and the S_i test run on
    the support's index and value arrays.  The projections run over the
    vector's own nonzero support, and only when v1 is orthogonal to u_1;
    a v1 with a u_1 component runs unprojected.

    ``s_overrides`` maps an iteration number (1-based) to the significant
    set to use at that iteration instead of the threshold rule; it needs
    eps > 0 and integer keys (not bool) in 1..k (ValueError otherwise),
    and an id outside [0, n) raises IndexError.
    ``visit(i, supp, val, alphas, betas)`` is called with every basis
    vector v_i as it is formed (i starting at 1): at eps > 0 ``supp`` is
    its strictly ascending support and ``val`` the values on it; at
    eps = 0 ``supp`` is ``slice(None)`` and ``val`` the dense n-vector.  The lists ``alphas`` and ``betas`` hold
    alpha_1..alpha_{i-1} and beta_2..beta_i.  Callers must not mutate or
    keep any of them.  A true return for i > 1 stops the run before step
    i, with the result that ``k = i - 1`` would have given.

    Returns the :class:`LanczosRun` of the run: T with alpha_1..alpha_k
    and beta_2..beta_k for k = ``k_effective``, its first row (the
    products v_1^T v_j at eps > 0; v_1^T v_1 and zeros at eps = 0) and
    the work counters.

    At eps = 0 the iterates are n-vectors and every step is a dense pass
    through the run's workspace (the module docstring lists it), whose
    product reads only the arcs of v_i's support while they are few.  At
    eps > 0 they are compact index and value arrays
    (:class:`_PrunedIterates`): every step costs O(r log r) for the r
    arcs it relaxes plus its supports, the log from its one sort, and the
    run's one n-vector comes zeroed from the graph's free list, so a
    query does no O(n) work.
    """
    if s_overrides and eps == 0.0:
        # a dense run has no significant set to replace, and its estimate
        # reads the first row as that of an orthonormal basis
        raise ValueError("significant-set overrides need eps > 0")
    for key in s_overrides or ():
        # a key that names no iteration would be ignored without a word
        integer = isinstance(key, (int, np.integer)) and not isinstance(key, bool)
        if not (integer and 1 <= key <= k):
            raise ValueError(f"override key {key!r} is not an iteration in 1..{k}")
    deflate = _orthogonal_to_u1(g.sqrt_degrees, v1)
    if eps == 0.0:
        it = _DenseIterates(g, v1, deflate)
    else:
        it = _PrunedIterates(g, v1, eps, deflate)
    beta = 0.0
    alphas: list = []
    betas: list = []
    first_row = [_dot(v1.val, v1.val)]
    run = LanczosRun()
    if visit is not None:
        visit(1, it.supp, it.val, alphas, betas)
    for i in range(1, k + 1):
        run.support_sizes.append(it.size)
        s_cur = None
        if s_overrides is not None and i in s_overrides:
            s_cur = _sorted_unique(np.asarray(list(s_overrides[i]), dtype=np.int64))
            _check_ids(g, s_cur)
        alpha, beta_next = it.step(run, beta, s_cur)
        run.touched_edges += run.edges_relaxed[-1]
        alphas.append(alpha)
        if i == k:
            break
        if beta_next < BREAKDOWN_TOL:
            run.breakdown = True
            break
        betas.append(beta_next)
        it.advance(beta_next)
        beta = beta_next
        if visit is not None and visit(i + 1, it.supp, it.val, alphas, betas):
            betas.pop()
            break
        first_row.append(it.overlap(v1))
    it.release()
    run.pruned = it.pruned
    run.peak_support = max(run.support_sizes)
    run.t = TridiagonalMatrix(alphas, betas)
    run.first_row = np.asarray(first_row)
    return run


def definitional_start(g: Graph, s: int, t: int) -> SparseVector:
    """The unit start vector, proportional to e_s / sqrt(d_s) - e_t / sqrt(d_t)."""
    scale = math.sqrt(1.0 / g.weighted_degrees[s] + 1.0 / g.weighted_degrees[t])
    entries = {s: g.inv_sqrt_degrees[s] / scale, t: -g.inv_sqrt_degrees[t] / scale}
    return SparseVector.from_mapping(entries, g.node_count)


def _estimate(
    g: Graph,
    s: int,
    t: int,
    k: int,
    eps: float,
    method: str,
    v1=None,
    finish=None,
    **recurrence,
):
    """The one Lanczos estimate of ``lz``, ``lzpush`` and the trace.

    Validates the query, answers s == t with 0 at no work, runs the
    recurrence from ``v1`` (the definitional start when None; the other
    keywords go to :func:`run_recurrence`), calls ``finish(run)`` when
    given, solves (I - T) y = e_1 and returns ``(RDEstimate, LanczosRun)``.
    The value is (1/d_s + 1/d_t) * <first_row, y> for every run, which at
    eps = 0 is (1/d_s + 1/d_t) * v_1^T v_1 * y[0].  The estimate is
    flagged (``healthy`` false) when I - T is indefinite or the run broke
    down after pruning.
    """
    _check_pair(g, s, t)
    _check_k(k)
    _check_eps(eps)
    start = time.perf_counter()
    if s == t:
        run = LanczosRun(TridiagonalMatrix([0.0], []), np.zeros(0), estimate=0.0)
        return RDEstimate(0.0, 0, 0, time.perf_counter() - start, method), run
    if v1 is None:
        v1 = definitional_start(g, s, t)
    run = run_recurrence(g, v1, k, eps, **recurrence)
    if finish is not None:
        finish(run)
    y, healthy = solve_checked(run.t)
    healthy = healthy and not (run.breakdown and run.pruned)
    scale_sq = 1.0 / g.weighted_degrees[s] + 1.0 / g.weighted_degrees[t]
    run.estimate = float(scale_sq * _dot(run.first_row, y))
    est = RDEstimate(
        value=run.estimate,
        iterations=run.k_effective,
        touched_edges=run.touched_edges,
        wall_time=time.perf_counter() - start,
        method=method,
        healthy=healthy,
    )
    return est, run


def lanczos_rd(g: Graph, s: int, t: int, k: int) -> tuple:
    """Estimate the resistance distance with k Lanczos iterations.

    Returns ``(RDEstimate, LanczosRun)``.  The estimate is flagged
    (``healthy`` false) when I - T is indefinite.  ``k`` must be an int or
    a numpy integer (not a bool) and at least 1.
    """
    return _estimate(g, s, t, k, 0.0, "lz")


def lanczos_potential(g: Graph, s: int, t: int, k: int) -> np.ndarray:
    """Approximate electric potential phi with L phi = e_s - e_t.

    Computed as sqrt(1/d_s + 1/d_t) * D^{-1/2} x_k with
    x_j = V_j (I - T_j)^{-1} e_1, in one pass over the Lanczos recurrence
    (D-Lanczos: Saad, "Iterative Methods for Sparse Linear Systems",
    section 6.7.1; Paige & Saunders 1975).  With I - T_j = L D L^T,
    x_j = P_j z_j for P_j = V_j L^{-T} and z_j = D^{-1} L^{-1} e_1, and
    neither the leading columns of P_j nor the leading entries of z_j
    change as j grows.  So each step adds the pivot of the row of T it
    completed (the same pivots and 1e-14 floor as :func:`solve_checked`,
    raising :class:`SingularSystemError`), adds z_j p_j to x and forms
    p_{j+1} = v_{j+1} - l_j p_j: k products, two n-vector updates per
    step, and O(n) memory regardless of k.

    The result is a genuine potential (its Laplacian image is e_s - e_t
    up to the recurrence truncation error); it is normalized against the
    degree vector rather than the all-ones vector, so compare potentials
    through differences only.  ``k`` is checked as by :func:`lanczos_rd`.
    """
    _check_pair(g, s, t)
    _check_k(k)
    n = g.node_count
    if s == t:
        return np.zeros(n)
    x, p, scratch = np.zeros(n), np.zeros(n), np.empty(n)
    d = zeta = 1.0  # last pivot d_j, and (L^{-1} e_1)_j, with z_j = zeta / d_j

    def complete_row(alphas, betas) -> None:
        # T gained row j = len(alphas): its pivot, and z_j p_j into x
        nonlocal d, x
        j = len(alphas)
        d = _ldl_pivot(alphas[-1], betas[j - 2] if j > 1 else 0.0, d)
        x += np.multiply(p, zeta / d, out=scratch)

    def visit(i: int, supp, v: np.ndarray, alphas, betas) -> None:
        nonlocal zeta, p
        if alphas:
            complete_row(alphas, betas)
            c = betas[-1] / d  # -l_{i-1}
            zeta *= c
            p *= c
        p += v

    run = run_recurrence(g, definitional_start(g, s, t), k, visit=visit)
    complete_row(run.alphas, run.betas)
    scale = math.sqrt(
        1.0 / g.weighted_degrees[s] + 1.0 / g.weighted_degrees[t]
    )
    return scale * (g.inv_sqrt_degrees * x)
