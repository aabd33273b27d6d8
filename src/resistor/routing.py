"""Electric-flow alternate routing.

The approximate electric potential from the Lanczos solver induces a flow
f(u, x) = w(u, x) (phi(u) - phi(x)) along every arc, conductance times
potential difference.  The router repeatedly extracts the widest path
from s to t through the remaining positive flow, subtracts its bottleneck
uniformly along the path, and keeps the l cheapest of the paths found.
Because electric flow spreads over every s-t cut in proportion to
conductance, the extracted paths are naturally short and physically
diverse.

A :class:`FlowMap` holds the flow of every arc, aligned with
``Graph.neighbors``: arc (u, x) carries f(u, x) and its reverse exactly
-f(u, x).  The search reads only arcs of positive flow, so a bottleneck
is subtracted from the path's arcs alone: they keep a nonnegative flow,
and their reverses, negative before, stay out of every later search
(:func:`extract_routes`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .baselines import _ceil_bound, _check_bound_args, _check_pair
from .graph import Graph, _hop_distance, _integers
from .lanczos import lanczos_potential

__all__ = [
    "FlowMap",
    "Route",
    "RouteExtraction",
    "RouteMetrics",
    "electric_flow",
    "kirchhoff_residuals",
    "max_bottleneck_path",
    "extract_routes",
    "route_metrics",
    "flow_iteration_bound",
]


@dataclass(eq=False)
class FlowMap:
    """A signed flow on the arcs of a graph.

    ``arcs[j]`` is the flow along arc j, from ``graph.arc_sources[j]`` to
    ``graph.neighbors[j]``; a flow from a potential gives the reverse arc
    exactly the negated value.
    """

    graph: Graph
    arcs: np.ndarray

    @classmethod
    def from_potential(cls, g: Graph, phi: np.ndarray) -> "FlowMap":
        """The flow w(u, x) (phi(u) - phi(x)) along every arc."""
        return cls(g, _arc_flow(g, phi))

    def get(self, u: int, v: int) -> float:
        """Flow from u to v (signed; negates when the pair is reversed).
        Raises KeyError unless (u, v) is an arc of the graph."""
        g = self.graph
        if not (0 <= u < g.node_count and 0 <= v < g.node_count):
            raise KeyError((u, v))
        lo, hi = g.offsets[u], g.offsets[u + 1]
        j = lo + np.searchsorted(g.neighbors[lo:hi], v)
        if j == hi or g.neighbors[j] != v:
            raise KeyError((u, v))
        return float(self.arcs[j])

    def norm1(self) -> float:
        """Sum of |f| over the edges, each counted once."""
        g = self.graph
        return float(np.sum(np.abs(self.arcs[g.arc_sources < g.neighbors])))


@dataclass(frozen=True)
class Route:
    """A simple s-t path extracted from a flow.

    ``length`` counts hops; ``weighted_length`` sums edge weights along
    the path; ``bottleneck`` is the smallest flow on its edges at
    extraction time.  ``edges`` holds canonical (min, max) pairs.
    """

    vertices: tuple
    edges: frozenset
    length: int
    weighted_length: float
    bottleneck: float


@dataclass
class RouteExtraction:
    """Result of :func:`extract_routes`; behaves like a list of routes.

    ``complete`` is False when the flow ran out of positive s-t paths
    before the requested number of routes was found.
    """

    routes: list
    complete: bool

    def __iter__(self):
        return iter(self.routes)

    def __len__(self):
        return len(self.routes)

    def __getitem__(self, i):
        return self.routes[i]


@dataclass
class RouteMetrics:
    """Quality summary of a route set.

    ``stretch`` is the mean hop length over the BFS distance (>= 1);
    ``diversity = 1 - mean_jaccard`` where ``mean_jaccard`` averages
    pairwise edge-set Jaccard similarity (a single route has similarity 1
    with itself, hence diversity 0); ``robustness`` is the Monte Carlo
    probability that at least one route survives independent edge
    deletion.
    """

    stretch: float
    diversity: float
    robustness: float
    mean_jaccard: float


def flow_iteration_bound(kappa: float, m: int, eps: float) -> int:
    """Iterations sufficient for ||f - f_hat||_1 <= eps:
    ``ceil(sqrt(kappa) ln(m / eps))``.  Raises ValueError unless kappa >= 1
    and eps > 0 are finite and m >= 1, or when the bound overflows
    float64."""
    _check_bound_args(kappa, eps)
    if m < 1:
        raise ValueError("need m >= 1")
    return _ceil_bound(math.sqrt(kappa) * math.log(m / eps))


def electric_flow(g: Graph, s: int, t: int, k: int) -> FlowMap:
    """Approximate unit electric s-t flow after k Lanczos iterations."""
    _check_pair(g, s, t)
    phi = lanczos_potential(g, s, t, k)
    return FlowMap.from_potential(g, phi)


def kirchhoff_residuals(g: Graph, flow: FlowMap, s: int, t: int) -> np.ndarray:
    """Net outflow at every vertex; zero at internal vertices for an exact
    flow, +1 at s and -1 at t for a unit flow.  ``s`` and ``t`` name the
    flow's endpoints, whose entries the caller compares with +1 and -1;
    an id outside [0, n) raises IndexError."""
    _check_pair(g, s, t)
    _check_flow(g, flow)
    return np.bincount(g.arc_sources, weights=flow.arcs, minlength=g.node_count)


def _arc_flow(g: Graph, phi: np.ndarray) -> np.ndarray:
    """The flow w(u, x) (phi(u) - phi(x)) along every arc (u, x), aligned
    with ``g.neighbors``.  IEEE subtraction and multiplication round
    symmetrically, so every reverse arc carries exactly the negated flow."""
    flow = phi[g.arc_sources] - phi[g.neighbors]
    if not g.is_unweighted:
        flow *= g.weights
    return flow


def _check_flow(g: Graph, flow: FlowMap) -> None:
    """Raise ValueError unless ``flow`` lies on the arcs of ``g``."""
    h = flow.graph
    if h is not g and not (
        np.array_equal(h.offsets, g.offsets) and np.array_equal(h.neighbors, g.neighbors)
    ):
        raise ValueError("the flow is not on the canonical edges of this graph")


def _widest_path(g: Graph, arc_flow: np.ndarray, s: int, t: int):
    """Widest s-t path through the arcs of positive ``arc_flow``.

    Returns the :class:`Route` and its arc ids in path order, or None.
    A best-first search maximizing the minimum capacity along the path,
    with heap keys ``(-width, vertex)`` so that ties go to the smaller
    vertex id; neighbors are scanned in CSR order.  The arrays are read
    through memoryviews, which yield Python scalars without a numpy call
    per arc.
    """
    offsets, neighbors = memoryview(g.offsets), memoryview(g.neighbors)
    flow = memoryview(arc_flow)
    n = g.node_count
    width = [0.0] * n
    width[s] = math.inf
    parent_arc = [-1] * n
    done = [False] * n
    heap = [(-math.inf, s)]
    while heap:
        neg_w, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == t:
            break
        wu = -neg_w
        for j in range(offsets[u], offsets[u + 1]):
            cap = flow[j]
            if cap <= 0.0:
                continue
            x = neighbors[j]
            # widths pop in nonincreasing order, so a done x has
            # width[x] >= wu >= nw and fails the test below
            nw = wu if wu < cap else cap
            if nw > width[x]:
                width[x] = nw
                parent_arc[x] = j
                heapq.heappush(heap, (-nw, x))
    if not done[t] or not math.isfinite(width[t]) or width[t] <= 0.0:
        return None
    arcs = []
    x = t
    while x != s:
        arcs.append(parent_arc[x])
        x = int(g.arc_sources[parent_arc[x]])
    arcs.reverse()
    path = [s] + [neighbors[j] for j in arcs]
    wlen = 0.0
    for w in g.weights[arcs].tolist():
        wlen += w
    route = Route(
        vertices=tuple(path),
        edges=frozenset((min(a, b), max(a, b)) for a, b in zip(path[:-1], path[1:])),
        length=len(path) - 1,
        weighted_length=wlen,
        bottleneck=width[t],
    )
    return route, arcs


def max_bottleneck_path(g: Graph, flow: FlowMap, s: int, t: int):
    """Widest s-t path through the positive remaining flow, or None.

    An arc u->x is usable when the flow along it is positive; its
    capacity is that flow.  Runs a best-first search maximizing the
    minimum capacity along the path; ties broken by smaller vertex id for
    determinism.
    """
    _check_pair(g, s, t)
    if s == t:
        raise ValueError("routes need distinct endpoints")
    _check_flow(g, flow)
    found = _widest_path(g, flow.arcs, s, t)
    return None if found is None else found[0]


def extract_routes(g: Graph, s: int, t: int, k: int, l: int) -> RouteExtraction:
    """Extract up to l alternate routes from the approximate electric flow.

    Runs at most 2l widest-path extractions, each followed by uniform
    subtraction of the bottleneck along the path, then returns the l
    cheapest routes found (by hop count on unweighted graphs, weighted
    length otherwise; earlier extraction wins ties).

    Only the path's arcs lose the bottleneck b: each keeps f - b >= 0,
    and its reverse keeps -f < 0 where a subtraction by edge would give
    b - f <= 0.  The search skips nonpositive arcs, so the routes are
    those of a subtraction by edge.
    """
    _check_pair(g, s, t)
    if s == t:
        raise ValueError("routes need distinct endpoints")
    (l,) = _integers(l=l)
    if l < 1:
        raise ValueError("the number of routes l must be >= 1")
    arc_flow = electric_flow(g, s, t, k).arcs
    unweighted = g.is_unweighted
    found = []
    for _ in range(2 * l):
        widest = _widest_path(g, arc_flow, s, t)
        if widest is None:
            break
        route, arcs = widest
        arc_flow[arcs] -= route.bottleneck
        found.append(route)
    cost = (
        (lambda r: r.length) if unweighted else (lambda r: r.weighted_length)
    )
    order = sorted(range(len(found)), key=lambda i: (cost(found[i]), i))
    routes = [found[i] for i in order[:l]]
    return RouteExtraction(routes=routes, complete=len(routes) >= l)


def route_metrics(
    g: Graph,
    routes,
    s: int,
    t: int,
    p_delete: float,
    trials: int,
    seed: int,
) -> RouteMetrics:
    """Stretch, diversity, and deletion robustness of a route set.

    Robustness deletes each edge independently with probability
    ``p_delete`` in each of ``trials`` Monte Carlo rounds (drawn one
    after another from one generator seeded with ``seed``, so round i does
    not depend on ``trials``) and reports the fraction of rounds in which
    at least one route survives intact.
    """
    _check_pair(g, s, t)
    if s == t:
        raise ValueError("routes need distinct endpoints")
    routes = list(routes)
    if not routes:
        raise ValueError("route_metrics needs at least one route")
    if not 0.0 <= p_delete <= 1.0:
        raise ValueError("p_delete must be a probability")
    (trials,) = _integers(trials=trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    shortest = _hop_distance(g, s, t)
    if shortest <= 0:
        raise ValueError(
            "stretch is undefined: endpoints are not connected by any path"
        )
    stretch = float(np.mean([r.length for r in routes])) / shortest

    if len(routes) == 1:
        mean_jaccard = 1.0
    else:
        sims = []
        for i in range(len(routes)):
            for j in range(i + 1, len(routes)):
                a, b = routes[i].edges, routes[j].edges
                sims.append(len(a & b) / len(a | b))
        mean_jaccard = float(np.mean(sims))
    diversity = 1.0 - mean_jaccard

    edge_pool = sorted(set().union(*(r.edges for r in routes)))
    edge_pos = {e: i for i, e in enumerate(edge_pool)}
    on_route = np.zeros((len(edge_pool), len(routes)), dtype=bool)
    for i, r in enumerate(routes):
        on_route[[edge_pos[e] for e in r.edges], i] = True
    deleted = np.random.default_rng(seed).random((trials, len(edge_pool))) < p_delete
    # hit[i, r]: round i deleted at least one edge of route r
    hit = deleted @ on_route
    survived = int(np.count_nonzero(~hit.all(axis=1)))
    return RouteMetrics(
        stretch=float(stretch),
        diversity=float(diversity),
        robustness=survived / trials,
        mean_jaccard=mean_jaccard,
    )
