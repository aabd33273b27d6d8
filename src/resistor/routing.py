"""Electric-flow alternate routing.

The approximate electric potential from the Lanczos solver induces a flow
f(u, v) = phi(u) - phi(v) on every edge (oriented canonically u < v).  The
router repeatedly extracts the widest path from s to t through the
remaining positive flow, subtracts its bottleneck uniformly along the
path, and keeps the l cheapest of the paths found.  Because electric flow
spreads over every s-t cut in proportion to conductance, the extracted
paths are naturally short and physically diverse.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .baselines import _check_pair
from .graph import Graph, bfs_hops, edge_arrays
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


@dataclass
class FlowMap:
    """A signed flow on the canonically oriented edges of a graph.

    ``values[i]`` is the flow on edge (``edge_u[i]``, ``edge_v[i]``) with
    ``edge_u[i] < edge_v[i]``; a positive value flows from the smaller to
    the larger endpoint.  ``index`` maps an edge pair to its position.
    """

    edge_u: np.ndarray
    edge_v: np.ndarray
    values: np.ndarray
    index: dict

    @classmethod
    def from_potential(cls, g: Graph, phi: np.ndarray) -> "FlowMap":
        eu, ev, _ = edge_arrays(g)
        values = phi[eu] - phi[ev]
        index = dict(zip(zip(eu.tolist(), ev.tolist()), range(len(eu))))
        return cls(eu, ev, values, index)

    def get(self, u: int, v: int) -> float:
        """Flow from u to v (signed; negates when the pair is reversed)."""
        if u < v:
            return float(self.values[self.index[(u, v)]])
        return -float(self.values[self.index[(v, u)]])

    def norm1(self) -> float:
        return float(np.sum(np.abs(self.values)))


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
    ``ceil(sqrt(kappa) ln(m / eps))``."""
    if kappa < 1.0 or m < 1 or eps <= 0.0:
        raise ValueError("need kappa >= 1, m >= 1 and eps > 0")
    return max(1, math.ceil(math.sqrt(kappa) * math.log(m / eps)))


def electric_flow(g: Graph, s: int, t: int, k: int) -> FlowMap:
    """Approximate unit electric s-t flow after k Lanczos iterations."""
    _check_pair(g, s, t)
    phi = lanczos_potential(g, s, t, k)
    return FlowMap.from_potential(g, phi)


def kirchhoff_residuals(g: Graph, flow: FlowMap, s: int, t: int) -> np.ndarray:
    """Net outflow at every vertex; zero at internal vertices for an exact
    flow, +1 at s and -1 at t for a unit flow."""
    net = np.zeros(g.node_count)
    np.add.at(net, flow.edge_u, flow.values)
    np.add.at(net, flow.edge_v, -flow.values)
    return net


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
    n = g.node_count
    offsets, neighbors = g.offsets, g.neighbors
    width = np.zeros(n)
    width[s] = np.inf
    parent = np.full(n, -1, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    heap = [(-np.inf, s)]
    while heap:
        neg_w, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == t:
            break
        wu = -neg_w
        for x in neighbors[offsets[u] : offsets[u + 1]].tolist():
            if done[x]:
                continue
            cap = flow.get(u, x)
            if cap <= 0.0:
                continue
            nw = min(wu, cap)
            if nw > width[x]:
                width[x] = nw
                parent[x] = u
                heapq.heappush(heap, (-nw, x))
    if not done[t] or not np.isfinite(width[t]) or width[t] <= 0.0:
        return None
    path = [t]
    while path[-1] != s:
        path.append(int(parent[path[-1]]))
    path.reverse()
    edges = []
    wlen = 0.0
    for a, b in zip(path[:-1], path[1:]):
        lo, hi = min(a, b), max(a, b)
        edges.append((lo, hi))
        arc = np.searchsorted(g.neighbors[g.offsets[a] : g.offsets[a + 1]], b)
        wlen += float(g.weights[g.offsets[a] + arc])
    return Route(
        vertices=tuple(path),
        edges=frozenset(edges),
        length=len(path) - 1,
        weighted_length=wlen,
        bottleneck=float(width[t]),
    )


def extract_routes(g: Graph, s: int, t: int, k: int, l: int) -> RouteExtraction:
    """Extract up to l alternate routes from the approximate electric flow.

    Runs at most 2l widest-path extractions, each followed by uniform
    subtraction of the bottleneck along the path, then returns the l
    cheapest routes found (by hop count on unweighted graphs, weighted
    length otherwise; earlier extraction wins ties).
    """
    _check_pair(g, s, t)
    if s == t:
        raise ValueError("routes need distinct endpoints")
    if l < 1:
        raise ValueError("the number of routes l must be >= 1")
    flow = electric_flow(g, s, t, k)
    unweighted = g.is_unweighted
    found = []
    for _ in range(2 * l):
        route = max_bottleneck_path(g, flow, s, t)
        if route is None:
            break
        for a, b in zip(route.vertices[:-1], route.vertices[1:]):
            if a < b:
                flow.values[flow.index[(a, b)]] -= route.bottleneck
            else:
                flow.values[flow.index[(b, a)]] += route.bottleneck
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
    ``p_delete`` in each of ``trials`` Monte Carlo rounds (per-round
    substreams spawned from ``seed``) and reports the fraction of rounds
    in which at least one route survives intact.
    """
    _check_pair(g, s, t)
    routes = list(routes)
    if not routes:
        raise ValueError("route_metrics needs at least one route")
    if not 0.0 <= p_delete <= 1.0:
        raise ValueError("p_delete must be a probability")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    hops = bfs_hops(g, s)
    shortest = int(hops[t])
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
    route_masks = [
        np.fromiter((edge_pos[e] for e in r.edges), dtype=np.int64) for r in routes
    ]
    survived = 0
    children = np.random.SeedSequence(seed).spawn(trials)
    for child in children:
        rng = np.random.default_rng(child)
        deleted = rng.random(len(edge_pool)) < p_delete
        if any(not deleted[mask].any() for mask in route_masks):
            survived += 1
    return RouteMetrics(
        stretch=float(stretch),
        diversity=float(diversity),
        robustness=survived / trials,
        mean_jaccard=mean_jaccard,
    )
