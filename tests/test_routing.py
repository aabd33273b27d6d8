"""Tests for electric-flow routing: flows, widest paths, and metrics."""

import heapq
import math

import numpy as np
import pytest

import resistor as R
from resistor.graph import Graph

from conftest import (
    cut_lattice,
    cycle_graph,
    graph_from_text,
    path_graph,
    pinv_potential,
    random_connected,
    random_pair,
    random_weighted,
)

# a weighted graph whose unit flow needs the conductances: dropping them
# leaves net outflows (0.75, 0.5, -0.5, -0.75)
WEIGHTED_TEXT = "0 1 2.0\n1 2 1.0\n0 2 1.0\n2 3 3.0\n1 3 0.5\n"


def _arc(g, u, x):
    row = g.neighbors[g.offsets[u] : g.offsets[u + 1]]
    return int(g.offsets[u] + np.searchsorted(row, x))


def _flow_from_values(g, pairs_to_values):
    arcs = np.zeros(len(g.neighbors))
    for (a, b), f in pairs_to_values.items():
        arcs[_arc(g, a, b)] = f
        arcs[_arc(g, b, a)] = -f
    return R.FlowMap(g, arcs)


def _edge_values(g, flow):
    """The flow of every canonical edge (a, b), a < b, in a dict of its
    own, read through ``flow.get``."""
    eu, ev, _ = R.edge_arrays(g)
    return {(a, b): flow.get(a, b) for a, b in zip(eu.tolist(), ev.tolist())}


def _brute_force_widest(g, flow, s, t):
    best = 0.0
    path = [s]
    seen = {s}

    def walk(u, width):
        nonlocal best
        if u == t:
            best = max(best, width)
            return
        for x in g.neighbors[g.offsets[u] : g.offsets[u + 1]].tolist():
            if x in seen:
                continue
            cap = flow.get(u, x)
            if cap <= 0.0:
                continue
            seen.add(x)
            walk(x, min(width, cap))
            seen.remove(x)

    walk(s, math.inf)
    return best


def _reference_widest(g, values, s, t):
    """The widest-path search as first written: a heap search over
    per-arc lookups in the edge dict ``values`` (see :func:`_edge_values`),
    kept to pin routes and tie-breaks."""

    def get(u, v):
        if u < v:
            return values[(u, v)]
        return -values[(v, u)]

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
            cap = get(u, x)
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
        edges.append((min(a, b), max(a, b)))
        arc = np.searchsorted(g.neighbors[g.offsets[a] : g.offsets[a + 1]], b)
        wlen += float(g.weights[g.offsets[a] + arc])
    return R.Route(
        vertices=tuple(path),
        edges=frozenset(edges),
        length=len(path) - 1,
        weighted_length=wlen,
        bottleneck=float(width[t]),
    )


def _reference_extract(g, s, t, k, l):
    """``extract_routes`` as first written, on the reference search, with
    bottlenecks subtracted through the edge dict."""
    values = _edge_values(g, R.electric_flow(g, s, t, k))
    found = []
    for _ in range(2 * l):
        route = _reference_widest(g, values, s, t)
        if route is None:
            break
        for a, b in zip(route.vertices[:-1], route.vertices[1:]):
            if a < b:
                values[(a, b)] -= route.bottleneck
            else:
                values[(b, a)] += route.bottleneck
        found.append(route)
    cost = (lambda r: r.length) if g.is_unweighted else (lambda r: r.weighted_length)
    order = sorted(range(len(found)), key=lambda i: (cost(found[i]), i))
    return [found[i] for i in order[:l]], len(found) >= l


def _reference_survivals(routes, p_delete, trials, seed):
    """Rounds in which some route survives, one round at a time, each
    drawn in turn from one generator seeded with ``seed``."""
    edge_pool = sorted(set().union(*(r.edges for r in routes)))
    edge_pos = {e: i for i, e in enumerate(edge_pool)}
    masks = [np.array([edge_pos[e] for e in r.edges]) for r in routes]
    rng = np.random.default_rng(seed)
    survived = 0
    for _ in range(trials):
        deleted = rng.random(len(edge_pool)) < p_delete
        survived += any(not deleted[m].any() for m in masks)
    return survived


# ---------------------------------------------------------------------------
# electric_flow / kirchhoff_residuals
# ---------------------------------------------------------------------------


def test_series_path_carries_unit_flow():
    g = path_graph(3)
    flow = R.electric_flow(g, 0, 2, g.node_count)
    assert flow.get(0, 1) == pytest.approx(1.0, abs=1e-10)
    assert flow.get(1, 2) == pytest.approx(1.0, abs=1e-10)
    assert flow.get(1, 0) == pytest.approx(-1.0, abs=1e-10)


def test_single_edge_flow(edge):
    flow = R.electric_flow(edge, 0, 1, 1)
    assert flow.get(0, 1) == pytest.approx(1.0, abs=1e-12)
    assert flow.norm1() == pytest.approx(1.0, abs=1e-12)


def test_cycle_splits_evenly():
    g = cycle_graph(4)
    flow = R.electric_flow(g, 0, 2, g.node_count)
    assert flow.get(0, 1) == pytest.approx(0.5, abs=1e-10)
    assert flow.get(1, 2) == pytest.approx(0.5, abs=1e-10)
    assert flow.get(0, 3) == pytest.approx(0.5, abs=1e-10)
    assert flow.get(3, 2) == pytest.approx(0.5, abs=1e-10)


def test_flow_matches_potential_oracle():
    graphs = [random_connected(25, seed) for seed in (7, 23)]
    graphs += [random_weighted(25, seed) for seed in (7, 23)]
    for seed, g in enumerate(graphs):
        rng = np.random.default_rng(seed)
        s, t = random_pair(rng, g.node_count)
        flow = R.electric_flow(g, s, t, g.node_count)
        phi = pinv_potential(g, s, t)
        want = (phi[g.arc_sources] - phi[g.neighbors]) * g.weights
        assert np.allclose(flow.arcs, want, atol=1e-8)


def test_from_potential_negates_exactly_on_reverse_arcs():
    # one flow per arc stands for both directions of an edge only when an
    # arc and its reverse carry exactly opposite values
    for seed in range(6):
        g = random_weighted(40, 300 + seed)
        rng = np.random.default_rng(seed)
        n = g.node_count
        phi = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
        flow = R.FlowMap.from_potential(g, phi)
        keys = g.arc_sources * n + g.neighbors
        reverse = np.searchsorted(keys, g.neighbors * n + g.arc_sources)
        assert np.array_equal(keys[reverse], g.neighbors * n + g.arc_sources)
        assert (-flow.arcs[reverse]).tobytes() == flow.arcs.tobytes()


def test_kirchhoff_balance_at_full_order():
    cases = [
        (random_connected(30, 31), 2, 17),
        (random_weighted(30, 31), 2, 17),
        (graph_from_text(WEIGHTED_TEXT, weighted=True), 0, 3),
    ]
    for g, s, t in cases:
        flow = R.electric_flow(g, s, t, g.node_count)
        net = R.kirchhoff_residuals(g, flow, s, t)
        assert net[s] == pytest.approx(1.0, abs=1e-9)
        assert net[t] == pytest.approx(-1.0, abs=1e-9)
        internal = np.delete(net, [s, t])
        assert np.abs(internal).max() <= 1e-9


# ---------------------------------------------------------------------------
# max_bottleneck_path
# ---------------------------------------------------------------------------


def test_widest_path_prefers_fat_branch():
    g = graph_from_text("0 1\n0 2\n1 3\n2 3\n")
    flow = _flow_from_values(
        g, {(0, 1): 0.7, (1, 3): 0.7, (0, 2): 0.3, (2, 3): 0.3}
    )
    route = R.max_bottleneck_path(g, flow, 0, 3)
    assert route.vertices == (0, 1, 3)
    assert route.bottleneck == pytest.approx(0.7, abs=1e-12)
    assert route.edges == frozenset({(0, 1), (1, 3)})
    assert route.length == 2


def test_widest_path_none_without_positive_flow():
    g = path_graph(3)
    flow = _flow_from_values(g, {(0, 1): -1.0, (1, 2): 0.0})
    assert R.max_bottleneck_path(g, flow, 0, 2) is None


def test_widest_path_matches_brute_force():
    for seed in range(8):
        g = random_connected(10, 700 + seed)
        rng = np.random.default_rng(seed)
        s, t = random_pair(rng, g.node_count)
        flow = R.electric_flow(g, s, t, g.node_count)
        route = R.max_bottleneck_path(g, flow, s, t)
        want = _brute_force_widest(g, flow, s, t)
        assert route is not None
        assert route.bottleneck == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# extract_routes
# ---------------------------------------------------------------------------


def test_toy_pendant_has_single_route(toy):
    found = R.extract_routes(toy, 0, 3, 4, 2)
    assert len(found) == 1
    assert found[0].vertices == (0, 3)
    assert not found.complete


def test_toy_triangle_gives_two_routes(toy):
    found = R.extract_routes(toy, 1, 3, 4, 2)
    assert found.complete
    assert found[0].vertices == (1, 0, 3)
    assert found[1].vertices == (1, 2, 0, 3)
    assert found[0].bottleneck == pytest.approx(2 / 3, abs=1e-9)
    assert found[1].bottleneck == pytest.approx(1 / 3, abs=1e-9)


def test_cycle_yields_both_arcs():
    g = cycle_graph(4)
    found = R.extract_routes(g, 0, 2, g.node_count, 2)
    assert found.complete
    assert {r.vertices for r in found} == {(0, 1, 2), (0, 3, 2)}
    assert all(r.length == 2 for r in found)


def test_routes_are_sorted_by_cost():
    g = random_connected(40, 13)
    found = R.extract_routes(g, 0, 39, 60, 4)
    lengths = [r.length for r in found]
    assert lengths == sorted(lengths)


@pytest.mark.parametrize(
    "g, k",
    [
        (random_connected(40, 13), 60),
        (cut_lattice(12, 0.1, 5), 80),
        (random_weighted(40, 17), 60),
        (cut_lattice(12, 0.1, 5), 3),
    ],
    ids=["random", "cut-lattice", "weighted", "rough-flow"],
)
def test_routes_match_reference_search(g, k):
    rng = np.random.default_rng(11)
    for _ in range(4):
        s, t = random_pair(rng, g.node_count)
        for l in range(1, 5):
            found = R.extract_routes(g, s, t, k, l)
            routes, complete = _reference_extract(g, s, t, k, l)
            assert found.routes == routes
            assert found.complete == complete


def test_max_bottleneck_path_matches_reference_search():
    g = cut_lattice(12, 0.1, 5)
    rng = np.random.default_rng(3)
    for _ in range(6):
        s, t = random_pair(rng, g.node_count)
        flow = R.electric_flow(g, s, t, 80)
        assert R.max_bottleneck_path(g, flow, s, t) == _reference_widest(
            g, _edge_values(g, flow), s, t
        )


def test_extraction_reads_arcs_not_the_edge_dict(monkeypatch):
    def refuse(self, u, v):
        raise AssertionError("FlowMap.get called on the routing path")

    g = cut_lattice(12, 0.1, 5)
    monkeypatch.setattr(R.FlowMap, "get", refuse)
    assert len(R.extract_routes(g, 0, g.node_count - 1, 80, 3)) == 3


def test_flow_map_get_reads_arcs_and_refuses_other_pairs():
    g = path_graph(4)
    n = g.node_count
    flow = R.FlowMap.from_potential(g, np.array([3.0, 2.0, 0.5, 0.0]))
    assert flow.get(0, 1) == 1.0
    assert flow.get(1, 2) == 1.5 and flow.get(2, 1) == -1.5
    assert flow.get(3, 2) == -0.5
    # a pair that is no arc, and ids outside [0, n): a negative id must
    # not wrap to the last row
    for u, v in [(0, 2), (0, 0), (-1, 0), (n, 0), (0, n), (3, -1)]:
        with pytest.raises(KeyError):
            flow.get(u, v)


def test_kirchhoff_residuals_rejects_a_flow_of_another_graph():
    flow = R.electric_flow(path_graph(4), 0, 3, 4)
    with pytest.raises(ValueError, match="canonical edges"):
        R.kirchhoff_residuals(cycle_graph(4), flow, 0, 2)


def test_kirchhoff_residuals_rejects_endpoints_outside_the_graph():
    g = path_graph(4)
    flow = R.electric_flow(g, 0, 3, 4)
    for s, t in [(-1, 3), (4, 3), (0, -1), (0, 4), (-5, 7)]:
        with pytest.raises(IndexError):
            R.kirchhoff_residuals(g, flow, s, t)
    net = R.kirchhoff_residuals(g, flow, 0, 3)
    assert net[0] == pytest.approx(1.0) and net[3] == pytest.approx(-1.0)


def test_max_bottleneck_path_rejects_a_flow_of_another_graph():
    flow = R.electric_flow(path_graph(4), 0, 3, 4)
    with pytest.raises(ValueError, match="canonical edges"):
        R.max_bottleneck_path(cycle_graph(4), flow, 0, 2)


def test_max_bottleneck_path_needs_distinct_endpoints(toy):
    flow = R.electric_flow(toy, 0, 3, 4)
    with pytest.raises(ValueError, match="distinct endpoints"):
        R.max_bottleneck_path(toy, flow, 1, 1)


def test_extract_validates_arguments(toy):
    with pytest.raises(ValueError):
        R.extract_routes(toy, 0, 0, 4, 2)
    with pytest.raises(ValueError):
        R.extract_routes(toy, 0, 3, 4, 0)
    for l in (2.5, True):
        with pytest.raises(ValueError, match="l must be an integer"):
            R.extract_routes(toy, 0, 3, 4, l)


# ---------------------------------------------------------------------------
# route_metrics
# ---------------------------------------------------------------------------


def test_metrics_on_toy_routes(toy):
    routes = R.extract_routes(toy, 1, 3, 4, 2)
    metrics = R.route_metrics(toy, routes, 1, 3, p_delete=0.1, trials=200, seed=0)
    assert metrics.stretch == pytest.approx(1.25, abs=1e-12)
    assert metrics.mean_jaccard == pytest.approx(0.25, abs=1e-12)
    assert metrics.diversity == pytest.approx(0.75, abs=1e-12)
    assert 0.0 <= metrics.robustness <= 1.0


def test_single_route_has_zero_diversity(toy):
    routes = R.extract_routes(toy, 0, 3, 4, 1)
    metrics = R.route_metrics(toy, routes, 0, 3, p_delete=0.5, trials=50, seed=1)
    assert metrics.stretch == pytest.approx(1.0)
    assert metrics.mean_jaccard == 1.0
    assert metrics.diversity == 0.0


def test_disjoint_routes_have_full_diversity():
    g = cycle_graph(4)
    routes = R.extract_routes(g, 0, 2, g.node_count, 2)
    metrics = R.route_metrics(g, routes, 0, 2, p_delete=0.2, trials=100, seed=3)
    assert metrics.diversity == pytest.approx(1.0)


def test_robustness_extremes(toy):
    routes = R.extract_routes(toy, 1, 3, 4, 2)
    sure = R.route_metrics(toy, routes, 1, 3, p_delete=0.0, trials=20, seed=0)
    doomed = R.route_metrics(toy, routes, 1, 3, p_delete=1.0, trials=20, seed=0)
    assert sure.robustness == 1.0
    assert doomed.robustness == 0.0


def test_robustness_matches_round_by_round_reference():
    g = cut_lattice(12, 0.1, 5)
    rng = np.random.default_rng(5)
    for seed in range(4):
        s, t = random_pair(rng, g.node_count)
        routes = list(R.extract_routes(g, s, t, 80, 3))
        for p_delete in (0.0, 0.05, 0.3, 1.0):
            m = R.route_metrics(g, routes, s, t, p_delete, 100, seed)
            assert m.robustness == _reference_survivals(routes, p_delete, 100, seed) / 100


def test_robustness_is_deterministic_per_seed(toy):
    routes = R.extract_routes(toy, 1, 3, 4, 2)
    a = R.route_metrics(toy, routes, 1, 3, p_delete=0.3, trials=300, seed=9)
    b = R.route_metrics(toy, routes, 1, 3, p_delete=0.3, trials=300, seed=9)
    c = R.route_metrics(toy, routes, 1, 3, p_delete=0.3, trials=300, seed=10)
    assert a.robustness == b.robustness
    assert a.robustness != c.robustness or a.diversity == c.diversity


def test_metrics_validation(toy):
    routes = R.extract_routes(toy, 1, 3, 4, 2)
    with pytest.raises(ValueError):
        R.route_metrics(toy, [], 1, 3, p_delete=0.1, trials=10, seed=0)
    with pytest.raises(ValueError):
        R.route_metrics(toy, routes, 1, 3, p_delete=1.5, trials=10, seed=0)
    with pytest.raises(ValueError):
        R.route_metrics(toy, routes, 1, 3, p_delete=0.1, trials=0, seed=0)
    for trials in (2.5, True):
        with pytest.raises(ValueError, match="trials must be an integer"):
            R.route_metrics(toy, routes, 1, 3, p_delete=0.1, trials=trials, seed=0)


def test_metrics_need_distinct_endpoints():
    g = R.generate_ba(300, 3, 1)
    routes = R.extract_routes(g, 5, 200, 40, 2)
    with pytest.raises(ValueError, match="routes need distinct endpoints"):
        R.route_metrics(g, routes, 5, 5, p_delete=0.1, trials=10, seed=0)


def test_stretch_undefined_for_disconnected_endpoints():
    g = Graph(
        offsets=np.array([0, 1, 2, 3, 4], dtype=np.int64),
        neighbors=np.array([1, 0, 3, 2], dtype=np.int64),
        weights=np.ones(4),
        weighted_degrees=np.ones(4),
        old_ids=np.arange(4, dtype=np.int64),
    )
    fake = R.Route(
        vertices=(0, 1),
        edges=frozenset({(0, 1)}),
        length=1,
        weighted_length=1.0,
        bottleneck=1.0,
    )
    with pytest.raises(ValueError, match="stretch is undefined"):
        R.route_metrics(g, [fake], 0, 2, p_delete=0.1, trials=5, seed=0)


def test_flow_iteration_bound_rule():
    assert R.flow_iteration_bound(4.0, 100, 1e-3) == math.ceil(
        2 * math.log(100 / 1e-3)
    )
    bad = [(0.5, 1e-3), (2.0, 0.0), (math.inf, 1e-3), (10.0, math.inf),
           (math.nan, 1e-3), (10.0, math.nan)]
    for kappa, eps in bad:
        with pytest.raises(ValueError, match="need kappa >= 1 and eps > 0"):
            R.flow_iteration_bound(kappa, 100, eps)
    with pytest.raises(ValueError):
        R.flow_iteration_bound(2.0, 0, 1e-3)
    # m / eps overflows float64 at finite arguments
    with pytest.raises(ValueError, match="iteration bound overflows"):
        R.flow_iteration_bound(10.0, 100, 5e-324)
