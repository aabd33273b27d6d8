"""Tests for the exact solver and the two walk-based estimators."""

import math

import numpy as np
import pytest

import resistor as R

from conftest import (
    graph_from_text,
    path_graph,
    pinv_resistance,
    random_connected,
    random_pair,
    toy_graph,
)


# ---------------------------------------------------------------------------
# exact_rd
# ---------------------------------------------------------------------------


def test_exact_single_edge(edge):
    assert R.exact_rd(edge, 0, 1) == pytest.approx(1.0, abs=1e-12)


def test_exact_path3_series():
    g = path_graph(3)
    assert R.exact_rd(g, 0, 2) == pytest.approx(2.0, abs=1e-12)


def test_exact_toy_frozen_values(toy):
    assert R.exact_rd(toy, 0, 3) == pytest.approx(1.0, abs=1e-12)
    # triangle edge in parallel with the two-hop detour: 1 || 2 = 2/3
    assert R.exact_rd(toy, 0, 1) == pytest.approx(2 / 3, abs=1e-12)


def test_exact_parallel_edges_halve():
    g = graph_from_text("0 1 1.0\n1 0 1.0\n", weighted=True)
    assert R.exact_rd(g, 0, 1) == pytest.approx(0.5, abs=1e-12)


def test_exact_same_vertex_is_zero(toy):
    assert R.exact_rd(toy, 2, 2) == 0.0


def test_exact_matches_pseudoinverse_oracle():
    for seed in range(6):
        g = random_connected(24, seed)
        rng = np.random.default_rng(1000 + seed)
        for _ in range(4):
            s, t = random_pair(rng, g.node_count)
            assert R.exact_rd(g, s, t) == pytest.approx(
                pinv_resistance(g, s, t), abs=1e-9
            )


def test_exact_symmetry_and_triangle_inequality():
    g = random_connected(20, 3)
    rng = np.random.default_rng(8)
    for _ in range(10):
        a, b = random_pair(rng, g.node_count)
        c = int(rng.integers(0, g.node_count))
        rab = R.exact_rd(g, a, b)
        assert rab == pytest.approx(R.exact_rd(g, b, a), abs=1e-12)
        if c not in (a, b):
            assert rab <= R.exact_rd(g, a, c) + R.exact_rd(g, c, b) + 1e-9


@pytest.mark.parametrize("w", [1e6, 1e9, 1e12])
def test_exact_reads_a_path_with_one_heavy_edge(w):
    # the combinatorial Laplacian's scale is about w, and its smallest
    # nonzero eigenvalue fell under 1e-9 of it: the path read disconnected
    g = graph_from_text(
        "".join(f"{i} {i + 1} {w if i == 4 else 1.0!r}\n" for i in range(9)), weighted=True
    )
    assert R.exact_rd(g, 0, 9) == pytest.approx(8 + 1 / w, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("offsets, neighbors, t", [
    ([0, 2, 4, 6, 8, 10, 12], [1, 2, 0, 2, 0, 1, 4, 5, 3, 5, 3, 4], 3),  # two triangles
    ([0, 1, 2, 2], [1, 0], 2),  # an edge and an isolated vertex
], ids=["two-triangles", "isolated-vertex"])
def test_exact_refuses_a_disconnected_graph(offsets, neighbors, t):
    offsets = np.array(offsets, dtype=np.int64)
    g = R.Graph(
        offsets=offsets,
        neighbors=np.array(neighbors, dtype=np.int64),
        weights=np.ones(len(neighbors)),
        weighted_degrees=np.diff(offsets).astype(float),
        old_ids=np.arange(len(offsets) - 1, dtype=np.int64),
    )
    with pytest.raises(R.NumericalError, match="disconnected"):
        R.exact_rd(g, 0, t)


def test_exact_refuses_a_barbell_with_a_weak_bridge():
    # two K20 joined by an edge of weight 1e-9: N's second eigenvalue is
    # about 1e-12, below 1e-9 of its scale
    clique = [(i, j) for i in range(20) for j in range(i + 1, 20)]
    text = "".join(f"{i + off} {j + off} 1.0\n" for off in (0, 20) for i, j in clique)
    g = graph_from_text(text + "19 20 1e-9\n", weighted=True)
    with pytest.raises(R.NumericalError, match="disconnected"):
        R.exact_rd(g, 0, 39)


def test_exact_refuses_oversized_graphs():
    g = random_connected(30, 0)
    with pytest.raises(R.UnsupportedInputError):
        R.exact_rd(g, 0, 1, cap=10)


def test_exact_bounds_checked(toy):
    with pytest.raises(IndexError):
        R.exact_rd(toy, 0, 99)


# ---------------------------------------------------------------------------
# power_method_rd
# ---------------------------------------------------------------------------


def test_pm_zero_iterations_single_edge(edge):
    # the first accumulated term is 1/(2 d_s) + 1/(2 d_t) for r_0 = e_s - e_t
    est = R.power_method_rd(edge, 0, 1, 0)
    assert est.value == pytest.approx(1.0, abs=1e-15)
    assert est.iterations == 0
    assert est.touched_edges == 2


def test_pm_same_vertex_short_circuits(toy):
    est = R.power_method_rd(toy, 1, 1, 500)
    assert est.value == 0.0
    assert est.touched_edges == 0


def test_pm_converges_on_path3():
    g = path_graph(3)
    # kappa = 2 for this graph, so the sufficient-iteration rule is small
    l = R.power_method_iteration_bound(2.0, 1e-6)
    est = R.power_method_rd(g, 0, 2, l)
    assert est.value == pytest.approx(2.0, abs=1e-6)


def test_pm_long_run_hits_toy_truth(toy):
    est = R.power_method_rd(toy, 0, 3, 2000)
    assert est.value == pytest.approx(1.0, abs=1e-10)


def test_pm_symmetric_in_endpoints(toy):
    a = R.power_method_rd(toy, 0, 3, 57).value
    b = R.power_method_rd(toy, 3, 0, 57).value
    assert a == pytest.approx(b, abs=1e-15)


def test_pm_partial_sums_are_monotone():
    g = random_connected(40, 7)
    rng = np.random.default_rng(3)
    s, t = random_pair(rng, g.node_count)
    values = [R.power_method_rd(g, s, t, l).value for l in range(0, 30, 3)]
    diffs = np.diff(values)
    assert (diffs >= -1e-12).all()


def test_pm_approaches_exact_from_below():
    for seed in range(5):
        g = random_connected(30, 50 + seed)
        rng = np.random.default_rng(seed)
        s, t = random_pair(rng, g.node_count)
        exact = R.exact_rd(g, s, t)
        est = R.power_method_rd(g, s, t, 400)
        assert est.value <= exact + 1e-9
        assert est.value == pytest.approx(exact, abs=1e-4)


def test_pm_validates_l(toy):
    with pytest.raises(ValueError):
        R.power_method_rd(toy, 0, 1, -1)
    for l in (2.5, True):
        with pytest.raises(ValueError, match="l must be an integer"):
            R.power_method_rd(toy, 0, 1, l)


def test_pm_iteration_bound_rule():
    # ceil(2 kappa ln(kappa / eps))
    assert R.power_method_iteration_bound(2.0, 1e-3) == math.ceil(
        4 * math.log(2000)
    )
    bad = [(0.5, 1e-3), (2.0, 0.0), (math.inf, 1e-3), (10.0, math.inf),
           (math.nan, 1e-3), (10.0, math.nan)]
    for kappa, eps in bad:
        with pytest.raises(ValueError, match="need kappa >= 1 and eps > 0"):
            R.power_method_iteration_bound(kappa, eps)
    # finite arguments whose bound overflows float64
    with pytest.raises(ValueError, match="iteration bound overflows"):
        R.power_method_iteration_bound(1e308, 1e-3)


# ---------------------------------------------------------------------------
# random_walk_rd
# ---------------------------------------------------------------------------


def test_rw_zero_length_is_deterministic(toy):
    est = R.random_walk_rd(toy, 0, 3, 0, 500, seed=1)
    assert est.value == pytest.approx(1 / 6 + 1 / 2, abs=1e-15)
    assert est.touched_edges == 0


def test_rw_rejects_weighted_graphs():
    g = graph_from_text("0 1 2.0\n1 2 1.0\n", weighted=True)
    with pytest.raises(R.UnsupportedInputError):
        R.random_walk_rd(g, 0, 2, 5, 100, seed=0)


def test_rw_same_seed_same_value_different_seed_differs(toy):
    a = R.random_walk_rd(toy, 0, 3, 8, 400, seed=42)
    b = R.random_walk_rd(toy, 0, 3, 8, 400, seed=42)
    c = R.random_walk_rd(toy, 0, 3, 8, 400, seed=43)
    assert a.value == b.value
    assert a.value != c.value


def test_rw_single_edge_concentrates_near_one(edge):
    values = [
        R.random_walk_rd(edge, 0, 1, 10, 10_000, seed=s).value for s in range(5)
    ]
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1))
    assert std > 0.0
    assert abs(mean - 1.0) <= max(3 * std / math.sqrt(5), 0.02)


def test_rw_tracks_power_method_truncation(toy):
    # the sampler estimates the same truncated series the power method
    # computes exactly, so at equal l they must agree up to sampling noise
    l = 40
    pm = R.power_method_rd(toy, 0, 3, l).value
    values = [
        R.random_walk_rd(toy, 0, 3, l, 3000, seed=s).value for s in range(20)
    ]
    mean = float(np.mean(values))
    sem = float(np.std(values, ddof=1)) / math.sqrt(len(values))
    assert abs(mean - pm) <= 4 * sem + 1e-3


def test_rw_validates_arguments(toy):
    with pytest.raises(ValueError):
        R.random_walk_rd(toy, 0, 1, -1, 10, seed=0)
    with pytest.raises(ValueError):
        R.random_walk_rd(toy, 0, 1, 3, 0, seed=0)
    for args, name in [((2.5, 10, 0), "l"), ((3, 1.5, 0), "n_r"), ((3, 10, 1.5), "seed"),
                       ((True, 10, 0), "l"), ((3, True, 0), "n_r"), ((3, 10, False), "seed")]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            R.random_walk_rd(toy, 0, 1, *args)


def test_rw_same_vertex_short_circuits(toy):
    assert R.random_walk_rd(toy, 2, 2, 10, 100, seed=0).value == 0.0


def test_estimates_report_work_and_method(toy):
    pm = R.power_method_rd(toy, 0, 3, 7)
    assert pm.method == "pm"
    assert pm.touched_edges == 8 * 2 * toy.edge_count
    assert pm.wall_time >= 0.0
    rw = R.random_walk_rd(toy, 0, 3, 5, 200, seed=0)
    assert rw.method == "rw"
    assert rw.touched_edges > 0
