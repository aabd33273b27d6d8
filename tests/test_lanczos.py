"""Tests for the global Lanczos estimator and the two-pass potential solver."""

import numpy as np
import pytest

import resistor as R
from resistor.kernels import TridiagonalMatrix
from resistor.lanczos import definitional_start, run_recurrence, solve_checked

from conftest import (
    dense_laplacian,
    dense_spectrum,
    path_graph,
    pinv_potential,
    random_connected,
    random_pair,
)


def test_single_edge_one_step_is_exact(edge):
    est, run = R.lanczos_rd(edge, 0, 1, 1)
    assert est.value == pytest.approx(1.0, abs=1e-14)
    assert run.t.alpha == pytest.approx([-1.0], abs=1e-14)
    assert run.k_effective == 1
    # asking for more steps stops at the exhausted Krylov space
    _, run2 = R.lanczos_rd(edge, 0, 1, 5)
    assert run2.k_effective == 1
    assert run2.breakdown


def test_toy_first_diagonal_entry(toy):
    _, run = R.lanczos_rd(toy, 0, 3, 4)
    assert run.t.alpha[0] == pytest.approx(-0.5, abs=1e-12)


def test_toy_terminates_exactly(toy):
    est, run = R.lanczos_rd(toy, 0, 3, 4)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert run.k_effective == 2
    assert run.breakdown
    assert est.iterations == 2


def test_full_order_matches_exact_solver():
    for seed in (0, 1, 2):
        g = random_connected(30, 200 + seed)
        rng = np.random.default_rng(seed)
        s, t = random_pair(rng, g.node_count)
        est, _ = R.lanczos_rd(g, s, t, g.node_count)
        assert est.value == pytest.approx(R.exact_rd(g, s, t), abs=1e-9)


def test_estimates_increase_toward_truth():
    g = random_connected(40, 11)
    s, t = 0, g.node_count - 1
    exact = R.exact_rd(g, s, t)
    values = [R.lanczos_rd(g, s, t, k)[0].value for k in (1, 2, 4, 8, 16, 32)]
    diffs = np.diff(values)
    assert (diffs >= -1e-10).all()
    assert values[-1] <= exact + 1e-9
    assert values[-1] == pytest.approx(exact, abs=1e-8)


def test_iteration_rule_reaches_requested_error():
    for seed in (5, 6):
        g = random_connected(60, seed)
        _, _, kappa = dense_spectrum(g)
        rng = np.random.default_rng(seed)
        s, t = random_pair(rng, g.node_count)
        exact = R.exact_rd(g, s, t)
        for eps in (1e-2, 1e-4):
            k = R.lanczos_iteration_bound(kappa, eps)
            est, _ = R.lanczos_rd(g, s, t, k)
            assert abs(est.value - exact) <= eps


def test_iteration_bound_validates():
    with pytest.raises(ValueError):
        R.lanczos_iteration_bound(0.9, 1e-3)
    with pytest.raises(ValueError):
        R.lanczos_iteration_bound(2.0, 0.0)
    assert R.lanczos_iteration_bound(1.0, 0.5) >= 1


def test_basis_is_orthonormal():
    g = random_connected(25, 9)
    basis = []
    run_recurrence(
        g, definitional_start(g, 0, 5), 12,
        visit=lambda i, supp, v: basis.append(v.copy()),
    )
    V = np.array(basis).T
    gram = V.T @ V
    assert np.allclose(gram, np.eye(V.shape[1]), atol=1e-7)


def test_same_vertex_short_circuits(toy):
    est, run = R.lanczos_rd(toy, 1, 1, 10)
    assert est.value == 0.0
    assert run.k_effective == 0


def test_validates_k(toy):
    with pytest.raises(ValueError):
        R.lanczos_rd(toy, 0, 1, 0)


def test_work_accounting(toy):
    est, run = R.lanczos_rd(toy, 0, 1, 2)
    assert est.method == "lz"
    assert est.touched_edges == run.k_effective * 2 * toy.edge_count
    assert est.healthy


def test_indefinite_system_is_flagged_not_raised():
    # eigenvalues 1.1 and -0.1: the LDL^T pivots 0.5 and -0.22 clear the
    # singularity floor, so only the Sturm count at 1 can tell
    y, healthy = solve_checked(TridiagonalMatrix([0.5, 0.5], [0.6]))
    assert not healthy
    assert np.all(np.isfinite(y))
    _, healthy = solve_checked(TridiagonalMatrix([0.5, 0.5], [0.3]))
    assert healthy


# ---------------------------------------------------------------------------
# lanczos_potential
# ---------------------------------------------------------------------------


def test_potential_single_edge(edge):
    phi = R.lanczos_potential(edge, 0, 1, 1)
    assert phi[0] - phi[1] == pytest.approx(1.0, abs=1e-14)
    lap = dense_laplacian(edge)
    assert np.allclose(lap @ phi, [1.0, -1.0], atol=1e-12)


def test_potential_path3_unit_currents():
    g = path_graph(3)
    phi = R.lanczos_potential(g, 0, 2, g.node_count)
    assert phi[0] - phi[1] == pytest.approx(1.0, abs=1e-10)
    assert phi[1] - phi[2] == pytest.approx(1.0, abs=1e-10)


def test_potential_gap_equals_resistance(toy):
    phi = R.lanczos_potential(toy, 0, 3, toy.node_count)
    assert phi[0] - phi[3] == pytest.approx(1.0, abs=1e-10)


def test_potential_solves_laplacian_system():
    for seed in (4, 14):
        g = random_connected(30, seed)
        rng = np.random.default_rng(seed)
        s, t = random_pair(rng, g.node_count)
        phi = R.lanczos_potential(g, s, t, g.node_count)
        rhs = np.zeros(g.node_count)
        rhs[s], rhs[t] = 1.0, -1.0
        assert np.allclose(dense_laplacian(g) @ phi, rhs, atol=1e-8)
        # agree with the pseudoinverse solution up to an additive constant
        ref = pinv_potential(g, s, t)
        shifted = phi - phi.mean() + ref.mean()
        assert np.allclose(shifted, ref, atol=1e-8)


def test_potential_same_vertex_is_flat(toy):
    phi = R.lanczos_potential(toy, 2, 2, 5)
    assert np.allclose(phi, 0.0)
