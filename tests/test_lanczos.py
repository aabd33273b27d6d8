"""Tests for the Lanczos recurrence, the global Lanczos estimator and the
one-pass potential solver."""

import math
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

import resistor as R
import resistor.kernels as kernels_mod
import resistor.lanczos as lanczos_mod
from resistor.errors import SingularSystemError
from resistor.kernels import TridiagonalMatrix, _dot, _sturm_all_below, tridiag_solve_e1
from resistor.lanczos import definitional_start, run_recurrence, solve_checked
from resistor.spectral import _start_vector

from conftest import (
    bfs_hops,
    cut_lattice,
    dense_laplacian,
    dense_normalized_adjacency,
    dense_spectrum,
    path_graph,
    pinv_potential,
    random_connected,
    random_pair,
    random_weighted,
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
    bad = [(0.9, 1e-3), (2.0, 0.0), (math.inf, 1e-3), (10.0, math.inf),
           (math.nan, 1e-3), (10.0, math.nan)]
    for kappa, eps in bad:
        with pytest.raises(ValueError, match="need kappa >= 1 and eps > 0"):
            R.lanczos_iteration_bound(kappa, eps)
    # kappa / eps overflows float64 at finite arguments
    with pytest.raises(ValueError, match="iteration bound overflows"):
        R.lanczos_iteration_bound(10.0, 5e-324)
    assert R.lanczos_iteration_bound(1.0, 0.5) >= 1


def test_basis_is_orthonormal():
    g = random_connected(25, 9)
    basis = []
    run_recurrence(
        g, definitional_start(g, 0, 5), 12,
        visit=lambda i, supp, v, alphas, betas: basis.append(v.copy()),
    )
    V = np.array(basis).T
    gram = V.T @ V
    assert np.allclose(gram, np.eye(V.shape[1]), atol=1e-7)


def test_visit_can_stop_the_run():
    # stopping when v_{j+1} is formed gives exactly the k = j run
    g = random_connected(40, 12)
    for eps in (0.0, 1e-3):
        for j in (1, 5, 9):
            seen = []

            def stop(i, supp, v, alphas, betas):
                seen.append((len(alphas), len(betas)))
                return i == j + 1

            v1 = definitional_start(g, 0, 7)
            stopped = run_recurrence(g, v1, 20, eps, visit=stop)
            full = run_recurrence(g, v1, j, eps)
            assert seen == [(i - 1, i - 1) for i in range(1, j + 2)]
            for name in ("alphas", "betas", "first_row"):
                assert np.array_equal(getattr(stopped, name), getattr(full, name))
            assert stopped.breakdown == full.breakdown
            assert stopped.support_sizes == full.support_sizes
            assert stopped.touched_edges == full.touched_edges


def test_same_vertex_short_circuits(toy):
    est, run = R.lanczos_rd(toy, 1, 1, 10)
    assert est.value == 0.0
    assert run.k_effective == 0


def test_validates_k(toy):
    with pytest.raises(ValueError):
        R.lanczos_rd(toy, 0, 1, 0)


@pytest.mark.parametrize("k", [5.0, True, "5"])
def test_k_must_be_an_integer(toy, k):
    # neither a float nor a bool is an iteration count
    with pytest.raises(ValueError, match="k must be an integer"):
        R.lanczos_rd(toy, 0, 1, k)
    est, _ = R.lanczos_rd(toy, 0, 1, np.int64(2))
    assert est.iterations == 2


@pytest.mark.parametrize("vertex", [1.0, True])
@pytest.mark.parametrize(
    "query",
    [
        lambda g, s, t: R.lanczos_rd(g, s, t, 3),
        lambda g, s, t: R.lanczos_push_rd(g, s, t, R.PushConfig(k=3, epsilon=1e-3)),
        lambda g, s, t: R.lanczos_potential(g, s, t, 3),
    ],
    ids=["lz", "lzpush", "potential"],
)
def test_vertex_ids_must_be_integers(toy, query, vertex):
    # a float id once reached numpy as a stray IndexError, a bool as TypeError
    with pytest.raises(ValueError, match="^s must be an integer"):
        query(toy, vertex, 3)
    with pytest.raises(ValueError, match="^t must be an integer"):
        query(toy, 0, vertex)
    query(toy, np.int64(0), np.int32(3))


def test_work_accounting(toy):
    est, run = R.lanczos_rd(toy, 0, 1, 2)
    assert est.method == "lz"
    assert est.touched_edges == run.k_effective * 2 * toy.edge_count
    assert est.healthy


def test_indefinite_system_is_flagged_not_raised():
    # eigenvalues 1.1 and -0.1: the LDL^T pivots 0.5 and -0.22 clear the
    # singularity floor, so only the sign of the second pivot can tell
    y, healthy = solve_checked(TridiagonalMatrix([0.5, 0.5], [0.6]))
    assert not healthy
    assert np.all(np.isfinite(y))
    _, healthy = solve_checked(TridiagonalMatrix([0.5, 0.5], [0.3]))
    assert healthy


def test_healthy_agrees_with_sturm_count_at_one():
    # Sylvester's law of inertia: the LDL^T pivots of I - T have the signs
    # of its eigenvalues, so solve_checked's verdict is the Sturm count of
    # T at 1, on definite and indefinite I - T alike
    rng = np.random.default_rng(17)
    verdicts = []
    for _ in range(2000):
        k = int(rng.integers(1, 12))
        tmat = TridiagonalMatrix(rng.uniform(-1.2, 1.2, k), rng.uniform(-0.8, 0.8, k - 1))
        _, healthy = solve_checked(tmat)
        all_below = _sturm_all_below(tmat.alpha, [0.0, *tmat.beta**2], 1.0) <= 0.0
        assert healthy == all_below
        verdicts.append(healthy)
    assert 100 < sum(verdicts) < len(verdicts) - 100


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


def _two_pass_potential(g, s, t, k):
    # reference: keep the basis, solve (I - T) y = e_1, then V y
    basis = []
    run = run_recurrence(
        g, definitional_start(g, s, t), k,
        visit=lambda i, supp, v, alphas, betas: basis.append(v.copy()),
    )
    y = tridiag_solve_e1(TridiagonalMatrix(run.alphas, run.betas))
    scale = np.sqrt(1.0 / g.weighted_degrees[s] + 1.0 / g.weighted_degrees[t])
    return scale * g.inv_sqrt_degrees * (np.array(basis).T @ y)


def test_potential_matches_two_pass_reference():
    cases = []
    for seed in (3, 8, 21):
        g = random_connected(50, 300 + seed)
        cases.append((g, *random_pair(np.random.default_rng(seed), g.node_count), 15))
    path = path_graph(200)
    cases.append((path, 0, 199, 200))
    lattice = cut_lattice(20, 0.1, 7)
    s, t = random_pair(np.random.default_rng(4), lattice.node_count)
    cases.append((lattice, s, t, 200))
    for g, s, t, k in cases:
        ref = _two_pass_potential(g, s, t, k)
        phi = R.lanczos_potential(g, s, t, k)
        assert np.max(np.abs((phi - phi[t]) - (ref - ref[t]))) <= 1e-12 * np.max(
            np.abs(ref - ref[t])
        )
    # the path run ends on a breakdown (the Krylov space is exhausted)
    assert R.lanczos_rd(path, 0, 199, 200)[1].breakdown


def test_potential_makes_one_product_per_step(monkeypatch):
    calls = []
    real = lanczos_mod._adjacency_into

    def counted(g, v, out, scratch, gather, support=None):
        calls.append(1)
        return real(g, v, out, scratch, gather, support=support)

    # the path run breaks down after 100 of its 200 steps
    cases = [
        (cut_lattice(20, 0.1, 7), 3, 250, 40, 40),
        (path_graph(200), 0, 199, 200, 100),
    ]
    for g, s, t, k, k_effective in cases:
        assert R.lanczos_rd(g, s, t, k)[1].k_effective == k_effective
        calls.clear()
        monkeypatch.setattr(lanczos_mod, "_adjacency_into", counted)
        R.lanczos_potential(g, s, t, k)
        monkeypatch.setattr(lanczos_mod, "_adjacency_into", real)
        assert len(calls) == k_effective


def test_dense_step_makes_three_dots(monkeypatch):
    # alpha, the norm of w and the one u_1 projection of a full-support w:
    # no projection before alpha and no first-row dot at eps = 0
    g = cut_lattice(30, 0.1, 4)
    v1 = _start_vector(g, 1)
    assert len(v1.idx) == g.node_count
    calls = []
    real = lanczos_mod._dot

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(lanczos_mod, "_dot", counted)
    counts = []
    for k in (20, 30):
        calls.clear()
        assert run_recurrence(g, v1, k).k_effective == k
        counts.append(len(calls))
    assert counts[1] - counts[0] == 30


def test_dense_run_stays_orthogonal_to_u1():
    # one projection a step, after the subtractions, keeps u_1 out of
    # every iterate of a long run
    g = cut_lattice(30, 0.1, 9)
    u1 = g.sqrt_degrees / np.sqrt(g.sqrt_degrees @ g.sqrt_degrees)
    leak = []

    def visit(i, supp, v, alphas, betas):
        leak.append(abs(u1 @ v))

    run = run_recurrence(g, definitional_start(g, 0, g.node_count - 1), 1200, visit=visit)
    assert run.k_effective == 1200
    assert max(leak) <= 1e-14


def test_estimate_is_one_formula_on_the_first_row():
    g = cut_lattice(20, 0.1, 7)
    s, t = 3, 250
    scale_sq = 1.0 / g.weighted_degrees[s] + 1.0 / g.weighted_degrees[t]
    _, dense = R.lanczos_rd(g, s, t, 40)
    assert not np.any(dense.first_row[1:])
    _, _, pruned = R.lanczos_push_rd(g, s, t, R.PushConfig(k=40, epsilon=1e-3))
    assert np.any(pruned.first_row[1:])
    for run in (dense, pruned):
        y, _ = solve_checked(run.t)
        assert run.estimate == scale_sq * _dot(run.first_row, y)


@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: R.generate_er(3000, 15000, 2),
        lambda: cut_lattice(60, 0.1, 3),
        # 2m = 50k: the first products run through the support
        lambda: R.generate_er(5000, 25_000, 3),
    ],
    ids=["er3000", "lattice60", "er5000"],
)
def test_dense_step_allocates_no_vector(make_graph):
    # a dense step works in its run's workspace: within a step it allocates
    # and frees the bool mask of its support (n bytes) and small objects,
    # never an n-length float vector (8n bytes).  The far pair keeps the
    # support partial for the first steps, which take the masked projection.
    g = make_graph()
    n = g.node_count
    R.apply_normalized_adjacency(g, np.ones(n))  # builds the cached layout
    transient = []

    def visit(i, supp, v, alphas, betas):
        current, peak = tracemalloc.get_traced_memory()
        transient.append(peak - current)
        tracemalloc.reset_peak()

    # the definitional start and the dense one of the spectrum estimator
    for v1 in (definitional_start(g, 0, n - 1), _start_vector(g, 0)):
        transient.clear()
        tracemalloc.start()
        try:
            run = run_recurrence(g, v1, 30, visit=visit)
        finally:
            tracemalloc.stop()
        assert run.k_effective == 30
        # the first entry covers the set-up before step 1
        assert max(transient[1:]) < 4 * n


def _frozen_project_u1(w, sqrt_d, u1_norm_sq, scratch):
    nonzero = w != 0.0
    size = int(np.count_nonzero(nonzero))
    if size == len(w):
        sd, norm_sq = sqrt_d, u1_norm_sq
    else:
        np.copyto(scratch, nonzero)
        sd = np.multiply(scratch, sqrt_d, out=scratch)
        norm_sq = _dot(sd, sd)
    if size:
        np.subtract(w, np.multiply(sd, _dot(sd, w) / norm_sq, out=scratch), out=w)
    return size


class _JaggedDenseIterates:
    """A frozen copy of the dense iterates whose every product is the
    jagged one: the reference that products through a support must match
    to the bit."""

    pruned = False

    def __init__(self, g, v1, deflate):
        n = g.node_count
        self.g, self.deflate = g, deflate
        self.u1_norm_sq = _dot(g.sqrt_degrees, g.sqrt_degrees) if deflate else None
        self.scratch, self.gather = np.empty(n), np.empty(len(g.neighbors))
        self.spare, self.val_prev, self.val = np.zeros(n), np.zeros(n), np.zeros(n)
        self.val[v1.idx] = v1.val
        self.supp, self.size = slice(None), len(v1.idx)

    def overlap(self, v1):
        return 0.0

    def step(self, run, beta, s_cur):
        g, v, w, scratch = self.g, self.val, self.spare, self.scratch
        run.subset_sizes.append(self.size)
        kernels_mod._adjacency_into(g, v, w, scratch, self.gather)
        run.edges_relaxed.append(2 * g.edge_count)
        if beta != 0.0:
            np.subtract(w, np.multiply(self.val_prev, beta, out=scratch), out=w)
            run.extra_ops += run.subset_sizes[-2]
        alpha = _dot(w, v)
        np.subtract(w, np.multiply(v, alpha, out=scratch), out=w)
        run.extra_ops += run.support_sizes[-1] + run.subset_sizes[-1]
        if self.deflate:
            self.size_w = _frozen_project_u1(w, g.sqrt_degrees, self.u1_norm_sq, scratch)
            run.extra_ops += self.size_w
        else:
            self.size_w = int(np.count_nonzero(w))
        return alpha, math.sqrt(_dot(w, w))

    def advance(self, beta_next):
        w = self.spare
        w /= beta_next
        self.spare, self.val_prev, self.val = self.val_prev, self.val, w
        self.size = self.size_w

    def release(self):
        pass


def _far_pair(g, s=0):
    return s, int(np.argmax(bfs_hops(g, s)))


@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: R.generate_er(5000, 25_000, 3),
        lambda: R.generate_ba(5000, 5, 3),
        lambda: random_weighted(3000, 5),
        lambda: cut_lattice(100, 0.1, 6),
    ],
    ids=["er5000", "ba5000", "weighted3000", "lattice100"],
)
def test_products_through_a_support_leave_every_output_unchanged(monkeypatch, make_graph):
    # a far pair: the first products run through the support, the later
    # ones, once its arcs are no small share of 2m, are jagged
    g = make_graph()
    s, t = _far_pair(g)
    k = 40
    real = lanczos_mod._adjacency_into
    supports = []

    def recorded(g, v, out, scratch, gather, support=None):
        supports.append(support is not None)
        return real(g, v, out, scratch, gather, support=support)

    def outputs():
        est, run = R.lanczos_rd(g, s, t, k)
        fields = [run.alphas, run.betas, run.first_row, run.estimate, run.touched_edges,
                  run.edges_relaxed, run.support_sizes, run.subset_sizes, run.extra_ops,
                  run.peak_support, run.breakdown, run.pruned, est.value, est.healthy,
                  est.touched_edges, est.iterations]
        return [np.asarray(x).tobytes() for x in fields] + [
            R.lanczos_potential(g, s, t, k).tobytes()
        ]

    monkeypatch.setattr(lanczos_mod, "_adjacency_into", recorded)
    got = outputs()
    steps = supports[:k]
    assert steps[0] and not steps[-1]
    assert steps == sorted(steps, reverse=True)  # switched once, for good
    monkeypatch.setattr(lanczos_mod, "_DenseIterates", _JaggedDenseIterates)
    assert got == outputs()


def test_full_support_start_never_passes_a_support(monkeypatch):
    g = R.generate_er(5000, 25_000, 3)
    assert len(_start_vector(g, 0).idx) == g.node_count
    real = lanczos_mod._adjacency_into
    supports = []

    def recorded(g, v, out, scratch, gather, support=None):
        supports.append(support)
        return real(g, v, out, scratch, gather, support=support)

    monkeypatch.setattr(lanczos_mod, "_adjacency_into", recorded)
    spec = R.estimate_spectrum(g)
    assert len(supports) == spec.iterations
    assert all(support is None for support in supports)
    # a two-vertex start on the same graph does pass one
    supports.clear()
    R.lanczos_rd(g, *_far_pair(g), 5)
    assert supports[0] is not None


def test_potential_raises_on_the_pivot_floor(monkeypatch, toy):
    # A~ = c I makes alpha_1 = c and the first pivot 1 - c; the floor is
    # the one tridiag_solve_e1 applies
    for c, singular in ((1.0 - 1e-15, True), (1.0 - 1e-13, False)):

        def scaled(g, v, out, scratch, gather, support=None, c=c):
            return np.multiply(v, c, out=out)

        monkeypatch.setattr(lanczos_mod, "_adjacency_into", scaled)
        with pytest.raises(SingularSystemError) if singular else nullcontext():
            phi = R.lanczos_potential(toy, 0, 3, 3)
            assert np.all(np.isfinite(phi))
        run = run_recurrence(toy, definitional_start(toy, 0, 3), 3)
        with pytest.raises(SingularSystemError) if singular else nullcontext():
            tridiag_solve_e1(TridiagonalMatrix(run.alphas, run.betas))


def test_potential_same_vertex_is_flat(toy):
    phi = R.lanczos_potential(toy, 2, 2, 5)
    assert np.allclose(phi, 0.0)


def _numpy_lanczos(a, v, k):
    """Plain Lanczos on the dense matrix ``a`` from the unit vector ``v``:
    alphas and betas, stopping on the recurrence's breakdown rule."""
    alphas, betas = [], []
    v_prev, beta = np.zeros_like(v), 0.0
    for i in range(k):
        w = a @ v - beta * v_prev
        alphas.append(w @ v)
        w = w - alphas[-1] * v
        if i == k - 1:
            break
        beta = np.linalg.norm(w)
        if beta < lanczos_mod.BREAKDOWN_TOL:
            break
        betas.append(beta)
        v_prev, v = v, w / beta
    return np.array(alphas), np.array(betas)


def test_undeflated_dense_run_matches_numpy_lanczos(toy):
    # a start with a u_1 component runs without projections: plain
    # Lanczos on A, eigenvalue 1 included.  The start is symmetric in the
    # two triangle vertices, so its Krylov space has dimension 3 and both
    # runs break down after step 3
    v = np.array([0.5, 0.3, 0.3, -0.2])
    v /= np.linalg.norm(v)
    v1 = R.SparseVector.from_dense(v)
    assert not lanczos_mod._orthogonal_to_u1(toy.sqrt_degrees, v1)
    a = dense_normalized_adjacency(toy)
    for k in range(1, 6):
        run = run_recurrence(toy, v1, k)
        alphas, betas = _numpy_lanczos(a, v, k)
        assert run.k_effective == len(alphas) == min(k, 3)
        assert np.allclose(run.alphas, alphas, rtol=0.0, atol=1e-12)
        assert np.allclose(run.betas, betas, rtol=0.0, atol=1e-12)


def test_potential_validates_k(toy):
    with pytest.raises(ValueError):
        R.lanczos_potential(toy, 0, 3, 0)


@pytest.mark.parametrize("k", [5.0, True])
def test_potential_k_must_be_an_integer(toy, k):
    with pytest.raises(ValueError, match="k must be an integer"):
        R.lanczos_potential(toy, 0, 3, k)
    assert np.array_equal(
        R.lanczos_potential(toy, 0, 3, np.int32(3)), R.lanczos_potential(toy, 0, 3, 3)
    )
