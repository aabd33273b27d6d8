"""Tests for the Lanczos spectral estimator: the extreme eigenvalues
lambda_2(A) and lambda_min(A) and kappa against closed forms and a dense
eigendecomposition, and against T read off a fresh recurrence, and its
convergence flag, validation and seeding."""

import numpy as np
import pytest

import resistor as R
import resistor.kernels as kernels_mod
from resistor.kernels import TridiagonalMatrix, tridiag_eigen_range
from resistor.lanczos import run_recurrence
from resistor.spectral import _start_vector

from conftest import (
    complete_graph,
    cut_lattice,
    dense_spectrum,
    path_graph,
    random_connected,
)


def test_complete_graph_k4():
    est = R.estimate_spectrum(complete_graph(4))
    assert est.converged
    # A = (J - I) / 3 on K4: lambda_2 = -1/3, so kappa = 2 / (4/3) = 1.5
    assert est.lambda2_a == pytest.approx(-1 / 3, abs=1e-6)
    assert est.kappa == pytest.approx(1.5, abs=1e-6)


def test_path3_extremes():
    est = R.estimate_spectrum(path_graph(3))
    assert est.converged
    assert est.lambda2_a == pytest.approx(0.0, abs=1e-6)
    assert est.lambda_min_a == pytest.approx(-1.0, abs=1e-6)
    assert est.kappa == pytest.approx(2.0, abs=1e-6)
    assert est.mu2 == pytest.approx(1.0, abs=1e-6)


def test_single_edge_degenerate_spectrum(edge):
    # A has eigenvalues {1, -1}; the deflated phase sees only -1
    est = R.estimate_spectrum(edge)
    assert est.converged
    assert est.lambda2_a == pytest.approx(-1.0, abs=1e-9)
    assert est.kappa == pytest.approx(1.0, abs=1e-9)


def test_matches_dense_oracle_on_random_graphs():
    graphs = [random_connected(12 + 3 * seed, 400 + seed) for seed in range(10)]
    # small spectral gaps: kappa ~ 1.6e4 on the path
    graphs += [path_graph(200), cut_lattice(20, 0.1, 7)]
    for g in graphs:
        lam2, lam_min, kappa = dense_spectrum(g)
        est = R.estimate_spectrum(g, tol=1e-12)
        assert est.converged
        assert est.lambda2_a == pytest.approx(lam2, abs=1e-5)
        assert est.lambda_min_a == pytest.approx(lam_min, abs=1e-5)
        assert est.kappa == pytest.approx(kappa, rel=1e-6)


def test_extremes_are_those_of_the_final_t():
    # the run stops at a checkpoint, on a breakdown or at max_iter; its
    # extremes are, bit for bit, those of T from a fresh run of that length
    cases = [
        (random_connected(30, 401), 1e-9, 200_000),
        (complete_graph(4), 1e-9, 200_000),
        (path_graph(200), 1e-12, 200_000),
        (cut_lattice(20, 0.1, 7), 1e-9, 200_000),
        (random_connected(40, 2), 1e-15, 40),  # stops at max_iter
    ]
    for g, tol, max_iter in cases:
        est = R.estimate_spectrum(g, tol=tol, max_iter=max_iter, seed=3)
        run = run_recurrence(g, _start_vector(g, 3), est.iterations)
        assert len(run.alphas) == est.iterations
        tmat = TridiagonalMatrix(run.alphas, run.betas)
        lam_min, lam2 = tridiag_eigen_range(tmat, tol=tol / 10)
        assert (est.lambda_min_a, est.lambda2_a) == (lam_min, lam2)
        assert est.kappa == 2.0 / (1.0 - lam2)


def _checkpoints(limit: int):
    """The checkpoint orders up to ``limit``: 16, then the larger of the
    last plus 8 and 5/4 of it."""
    k = 16
    while k <= limit:
        yield k
        k = max(k + 8, k * 5 // 4)


@pytest.mark.parametrize(
    "make", [lambda: cut_lattice(30, 0.1, 1), lambda: path_graph(200),
             lambda: random_connected(200, 9)],
    ids=["lattice30", "path200", "er200"],
)
def test_stops_at_the_first_checkpoint_whose_extremes_settled(make):
    # replay the run and bisect every checkpoint's leading block of T: the
    # run stops at the first one whose extremes moved less than tol since
    # the checkpoint before it
    g, tol, seed = make(), 1e-9, 0
    est = R.estimate_spectrum(g, tol=tol, seed=seed)
    assert est.converged
    run = run_recurrence(g, _start_vector(g, seed), est.iterations)
    previous, settled_at = None, None
    for k in _checkpoints(est.iterations):
        tmat = TridiagonalMatrix(run.alphas[:k], run.betas[: k - 1])
        extremes = tridiag_eigen_range(tmat, tol=tol / 10)
        if previous is not None:
            move = max(abs(a - b) for a, b in zip(extremes, previous))
            if move < tol:
                settled_at = k
                break
        previous = extremes
    assert settled_at == est.iterations
    assert est.residual == move
    assert (est.lambda_min_a, est.lambda2_a) == extremes


def _count_pivot_rows(monkeypatch) -> list:
    """Count the pivot rows the Sturm loops evaluate, in the list's one
    entry, by handing them their diagonal entries through a counter."""
    rows = [0]

    def counted(sturm):
        def run(alpha, beta_sq, x, d=1.0):
            def each():
                for a in alpha:
                    rows[0] += 1
                    yield a

            return sturm(each(), beta_sq, x, d)

        return run

    for name in ("_sturm_some_below", "_sturm_all_below"):
        monkeypatch.setattr(kernels_mod, name, counted(getattr(kernels_mod, name)))
    return rows


def test_checkpoints_resume_their_bisections(monkeypatch):
    # each checkpoint bisects from the record of the one before: over the
    # run, at most 0.6 of the pivot rows of bisecting every checkpoint's
    # T from row 0
    g, tol, seed = cut_lattice(30, 0.1, 1), 1e-9, 0
    rows = _count_pivot_rows(monkeypatch)
    est = R.estimate_spectrum(g, tol=tol, seed=seed)
    assert est.converged
    resumed, rows[0] = rows[0], 0
    run = run_recurrence(g, _start_vector(g, seed), est.iterations)
    for k in _checkpoints(est.iterations):
        tmat = TridiagonalMatrix(run.alphas[:k], run.betas[: k - 1])
        tridiag_eigen_range(tmat, tol=tol / 10)
    cold = rows[0]
    assert 0 < resumed <= 0.6 * cold


def test_lattice_stops_well_before_the_next_power_of_two():
    # checkpoints at powers of two stopped this run at 512
    est = R.estimate_spectrum(cut_lattice(30, 0.1, 1))
    assert est.converged
    assert est.iterations <= 256


def test_kappa_never_below_one():
    for seed in (3, 5, 9):
        g = random_connected(20, seed)
        est = R.estimate_spectrum(g)
        assert est.kappa >= 1.0 - 1e-12
        assert -1.0 - 1e-9 <= est.lambda_min_a <= est.lambda2_a + 1e-9 < 1.0


def test_unconverged_is_flagged_not_raised():
    g = random_connected(40, 2)
    est = R.estimate_spectrum(g, tol=1e-15, max_iter=2)
    assert not est.converged
    assert est.iterations <= 4
    assert np.isfinite(est.kappa)


def test_parameter_validation(toy):
    with pytest.raises(ValueError):
        R.estimate_spectrum(toy, tol=0.0)
    with pytest.raises(ValueError):
        R.estimate_spectrum(toy, max_iter=0)


@pytest.mark.parametrize("max_iter", [100.0, True, "100"])
def test_max_iter_must_be_an_integer(toy, max_iter):
    # neither a float nor a bool is a step count
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        R.estimate_spectrum(toy, max_iter=max_iter)
    a = R.estimate_spectrum(toy, max_iter=np.int64(100))
    b = R.estimate_spectrum(toy, max_iter=100)
    assert (a.kappa, a.iterations) == (b.kappa, b.iterations)


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1e-9])
def test_non_finite_tol_raises(toy, tol):
    # inf ran every step to max_iter and returned kappa = nan; nan returned
    # nan flagged unconverged
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        R.estimate_spectrum(toy, tol=tol)


def test_deterministic_for_fixed_seed(toy):
    a = R.estimate_spectrum(toy, seed=5)
    b = R.estimate_spectrum(toy, seed=5)
    assert a.lambda2_a == b.lambda2_a
    assert a.iterations == b.iterations
