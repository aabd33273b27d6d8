"""Tests for the pruned local recurrence and its diagnostics."""

import math

import numpy as np
import pytest

import resistor as R
import resistor.lanczos as lanczos_mod
import resistor.push as push_mod
from resistor.kernels import (
    SparseVector,
    TridiagonalMatrix,
    _sturm_all_below,
    apply_normalized_adjacency,
    relax_arcs,
)
from resistor.lanczos import definitional_start, run_recurrence, solve_checked

from conftest import (
    bfs_hops,
    dense_normalized_adjacency,
    dense_weight_matrix,
    dense_spectrum,
    dense_transition,
    grid_graph,
    random_connected,
    random_pair,
    random_weighted,
    toy_graph,
)

SQ3 = math.sqrt(3.0)


def _paper_sign_start():
    # hand-normalized start vector on the toy graph, positive at both ends
    return {0: 0.5, 3: SQ3 / 2}


# ---------------------------------------------------------------------------
# the pruning rule: relax_arcs (the approximate matrix-vector product) and
# the S_i restriction of the pruned step
# ---------------------------------------------------------------------------


def _relax(g, v, eps):
    # the accumulator relax_arcs sums v's pruned product into, and its flag
    acc = np.zeros(g.node_count)
    _, skipped = relax_arcs(g, v.idx, v.val, np.abs(v.val), eps * g.sqrt_degrees[v.idx], acc)
    return acc, skipped


def test_amv_prunes_light_arcs(toy):
    v = SparseVector.from_mapping(_paper_sign_start(), 4)
    acc, skipped = _relax(toy, v, 0.25)
    # arcs from 0 into the triangle fall below 0.25 * sqrt(3 * 2) and drop;
    # both arcs on the pendant edge survive
    assert acc == pytest.approx([0.5, 0.0, 0.0, 1 / (2 * SQ3)], abs=1e-15)
    assert skipped


def test_amv_zero_eps_is_exact():
    g = random_connected(30, 21)
    rng = np.random.default_rng(2)
    dense_v = rng.standard_normal(g.node_count)
    dense_v[rng.random(g.node_count) < 0.5] = 0.0
    acc, skipped = _relax(g, SparseVector.from_dense(dense_v), 0.0)
    want = dense_normalized_adjacency(g) @ dense_v
    assert np.allclose(acc, want, atol=1e-12)
    assert not skipped


def test_amv_matches_dense_pruning_rule():
    # the hub-heavy BA graph covers sources that relax only some arcs,
    # sources that relax none (eps = 1e-2) and an empty output (eps = 1)
    cases = [
        (random_connected(40, 23), (1e-3, 3e-3, 1e-2)),
        (R.generate_ba(300, 3, 11), (1e-3, 1e-2, 1.0)),
    ]
    rng = np.random.default_rng(7)
    idle_source_seen = empty_seen = False
    for g, eps_values in cases:
        w = dense_weight_matrix(g)
        d = w.sum(axis=1)
        dense_v = rng.standard_normal(g.node_count) * 0.05
        dense_v[rng.random(g.node_count) < 0.3] = 0.0
        for eps in eps_values:
            keep = np.abs(dense_v)[:, None] > eps * np.sqrt(np.outer(d, d))
            pruned = np.where(keep, w, 0.0) / np.sqrt(np.outer(d, d))
            want = pruned.T @ dense_v
            acc, skipped = _relax(g, SparseVector.from_dense(dense_v), eps)
            assert np.allclose(acc, want, atol=1e-15)
            dropped = ~keep & (w > 0)
            assert skipped == bool(dropped[dense_v != 0.0].any())
            relaxes = (keep & (w > 0)).any(axis=1)[dense_v != 0.0]
            idle_source_seen |= bool(relaxes.any() and not relaxes.all())
            empty_seen |= not acc.any() and not want.any()
    assert idle_source_seen and empty_seen


def test_amv_large_eps_drops_everything(toy):
    v = SparseVector.from_mapping(_paper_sign_start(), 4)
    acc, skipped = _relax(toy, v, 10.0)
    assert not acc.any() and skipped


def test_restrict_thresholds_by_degree(toy):
    v = _paper_sign_start()
    # |v(0)| = 0.5 <= 0.25 * d_0 = 0.75 drops; |v(3)| = 0.866 > 0.25 stays
    assert R.subset_recurrence_trace(toy, 0, 3, 1, 0.25, v1=v).subset_sizes == [1]
    assert R.subset_recurrence_trace(toy, 0, 3, 1, 0.0, v1=v).subset_sizes == [2]


# ---------------------------------------------------------------------------
# lanczos_push_rd
# ---------------------------------------------------------------------------


def test_zero_eps_reproduces_global_lanczos(toy):
    est, tmat, _ = R.lanczos_push_rd(toy, 0, 3, R.PushConfig(k=4, epsilon=0.0))
    ref, run = R.lanczos_rd(toy, 0, 3, 4)
    assert est.value == pytest.approx(ref.value, abs=1e-12)
    assert tmat.alpha == pytest.approx(run.t.alpha, abs=1e-12)
    assert tmat.beta == pytest.approx(run.t.beta, abs=1e-12)
    assert est.iterations == run.k_effective


def test_zero_eps_matches_on_random_graphs():
    for seed in (1, 4):
        g = random_connected(40, 80 + seed)
        rng = np.random.default_rng(seed)
        s, t = random_pair(rng, g.node_count)
        est, tmat, _ = R.lanczos_push_rd(g, s, t, R.PushConfig(k=12, epsilon=0.0))
        ref, run = R.lanczos_rd(g, s, t, 12)
        assert est.value == pytest.approx(ref.value, abs=1e-12)
        assert tmat.alpha == pytest.approx(run.t.alpha, abs=1e-12)


def test_small_eps_stays_accurate():
    g = random_connected(200, 33)
    _, _, kappa = dense_spectrum(g)
    s, t = 0, g.node_count - 1
    exact = R.exact_rd(g, s, t)
    k = R.lanczos_iteration_bound(kappa, 1e-4)
    est, _, _ = R.lanczos_push_rd(g, s, t, R.PushConfig(k=k, epsilon=1e-4))
    assert est.value == pytest.approx(exact, abs=5e-3)


def test_pruning_reduces_edge_work():
    g = random_connected(200, 33)
    s, t = 0, g.node_count - 1
    counts = []
    for eps in (0.0, 1e-4, 1e-2):
        _, _, stats = R.lanczos_push_rd(g, s, t, R.PushConfig(k=8, epsilon=eps))
        counts.append(stats.touched_edges)
    assert counts[0] >= counts[1] >= counts[2]
    assert counts[2] < counts[0]


def test_breakdown_on_exhausted_space(edge):
    est, tmat, _ = R.lanczos_push_rd(edge, 0, 1, R.PushConfig(k=5, epsilon=0.0))
    assert est.iterations == 1
    assert est.value == pytest.approx(1.0, abs=1e-14)
    assert tmat.alpha == pytest.approx([-1.0], abs=1e-14)


def test_same_vertex_short_circuits(toy):
    est, tmat, stats = R.lanczos_push_rd(toy, 2, 2, R.PushConfig(k=3, epsilon=0.1))
    assert est.value == 0.0
    assert list(tmat.alpha) == [0.0]
    assert stats.touched_edges == 0


def test_every_entry_point_returns_one_run_record():
    g = R.generate_er(200, 600, 1)
    est_lz, run_lz = R.lanczos_rd(g, 0, 9, 10)
    est_push, tmat, run_push = R.lanczos_push_rd(g, 0, 9, R.PushConfig(k=10, epsilon=1e-3))
    trace = R.subset_recurrence_trace(g, 0, 9, 10, 1e-3)
    for run in (run_lz, run_push, trace):
        assert isinstance(run, R.LanczosRun)
    assert tmat is run_push.t
    assert run_lz.touched_edges == est_lz.touched_edges
    assert est_lz.touched_edges == run_lz.k_effective * 2 * g.edge_count
    assert run_lz.estimate == est_lz.value
    # the trace is the push run with its basis kept
    assert trace.estimate == run_push.estimate == est_push.value
    assert np.array_equal(trace.alphas, run_push.alphas)
    assert len(trace.vectors) == trace.k_effective


def test_config_validation():
    with pytest.raises(ValueError):
        R.PushConfig(k=0, epsilon=0.1)
    with pytest.raises(ValueError):
        R.PushConfig(k=3, epsilon=-1.0)


@pytest.mark.parametrize("k", [5.0, True])
def test_config_k_must_be_an_integer(k):
    # checked when the config is made, not when a run first reads k
    with pytest.raises(ValueError, match="k must be an integer"):
        R.PushConfig(k=k, epsilon=1e-3)
    assert R.PushConfig(k=np.int64(5), epsilon=1e-3).k == 5


@pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-3])
def test_eps_must_be_finite_and_nonnegative(toy, eps):
    calls = (
        lambda: R.PushConfig(k=3, epsilon=eps),
        lambda: R.subset_recurrence_trace(toy, 0, 3, 2, eps),
    )
    for call in calls:
        with pytest.raises(ValueError, match="finite and >= 0"):
            call()


_STATS = ("c2_terms", "delta_degree_ratios")


def _counters(run, skip=()):
    # every work counter of a run, for bit-for-bit comparison
    names = ("subset_sizes", "support_sizes", "edges_relaxed", *_STATS,
             "touched_edges", "extra_ops", "peak_support")
    return [getattr(run, name) for name in names if name not in skip]


@pytest.mark.parametrize("eps", [5e-3, 1e-3])
@pytest.mark.parametrize(
    "make_graph",
    [lambda: R.generate_ba(2000, 5, 11), lambda: random_weighted(300, 5)],
    ids=["ba2000", "weighted300"],
)
def test_pruned_step_matches_numpy_unique(monkeypatch, make_graph, eps):
    # the support union and the significant-set override of every pruned
    # step go through _sorted_unique; with numpy's own unique in its place
    # the run must be bit for bit the same
    g = make_graph()
    rng = np.random.default_rng(23)
    helper = lanczos_mod._sorted_unique
    calls = []

    def reference(a):
        calls.append(len(a))
        return np.unique(a)

    for _ in range(3):
        s, t = random_pair(rng, g.node_count)
        # unsorted, with repeats, and partly off the support
        overrides = {2: [t, s, t, int(g.neighbors[g.offsets[s]]), s]}
        runs = []
        for unique in (helper, reference):
            monkeypatch.setattr(lanczos_mod, "_sorted_unique", unique)
            runs.append(
                run_recurrence(g, definitional_start(g, s, t), 20, eps, s_overrides=overrides)
            )
        r0, r1 = runs
        assert np.array_equal(r0.alphas, r1.alphas)
        assert np.array_equal(r0.betas, r1.betas)
        assert np.array_equal(r0.first_row, r1.first_row)
        assert r0.breakdown == r1.breakdown
        assert _counters(r0) == _counters(r1)
        assert r0.touched_edges > 0
    assert calls


# ---------------------------------------------------------------------------
# trace and replay
# ---------------------------------------------------------------------------


def test_trace_vectors_stay_normalized():
    g = random_connected(50, 17)
    trace = R.subset_recurrence_trace(g, 0, 1, 10, 1e-3)
    for vec in trace.vectors:
        norm = math.sqrt(sum(x * x for x in vec.val))
        assert norm == pytest.approx(1.0, abs=1e-12)


def test_trace_same_vertex_short_circuits():
    # the trace shares the s == t answer of lanczos_push_rd: 0, at no work
    g = R.generate_er(200, 600, 1)
    trace = R.subset_recurrence_trace(g, 5, 5, 10, 1e-3)
    est, _, _ = R.lanczos_push_rd(g, 5, 5, R.PushConfig(k=10, epsilon=1e-3))
    assert trace.estimate == est.value == 0.0
    assert trace.k_effective == 0
    assert trace.touched_edges == 0
    assert trace.vectors == []


def test_trace_support_respects_hop_balls():
    g = random_connected(60, 29)
    s, t = 0, g.node_count - 1
    hops_s = bfs_hops(g, s)
    hops_t = bfs_hops(g, t)
    trace = R.subset_recurrence_trace(g, s, t, 6, 0.0)
    for i, vec in enumerate(trace.vectors):
        for u in vec.idx:
            assert min(hops_s[u], hops_t[u]) <= i


def test_replay_from_recorded_state(toy):
    # replaying a recorded start vector with a pinned first significant set
    # must reproduce the recorded coefficients exactly
    trace = R.subset_recurrence_trace(
        toy, 0, 3, 2, 0.25, v1=_paper_sign_start(), s_overrides={1: [0, 3]}
    )
    assert trace.alphas == pytest.approx([0.5, -0.5], abs=1e-12)
    assert trace.betas == pytest.approx([1 / (2 * SQ3)], abs=1e-12)
    assert trace.vectors[1].idx.tolist() == [0, 3]
    assert trace.vectors[1].val == pytest.approx([SQ3 / 2, -0.5], abs=1e-12)
    assert trace.estimate == pytest.approx(3.0, abs=1e-12)
    assert trace.k_effective == 2


def test_pruned_recurrence_keeps_u1_out():
    # the pruned matvec and the S_i-restricted subtractions put mass on the
    # trivial eigenvector u_1 ~ D^{1/2} 1; left in, it gives T a Ritz value
    # at 1 (1.0002 here, against lambda_2 = 0.7351)
    g = R.generate_er(300, 900, 101)
    s, t = random_pair(np.random.default_rng(800), g.node_count)
    lam2, _, _ = dense_spectrum(g)
    _, tmat, _ = R.lanczos_push_rd(g, s, t, R.PushConfig(k=25, epsilon=1e-3))
    _, hi = R.tridiag_eigen_range(tmat)
    assert hi <= lam2 + 1e-3
    sqrt_d = np.sqrt(g.weighted_degrees)
    trace = R.subset_recurrence_trace(g, s, t, 25, 1e-3)
    for vec in trace.vectors:
        leak = float(sqrt_d[vec.idx] @ vec.val)
        assert abs(leak) <= 1e-12 * math.sqrt(g.weighted_degrees.sum())


def test_trace_validates_arguments(toy):
    with pytest.raises(ValueError):
        R.subset_recurrence_trace(toy, 0, 3, 0, 0.1)
    with pytest.raises(ValueError):
        R.subset_recurrence_trace(toy, 0, 3, 2, -0.5)


def _ba300_start(idx, dim=300):
    return SparseVector(np.array(idx), np.full(len(idx), 0.5), dim)


@pytest.mark.parametrize(
    "replay, error, message",
    [
        ({"v1": _ba300_start([-2, 5])}, IndexError, "vertex -2 out of range"),
        ({"v1": {-1: 0.5, 5: 0.5}}, IndexError, "vertex -1 out of range"),
        ({"s_overrides": {6: [-1]}}, IndexError, "vertex -1 out of range"),
        ({"s_overrides": {3: [5, 305]}}, IndexError, "vertex 305 out of range"),
        ({"v1": _ba300_start([2, 5], dim=10)}, ValueError, "dimension 10"),
        ({"v1": _ba300_start([7, 5])}, ValueError, "strictly ascending"),
        ({"v1": _ba300_start([5, 5])}, ValueError, "strictly ascending"),
        ({"v1": {}}, ValueError, "nonzero norm"),
        ({"v1": {0: math.inf, 5: -1.0}}, ValueError, "finite, nonzero norm"),
        ({"v1": {0: 1e200, 5: -1e200}}, ValueError, "finite, nonzero norm"),
        ({"v1": {0: math.nan, 5: 1.0}}, ValueError, "finite, nonzero norm"),
    ],
    ids=[
        "v1-negative-id", "v1-mapping-negative-id", "override-negative-id",
        "override-id-past-n", "v1-wrong-dim", "v1-unsorted", "v1-repeat",
        "v1-empty", "v1-inf", "v1-norm-overflow", "v1-nan",
    ],
)
def test_trace_rejects_replay_inputs_outside_the_graph(replay, error, message):
    # each of these ran to a number (or wrapped to vertex n - 1, died in
    # numpy, or was refused for the wrong reason) before the replay inputs
    # were checked
    g = R.generate_ba(300, 3, 1)
    with pytest.raises(error, match=message):
        R.subset_recurrence_trace(g, 5, 200, 10, 1e-3, **replay)


@pytest.mark.parametrize("key", [0, "2", 11, 2.0, True], ids=repr)
def test_override_keys_must_name_an_iteration(key):
    # 0, '2' and 11 were ignored without a word; 2.0 and True were taken
    # as iterations 2 and 1
    g = R.generate_ba(300, 3, 1)
    with pytest.raises(ValueError, match=f"override key {key!r} is not an iteration in 1..10"):
        R.subset_recurrence_trace(g, 5, 200, 10, 1e-3, s_overrides={key: [5]})
    with pytest.raises(ValueError, match="override key"):
        run_recurrence(g, definitional_start(g, 5, 200), 10, 1e-3, s_overrides={key: [5]})


def test_valid_override_key_changes_the_run():
    g = R.generate_ba(300, 3, 1)
    plain = R.subset_recurrence_trace(g, 5, 200, 10, 1e-3)
    for key in (2, np.int64(2)):
        replay = R.subset_recurrence_trace(g, 5, 200, 10, 1e-3, s_overrides={key: [5]})
        assert replay.estimate != plain.estimate
        assert replay.subset_sizes[1] == 1 != plain.subset_sizes[1]


def _count_dense_products(monkeypatch) -> list:
    # every dense product the recurrence or the push hooks make: the
    # recurrence calls the workspace product, the hooks the public one
    calls = []
    into = lanczos_mod._adjacency_into

    def counted(g, v):
        calls.append(len(v))
        return apply_normalized_adjacency(g, v)

    def counted_into(g, v, out, scratch, gather, support=None):
        calls.append(len(v))
        return into(g, v, out, scratch, gather, support=support)

    for module in (lanczos_mod, push_mod):
        # patched even where a module imports no product of its own
        monkeypatch.setattr(
            module, "apply_normalized_adjacency", counted, raising=False
        )
    monkeypatch.setattr(lanczos_mod, "_adjacency_into", counted_into)
    return calls


@pytest.mark.parametrize(
    "make_graph, pair, k",
    [(lambda: R.generate_ba(2000, 5, 11), None, 20), (toy_graph, (0, 3), 3)],
    ids=["ba2000", "toy-breakdown"],
)
def test_stats_make_one_dense_product_per_step(monkeypatch, make_graph, pair, k):
    g = make_graph()
    s, t = pair or random_pair(np.random.default_rng(31), g.node_count)
    calls = _count_dense_products(monkeypatch)
    cfg = R.PushConfig(k=k, epsilon=1e-3, collect_stats=True)
    _, _, run = R.lanczos_push_rd(g, s, t, cfg)
    # A v_i for every step, and 1 + A 1 once
    assert len(calls) == run.k_effective + 1
    calls.clear()
    R.lanczos_push_rd(g, s, t, R.PushConfig(k=k, epsilon=1e-3))
    run_recurrence(g, definitional_start(g, s, t), k, 1e-3)
    assert calls == []


def _reference_stats(g, s, t, k, eps):
    # the dense two-product formulas, on the basis of a trace one step
    # longer: it keeps v_{k+1} unless the run broke down, whose last w is 0
    trace = R.subset_recurrence_trace(g, s, t, k + 1, eps)
    a, deg = dense_normalized_adjacency(g), g.weighted_degrees
    vs = [v.to_dense() for v in trace.vectors]
    alphas, betas = trace.alphas, trace.betas
    c2, delta = [], []
    v_prev = np.zeros(g.node_count)
    for i in range(min(k, len(alphas))):
        v = vs[i]
        a_pos, a_neg = a @ np.maximum(v, 0.0), a @ np.maximum(-v, 0.0)
        c2.append(np.abs(v).sum() + np.abs(a_pos).sum() + np.abs(a_neg).sum())
        w = betas[i] * vs[i + 1] if i + 1 < len(vs) else 0.0
        exact = a_pos - a_neg - alphas[i] * v - (betas[i - 1] if i else 0.0) * v_prev
        delta.append(np.max(np.abs(w - exact) / deg))
        v_prev = v
    return np.array(c2), np.array(delta)


@pytest.mark.parametrize(
    "make_graph, pair, k",
    [
        (lambda: R.generate_ba(2000, 5, 11), None, 20),
        (lambda: random_weighted(300, 5), None, 20),
        # the toy pair's Krylov space has dimension 2: the recurrence breaks
        # down exactly at k = 2 (no breakdown for a 2-step run) and before
        # k = 3
        (toy_graph, (0, 3), 2),
        (toy_graph, (0, 3), 3),
    ],
    ids=["ba2000", "weighted300", "toy-k2", "toy-k3"],
)
def test_stats_hook_leaves_the_run_unchanged(make_graph, pair, k):
    g = make_graph()
    s, t = pair or random_pair(np.random.default_rng(37), g.node_count)
    eps = 1e-3
    runs = [
        R.lanczos_push_rd(g, s, t, R.PushConfig(k=k, epsilon=eps, collect_stats=on))
        for on in (False, True)
    ]
    (est_off, t_off, off), (est_on, t_on, on) = runs
    assert t_on.alpha.tobytes() == t_off.alpha.tobytes()
    assert t_on.beta.tobytes() == t_off.beta.tobytes()
    assert on.first_row.tobytes() == off.first_row.tobytes()
    assert (est_on.value, est_on.healthy, on.breakdown) == (
        est_off.value, est_off.healthy, off.breakdown
    )
    assert (est_on.iterations, est_on.touched_edges) == (
        est_off.iterations, est_off.touched_edges
    )
    assert _counters(on, skip=_STATS) == _counters(off, skip=_STATS)
    assert off.breakdown == (pair is not None and k == 3)
    assert len(on.c2_terms) == len(on.delta_degree_ratios) == on.k_effective
    want_c2, want_delta = _reference_stats(g, s, t, k, eps)
    np.testing.assert_allclose(on.c2_terms, want_c2, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(on.delta_degree_ratios, want_delta, rtol=0.0, atol=1e-12)


def _walk_peak(g, s, t, k, weighted=True):
    """The largest Chebyshev walk norm from s or t up to order k."""
    return max(
        R.chebyshev_walk_norms(g, s, k, weighted=weighted).max(),
        R.chebyshev_walk_norms(g, t, k, weighted=weighted).max(),
    )


def test_locality_statistics_flags_cap_excursions(toy):
    _, _, run = R.lanczos_push_rd(
        toy, 0, 3, R.PushConfig(k=3, epsilon=1e-3, collect_stats=True)
    )
    record = R.locality_statistics(toy, 0, 3, run)
    assert set(record) == {"c1", "c1_cap", "c1_within_cap", "c1_plain",
                           "c2", "c2_cap", "c2_within_cap"}
    # C1 up to order k_effective = 2 already exceeds sqrt(m) = 2 on the toy
    # graph: a flag, not an error
    assert run.k_effective == 2
    assert record["c1"] == _walk_peak(toy, 0, 3, 2)
    assert record["c1_cap"] == 2.0 and record["c1_within_cap"] is False
    assert record["c1_plain"] == _walk_peak(toy, 0, 3, 2, weighted=False)
    assert record["c2"] == max(run.c2_terms)
    assert record["c2_cap"] == 6.0 and record["c2_within_cap"] is True
    # the same for a C2 excursion
    run.c2_terms = [6.01]
    assert R.locality_statistics(toy, 0, 3, run)["c2_within_cap"] is False
    with pytest.raises(IndexError):
        R.locality_statistics(toy, 0, 4, run)


def test_delta_residual_obeys_degree_bound():
    g = random_connected(80, 3)
    eps = 1e-3
    _, _, stats = R.lanczos_push_rd(
        g, 0, 1, R.PushConfig(k=10, epsilon=eps, collect_stats=True)
    )
    assert stats.delta_degree_ratios
    assert max(stats.delta_degree_ratios) <= 3 * eps + 1e-12


# ---------------------------------------------------------------------------
# assumption check and singular systems
# ---------------------------------------------------------------------------


def test_containment_holds_at_zero_eps():
    g = random_connected(50, 12)
    lam2, lam_min, _ = dense_spectrum(g)
    _, tmat, _ = R.lanczos_push_rd(g, 0, 1, R.PushConfig(k=10, epsilon=0.0))
    report = R.check_assumption(tmat, lam_min, lam2, tol=1e-8)
    assert report.passed
    assert report.lower_slack >= -report.tol
    assert report.upper_slack >= -report.tol


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_check_assumption_rejects_bad_tol(tol):
    # a nan tol reported passed=False with both slacks positive
    t = R.TridiagonalMatrix([0.1, -0.2], [0.3])
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        R.check_assumption(t, -1.0, 0.9, tol=tol)
    assert R.check_assumption(t, -1.0, 0.9, tol=0.0).passed


def test_indefinite_pruned_run_is_flagged():
    # criterion 8's grid10x30 run at eps = 1e-3 ends with lambda_max(T)
    # = 1.0004, an indefinite I - T whose pivots all clear the floor
    g = grid_graph(10, 30)
    s, t = random_pair(np.random.default_rng(805), g.node_count)
    est, tmat, _ = R.lanczos_push_rd(g, s, t, R.PushConfig(k=348, epsilon=1e-3))
    assert R.tridiag_eigen_range(tmat)[1] > 1.0
    assert not est.healthy
    # the pivot verdict is the Sturm count of T at 1
    assert not _sturm_all_below(tmat.alpha, [0.0, *tmat.beta**2], 1.0) <= 0.0


def test_containment_detects_escape():
    tmat = TridiagonalMatrix([0.99], [])
    report = R.check_assumption(tmat, -0.6, 0.5)
    assert not report.passed
    assert report.upper_slack < 0


def test_singular_solve_names_the_assumption():
    with pytest.raises(R.SingularSystemError, match="eigenvalue-containment"):
        solve_checked(TridiagonalMatrix([1.0], []))


# ---------------------------------------------------------------------------
# constants C1 and C2
# ---------------------------------------------------------------------------


def test_c1_at_zero_steps_is_sqrt_degree(toy):
    assert _walk_peak(toy, 0, 3, 0) == pytest.approx(SQ3, abs=1e-12)


def test_c1_single_edge_is_one(edge):
    for k in range(4):
        assert _walk_peak(edge, 0, 1, k) == pytest.approx(1.0, abs=1e-12)


def test_c1_cap_fails_on_toy_graph(toy):
    # the sqrt(m) cap does not hold here: the degree-scaled walk norm from
    # the pendant exceeds it at the third step
    value = _walk_peak(toy, 0, 3, 3)
    assert value > math.sqrt(toy.edge_count)
    assert value == pytest.approx((SQ3 + 4 * math.sqrt(2)) / 3, abs=1e-12)


def test_walk_norm_probes_match_dense_recurrence(toy):
    P = dense_transition(toy)
    sqrt_d = np.sqrt(np.array([3.0, 2.0, 2.0, 1.0]))
    want_scaled = 0.0
    want_plain = 0.0
    for u in (0, 3):
        prev = np.zeros(4)
        cur = np.eye(4)[u]
        mats = [cur]
        for i in range(3):
            prev, cur = cur, (2 * P @ cur - prev) if i else (P @ cur)
            mats.append(cur)
        for vec in mats:
            want_scaled = max(want_scaled, float(np.abs(sqrt_d * vec).sum()))
            want_plain = max(want_plain, float(np.abs(vec).sum()))
    assert _walk_peak(toy, 0, 3, 3) == pytest.approx(want_scaled, abs=1e-12)
    plain = _walk_peak(toy, 0, 3, 3, weighted=False)
    assert plain == pytest.approx(want_plain, abs=1e-12)
    assert plain == pytest.approx(5 / 3, abs=1e-12)


def test_c2_comes_from_collected_stats():
    g = random_connected(60, 41)
    _, _, stats = R.lanczos_push_rd(
        g, 0, 1, R.PushConfig(k=8, epsilon=1e-3, collect_stats=True)
    )
    record = R.locality_statistics(g, 0, 1, stats)
    assert record["c2"] == pytest.approx(max(stats.c2_terms), abs=1e-15)
    assert record["c2"] <= 3 * math.sqrt(g.node_count)
    assert record["c2_within_cap"] is True


def test_c2_requires_collected_stats():
    g = random_connected(20, 5)
    _, _, stats = R.lanczos_push_rd(g, 0, 1, R.PushConfig(k=4, epsilon=1e-3))
    with pytest.raises(ValueError, match="collect_stats"):
        R.locality_statistics(g, 0, 1, stats)
