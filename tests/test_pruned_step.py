"""Tests for the compact pruned Lanczos step (eps > 0).

The step carries each iterate only as its sorted support and values, and
sums the pruned product and then w in one zeroed n-vector that it takes
from the graph's free list.  ``_reference_recurrence`` below
is a frozen copy of the former step, which kept every iterate in a dense
n-vector and summed the product through ``np.unique`` and ``bincount``;
the new step must match it byte for byte.
"""

import dataclasses
import io
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, event, given, settings
from hypothesis import strategies as st

import resistor as R
import resistor.lanczos as lanczos_mod
from resistor.cli import EXIT_NUMERICAL, cli
from resistor.graph import _arc_positions, edge_arrays
from resistor.kernels import SparseVector, TridiagonalMatrix, _dot, relax_arcs
from resistor.lanczos import LanczosRun, definitional_start

from conftest import cut_lattice, graph_from_text, random_pair, random_weighted, toy_graph


# ---------------------------------------------------------------------------
# the frozen reference
# ---------------------------------------------------------------------------


def _reference_relax(g, idx, val, eps):
    inv_sqrt, sqrt_d = g.inv_sqrt_degrees, g.sqrt_degrees
    live = np.abs(val) > eps * sqrt_d[idx] * g.min_sqrt_degree
    src, x = idx[live], val[live]
    arc, count = _arc_positions(g.offsets, src)
    src, x, nb = np.repeat(src, count), np.repeat(x, count), g.neighbors[arc]
    keep = np.abs(x) > eps * sqrt_d[src] * sqrt_d[nb]
    src, x, nb = src[keep], x[keep], nb[keep]
    arc_scale = inv_sqrt[nb]
    if not g.is_unweighted:
        arc_scale *= g.weights[arc[keep]]
    targets, slot = np.unique(nb, return_inverse=True)
    sums = np.bincount(slot, (x * inv_sqrt[src]) * arc_scale, len(targets))
    nonzero = sums != 0.0
    return targets[nonzero], sums[nonzero], len(nb)


def _reference_project(w, supp, sqrt_d):
    if len(supp):
        sd = sqrt_d[supp]
        w[supp] -= (_dot(sd, w[supp]) / _dot(sd, sd)) * sd
    return len(supp)


def _reference_recurrence(g, v1, k, eps=0.0, s_overrides=None, visit=None):
    """The eps > 0 recurrence as it stood with dense iterates: three
    n-vectors recycled in turn, each with its sorted support."""
    assert eps > 0.0
    n, sqrt_d = g.node_count, g.sqrt_degrees
    deflate = lanczos_mod._orthogonal_to_u1(sqrt_d, v1)
    spare, v, v_prev = np.zeros(n), np.zeros(n), np.zeros(n)
    v[v1.idx] = v1.val
    supp = v1.idx
    supp_prev = s_prev = v1.idx[:0]
    size, beta = len(v1.idx), 0.0
    alphas, betas, first_row = [], [], [_dot(v1.val, v1.val)]
    run = LanczosRun()
    if visit is not None:
        visit(1, supp, v[supp], alphas, betas)
    for i in range(1, k + 1):
        run.support_sizes.append(size)
        v_supp = v[supp]
        if s_overrides is not None and i in s_overrides:
            s_cur = np.unique(np.asarray(list(s_overrides[i]), dtype=np.int64))
        else:
            s_cur = supp[np.abs(v_supp) > eps * g.weighted_degrees[supp]]
        run.subset_sizes.append(len(s_cur))
        w = spare
        prod_supp, prod_val, relaxed = _reference_relax(g, supp, v_supp, eps)
        w[prod_supp] = prod_val
        run.edges_relaxed.append(relaxed)
        run.touched_edges += relaxed
        if deflate:
            run.extra_ops += _reference_project(w, prod_supp, sqrt_d)
        if beta != 0.0:
            w[s_prev] -= beta * v_prev[s_prev]
            run.extra_ops += run.subset_sizes[-2]
        alpha = _dot(w[supp], v_supp)
        alphas.append(alpha)
        w[s_cur] -= alpha * v[s_cur]
        run.extra_ops += run.support_sizes[-1] + run.subset_sizes[-1]
        candidates = np.unique(np.concatenate((prod_supp, s_prev, s_cur)))
        supp_w = candidates[w[candidates] != 0.0]
        if deflate:
            run.extra_ops += _reference_project(w, supp_w, sqrt_d)
        w_supp = w[supp_w]
        beta_next = math.sqrt(_dot(w_supp, w_supp))
        if i == k:
            break
        if beta_next < lanczos_mod.BREAKDOWN_TOL:
            run.breakdown = True
            break
        betas.append(beta_next)
        w[supp_w] /= beta_next
        v_prev[supp_prev] = 0.0
        spare = v_prev
        v_prev, supp_prev, s_prev = v, supp, s_cur
        v, supp, size = w, supp_w, len(supp_w)
        beta = beta_next
        if visit is not None and visit(i + 1, supp, v[supp], alphas, betas):
            betas.pop()
            break
        first_row.append(_dot(v1.val, v[v1.idx]))
    run.peak_support = max(run.support_sizes)
    run.t = TridiagonalMatrix(alphas, betas)
    run.first_row = np.asarray(first_row)
    return run


_FIELDS = (
    "edges_relaxed", "support_sizes", "subset_sizes", "extra_ops",
    "peak_support", "breakdown", "touched_edges", "c2_terms",
    "delta_degree_ratios",
)


def _assert_same_run(new, ref):
    for name in ("alphas", "betas", "first_row"):
        assert getattr(new, name).tobytes() == getattr(ref, name).tobytes(), name
    for name in _FIELDS:
        assert getattr(new, name) == getattr(ref, name), name
    assert np.float64(new.estimate).tobytes() == np.float64(ref.estimate).tobytes()


_GRAPHS = {
    "ba3000": lambda: R.generate_ba(3000, 5, 13),
    "er2000": lambda: R.generate_er(2000, 8000, 4),
    "lattice40": lambda: cut_lattice(40, 0.1, 2),
    "weighted300": lambda: random_weighted(300, 9),
}


@pytest.fixture(scope="module", params=sorted(_GRAPHS))
def graph(request):
    return _GRAPHS[request.param]()


@pytest.mark.parametrize("k", [5, 40])
@pytest.mark.parametrize("eps", [3e-2, 5e-3, 1e-3, 1e-4])
def test_pruned_step_is_bit_identical_to_the_reference(monkeypatch, graph, eps, k):
    rng = np.random.default_rng(int(eps * 1e6) + k)
    for _ in range(2):
        s, t = random_pair(rng, graph.node_count)
        for stats in (False, True):
            cfg = R.PushConfig(k=k, epsilon=eps, collect_stats=stats)
            new = R.lanczos_push_rd(graph, s, t, cfg)[2]
            with monkeypatch.context() as m:
                m.setattr(lanczos_mod, "run_recurrence", _reference_recurrence)
                ref = R.lanczos_push_rd(graph, s, t, cfg)[2]
            _assert_same_run(new, ref)


@pytest.mark.parametrize("eps", [5e-3, 1e-3])
def test_trace_with_overrides_is_bit_identical_to_the_reference(monkeypatch, graph, eps):
    rng = np.random.default_rng(5)
    for _ in range(2):
        s, t = random_pair(rng, graph.node_count)
        # unsorted, with repeats, and partly off the support
        first = int(graph.neighbors[graph.offsets[s]])
        overrides = {2: [t, s, t, first, s], 4: [first, t]}
        new = R.subset_recurrence_trace(graph, s, t, 12, eps, s_overrides=overrides)
        with monkeypatch.context() as m:
            m.setattr(lanczos_mod, "run_recurrence", _reference_recurrence)
            ref = R.subset_recurrence_trace(graph, s, t, 12, eps, s_overrides=overrides)
        _assert_same_run(new, ref)
        assert len(new.vectors) == len(ref.vectors)
        for a, b in zip(new.vectors, ref.vectors):
            assert a.idx.tobytes() == b.idx.tobytes()
            assert a.val.tobytes() == b.val.tobytes()


def _assert_relax_is_the_reference(g, v, eps):
    # relax_arcs' accumulator holds the reference sums on their ids, bit
    # for bit, and 0.0 elsewhere
    acc = np.zeros(g.node_count)
    heads, _ = relax_arcs(g, v.idx, v.val, np.abs(v.val), eps * g.sqrt_degrees[v.idx], acc)
    idx, val, relaxed = _reference_relax(g, v.idx, v.val, eps)
    assert len(heads) == relaxed
    assert acc[idx].tobytes() == val.tobytes()
    acc[idx] = 0.0
    assert not acc.any()


def test_amv_is_the_reference_product():
    g = random_weighted(300, 3)
    rng = np.random.default_rng(8)
    for eps in (1e-2, 1e-3, 0.0):
        v = SparseVector.from_dense(rng.standard_normal(g.node_count) * (rng.random(g.node_count) < 0.3))
        _assert_relax_is_the_reference(g, v, eps)


def _small_graph(n, m, seed, weighted):
    """``generate_er(n, m, seed)``, with weights drawn from [0.25, 4) when
    ``weighted``."""
    g = R.generate_er(n, m, seed)
    if not weighted:
        return g
    eu, ev, _ = edge_arrays(g)
    w = np.random.default_rng(seed).uniform(0.25, 4.0, len(eu))
    text = "".join(f"{a} {b} {x!r}\n" for a, b, x in zip(eu.tolist(), ev.tolist(), w.tolist()))
    return R.load_edge_list(io.StringIO(text), weighted=True)


def _against_the_reference(g, v1, k, eps, overrides):
    """Run the step and the frozen reference from ``v1`` and assert that
    they agree byte for byte, basis vectors and ``pruned`` included; also
    that ``relax_arcs`` on ``v1`` is the reference product.  Returns which
    of "idle" (a step with no live source) and "full" (a step that relaxed
    every arc of its support) the run went through."""
    seen, ref_seen = [], []

    def keep(into):
        return lambda i, supp, val, alphas, betas: into.append((supp.copy(), val.copy()))

    new = lanczos_mod.run_recurrence(g, v1, k, eps, overrides, keep(seen))
    ref = _reference_recurrence(g, v1, k, eps, overrides, keep(ref_seen))
    _assert_same_run(new, ref)
    assert len(seen) == len(ref_seen)
    for (a_idx, a_val), (b_idx, b_val) in zip(seen, ref_seen):
        assert a_idx.tobytes() == b_idx.tobytes()
        assert a_val.tobytes() == b_val.tobytes()
    cases, pruned = set(), False
    for (supp, val), sub, relaxed in zip(seen, new.subset_sizes, new.edges_relaxed):
        arcs = int(np.diff(g.offsets)[supp].sum())
        pruned = pruned or sub < len(supp) or relaxed < arcs
        if not np.any(np.abs(val) > eps * g.sqrt_degrees[supp] * g.min_sqrt_degree):
            cases.add("idle")
        if relaxed == arcs:
            cases.add("full")
    assert new.pruned == pruned
    _assert_relax_is_the_reference(g, v1, eps)
    return cases


@st.composite
def _sweep_cases(draw):
    n = draw(st.integers(4, 60))
    m = draw(st.integers(n, min(4 * n, n * (n - 1) // 2)))
    g = _small_graph(n, m, draw(st.integers(0, 2**31 - 1)), draw(st.booleans()))
    n = g.node_count
    eps = draw(st.floats(1e-4, 2e-2))
    k = draw(st.integers(1, 30))
    if draw(st.booleans()):
        s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        v1 = definitional_start(g, s, t)
    else:
        # a start off u_1^perp, with entries over six decades: some steps
        # have no live source
        idx = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
        val = np.array(draw(st.lists(
            st.floats(1e-6, 1.0) | st.floats(-1.0, -1e-6),
            min_size=len(idx), max_size=len(idx))))
        v1 = SparseVector(idx, val, n)
    overrides = None
    if draw(st.booleans()):
        steps = draw(st.sets(st.integers(1, k), max_size=3))
        overrides = {i: draw(st.lists(st.integers(0, n - 1), max_size=8)) for i in steps}
    return g, v1, k, eps, overrides


_IDLE_CASE = (15, 40, 2, False, 2e-2, 10, 1e-6)
_FULL_CASE = (15, 40, 2, True, 1e-4, 10, 1.0)


def _fixed_case(n, m, seed, weighted, eps, k, scale):
    g = _small_graph(n, m, seed, weighted)
    v1 = definitional_start(g, 0, g.node_count - 1)
    return g, SparseVector(v1.idx, v1.val * scale, v1.dim), k, eps, {3: [1, 1, 4]}


@settings(max_examples=300, deadline=None)
@given(_sweep_cases())
@example(_fixed_case(*_IDLE_CASE))
@example(_fixed_case(*_FULL_CASE))
def test_the_step_is_the_reference_on_random_graphs(case):
    for name in sorted(_against_the_reference(*case)):
        event(name)


def test_the_sweep_examples_reach_idle_and_full_steps():
    assert "idle" in _against_the_reference(*_fixed_case(*_IDLE_CASE))
    assert "full" in _against_the_reference(*_fixed_case(*_FULL_CASE))


def test_a_source_below_the_live_bar_sets_pruned():
    # on the toy graph (degrees 3, 2, 2, 1) at eps = 0.1, |v(0)| = 0.1 sits
    # below the live bar 0.1 * sqrt(3) * 1, while the arc of vertex 3
    # relaxes; S_1, pinned to the whole support, prunes nothing, so only
    # the idle source sets the flag
    g = toy_graph()
    v1 = SparseVector(np.array([0, 3]), np.array([0.1, 1.0]), 4)
    acc = np.zeros(4)
    heads, skipped = relax_arcs(g, v1.idx, v1.val, np.abs(v1.val), 0.1 * g.sqrt_degrees[v1.idx], acc)
    assert heads.tolist() == [0] and skipped
    run = lanczos_mod.run_recurrence(g, v1, 1, 0.1, {1: [0, 3]})
    assert run.subset_sizes == [2] and run.edges_relaxed == [1] and run.pruned
    alone = SparseVector(np.array([3]), np.array([1.0]), 4)
    assert not lanczos_mod.run_recurrence(g, alone, 1, 0.1).pruned


# ---------------------------------------------------------------------------
# the free list: no O(n) work per query
# ---------------------------------------------------------------------------


def test_push_query_allocates_no_vector():
    # the first query of a fresh graph leaves one zeroed vector on its free
    # list: the run's accumulator, which the pruned product sums in too.
    # Later queries take and hand back that same vector.  What a query
    # allocates scales with the arcs it gathers (about 75 bytes each, up to
    # ~2500 arcs a step here), not with n: its peak stays below one float
    # n-vector, where the dense iterates took three (24n bytes) and peaked
    # at about 35n.
    g = R.generate_ba(50000, 5, 3)
    n = g.node_count
    cfg = R.PushConfig(k=20, epsilon=5e-3)
    R.lanczos_push_rd(g, 17, 41234, cfg)
    assert len(g.scratch_vectors) == 1 and not g.scratch_vectors[0].any()
    pool = {id(v) for v in g.scratch_vectors}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        est, _, run = R.lanczos_push_rd(g, 17, 41234, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert run.k_effective == 20 and run.pruned
    assert peak < 8 * n
    assert {id(v) for v in g.scratch_vectors} == pool
    assert all(not v.any() for v in g.scratch_vectors)


def test_first_push_query_caches_nothing_per_arc():
    # the first pruned query of a fresh graph builds sqrt_degrees,
    # inv_sqrt_degrees and the free-list vector, all n-long, and caches
    # nothing per arc: its peak stays below those plus one float n-vector
    # (the two 2m-long per-arc factor caches it once built took 160n bytes)
    g = R.generate_ba(50000, 5, 3)
    n = g.node_count
    fields = {f.name for f in dataclasses.fields(g)}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        est, _, run = R.lanczos_push_rd(g, 17, 41234, R.PushConfig(k=20, epsilon=5e-3))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert run.k_effective == 20 and run.pruned
    cached = [a for name, a in vars(g).items() if name not in fields and isinstance(a, np.ndarray)]
    cached += g.scratch_vectors
    assert len(cached) == 3 and all(a.shape == (n,) for a in cached)
    assert peak < sum(a.nbytes for a in cached) + 8 * n


def test_a_raising_hook_leaves_no_dirty_vector():
    g = R.generate_ba(3000, 5, 21)
    v1 = definitional_start(g, 3, 2900)
    clean = lanczos_mod.run_recurrence(g, v1, 15, 1e-3)

    def boom(i, supp, v, alphas, betas):
        if i == 6:
            raise RuntimeError("hook failed")

    with pytest.raises(RuntimeError, match="hook failed"):
        lanczos_mod.run_recurrence(g, v1, 15, 1e-3, visit=boom)
    assert all(not v.any() for v in g.scratch_vectors)
    again = lanczos_mod.run_recurrence(g, v1, 15, 1e-3)
    _assert_same_run(again, clean)


def test_the_hook_sees_the_compact_iterate():
    # at eps > 0 the hook gets the strictly ascending support and the
    # values on it, the very arrays of the trace; at eps = 0 the dense
    # n-vector with slice(None)
    g = R.generate_ba(3000, 5, 21)
    v1 = definitional_start(g, 3, 2900)
    for eps in (5e-3, 1e-3, 0.0):
        seen = []

        def hook(i, supp, val, alphas, betas):
            if eps > 0.0:
                assert len(val) == len(supp)
                assert np.all(np.diff(supp) > 0)
                seen.append((supp.tobytes(), val.tobytes()))
            else:
                assert supp == slice(None) and val.shape == (g.node_count,)
                seen.append(val.copy())

        lanczos_mod.run_recurrence(g, v1, 15, eps, visit=hook)
        trace = R.subset_recurrence_trace(g, 3, 2900, 15, eps)
        assert len(seen) == len(trace.vectors) == 15
        for got, vec in zip(seen, trace.vectors):
            if eps > 0.0:
                assert got == (vec.idx.tobytes(), vec.val.tobytes())
            else:
                assert got.tobytes() == vec.to_dense().tobytes()


def test_overrides_at_zero_eps_raise():
    # the dense run has no significant set to replace, and its estimate
    # reads y[0] as if the basis were orthonormal: an override there gave
    # 0.38662 where the first-row form reads 0.39178
    g = R.generate_ba(300, 3, 1)
    overrides = {2: [5, 200]}
    with pytest.raises(ValueError, match="eps > 0"):
        lanczos_mod.run_recurrence(g, definitional_start(g, 5, 200), 10, 0.0, overrides)
    with pytest.raises(ValueError, match="eps > 0"):
        R.subset_recurrence_trace(g, 5, 200, 10, 0.0, s_overrides=overrides)
    # no override is no override
    empty = R.subset_recurrence_trace(g, 5, 200, 10, 0.0, s_overrides={})
    plain = R.subset_recurrence_trace(g, 5, 200, 10, 0.0)
    _assert_same_run(empty, plain)


def test_the_free_list_is_not_pickled():
    g = R.generate_ba(500, 3, 2)
    R.lanczos_push_rd(g, 1, 400, R.PushConfig(k=10, epsilon=1e-3))
    assert g.scratch_vectors
    copy = pickle.loads(pickle.dumps(g))
    assert copy.scratch_vectors == []
    assert copy.node_count == g.node_count


# ---------------------------------------------------------------------------
# a breakdown after pruning is flagged
# ---------------------------------------------------------------------------


def test_pruned_breakdown_on_a_triangle_is_flagged():
    # at eps = 1e300 no arc is relaxed: the first product is 0, the run
    # breaks down and reads 1 where the exact value is 2/3
    g = graph_from_text("0 1\n1 2\n2 0\n")
    est, _, run = R.lanczos_push_rd(g, 0, 2, R.PushConfig(k=5, epsilon=1e300))
    assert run.breakdown and run.pruned
    assert est.value == pytest.approx(1.0)
    assert R.exact_rd(g, 0, 2) == pytest.approx(2.0 / 3.0)
    assert not est.healthy


def test_pruned_breakdown_on_ba_is_flagged():
    g = R.generate_ba(2000, 3, 1)
    exact = R.exact_rd(g, 5, 1700)
    for eps in (0.05, 0.2):
        for stats in (False, True):
            cfg = R.PushConfig(k=20, epsilon=eps, collect_stats=stats)
            est, _, run = R.lanczos_push_rd(g, 5, 1700, cfg)
            assert est.iterations == 1 and run.breakdown and run.pruned
            assert abs(est.value - exact) > 0.05
            assert not est.healthy


def test_breakdown_without_pruning_stays_healthy():
    # on a single edge and on a triangle with a tiny eps nothing is pruned:
    # the Krylov space is exhausted and the estimate exact
    for text, k, exact in (("0 1\n", 5, 1.0), ("0 1\n1 2\n2 0\n", 5, 2.0 / 3.0)):
        g = graph_from_text(text)
        est, _, run = R.lanczos_push_rd(g, 0, 1, R.PushConfig(k=k, epsilon=1e-12))
        assert run.breakdown and not run.pruned
        assert est.value == pytest.approx(exact)
        assert est.healthy


def test_a_stats_run_does_not_flag_a_breakdown_past_k():
    # a k-step run never breaks down at step k; the stats run, one step
    # longer, must not flag what the plain run does not
    g = R.generate_ba(2000, 3, 1)
    for k in (1, 2):
        plain = R.lanczos_push_rd(g, 5, 1700, R.PushConfig(k=k, epsilon=0.05))
        stats = R.lanczos_push_rd(g, 5, 1700, R.PushConfig(k, 0.05, True))
        assert plain[0].healthy == stats[0].healthy
        assert plain[2].breakdown == stats[2].breakdown


def test_query_exits_numerical_on_a_pruned_breakdown(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    result = CliRunner().invoke(
        cli, ["query", str(path), "0", "2", "--method", "lzpush", "--eps", "1e300"]
    )
    assert result.exit_code == EXIT_NUMERICAL
    assert '"healthy": false' in result.stdout
