"""Kernel tests: operators, set operations, tridiagonal solvers, Chebyshev
norms."""

import ast
import contextlib
import functools
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resistor as R
import resistor.kernels as kernels_mod
import resistor.lanczos as lanczos_mod
from resistor.errors import SingularSystemError
from resistor.graph import JAGGED_MIN_ROWS, _sorted_unique
from resistor.kernels import (
    _adjacency_into,
    _dot,
    _eigen_range_resumed,
    _sturm_all_below,
    _sturm_some_below,
    _support_pays,
)
from resistor.lanczos import definitional_start, run_recurrence

from conftest import (
    cut_lattice,
    dense_lazy_walk,
    dense_normalized_adjacency,
    dense_transition,
    graph_from_text,
    path_graph,
    random_connected,
    random_weighted,
    single_edge,
    toy_graph,
)


# ---------------------------------------------------------------------------
# normalized adjacency and walk operators
# ---------------------------------------------------------------------------


def test_normalized_adjacency_frozen_toy_values(toy):
    # start vector e_s / sqrt(d_s) with s = 0 (degree 3): A maps it to
    # 1/sqrt(3) * (0, 1/sqrt(6), 1/sqrt(6), 1/sqrt(3)) scaled by sqrt(3):
    v = np.zeros(4)
    v[0] = 0.5
    v[3] = math.sqrt(3) / 2
    out = R.apply_normalized_adjacency(toy, v)
    expected = np.array(
        [0.5, 1 / (2 * math.sqrt(6)), 1 / (2 * math.sqrt(6)), 1 / (2 * math.sqrt(3))]
    )
    assert np.allclose(out, expected, atol=1e-15)


def test_normalized_adjacency_single_edge_swaps(edge):
    out = R.apply_normalized_adjacency(edge, np.array([1.0, 0.0]))
    assert np.allclose(out, [0.0, 1.0])


def test_normalized_adjacency_top_eigenvector(toy):
    u1 = np.sqrt(toy.weighted_degrees)
    u1 /= np.linalg.norm(u1)
    assert np.allclose(R.apply_normalized_adjacency(toy, u1), u1, atol=1e-12)


def test_operators_match_dense_oracles():
    for seed in range(4):
        g = random_connected(25, seed)
        rng = np.random.default_rng(100 + seed)
        v = rng.standard_normal(g.node_count)
        assert np.allclose(
            R.apply_normalized_adjacency(g, v),
            dense_normalized_adjacency(g) @ v,
            atol=1e-12,
        )
        assert np.allclose(
            R.apply_transition(g, v), dense_transition(g) @ v, atol=1e-12
        )
        assert np.allclose(
            R.apply_lazy_walk(g, v), dense_lazy_walk(g) @ v, atol=1e-12
        )


def test_weighted_operator_matches_dense_oracle():
    g = graph_from_text("0 1 2.0\n1 2 0.5\n0 2 1.25\n", weighted=True)
    v = np.array([0.3, -1.1, 0.7])
    assert np.allclose(
        R.apply_normalized_adjacency(g, v),
        dense_normalized_adjacency(g) @ v,
        atol=1e-14,
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2 ** 31 - 1))
def test_adjacency_self_adjoint_and_contractive(seed, vec_seed):
    g = random_connected(18, seed)
    rng = np.random.default_rng(vec_seed)
    x = rng.standard_normal(g.node_count)
    y = rng.standard_normal(g.node_count)
    ax = R.apply_normalized_adjacency(g, x)
    ay = R.apply_normalized_adjacency(g, y)
    assert ax @ y == pytest.approx(x @ ay, abs=1e-10 * (1 + abs(ax @ y)))
    assert np.linalg.norm(ax) <= np.linalg.norm(x) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# jagged-diagonal product against the CSR bincount
# ---------------------------------------------------------------------------


def csr_bincount_product(g, v):
    """A v summed per row with one np.bincount over the CSR arcs: each row
    from 0.0 in arc order, the association the jagged product keeps."""
    contrib = (v * g.inv_sqrt_degrees)[g.neighbors]
    if not g.is_unweighted:
        contrib *= g.weights
    return np.bincount(g.arc_sources, contrib, g.node_count) * g.inv_sqrt_degrees


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@functools.cache
def jagged_test_graphs():
    star = graph_from_text("".join(f"0 {i}\n" for i in range(1, 3 * JAGGED_MIN_ROWS)))
    # the repeated pairs merge into one edge of summed weight
    weighted = graph_from_text(
        "0 1 2.0\n1 2 0.5\n2 0 1.25\n1 0 0.75\n2 3 3.0\n3 2 0.125\n3 4 1.5\n",
        weighted=True,
    )
    return {
        "path": path_graph(9),
        "edge": single_edge(),
        "star": star,
        "ba": R.generate_ba(2000, 3, 5),
        "lattice": cut_lattice(30, 0.1, 4),
        "weighted": weighted,
        "weighted-er": random_weighted(150, 3),
    }


@pytest.mark.parametrize("name", list(jagged_test_graphs()))
def test_jagged_product_matches_csr_bincount(name):
    g = jagged_test_graphs()[name]
    rng = np.random.default_rng(17)
    for _ in range(3):
        v = rng.standard_normal(g.node_count)
        v[rng.random(g.node_count) < 0.2] = -0.0
        assert same_bits(R.apply_normalized_adjacency(g, v), csr_bincount_product(g, v))


@settings(max_examples=30, deadline=None)
@given(st.integers(10, 200), st.integers(0, 2 ** 31 - 1))
def test_jagged_product_matches_csr_bincount_on_random_graphs(n, seed):
    g = random_connected(n, seed % 1000)
    v = np.random.default_rng(seed).standard_normal(g.node_count)
    assert same_bits(R.apply_normalized_adjacency(g, v), csr_bincount_product(g, v))


@pytest.mark.parametrize("name", list(jagged_test_graphs()))
def test_jagged_layout_structure(name):
    g = jagged_test_graphs()[name]
    lay = g.jagged
    assert g.jagged is lay  # built once and cached
    deg = np.diff(g.offsets)
    width = len(lay.columns)
    assert width <= 2 * g.edge_count // JAGGED_MIN_ROWS + 1
    assert lay.hubs < JAGGED_MIN_ROWS
    # the hubs are exactly the rows of degree above the column count
    assert np.count_nonzero(deg > width) == lay.hubs
    assert np.all(deg[lay.position < lay.hubs] > width)
    assert np.array_equal(np.sort(lay.position), np.arange(g.node_count))
    # column j: at least JAGGED_MIN_ROWS rows have degree above j, and it
    # holds the non-hub ones, packed from the start of the layout
    nonhub = np.sort(deg[lay.position >= lay.hubs])[::-1]
    start = 0
    for j, (col_start, length) in enumerate(lay.columns):
        assert np.count_nonzero(deg > j) >= JAGGED_MIN_ROWS
        assert length == np.count_nonzero(nonhub > j)
        assert col_start == start
        start += length
    assert lay.hub_start == start
    assert len(lay.hub_rows) == len(g.neighbors) - start
    assert np.array_equal(np.sort(lay.neighbors), np.sort(g.neighbors))
    assert (lay.weights is None) == g.is_unweighted


def test_star_has_one_column_and_one_hub():
    lay = jagged_test_graphs()["star"].jagged
    assert (len(lay.columns), lay.hubs) == (1, 1)


def test_graph_set_has_a_layout_without_hubs():
    # the product's hub bincount then sums an empty slice
    assert jagged_test_graphs()["lattice"].jagged.hubs == 0


@pytest.mark.parametrize("name", list(jagged_test_graphs()))
def test_workspace_product_matches_the_public_one_and_the_csr_bincount(name):
    # the buffers are reused across calls and start out as NaN, so no
    # value may leak from their contents on entry
    g = jagged_test_graphs()[name]
    n = g.node_count
    out, scratch = np.full(n, np.nan), np.full(n, np.nan)
    gather = np.full(2 * g.edge_count, np.nan)
    rng = np.random.default_rng(23)
    for _ in range(3):
        v = rng.standard_normal(n)
        v[rng.random(n) < 0.2] = -0.0
        assert _adjacency_into(g, v, out, scratch, gather) is out
        assert same_bits(out, R.apply_normalized_adjacency(g, v))
        assert same_bits(out, csr_bincount_product(g, v))


def csr_bincount_into(g, v, out, scratch, gather, support=None):
    """:func:`csr_bincount_product` with the signature of the workspace
    product the recurrence calls."""
    out[:] = csr_bincount_product(g, v)
    return out


def support_test_graph(kind: str, n: int, seed: int):
    if kind == "weighted":
        return random_weighted(n, seed)
    if kind == "hubs":
        # rows of degree above the column count take the hubs' bincount
        return R.generate_ba(max(n, 2 * JAGGED_MIN_ROWS), 3, seed)
    if kind == "small":
        # fewer than JAGGED_MIN_ROWS rows: every row is a hub
        return random_connected(10 + n % (JAGGED_MIN_ROWS - 10), seed)
    if kind == "lattice":
        return cut_lattice(4 + n % 12, 0.1, seed)
    return random_connected(n, seed)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["unweighted", "weighted", "hubs", "small", "lattice"]),
    st.integers(10, 200),
    st.integers(0, 2**31 - 1),
    st.floats(0.0, 1.0),
)
def test_support_product_matches_the_jagged_one(kind, n, seed, share):
    # v on a random vertex subset, from one vertex up to all n, with both
    # signs, six decades of magnitude and some ±0.0 inside and outside it
    g = support_test_graph(kind, n, seed % 1000)
    n, arcs = g.node_count, len(g.neighbors)
    rng = np.random.default_rng(seed)
    support = np.sort(rng.permutation(n)[: max(1, round(share * n))])
    v = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    size = len(support)
    v[support] = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
    v[support[rng.random(size) < 0.1]] = -0.0
    buffers = [np.full(n, np.nan), np.full(n, np.nan), np.full(arcs, np.nan)]
    via_support = _adjacency_into(g, v, *buffers, support=support).copy()
    assert same_bits(via_support, _adjacency_into(g, v, *buffers))
    assert same_bits(via_support, csr_bincount_product(g, v))


def test_support_rule_counts_the_call_as_well_as_the_arcs():
    # a one-vertex support pays on a graph with 2m = 500k, but not where
    # the whole jagged product is cheaper than a call through a support
    big = R.generate_er(50_000, 250_000, 1)
    small = R.generate_er(3000, 15_000, 2)
    for g, pays in ((big, True), (small, False)):
        assert _support_pays(g, np.array([0])) is pays


def test_dense_callers_unchanged_by_the_jagged_product(monkeypatch):
    # every dense caller gets the bits the CSR bincount product gives
    g = cut_lattice(24, 0.1, 9)
    s, t = 3, g.node_count - 5

    def outputs():
        run = run_recurrence(g, definitional_start(g, s, t), 60)
        spec = R.estimate_spectrum(g)
        return [
            run.alphas, run.betas, run.first_row,
            R.lanczos_potential(g, s, t, 60),
            np.array([spec.lambda2_a, spec.lambda_min_a, spec.residual, spec.iterations]),
        ]

    jagged = outputs()
    monkeypatch.setattr(lanczos_mod, "_adjacency_into", csr_bincount_into)
    reference = outputs()
    for got, want in zip(jagged, reference):
        assert same_bits(got, want)


def test_lazy_walk_frozen_values(edge):
    assert np.allclose(R.apply_lazy_walk(edge, np.array([1.0, 0.0])), [0.5, 0.5])
    p3 = path_graph(3)
    out = R.apply_lazy_walk(p3, np.array([0.0, 1.0, 0.0]))
    assert np.allclose(out, [0.25, 0.5, 0.25])


def test_lazy_walk_preserves_total_mass():
    g = random_connected(30, 3)
    rng = np.random.default_rng(0)
    v = rng.random(g.node_count)
    out = R.apply_lazy_walk(g, v)
    assert out.sum() == pytest.approx(v.sum(), rel=1e-12)
    assert (out >= 0).all()


def test_operator_dimension_mismatch(toy):
    with pytest.raises(ValueError):
        R.apply_normalized_adjacency(toy, np.zeros(3))
    with pytest.raises(ValueError):
        R.apply_lazy_walk(toy, np.zeros(5))


# ---------------------------------------------------------------------------
# set operations
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-4, 4) | st.integers(-(2 ** 62), 2 ** 62), max_size=60))
def test_sorted_unique_matches_np_unique(values):
    a = np.asarray(values, dtype=np.int64)
    got = _sorted_unique(a)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.unique(a))


def _unique_calls_off_the_sort_path(source: str) -> list:
    """Line numbers of the ``np.unique(...)`` calls in ``source`` that do
    not pass ``return_inverse=True``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            continue
        if not any(
            kw.arg == "return_inverse"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        ):
            lines.append(node.lineno)
    return lines


def test_every_exported_name_resolves():
    # a deleted type left in an __all__ breaks `from resistor import *`
    modules = [R] + [
        importlib.import_module(f"resistor.{info.name}")
        for info in pkgutil.iter_modules(R.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_unique_tripwire_flags_hash_path_calls():
    source = (
        "a = np.unique(x)\n"
        "b = np.unique(x, return_inverse=True)\n"
        "c = np.unique(\n    x, axis=0, return_counts=True\n)\n"
        "d = numpy.unique(x, return_inverse=False)\n"
    )
    assert _unique_calls_off_the_sort_path(source) == [1, 3, 6]


# names whose calls can reach a BLAS routine, which threads long sums
_BLAS_REDUCTIONS = {"np.dot", "np.inner", "np.vdot", "np.matmul", "np.linalg.norm"}


def _dotted_name(node) -> str:
    """``np.linalg.norm`` for that attribute chain, with ``numpy`` spelled
    ``np``; "" for anything that is not a chain of names."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append("np" if node.id == "numpy" else node.id)
    return ".".join(reversed(parts))


def _blas_reductions(source: str) -> list:
    """Line numbers of the ``@`` and ``@=`` operators in ``source`` and of
    its references to the numpy functions in ``_BLAS_REDUCTIONS``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        matmul = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        )
        if matmul or (
            isinstance(node, ast.Attribute) and _dotted_name(node) in _BLAS_REDUCTIONS
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_blas_tripwire_flags_planted_reductions():
    source = (
        "a = x @ y\n"
        "a @= y\n"
        "b = np.dot(x, y)\n"
        "c = numpy.inner(x, y) + np.vdot(x, y)\n"
        "d = np.matmul(\n    x, y\n)\n"
        "e = np.linalg.norm(x)\n"
        "f = np.einsum('i,i->', x, y) + np.linalg.eigh(m)[0] + x.sum() * y\n"
        "g = np.multiply(x, y, out=z)\n"
    )
    assert _blas_reductions(source) == [1, 2, 3, 4, 4, 5, 8]


def test_no_blas_reduction_in_the_recurrence_modules():
    # every reduction feeding T, a potential or a spectrum goes through
    # kernels._dot, whose sum does not depend on the BLAS thread count
    package = Path(R.__file__).parent
    found = {
        name: lines
        for name in ("kernels.py", "lanczos.py", "push.py", "spectral.py")
        if (lines := _blas_reductions((package / name).read_text()))
    }
    assert found == {}


# lengths on either side of the blocks that einsum's unrolled SIMD loop
# takes, and two long sums
_DOT_LENGTHS = [0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 6400, 50_001]


def _dot_operands(n: int, seed: int):
    """Two float64 n-vectors of mixed signs over 16 decades, so that the
    order of the sum shows in its last bits."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
    b = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
    return a, b


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("n", _DOT_LENGTHS)
def test_dot_matches_einsum_bit_for_bit(n):
    a, b = _dot_operands(n, n)
    assert _bits(_dot(a, b)) == _bits(float(np.einsum("i,i->", a, b)))


def test_dot_matches_einsum_on_strided_views():
    a, b = _dot_operands(3 * 6400 + 2, 5)
    for x, y in [(a[::3], b[1::3]), (a[::-2], b[::2]), (a[1:40:3], b[:13])]:
        assert _bits(_dot(x, y)) == _bits(float(np.einsum("i,i->", x, y)))


def test_dot_reaches_the_c_entry_where_numpy_has_it():
    try:
        from numpy._core.multiarray import c_einsum
    except ImportError:
        pytest.skip("this numpy exposes no numpy._core.multiarray.c_einsum")
    assert kernels_mod._c_einsum is c_einsum


def _probe_hashes() -> dict:
    """The hashes that ``_THREAD_PROBE`` prints, computed in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_THREAD_PROBE, {})
    return json.loads(out.getvalue().splitlines()[-1])


def test_estimators_have_the_same_bits_through_the_einsum_fallback(monkeypatch):
    # lz, lzpush, the potential and the spectrum of the thread probe, summed
    # through the C entry and through np.einsum itself
    direct = _probe_hashes()
    monkeypatch.setattr(kernels_mod, "_c_einsum", np.einsum)
    assert _probe_hashes() == direct


# run in a fresh interpreter: BLAS reads its thread count once, at import
_THREAD_PROBE = """
import hashlib, json
import numpy as np
import resistor as R

g = R.generate_er(20000, 100000, 5)
s, t = 11, g.node_count - 7
_, lz = R.lanczos_rd(g, s, t, 20)
_, _, push = R.lanczos_push_rd(g, s, t, R.PushConfig(k=20, epsilon=1e-4))
spec = R.estimate_spectrum(g)
outputs = {
    "lz": (lz.alphas, lz.betas, lz.first_row),
    "lzpush": (push.alphas, push.betas, push.first_row),
    "potential": (R.lanczos_potential(g, s, t, 20),),
    "spectrum": (np.array([
        spec.lambda2_a, spec.lambda_min_a, spec.mu2, spec.kappa,
        spec.residual, spec.iterations,
    ]),),
}
print(json.dumps({
    name: hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
    for name, arrays in outputs.items()
}))
"""


def _outputs_under_blas_threads(threads: int) -> dict:
    src = str(Path(R.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_outputs_do_not_depend_on_the_blas_thread_count():
    # n = 20000 is above the length from which OpenBLAS splits a ddot over
    # threads; the claim is thread independence on one host, not equality
    # across CPU families, whose SIMD sums may differ
    one, two = _outputs_under_blas_threads(1), _outputs_under_blas_threads(2)
    assert sorted(one) == ["lz", "lzpush", "potential", "spectrum"]
    assert one == two


# numpy functions whose Python-level wrappers pay __array_function__
# dispatch on every call, 1-2 us each: the per-step code calls the array
# methods (x.repeat, x.cumsum, x.sort, x.searchsorted) or, for np.einsum,
# kernels._c_einsum
_DISPATCHING = {"np.einsum", "np.repeat", "np.cumsum", "np.sort", "np.searchsorted"}

# the per-step modules, and the functions of graph.py that a step calls
_PER_STEP_MODULES = ("kernels.py", "lanczos.py", "push.py", "spectral.py")
_PER_STEP_GRAPH_FUNCTIONS = ("_arc_positions", "_sorted_unique")


def _dispatching_calls(source: str, functions=None) -> dict:
    """Line numbers of the function-form calls in ``source`` of the numpy
    functions in ``_DISPATCHING``, keyed by the top-level function that
    holds them ("" for module level); with ``functions``, only those named
    functions are searched, and each gets a key, flagged or not.  A
    reference that is no call, such as an alias, is not flagged."""
    tree = ast.parse(source)
    if functions is None:
        roots = {"": tree}
    else:
        roots = {
            node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in functions
        }
    found = {}
    for name, root in roots.items():
        found[name] = sorted(
            node.lineno for node in ast.walk(root)
            if isinstance(node, ast.Call) and _dotted_name(node.func) in _DISPATCHING
        )
    return found


def test_dispatch_tripwire_flags_planted_calls():
    source = (
        "a = np.einsum('i,i->', x, y)\n"
        "b = numpy.repeat(x, c) + x.repeat(c)\n"
        "np.cumsum(x, out=x)\n"
        "x.cumsum(out=x)\n"
        "c = np.sort(\n    a\n)\n"
        "d = np.searchsorted(s, v) + s.searchsorted(v)\n"
        "_c_einsum = np.einsum\n"
        "e = np.argsort(x) + np.unique(x) + np.core.multiarray.c_einsum('i,i->', x, y)\n"
    )
    assert _dispatching_calls(source) == {"": [1, 2, 3, 5, 8]}
    scoped = (
        "def kept():\n"
        "    return np.sort(a)\n"
        "def other():\n"
        "    return np.repeat(a, c)\n"
        "def clean():\n"
        "    return a.repeat(c)\n"
    )
    assert _dispatching_calls(scoped, ("kept", "clean")) == {"kept": [2], "clean": []}


def test_no_dispatching_call_in_the_per_step_code():
    # a pruned step makes about 95 numpy calls of 1-3 us; the wrappers of
    # these five add 1-2 us of dispatch to each of theirs.  _dot's fallback
    # is an alias of np.einsum, not a call
    package = Path(R.__file__).parent
    found = {
        name: lines
        for name in _PER_STEP_MODULES
        if (lines := _dispatching_calls((package / name).read_text())[""])
    }
    graph = _dispatching_calls(
        (package / "graph.py").read_text(), _PER_STEP_GRAPH_FUNCTIONS
    )
    assert sorted(graph) == sorted(_PER_STEP_GRAPH_FUNCTIONS)
    found.update({f"graph.py:{name}": lines for name, lines in graph.items() if lines})
    assert found == {}


def test_no_hash_path_unique_in_the_package():
    # since numpy 2.3 a plain np.unique on integers builds a hash table and
    # sorts its output, 8-25x slower on the id arrays of the pruned step
    # and the graph build than one sort; graph._sorted_unique is the
    # sanctioned form, and return_inverse=True keeps numpy on its sort path
    package = Path(R.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := _unique_calls_off_the_sort_path(path.read_text()))
    }
    assert found == {}


# the free list of zeroed n-vectors and its two helpers
_FREE_LIST_NAMES = {"scratch_vectors", "_take_zeroed", "_give_back"}


def _free_list_uses(source: str, defines_the_cache: bool = False) -> list:
    """Line numbers of the names, attributes, imports and string constants
    in ``source`` that name the free list or its helpers.  With
    ``defines_the_cache`` the cached property ``Graph.scratch_vectors`` and
    the ``Graph.__getstate__`` that leaves it out of a pickle are skipped."""
    tree = ast.parse(source)
    if defines_the_cache:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Graph":
                node.body = [
                    b for b in node.body
                    if getattr(b, "name", None) not in ("scratch_vectors", "__getstate__")
                ]
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in _FREE_LIST_NAMES:
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_pruned_step_touches_the_free_list():
    # a vector given back dirty corrupts every later query on its graph
    # without an error, so the free list stays within the module whose
    # tests check that it comes back zeroed
    package = Path(R.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if path.name != "lanczos.py"
        if (lines := _free_list_uses(path.read_text(), path.name == "graph.py"))
    }
    assert found == {}


def test_free_list_tripwire_flags_every_way_of_naming_it():
    source = (
        "from .lanczos import _take_zeroed as take\n"
        "acc = g.scratch_vectors.pop()\n"
        "_give_back(g, acc)\n"
        "getattr(g, 'scratch_vectors')\n"
        "class Graph:\n"
        "    def scratch_vectors(self):\n"
        "        return []\n"
        "    def __getstate__(self):\n"
        "        return {'scratch_vectors': None}\n"
    )
    assert _free_list_uses(source) == [1, 2, 3, 4, 9]
    assert _free_list_uses(source, defines_the_cache=True) == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# SparseVector
# ---------------------------------------------------------------------------


def test_sparse_vector_from_dense_selects_the_flatnonzero_ids():
    v = np.array([0.0, -0.0, np.nan, 1.0, -np.inf, 0.0, np.inf, -2.5e-300, -0.0])
    rng = np.random.default_rng(8)
    for w in (v, rng.permutation(np.tile(v, 50)), np.zeros(5), np.array([-0.0])):
        got = R.SparseVector.from_dense(w)
        assert got.idx.tolist() == np.flatnonzero(w).tolist()
        assert same_bits(got.val, w[np.flatnonzero(w)])
        assert got.idx.dtype == np.flatnonzero(w).dtype


def test_sparse_vector_round_trip():
    v = R.SparseVector.from_dense(np.array([0.0, 2.0, 0.0, -1.5]))
    assert v.idx.tolist() == [1, 3] and v.val.tolist() == [2.0, -1.5]
    assert v.dim == 4
    assert np.allclose(v.to_dense(), [0.0, 2.0, 0.0, -1.5])


# ---------------------------------------------------------------------------
# tridiagonal solve
# ---------------------------------------------------------------------------


def test_tridiag_requires_consistent_shapes():
    with pytest.raises(ValueError):
        R.TridiagonalMatrix([1.0, 2.0], [])
    with pytest.raises(ValueError):
        R.TridiagonalMatrix([], [])


def test_tridiag_solve_order_one():
    x = R.tridiag_solve_e1(R.TridiagonalMatrix([0.5], []))
    assert np.allclose(x, [2.0])


def test_tridiag_solve_reproduces_recorded_final_value():
    # recorded two-step coefficients from the pruned-recurrence worked
    # example: alpha = (1/2, 0.0281), beta = (1/(2 sqrt(3)),)
    t = R.TridiagonalMatrix([0.5, 0.0281], [1 / (2 * math.sqrt(3))])
    x = R.tridiag_solve_e1(t)
    value = (1 / 3 + 1 / 1) * x[0]
    assert value == pytest.approx(3.2186, abs=5e-4)


def test_tridiag_solve_matches_dense_solver():
    rng = np.random.default_rng(12)
    for _ in range(100):
        k = int(rng.integers(1, 14))
        alpha = rng.uniform(-1, 1, size=k)
        beta = rng.uniform(-1, 1, size=k - 1)
        t = R.TridiagonalMatrix(alpha, beta)
        evals = np.linalg.eigvalsh(t.to_dense())
        # keep (I - T) comfortably nonsingular, mirroring the containment
        # regime the estimators run in
        if evals.max() > 0.9:
            alpha = alpha - (evals.max() - 0.9)
            t = R.TridiagonalMatrix(alpha, beta)
        x = R.tridiag_solve_e1(t)
        m = np.eye(t.order) - t.to_dense()
        e1 = np.zeros(t.order)
        e1[0] = 1.0
        assert np.allclose(x, np.linalg.solve(m, e1), atol=1e-9)
        residual = np.abs(m @ x - e1).max()
        assert residual <= 1e-10 * (1 + np.abs(x).max())


def test_tridiag_solve_detects_singularity():
    with pytest.raises(SingularSystemError):
        R.tridiag_solve_e1(R.TridiagonalMatrix([1.0], []))
    # second pivot collapses: I - T = [[1, -1], [-1, 1]]
    with pytest.raises(SingularSystemError):
        R.tridiag_solve_e1(R.TridiagonalMatrix([0.0, 0.0], [1.0]))


# ---------------------------------------------------------------------------
# tridiagonal eigenvalue range
# ---------------------------------------------------------------------------


def test_eigen_range_order_one_and_two():
    lo, hi = R.tridiag_eigen_range(R.TridiagonalMatrix([0.25], []))
    assert lo == pytest.approx(0.25, abs=1e-10)
    assert hi == pytest.approx(0.25, abs=1e-10)
    lo, hi = R.tridiag_eigen_range(R.TridiagonalMatrix([0.0, 0.0], [1.0]))
    assert lo == pytest.approx(-1.0, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-9)


def test_eigen_range_matches_dense_eigensolver():
    rng = np.random.default_rng(77)
    for _ in range(60):
        k = int(rng.integers(1, 16))
        t = R.TridiagonalMatrix(
            rng.uniform(-1, 1, size=k), rng.uniform(-1, 1, size=k - 1)
        )
        evals = np.linalg.eigvalsh(t.to_dense())
        lo, hi = R.tridiag_eigen_range(t)
        assert lo == pytest.approx(evals[0], abs=1e-8)
        assert hi == pytest.approx(evals[-1], abs=1e-8)


def test_eigen_range_tol_below_float_spacing():
    # a tol finer than the spacing of doubles near the extremes must still
    # end the bisection
    t = R.TridiagonalMatrix([0.9, 0.5], [0.3])
    evals = np.linalg.eigvalsh(t.to_dense())
    lo, hi = R.tridiag_eigen_range(t, tol=1e-17)
    assert lo == pytest.approx(evals[0], abs=1e-15)
    assert hi == pytest.approx(evals[-1], abs=1e-15)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-10])
def test_eigen_range_rejects_bad_tol(tol):
    # nan and inf returned (nan, nan)
    t = R.TridiagonalMatrix([0.9, 0.5], [0.3])
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        R.tridiag_eigen_range(t, tol=tol)
    assert R.tridiag_eigen_range(t, tol=0.0)[1] == pytest.approx(np.linalg.eigvalsh(t.to_dense())[-1])


def test_eigen_range_handles_zero_offdiagonals():
    t = R.TridiagonalMatrix([0.3, -0.2, 0.5], [0.0, 0.0])
    lo, hi = R.tridiag_eigen_range(t)
    assert lo == pytest.approx(-0.2, abs=1e-9)
    assert hi == pytest.approx(0.5, abs=1e-9)


def _reference_sturm_count(alpha, beta_sq, x: float) -> int:
    """The full count of eigenvalues below x that the early-stopping Sturm
    loops replaced, kept as their oracle."""
    # pivot floor large enough that b2 / d cannot overflow
    floor = 1e-154
    count = 0
    d = 1.0
    for a, b2 in zip(alpha, chain((0.0,), beta_sq)):
        d = a - x - b2 / d
        if abs(d) < floor:
            d = -floor if d <= 0.0 else floor
        if d < 0.0:
            count += 1
    return count


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 14), st.integers(0, 2**32 - 1))
def test_sturm_stopping_early_decides_like_the_full_count(k, seed):
    # every bisection decision of tridiag_eigen_range is one of these, so
    # its ranges are those of the full count, bit for bit; a loop resumed
    # at any row from the pivot a loop over the rows above returned gives
    # the pivot of one pass, and so the same decision
    rng = np.random.default_rng(seed)
    alpha, beta = rng.uniform(-1, 1, k), rng.uniform(-1, 1, k - 1)
    beta[rng.random(k - 1) < 0.2] = 0.0  # split blocks
    a, b2 = alpha.tolist(), (beta * beta).tolist()
    rows_b2 = [0.0, *b2]
    # x at a diagonal entry can make a pivot hit the floor
    evals = np.linalg.eigvalsh(R.TridiagonalMatrix(alpha, beta).to_dense())
    for x in [*rng.uniform(-2.5, 2.5, 6).tolist(), *a, *evals.tolist()]:
        count = _reference_sturm_count(a, b2, x)
        for sturm, verdict, resumes in (
            (_sturm_some_below, count >= 1, False),
            (_sturm_all_below, count >= k, True),
        ):
            fresh = sturm(a, rows_b2, x)
            assert (fresh <= 0.0) == verdict
            for row in range(1, k):
                d = sturm(a[:row], rows_b2[:row], x)
                if (d <= 0.0) == resumes:
                    d = sturm(a[row:], rows_b2[row:], x, d)
                assert (d <= 0.0) == verdict
                assert d == fresh or (math.isnan(d) and math.isnan(fresh))


def _cold_block_range(alpha, beta, order: int, tol: float):
    return R.tridiag_eigen_range(
        R.TridiagonalMatrix(alpha[:order], beta[: order - 1]), tol
    )


@settings(max_examples=120, deadline=None)
@given(
    st.integers(2, 40),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1e-12, 1e-9, 1e-3]),
    st.booleans(),
)
def test_resumed_extremes_equal_those_of_the_cold_leading_block(k, seed, tol, snap):
    # a random T and increasing orders: at every order the extremes
    # resumed from the record of the order before are, to the bit, those
    # of tridiag_eigen_range on the leading block
    rng = np.random.default_rng(seed)
    alpha, beta = rng.uniform(-1, 1, k), rng.uniform(-1, 1, k - 1)
    beta[rng.random(k - 1) < 0.2] = 0.0  # split blocks
    if snap:  # a dyadic bracket, whose midpoints land on diagonal entries
        alpha, beta = np.round(alpha * 8) / 8, np.round(beta * 8) / 8
    orders = sorted({1, k, *rng.integers(1, k + 1, int(rng.integers(0, 6))).tolist()})
    record = None
    for order in orders:
        tmat = R.TridiagonalMatrix(alpha[:order], beta[: order - 1])
        extremes, record = _eigen_range_resumed(tmat, tol, record)
        assert extremes == _cold_block_range(alpha, beta, order, tol)


def test_resumed_extremes_after_the_gershgorin_bracket_moved():
    # the rows appended at order 3 widen the bracket on both sides, so no
    # midpoint of order 2 repeats and every one gets a pass from row 0
    alpha, beta = np.array([0.1, -0.2, 3.0, -4.0]), np.array([0.3, 0.5, 0.25])
    _, record = _eigen_range_resumed(R.TridiagonalMatrix(alpha[:2], beta[:1]), 1e-12)
    extremes, moved = _eigen_range_resumed(R.TridiagonalMatrix(alpha, beta), 1e-12, record)
    assert extremes == _cold_block_range(alpha, beta, 4, 1e-12)
    for old, new in zip(record[1], moved[1]):
        assert old and new and not old.keys() & new.keys()


# ---------------------------------------------------------------------------
# Chebyshev walk norms
# ---------------------------------------------------------------------------


def test_walk_norms_order_zero_is_sqrt_degree(toy):
    assert R.chebyshev_walk_norms(toy, 0, 0)[0] == pytest.approx(math.sqrt(3))
    assert R.chebyshev_walk_norms(toy, 3, 0)[0] == pytest.approx(1.0)


def test_walk_norms_single_edge_all_one(edge):
    norms = R.chebyshev_walk_norms(edge, 0, 6)
    assert np.allclose(norms, np.ones(7))
    plain = R.chebyshev_walk_norms(edge, 1, 6, weighted=False)
    assert np.allclose(plain, np.ones(7))


def test_walk_norms_match_dense_chebyshev(toy):
    p = dense_transition(toy)
    d_sqrt = np.sqrt(toy.weighted_degrees)
    mats = [np.eye(4), p]
    for _ in range(4):
        mats.append(2 * p @ mats[-1] - mats[-2])
    for u in (0, 3):
        e = np.zeros(4)
        e[u] = 1.0
        expected = [np.abs(d_sqrt * (m @ e)).sum() for m in mats]
        got = R.chebyshev_walk_norms(toy, u, 5)
        assert np.allclose(got, expected, atol=1e-12)


def test_walk_norms_validate_inputs(toy):
    with pytest.raises(ValueError):
        R.chebyshev_walk_norms(toy, 0, -1)
    with pytest.raises(IndexError):
        R.chebyshev_walk_norms(toy, 9, 2)
    for k in (1.5, True):
        with pytest.raises(ValueError, match="^k must be an integer"):
            R.chebyshev_walk_norms(toy, 0, k)
    for u in (1.0, True):
        with pytest.raises(ValueError, match="^u must be an integer"):
            R.chebyshev_walk_norms(toy, u, 2)
