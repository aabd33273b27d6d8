"""Graph loading, cleaning, generation, and query tests."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resistor as R

from resistor.graph import _build_graph, _component_labels, _hop_distance

from conftest import (
    cut_lattice,
    dense_degrees,
    graph_from_text,
    grid_graph,
    path_graph,
    random_connected,
    random_pair,
    random_weighted,
    toy_graph,
)


def test_path3_parse_shape():
    g = graph_from_text("0 1\n1 2\n")
    assert g.node_count == 3
    assert g.edge_count == 2
    assert g.weighted_degrees.tolist() == [1.0, 2.0, 1.0]
    assert g.is_unweighted


def test_toy_relabels_by_sorted_original_labels():
    g = toy_graph()
    assert g.node_count == 4
    assert g.edge_count == 4
    assert g.old_ids.tolist() == [1, 2, 3, 4]
    assert g.weighted_degrees.tolist() == [3.0, 2.0, 2.0, 1.0]
    assert g.label_index == {1: 0, 2: 1, 3: 2, 4: 3}


def test_duplicate_edges_merge():
    # unweighted duplicates merge by summing their unit weights
    g = graph_from_text("0 1\n0 1\n1 0\n")
    assert g.node_count == 2
    assert g.edge_count == 1
    assert g.weights.tolist() == [3.0, 3.0]
    assert g.weighted_degrees.tolist() == [3.0, 3.0]


def test_weighted_duplicates_sum():
    g = graph_from_text("0 1 0.5\n1 0 1.5\n", weighted=True)
    assert g.edge_count == 1
    assert g.weights.tolist() == [2.0, 2.0]


def test_self_loops_dropped():
    g = graph_from_text("0 0\n0 1\n1 1\n")
    assert g.node_count == 2
    assert g.edge_count == 1


def test_comments_and_blank_lines_skipped():
    g = graph_from_text("# header\n\n0 1\n# trailing\n1 2\n\n")
    assert g.node_count == 3
    assert g.edge_count == 2


def test_unweighted_load_ignores_extra_columns():
    g = graph_from_text("0 1 7.5\n1 2 0.1\n")
    assert g.is_unweighted


def test_malformed_line_reports_line_number():
    with pytest.raises(R.GraphFormatError) as err:
        graph_from_text("0 1\nbogus\n")
    assert err.value.line_number == 2
    with pytest.raises(R.GraphFormatError):
        graph_from_text("0\n")
    with pytest.raises(R.GraphFormatError):
        graph_from_text("-1 2\n")
    # a label past int64 is a format error, not an OverflowError
    with pytest.raises(R.GraphFormatError) as err:
        graph_from_text("0 1\n1 18446744073709551616\n")
    assert err.value.line_number == 2


def test_overflowing_weighted_degree_is_unsupported():
    # each weight is finite, their merged parallel edge is not
    with pytest.raises(R.UnsupportedInputError, match="vertex 0"):
        graph_from_text("0 1 1e308\n1 0 1e308\n", weighted=True)
    with pytest.raises(R.UnsupportedInputError, match="vertex 8"):
        graph_from_text("7 8 1e308\n8 9 1e308\n", weighted=True)


def test_weighted_load_requires_positive_weight():
    with pytest.raises(R.GraphFormatError):
        graph_from_text("0 1\n", weighted=True)
    with pytest.raises(R.GraphFormatError) as err:
        graph_from_text("0 1 1.0\n1 2 -3\n", weighted=True)
    assert err.value.line_number == 2
    with pytest.raises(R.GraphFormatError):
        graph_from_text("0 1 0\n", weighted=True)
    with pytest.raises(R.GraphFormatError):
        graph_from_text("0 1 nan\n", weighted=True)


def test_empty_inputs_rejected():
    with pytest.raises(R.EmptyGraphError):
        graph_from_text("")
    with pytest.raises(R.EmptyGraphError):
        graph_from_text("# only a comment\n")
    with pytest.raises(R.EmptyGraphError):
        graph_from_text("3 3\n")  # a lone self loop


def test_largest_component_kept_and_ids_stable():
    # component {10, 11, 12} (a triangle) beats component {1, 2}
    g = graph_from_text("1 2\n10 11\n11 12\n10 12\n")
    assert g.node_count == 3
    assert g.old_ids.tolist() == [10, 11, 12]
    # tie on size: the component containing the smallest label wins
    g2 = graph_from_text("5 6\n1 2\n")
    assert g2.old_ids.tolist() == [1, 2]
    # many fragments: 3000 disjoint edges, then a triangle that beats them
    # all, then only the fragments, where the smallest label wins the tie
    pairs = "".join(f"{2 * i + 1} {2 * i}\n" for i in reversed(range(3000)))
    g3 = graph_from_text(pairs + "9000 9001\n9001 9002\n9002 9000\n")
    assert g3.old_ids.tolist() == [9000, 9001, 9002]
    assert graph_from_text(pairs).old_ids.tolist() == [0, 1]
    # a long path whose labels and lines are both shuffled, beside fragments
    rng = np.random.default_rng(17)
    order = rng.permutation(20_000)
    lines = [f"{a} {b}\n" for a, b in zip(order[:-1], order[1:])]
    lines += [f"{30_000 + 2 * i} {30_001 + 2 * i}\n" for i in range(500)]
    g4 = graph_from_text("".join(lines[i] for i in rng.permutation(len(lines))))
    assert g4.node_count == 20_000 and g4.edge_count == 19_999
    assert g4.old_ids.tolist() == list(range(20_000))


def test_csr_slices_sorted_and_symmetric(toy):
    g = toy
    for u in range(g.node_count):
        nbrs = [v for v, _ in R.neighbor_slice(g, u)]
        assert nbrs == sorted(nbrs)
        assert len(set(nbrs)) == len(nbrs)
        assert u not in nbrs
        for v in nbrs:
            assert u in [x for x, _ in R.neighbor_slice(g, v)]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        min_size=1,
        max_size=40,
    )
)
def test_cleaning_invariants_random_edge_lists(pairs):
    text = "".join(f"{u} {v}\n" for u, v in pairs)
    if all(u == v for u, v in pairs):
        with pytest.raises(R.EmptyGraphError):
            graph_from_text(text)
        return
    g = graph_from_text(text)
    # handshake: offsets count both arc copies of every edge
    assert g.offsets[-1] == 2 * g.edge_count
    assert g.weighted_degrees.sum() == pytest.approx(g.weights.sum())
    # connectivity: BFS from 0 reaches everything
    assert (R.bfs_hops(g, 0) >= 0).all()
    # degrees match the dense rebuild
    assert np.allclose(g.weighted_degrees, dense_degrees(g))


def _reference_build(u_raw, v_raw, w_raw):
    """The five Graph arrays as built by structured-row np.unique and
    np.lexsort: the reference for the flat-key build of _build_graph."""
    keep = u_raw != v_raw
    u_raw, v_raw, w_raw = u_raw[keep], v_raw[keep], w_raw[keep]
    labels = np.unique(np.concatenate([u_raw, v_raw]))
    u, v = np.searchsorted(labels, u_raw), np.searchsorted(labels, v_raw)
    pairs = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)
    uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
    merged_w = np.bincount(inverse, weights=w_raw, minlength=len(uniq))

    def csr(n, eu, ev, w):
        src, dst = np.concatenate([eu, ev]), np.concatenate([ev, eu])
        ww = np.concatenate([w, w])
        order = np.lexsort((dst, src))
        src, dst, ww = src[order], dst[order], ww[order]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
        degrees = np.bincount(src, weights=ww, minlength=n)
        return offsets, dst.astype(np.int64), ww.astype(np.float64), degrees

    offsets, neighbors, _, _ = csr(len(labels), uniq[:, 0], uniq[:, 1], merged_w)
    n = len(labels)
    comp = _component_labels(n, np.repeat(np.arange(n), np.diff(offsets)), neighbors)
    best = int(np.argmax(np.bincount(comp)))
    kept = np.where(comp == best)[0]
    edge_mask = comp[uniq[:, 0]] == best
    eu = np.searchsorted(kept, uniq[edge_mask, 0])
    ev = np.searchsorted(kept, uniq[edge_mask, 1])
    return (*csr(len(kept), eu, ev, merged_w[edge_mask]), labels[kept].astype(np.int64))


@st.composite
def _raw_edge_lists(draw):
    # a small pool of labels up to 2^40, so that self loops and several
    # components come up; each pair is repeated up to four times with
    # full-mantissa weights, whose sums show the merge order
    labels = draw(st.lists(st.integers(0, 2 ** 40), min_size=2, max_size=14, unique=True))
    end = st.sampled_from(labels)
    weight = st.integers(1, 2 ** 30).map(lambda k: k / 7919.0)
    edges = []
    for a, b in draw(st.lists(st.tuples(end, end), min_size=1, max_size=25)):
        edges += [(a, b, x) for x in draw(st.lists(weight, min_size=1, max_size=4))]
    u, v, w = zip(*draw(st.permutations(edges)))
    return (
        np.asarray(u, dtype=np.int64),
        np.asarray(v, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
    )


@settings(max_examples=150, deadline=None)
@given(_raw_edge_lists())
def test_build_matches_structured_unique_reference(raw):
    u, v, w = raw
    if np.all(u == v):
        with pytest.raises(R.EmptyGraphError):
            _build_graph(u, v, w)
        return
    g = _build_graph(u, v, w)
    fields = ("offsets", "neighbors", "weights", "weighted_degrees", "old_ids")
    for name, ref in zip(fields, _reference_build(u, v, w)):
        got = getattr(g, name)
        assert got.dtype == ref.dtype, name
        assert np.array_equal(got, ref), name


def test_degree_and_neighbor_slice(toy):
    assert R.degree(toy, 0) == 3.0
    assert R.degree(toy, 3) == 1.0
    assert R.neighbor_slice(toy, 3) == [(0, 1.0)]
    assert R.neighbor_slice(toy, 1) == [(0, 1.0), (2, 1.0)]
    with pytest.raises(IndexError):
        R.degree(toy, 4)
    with pytest.raises(IndexError):
        R.neighbor_slice(toy, -1)


def test_jump_uniform_chi_square(toy):
    rng = np.random.default_rng(11)
    n = toy.node_count
    draws = np.array([R.jump(toy, rng) for _ in range(40_000)])
    counts = np.bincount(draws, minlength=n)
    expected = len(draws) / n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # df = 3; far outside any plausible quantile would signal bias
    assert chi2 < 25.0


def test_bfs_hops_path():
    g = path_graph(6)
    assert R.bfs_hops(g, 0).tolist() == [0, 1, 2, 3, 4, 5]
    assert R.bfs_hops(g, 3).tolist() == [3, 2, 1, 0, 1, 2]


def test_hop_distance_matches_bfs_hops():
    rng = np.random.default_rng(2)
    for g in (cut_lattice(15, 0.2, 4), random_connected(60, 9), path_graph(30)):
        for _ in range(10):
            s, t = random_pair(rng, g.node_count)
            assert _hop_distance(g, s, t) == R.bfs_hops(g, s)[t]
        assert _hop_distance(g, 3, 3) == 0


def test_hop_distance_unreachable():
    two_edges = R.Graph(
        offsets=np.array([0, 1, 2, 3, 4], dtype=np.int64),
        neighbors=np.array([1, 0, 3, 2], dtype=np.int64),
        weights=np.ones(4),
        weighted_degrees=np.ones(4),
        old_ids=np.arange(4, dtype=np.int64),
    )
    assert _hop_distance(two_edges, 0, 1) == 1
    assert _hop_distance(two_edges, 0, 2) == -1


@pytest.mark.parametrize(
    "g",
    [random_connected(50, 3), random_weighted(30, 8), cut_lattice(15, 0.2, 4)],
    ids=["random", "weighted", "cut-lattice"],
)
def test_reverse_arcs_is_an_involution(g):
    rev = g.reverse_arcs
    assert np.array_equal(rev[rev], np.arange(len(g.neighbors)))
    assert np.array_equal(g.neighbors[rev], g.arc_sources)
    assert np.array_equal(g.arc_sources[rev], g.neighbors)
    assert np.array_equal(g.weights[rev], g.weights)


def test_round_trip_text(tmp_path):
    g = toy_graph()
    p = tmp_path / "toy.txt"
    R.save_edge_list(g, p)
    h = R.load_edge_list(p)
    assert h.node_count == g.node_count
    assert h.edge_count == g.edge_count
    assert np.array_equal(h.offsets, g.offsets)
    assert np.array_equal(h.neighbors, g.neighbors)
    assert np.array_equal(h.weights, g.weights)


def test_round_trip_weighted_text(tmp_path):
    g = graph_from_text("0 1 0.25\n1 2 3.5\n0 2 1.125\n", weighted=True)
    p = tmp_path / "w.txt"
    R.save_edge_list(g, p)
    h = R.load_edge_list(p, weighted=True)
    assert np.array_equal(h.weights, g.weights)


def test_round_trip_binary_cache(tmp_path):
    g = toy_graph()
    p = tmp_path / "toy.rdg"
    R.save_cache(g, p)
    h = R.load_cache(p)
    assert np.array_equal(h.offsets, g.offsets)
    assert np.array_equal(h.neighbors, g.neighbors)
    assert np.array_equal(h.weights, g.weights)
    assert np.array_equal(h.old_ids, g.old_ids)
    assert np.array_equal(h.weighted_degrees, g.weighted_degrees)
    with open(p, "rb") as fh:
        assert fh.read(4) == b"RDG1"


def test_cache_rejects_garbage(tmp_path):
    p = tmp_path / "bad.rdg"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(R.GraphFormatError):
        R.load_cache(p)
    p.write_bytes(b"RDG1" + b"\x00" * 4)
    with pytest.raises(R.GraphFormatError):
        R.load_cache(p)


def _write_cache(path, offsets, neighbors, weights, old_ids, n=None, m=None):
    """Write the cache layout by hand, header counts overridable."""
    n = len(offsets) - 1 if n is None else n
    m = len(neighbors) // 2 if m is None else m
    with open(path, "wb") as fh:
        fh.write(b"RDG1" + struct.pack("<QQ", n, m))
        for arr, dtype in ((offsets, "<i8"), (neighbors, "<i8"), (weights, "<f8"), (old_ids, "<i8")):
            fh.write(np.asarray(arr, dtype=dtype).tobytes())


# the path 0-1-2-3 as cache arrays, and one corruption per rejection path
PATH_CACHE = {
    "offsets": [0, 1, 3, 5, 6],
    "neighbors": [1, 0, 2, 1, 3, 2],
    "weights": [1.0] * 6,
    "old_ids": [0, 1, 2, 3],
}
CACHE_CORRUPTIONS = {
    "offsets-start": ("offsets", 0, 1, "offsets"),
    "offsets-end": ("offsets", 4, 5, "offsets"),
    "offsets-order": ("offsets", 2, 0, "offsets"),
    "label-repeat": ("old_ids", 1, 0, "labels"),
    "label-order": ("old_ids", 3, 1, "labels"),
    "label-negative": ("old_ids", 0, -1, "labels"),
    "id-too-large": ("neighbors", 0, 10**6, "neighbor id"),
    "id-negative": ("neighbors", 5, -1, "neighbor id"),
    "self-loop": ("neighbors", 0, 0, "self loop"),
    "unsorted": ("neighbors", 1, 3, "ascending"),
    "zero-weight": ("weights", 2, 0.0, "weights"),
    "nan-weight": ("weights", 2, float("nan"), "weights"),
    "inf-weight": ("weights", 2, float("inf"), "weights"),
    "one-way-arc": ("neighbors", 0, 2, "symmetric"),
    "one-way-weight": ("weights", 0, 2.0, "symmetric"),
}


@pytest.mark.parametrize("case", sorted(CACHE_CORRUPTIONS))
def test_cache_rejects_corrupt_arrays(tmp_path, case):
    field, i, value, message = CACHE_CORRUPTIONS[case]
    arrays = {k: list(v) for k, v in PATH_CACHE.items()}
    arrays[field][i] = value
    p = tmp_path / "bad.rdg"
    _write_cache(p, **arrays)
    with pytest.raises(R.GraphFormatError, match=message):
        R.load_cache(p)
    _write_cache(p, **PATH_CACHE)
    assert R.load_cache(p).edge_count == 3


def test_cache_rejects_wrong_length(tmp_path):
    p = tmp_path / "bad.rdg"
    _write_cache(p, **PATH_CACHE, m=4)
    with pytest.raises(R.GraphFormatError, match="bytes"):
        R.load_cache(p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(R.GraphFormatError, match="bytes"):
        R.load_cache(p)
    _write_cache(p, **PATH_CACHE, n=2**62)
    with pytest.raises(R.GraphFormatError, match="bytes"):
        R.load_cache(p)


def test_cache_rejects_one_way_cycle(tmp_path):
    # every vertex has one arc in and one out, but no arc has a reverse
    p = tmp_path / "bad.rdg"
    _write_cache(p, [0, 1, 2, 3, 4], [1, 2, 3, 0], [1.0] * 4, [0, 1, 2, 3])
    with pytest.raises(R.GraphFormatError, match="symmetric"):
        R.load_cache(p)


def test_cache_rejects_two_components(tmp_path):
    p = tmp_path / "bad.rdg"
    _write_cache(p, [0, 1, 2, 3, 4], [1, 0, 3, 2], [1.0] * 4, [0, 1, 2, 3])
    with pytest.raises(R.GraphFormatError, match="component"):
        R.load_cache(p)


def test_cache_rejects_overflowing_degree(tmp_path):
    # every weight is finite, but the middle vertex of the path sums to inf
    p = tmp_path / "bad.rdg"
    _write_cache(p, [0, 1, 3, 4], [1, 0, 2, 1], [1e308] * 4, [5, 6, 7])
    with pytest.raises(R.UnsupportedInputError, match="vertex 6"):
        R.load_cache(p)


def test_cache_rejects_no_edges(tmp_path):
    p = tmp_path / "bad.rdg"
    _write_cache(p, [0, 0], [], [], [7])
    with pytest.raises(R.EmptyGraphError):
        R.load_cache(p)


# ---------------------------------------------------------------------------
# triangle reweighting
# ---------------------------------------------------------------------------


def brute_triangle_count(g, u, v):
    nu = {x for x, _ in R.neighbor_slice(g, u)}
    nv = {x for x, _ in R.neighbor_slice(g, v)}
    return len(nu & nv)


def test_triangle_weight_triangle_and_path():
    k3 = graph_from_text("0 1\n1 2\n0 2\n")
    tw = R.triangle_weight(k3)
    assert tw.weights.tolist() == [1.0] * 6
    p3 = path_graph(3)
    tw = R.triangle_weight(p3)
    # no triangles anywhere: fallback weight 1
    assert tw.weights.tolist() == [1.0] * 4
    assert tw.weighted_degrees.tolist() == [1.0, 2.0, 1.0]


def test_triangle_weight_toy(toy):
    tw = R.triangle_weight(toy)
    # triangle edges close exactly one triangle; the pendant edge closes
    # none and falls back to 1
    eu, ev, w = R.edge_arrays(tw)
    got = {(int(a), int(b)): x for a, b, x in zip(eu, ev, w)}
    assert got == {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0, (0, 3): 1.0}


def test_triangle_weight_matches_brute_force():
    g = R.generate_er(30, 90, seed=5)
    tw = R.triangle_weight(g)
    eu, ev, w = R.edge_arrays(tw)
    for a, b, x in zip(eu.tolist(), ev.tolist(), w.tolist()):
        expected = brute_triangle_count(g, a, b)
        assert x == max(expected, 1.0)
    assert np.allclose(tw.weighted_degrees, dense_degrees(tw))


def test_triangle_weight_rejects_weighted():
    g = graph_from_text("0 1 2.0\n1 2 1.0\n", weighted=True)
    with pytest.raises(R.UnsupportedInputError):
        R.triangle_weight(g)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_generate_er_deterministic_and_connected():
    a = R.generate_er(60, 180, seed=9)
    b = R.generate_er(60, 180, seed=9)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.neighbors, b.neighbors)
    assert (R.bfs_hops(a, 0) >= 0).all()
    assert a.node_count <= 60
    assert a.edge_count <= 180
    c = R.generate_er(60, 180, seed=10)
    assert not (
        a.node_count == c.node_count
        and np.array_equal(a.neighbors, c.neighbors)
    )


def test_generate_er_validates():
    with pytest.raises(ValueError):
        R.generate_er(1, 1, seed=0)
    with pytest.raises(ValueError):
        R.generate_er(5, 11, seed=0)
    with pytest.raises(ValueError):
        R.generate_er(5, 0, seed=0)
    # the full clique is fine
    g = R.generate_er(5, 10, seed=0)
    assert g.edge_count == 10


def test_generate_ba_shape_and_determinism():
    g = R.generate_ba(50, 3, seed=4)
    assert g.node_count == 50
    # star core contributes `attach` edges; each later vertex adds `attach`
    assert g.edge_count == 3 + (50 - 4) * 3
    assert (R.bfs_hops(g, 0) >= 0).all()
    h = R.generate_ba(50, 3, seed=4)
    assert np.array_equal(g.neighbors, h.neighbors)
    with pytest.raises(ValueError):
        R.generate_ba(3, 3, seed=0)
    with pytest.raises(ValueError):
        R.generate_ba(5, 0, seed=0)


def test_generated_graphs_have_positive_degrees():
    for seed in range(3):
        g = R.generate_er(40, 70, seed=seed)
        assert g.weighted_degrees.min() >= 1.0
        h = R.generate_ba(40, 2, seed=seed)
        assert h.weighted_degrees.min() >= 1.0


def test_grid_helper_shape():
    g = grid_graph(4, 5)
    assert g.node_count == 20
    assert g.edge_count == 4 * 4 + 3 * 5
