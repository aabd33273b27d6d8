"""Graph loading, cleaning, generation, and query tests."""

import io
import struct
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resistor as R
import resistor.graph as graph_module

from resistor.graph import (
    JAGGED_MIN_ROWS,
    JaggedLayout,
    _arc_positions,
    _build_graph,
    _component_labels,
    _csr_from_canonical,
    _first_occurrences,
    _hop_distance,
    _jagged_layout,
)

from conftest import (
    bfs_hops,
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


# int and float accept each of these; a data line must be ASCII without "_"
MALFORMED_TOKENS = {
    "digit-separator": ("0 1\n1_0 2\n", False),
    "arabic-indic-digit": ("0 1\n\u0661 2\n", False),
    "weight-separator": ("0 1 1.0\n1 2 1_0.5\n", True),
    "no-break-space": ("0 1\n1\u00a02\n", False),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TOKENS))
def test_malformed_token_is_rejected(case):
    text, weighted = MALFORMED_TOKENS[case]
    with pytest.raises(R.GraphFormatError, match="ASCII") as err:
        graph_from_text(text, weighted=weighted)
    assert err.value.line_number == 2


@pytest.mark.parametrize("text", ["1\x1f2\n", "1\x1c2\n", "0 1\x1e\n", "\x1d\n"],
                         ids=["unit-separator", "file-separator", "trailing", "separator-only"])
def test_ascii_separator_in_a_data_line_is_rejected(text):
    # str.split would split on \x1c-\x1f; fields are split on ASCII
    # whitespace alone, and a data line holding a separator is malformed
    with pytest.raises(R.GraphFormatError, match="separator") as err:
        graph_from_text("0 1\n" + text)
    assert err.value.line_number == 2


def test_fields_split_on_ascii_whitespace():
    g = graph_from_text("0\t1\r\n1\x0b2\n\x0c2 \t 3\n")
    assert g.edge_count == 3


def test_line_numbers_and_checks_cross_chunks(monkeypatch):
    # a chunk that holds a comment with non-ASCII bytes is checked line by
    # line; line numbers run on across chunk boundaries
    monkeypatch.setattr(graph_module, "_CHUNK_BYTES", 8)
    lines = ["# r\u00e9seau", "0 1", "", "1 2", "# \x1f", "2 3", "3 4"]
    g = graph_from_text("\n".join(lines))
    assert g.edge_count == 4
    with pytest.raises(R.GraphFormatError, match="separator") as err:
        graph_from_text("\n".join(lines + ["4 5", "5\x1f6", "6 7"]))
    assert err.value.line_number == 9
    with pytest.raises(R.GraphFormatError, match="integers") as err:
        graph_from_text("0 1\n1 2\n2 3\n3 x\n")
    assert err.value.line_number == 4


class _Bounded:
    def read(self, size=-1):
        if size is None or size < 0:
            raise AssertionError("the stream was read whole")
        return super().read(size)


class _BoundedBytesIO(_Bounded, io.BytesIO):
    pass


class _BoundedStringIO(_Bounded, io.StringIO):
    pass


@pytest.mark.parametrize("stream", [
    lambda text: _BoundedBytesIO(text.encode()), _BoundedStringIO,
], ids=["binary", "text"])
def test_streams_are_read_in_bounded_chunks(monkeypatch, tmp_path, stream):
    monkeypatch.setattr(graph_module, "_CHUNK_BYTES", 8)
    lines = ["# r\u00e9seau", "0 1", "", "10 11", "1 2 0.5", "# \x1f", "2 3", "3 4"]
    path = tmp_path / "g.txt"
    path.write_text("\n".join(lines))
    _assert_same_graph(R.load_edge_list(stream("\n".join(lines))),
                       R.load_edge_list(path))
    for bad in (9, 12):
        text = "\n".join(lines + ["4 5"] * (bad - len(lines) - 1) + ["5 x", "6 7"])
        with pytest.raises(R.GraphFormatError, match="integers") as err:
            R.load_edge_list(stream(text))
        assert err.value.line_number == bad


_LABEL = st.integers(0, 2**63 - 1).map(lambda x: str(x).encode())
_WEIGHT = st.floats(1e-6, 1e6).map(lambda x: repr(x).encode())
_SPACE = st.sampled_from([b" ", b"\t", b"  ", b" \t\x0b", b"\x0c"])


@st.composite
def _valid_line(draw, weighted):
    kind = draw(st.sampled_from(["edge", "edge", "edge", "comment", "blank"]))
    if kind == "comment":
        return b"#" + draw(st.binary(max_size=12)).replace(b"\n", b"")
    if kind == "blank":
        return draw(st.sampled_from([b"", b" ", b"\t\r"]))
    fields = [draw(_LABEL), draw(_LABEL)] + ([draw(_WEIGHT)] if weighted else [])
    return draw(_SPACE).join(fields) + draw(st.sampled_from([b"", b"\r", b" "]))


# every rejection of a data line: (line, weighted loads only, message);
# the lines that end in a weight are rejected whether it is read or not
_BAD_LINES = {
    "non-integer label": (b"3 x 7", False, "labels must be integers"),
    "fractional label": (b"1.5 2 7", False, "labels must be integers"),
    "negative label": (b"-3 4 7", False, "must be in [0, 2^63 - 1]"),
    "label above int64": (b"9223372036854775808 1 7", False, "must be in [0, 2^63 - 1]"),
    "single field": (b"5", False, "expected 'u v [w]'"),
    "non-ASCII byte": (b"1 2\xff 7", False, "must be ASCII"),
    "non-ASCII digit": ("\u0661 2 7".encode(), False, "must be ASCII"),
    "digit separator": (b"1_0 2 7", False, "must be ASCII"),
    "file separator": (b"1\x1c2 7", False, "must be ASCII"),
    "group separator": (b"1 2\x1d 7", False, "must be ASCII"),
    "record separator": (b"1\x1e 2 7", False, "must be ASCII"),
    "unit separator": (b"1\x1f2 7", False, "must be ASCII"),
    "missing weight": (b"1 2", True, "requires a third column"),
    "non-numeric weight": (b"1 2 heavy", True, "must be a number"),
    "zero weight": (b"1 2 0", True, "must be positive"),
    "negative weight": (b"1 2 -2.5", True, "must be positive"),
    "infinite weight": (b"1 2 inf", True, "must be positive"),
    "nan weight": (b"1 2 nan", True, "must be positive"),
}


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(sorted(_BAD_LINES)), st.booleans(),
       st.sampled_from(["whole", "boundary", "small"]))
def test_each_rejection_names_its_line(data, kind, weighted, chunking):
    bad, weighted_only, message = _BAD_LINES[kind]
    weighted = weighted or weighted_only
    lines = data.draw(st.lists(_valid_line(weighted), max_size=30))
    at = data.draw(st.integers(0, len(lines)))
    lines.insert(at, bad)
    text = b"\n".join(lines) + data.draw(st.sampled_from([b"", b"\n"]))
    offset = sum(len(line) + 1 for line in lines[:at])
    chunk = {"whole": graph_module._CHUNK_BYTES, "boundary": max(offset - 1, 1),
             "small": data.draw(st.integers(1, 16))}[chunking]
    with mock.patch.object(graph_module, "_CHUNK_BYTES", chunk):
        if chunking == "boundary" and offset >= 2:
            # the bad line is the first line of the second chunk
            first = next(graph_module._iter_chunks(io.BytesIO(text)))
            assert len(first) == offset
        with pytest.raises(R.GraphFormatError) as err:
            R.load_edge_list(io.BytesIO(text), weighted=weighted)
    assert err.value.line_number == at + 1
    assert message in str(err.value)


def _load_by_lines(source, weighted: bool) -> R.Graph:
    """``load_edge_list`` with every chunk parsed by the line loop."""
    parts, lineno = [], 0
    for chunk in graph_module._iter_chunks(source):
        parts.append(graph_module._line_edges(chunk, lineno, weighted))
        lineno += chunk.count(b"\n") + (not chunk.endswith(b"\n"))
    if not any(len(u) for u, _, _ in parts):
        raise R.EmptyGraphError("edge list contains no edges")
    return _build_graph(*(np.concatenate(column) for column in zip(*parts)))


# labels at and around the array parser's limits: a sign and leading zeros,
# 18 digits (the longest it takes), 19 and 20 digits, 2^63 - 1 and 2^63
_EDGE_LABEL = st.one_of(
    st.integers(0, 99).map(lambda x: str(x).encode()),
    _LABEL,
    st.sampled_from([b"+5", b"00012", b"0", b"9" * 18, b"1" + b"0" * 17,
                     b"0" * 18, b"0" * 19, b"1" * 19, b"0" + b"9" * 18,
                     b"0" * 19 + b"7", b"1" * 20, str(2**63 - 1).encode(),
                     str(2**63).encode()]),
    st.integers(10**17, 2**64).map(lambda x: str(x).encode()),
)
_LINE_END = st.sampled_from([b"", b"\r", b" ", b"\t"])


@st.composite
def _mixed_line(draw, weighted):
    kind = draw(st.sampled_from(["two", "two", "two", "one", "more", "comment", "blank", "bad"]))
    if kind == "comment":
        return draw(st.sampled_from([b"", b" ", b"\t"])) + b"#" + draw(
            st.binary(max_size=12)).replace(b"\n", b"")
    if kind == "blank":
        return draw(st.sampled_from([b"", b" ", b"\r", b"\x0b", b"\x0c", b" \t\x0b\x0c\r"]))
    if kind == "bad":
        return _BAD_LINES[draw(st.sampled_from(sorted(_BAD_LINES)))][0]
    if kind == "one":
        return draw(_EDGE_LABEL) + draw(_LINE_END)
    fields = [draw(_EDGE_LABEL), draw(_EDGE_LABEL)]
    if kind == "more" or weighted:
        fields += draw(st.lists(st.one_of(_WEIGHT, _EDGE_LABEL), min_size=1, max_size=2))
    return draw(_SPACE).join(fields) + draw(_LINE_END)


@settings(max_examples=400, deadline=None)
@given(st.data(), st.booleans(), st.booleans(),
       st.sampled_from(["whole", "boundary", "small"]))
def test_array_path_matches_the_line_loop(data, weighted, clean, chunking):
    # the same graph, or the same error on the same line, whichever parser
    # takes each chunk; a clean text holds no bad line, so its chunks
    # mostly take the array path; a line of 1, 3 or 4 fields takes the loop
    line = _valid_line(weighted) if clean else _mixed_line(weighted)
    lines = data.draw(st.lists(line, min_size=1, max_size=30))
    text = b"\n".join(lines) + data.draw(st.sampled_from([b"", b"\n"]))
    at = data.draw(st.integers(0, len(lines) - 1))
    offset = sum(len(line) + 1 for line in lines[:at])
    chunk = {"whole": graph_module._CHUNK_BYTES, "boundary": max(offset - 1, 1),
             "small": data.draw(st.integers(1, 16))}[chunking]
    outcomes = []
    with mock.patch.object(graph_module, "_CHUNK_BYTES", chunk):
        for load in (R.load_edge_list, _load_by_lines):
            try:
                outcomes.append(load(io.BytesIO(text), weighted))
            except (R.GraphFormatError, R.EmptyGraphError, R.UnsupportedInputError) as err:
                outcomes.append((type(err), getattr(err, "line_number", None), str(err)))
    got, want = outcomes
    if isinstance(want, R.Graph):
        assert isinstance(got, R.Graph), got
        _assert_same_graph(got, want)
    else:
        assert got == want


def _no_line_loop(*args):
    raise AssertionError("a chunk went to the line loop")


def test_comments_and_blank_lines_keep_a_chunk_in_arrays(monkeypatch):
    # a SNAP header, blank lines of every ASCII whitespace, CRLF endings,
    # leading zeros and 18-digit labels are all parsed in arrays
    text = (b"# Undirected graph: ca-GrQc.txt\n# Nodes: 5242 Edges: 14496\n"
            b"# FromNodeId\tToNodeId\n3466\t937\r\n\r\n \x0b\x0c\n"
            b"  # r\xc3\xa9seau_1 \xd9\xa1 #\n937 000005233\n"
            b"999999999999999999 3466\n#")
    monkeypatch.setattr(graph_module, "_line_edges", _no_line_loop)
    g = R.load_edge_list(io.BytesIO(text))
    assert g.old_ids.tolist() == [937, 3466, 5233, 10**18 - 1]
    assert g.edge_count == 3
    # a label of 19 digits, a "#" after a label, a third and a fourth field,
    # a sign, a lone label: the loop's
    for bad in (b"1 1234567890123456789\n", b"1 2 #\n", b"1 2 3\n", b"1 2 3 4\n",
                b"+1 2\n", b"1\n2\n"):
        assert graph_module._digit_edges(bad) is None


def test_comments_may_hold_anything():
    g = graph_from_text("# r\u00e9seau_1 \u0661\n0 1\n  # 1_0 2\n1 2\n")
    assert g.old_ids.tolist() == [0, 1, 2]


def test_non_numeric_weight_reports_line_number():
    with pytest.raises(R.GraphFormatError, match="edge weight must be a number") as err:
        graph_from_text("0 1 1.0\n1 2 heavy\n", weighted=True)
    assert err.value.line_number == 2


def test_overflowing_weighted_degree_is_unsupported():
    # each weight is finite, their merged parallel edge is not
    with pytest.raises(R.UnsupportedInputError, match="vertex 0"):
        graph_from_text("0 1 1e308\n1 0 1e308\n", weighted=True)
    with pytest.raises(R.UnsupportedInputError, match="vertex 8"):
        graph_from_text("7 8 1e308\n8 9 1e308\n", weighted=True)


def test_more_labels_than_pair_codes_hold_are_unsupported(monkeypatch):
    # 2^31 labels would take a list of over a billion edges, so the bound
    # is lowered to show the check
    monkeypatch.setattr(graph_module, "_MAX_PAIR_IDS", 3)
    with pytest.raises(R.UnsupportedInputError, match="^4 distinct labels"):
        graph_from_text("0 1\n2 3\n")
    assert graph_from_text("0 1\n1 2\n").node_count == 3


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


def test_largest_component_tie_between_the_largest_goes_to_the_smallest_root():
    # two triangles of three vertices tie, beside an edge holding label 0;
    # {2, 5, 8} (ids 2, 4, 6) wins over {3, 7, 9} (ids 3, 5, 7) though its
    # edges come last
    g = graph_from_text("0 1\n7 3\n3 9\n9 7\n8 5\n2 8\n5 2\n")
    assert g.old_ids.tolist() == [2, 5, 8]
    assert g.edge_count == 3
    src = np.array([0, 3, 3, 5, 5, 7, 2, 4, 4, 6, 2, 6])
    dst = np.array([1, 5, 7, 7, 3, 3, 4, 2, 6, 4, 6, 2])
    roots = _component_labels(8, np.concatenate([src, dst]), np.concatenate([dst, src]))
    assert roots.tolist() == [0, 0, 2, 3, 2, 3, 2, 3]


def test_csr_slices_sorted_and_symmetric(toy):
    def nbrs_of(u):
        return toy.neighbors[toy.offsets[u] : toy.offsets[u + 1]].tolist()

    for u in range(toy.node_count):
        nbrs = nbrs_of(u)
        assert nbrs == sorted(nbrs)
        assert len(set(nbrs)) == len(nbrs)
        assert u not in nbrs
        for v in nbrs:
            assert u in nbrs_of(v)


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
    assert (bfs_hops(g, 0) >= 0).all()
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


def test_bfs_hops_path():
    # pins the conftest hop reference that other tests compare against
    g = path_graph(6)
    assert bfs_hops(g, 0).tolist() == [0, 1, 2, 3, 4, 5]
    assert bfs_hops(g, 3).tolist() == [3, 2, 1, 0, 1, 2]


def test_arc_positions_concatenate_the_csr_slices():
    g = R.generate_ba(300, 3, 7)
    rng = np.random.default_rng(3)
    # unsorted, with repeats, and empty
    empty = np.zeros(0, np.int64)
    for sources in (rng.integers(0, g.node_count, 40), np.array([5, 5, 0]), empty):
        arc, count = _arc_positions(g.offsets, sources)
        want = [np.arange(g.offsets[u], g.offsets[u + 1]) for u in sources]
        assert np.array_equal(arc, np.concatenate([empty, *want]))
        assert arc.dtype == np.int64
        assert count.tolist() == [len(w) for w in want]


def test_hop_distance_matches_bfs_hops():
    rng = np.random.default_rng(2)
    for g in (cut_lattice(15, 0.2, 4), random_connected(60, 9), path_graph(30)):
        for _ in range(10):
            s, t = random_pair(rng, g.node_count)
            assert _hop_distance(g, s, t) == bfs_hops(g, s)[t]
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
    rev = np.argsort(g.neighbors * g.node_count + g.arc_sources)
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


class _LargestWrite(io.StringIO):
    largest = 0

    def write(self, text):
        self.largest = max(self.largest, len(text))
        return super().write(text)


@pytest.mark.parametrize("weighted", [False, True])
def test_save_edge_list_writes_in_bounded_blocks(monkeypatch, tmp_path, weighted):
    monkeypatch.setattr(graph_module, "_SAVE_EDGES", 7)
    g = random_weighted(60, 3) if weighted else cut_lattice(12, 0.1, 5)
    eu, ev, w = graph_module.edge_arrays(g)
    lines = [f"{a} {b} {x!r}\n" if weighted else f"{a} {b}\n"
             for a, b, x in zip(eu.tolist(), ev.tolist(), w.tolist())]
    out = _LargestWrite()
    R.save_edge_list(g, out)
    assert out.getvalue() == "".join(lines)
    assert out.largest <= 7 * max(map(len, lines))
    path = tmp_path / "g.txt"
    R.save_edge_list(g, path)
    assert path.read_text() == "".join(lines)
    _assert_same_graph(R.load_edge_list(path, weighted=weighted), g)


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


def test_weighted_cache_round_trip_keeps_degrees_to_the_bit(tmp_path):
    # the loaded degrees come from the check's rebuild of the CSR
    g = random_weighted(300, 4)
    p = tmp_path / "w.rdg"
    R.save_cache(g, p)
    h = R.load_cache(p)
    for name in ("offsets", "neighbors", "weights", "old_ids"):
        assert np.array_equal(getattr(h, name), getattr(g, name))
    sums = np.bincount(g.arc_sources, weights=g.weights, minlength=g.node_count)
    assert h.weighted_degrees.tobytes() == sums.tobytes()


def test_loaded_cache_holds_only_its_fields(tmp_path):
    # the checks run on plain arrays: nothing derived is cached on load
    p = tmp_path / "g.rdg"
    R.save_cache(cut_lattice(12, 0.1, 5), p)
    h = R.load_cache(p)
    fields = {"offsets", "neighbors", "weights", "weighted_degrees", "old_ids"}
    assert set(h.__dict__) == fields


@pytest.mark.skipif(sys.byteorder != "little", reason="a big-endian host copies the arrays")
def test_loaded_cache_arrays_are_read_only_views_of_one_buffer(tmp_path):
    p = tmp_path / "g.rdg"
    R.save_cache(cut_lattice(12, 0.1, 5), p)
    h = R.load_cache(p)
    arrays = [h.offsets, h.neighbors, h.weights, h.old_ids]
    # back to back, as in the file, and all on one buffer
    for a, b in zip(arrays, arrays[1:]):
        assert a.ctypes.data + a.nbytes == b.ctypes.data
    assert len({id(a.base) for a in arrays}) == 1
    for a in arrays:
        assert not a.flags.writeable and a.flags.aligned
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


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
    "reverse-weight-one-ulp-off": ("weights", 1, float(np.nextafter(1.0, 2.0)), "symmetric"),
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
# generators
# ---------------------------------------------------------------------------


def test_generate_er_deterministic_and_connected():
    a = R.generate_er(60, 180, seed=9)
    b = R.generate_er(60, 180, seed=9)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.neighbors, b.neighbors)
    assert (bfs_hops(a, 0) >= 0).all()
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
    with pytest.raises(ValueError, match="n <= 2147483648"):
        R.generate_er(2**31 + 1, 1, seed=0)  # its pair codes would not fit int64
    # the full clique is fine
    g = R.generate_er(5, 10, seed=0)
    assert g.edge_count == 10


def test_generate_ba_shape_and_determinism():
    g = R.generate_ba(50, 3, seed=4)
    assert g.node_count == 50
    # star core contributes `attach` edges; each later vertex adds `attach`
    assert g.edge_count == 3 + (50 - 4) * 3
    assert (bfs_hops(g, 0) >= 0).all()
    h = R.generate_ba(50, 3, seed=4)
    assert np.array_equal(g.neighbors, h.neighbors)
    with pytest.raises(ValueError):
        R.generate_ba(3, 3, seed=0)
    with pytest.raises(ValueError):
        R.generate_ba(5, 0, seed=0)


def _reference_er(n: int, m_target: int, seed: int) -> R.Graph:
    """The set-building loop that generate_er replaced, kept as its oracle."""
    rng = np.random.default_rng(seed)
    chosen: set = set()
    while len(chosen) < m_target:
        need = m_target - len(chosen)
        a = rng.integers(0, n, size=2 * need + 8)
        b = rng.integers(0, n, size=2 * need + 8)
        for u, v in zip(a.tolist(), b.tolist()):
            if u == v:
                continue
            code = (u * n + v) if u < v else (v * n + u)
            chosen.add(code)
            if len(chosen) >= m_target:
                break
    codes = np.fromiter(sorted(chosen), dtype=np.int64, count=m_target)
    us = codes // n
    vs = codes % n
    return _build_graph(us, vs, np.ones(m_target, dtype=np.float64))


def _reference_ba(n: int, attach: int, seed: int) -> R.Graph:
    """The one-call-per-pick loop that generate_ba replaced, kept as its
    oracle."""
    rng = np.random.default_rng(seed)
    us: list = []
    vs: list = []
    # degree-proportional sampling pool: each endpoint appears once per
    # incident edge
    pool: list = []
    for v in range(1, attach + 1):
        us.append(0)
        vs.append(v)
        pool.extend((0, v))
    for v in range(attach + 1, n):
        targets: set = set()
        while len(targets) < attach:
            pick = pool[int(rng.integers(0, len(pool)))]
            targets.add(pick)
        for t in sorted(targets):
            us.append(v)
            vs.append(t)
            pool.extend((v, t))
    m = len(us)
    return _build_graph(
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        np.ones(m, dtype=np.float64),
    )


def _assert_same_graph(got: R.Graph, want: R.Graph) -> None:
    for field in ("offsets", "neighbors", "weights", "weighted_degrees", "old_ids"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


# attach near n repeats targets at most vertices (a rewind each); n = 2000
# at attach 1 spans several full blocks without one; 50k is ba-local's size
@pytest.mark.parametrize("args", [
    (12, 10, 0), (12, 10, 5), (11, 10, 3), (7, 6, 0), (2, 1, 0), (500, 10, 3),
    (3000, 3, 7), (2000, 1, 2), (3000, 7, 4), (20_000, 2, 9), (50_000, 5, 1),
])
def test_generate_ba_matches_the_scalar_loop(args):
    _assert_same_graph(R.generate_ba(*args), _reference_ba(*args))


# the array pool: attach 1 never rewinds, so (64, 1) is one block whose
# picks read earlier rows of it in chains of up to 7 rounds, and (300, 2)
# chains of 3-4; at vertex 109 of (200, 3, 0) and 211 of (300, 2, 2) the
# only repeated target is one read from a row of the same block; attach
# n - 1 is the star alone
@pytest.mark.parametrize("args", [
    *[(64, 1, s) for s in range(5)], *[(300, 2, s) for s in range(4)],
    (200, 3, 0), (12, 11, 0), (30, 29, 3),
])
def test_generate_ba_array_pool_matches_the_scalar_loop(args):
    _assert_same_graph(R.generate_ba(*args), _reference_ba(*args))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 300), st.integers(0, 2**63 - 1))
def test_generate_ba_matches_the_scalar_loop_property(data, n, seed):
    attach = data.draw(st.integers(1, min(12, n - 1)))
    _assert_same_graph(R.generate_ba(n, attach, seed), _reference_ba(n, attach, seed))


@pytest.mark.parametrize("call, name", [
    (lambda: R.generate_ba(50, True, 1), "attach"),
    (lambda: R.generate_ba(50, 3.5, 1), "attach"),
    (lambda: R.generate_ba(50.0, 3, 1), "n"),
    (lambda: R.generate_ba(50, 3, 1.0), "seed"),
    (lambda: R.generate_er(50.0, 100, 1), "n"),
    (lambda: R.generate_er(50, 100.0, 1), "m_target"),
    (lambda: R.generate_er(50, True, 1), "m_target"),
    (lambda: R.generate_er(50, 100, False), "seed"),
])
def test_generators_reject_arguments_that_are_not_integers(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


def test_generators_accept_numpy_integers():
    _assert_same_graph(R.generate_ba(np.int64(50), np.int32(3), np.uint8(1)),
                       R.generate_ba(50, 3, 1))
    _assert_same_graph(R.generate_er(np.int64(50), np.int16(100), np.int64(1)),
                       R.generate_er(50, 100, 1))


# the clique and the dense targets take several rounds; seed 482 draws
# only self loops in its first round; at (100, 2000) and (60, 1000) the
# first round's prefix holds too few distinct pairs; at (1000, 300) and
# (5000, 2000) the largest component leaves most labels out; 50k is
# er-global's size
@pytest.mark.parametrize("args", [
    (10, 45, 0), (10, 44, 0), (30, 400, 0), (30, 435, 2), (30, 200, 0),
    (5, 1, 0), (2, 1, 0), (2, 1, 482), (2000, 10_000, 0), (50_000, 250_000, 1),
    *[(100, 2000, s) for s in range(3)], *[(60, 1000, s) for s in range(3)],
    *[(1000, 300, s) for s in range(3)], *[(5000, 2000, s) for s in range(3)],
])
def test_generate_er_matches_the_set_loop(args):
    _assert_same_graph(R.generate_er(*args), _reference_er(*args))


def test_generate_er_skips_build_graph(monkeypatch):
    want = _reference_er(2000, 10_000, 0)

    def build_graph(*args):
        raise AssertionError("generate_er went through _build_graph")

    monkeypatch.setattr(graph_module, "_build_graph", build_graph)
    _assert_same_graph(R.generate_er(2000, 10_000, 0), want)


@pytest.mark.parametrize("seed", range(5))
def test_broadcast_integers_consume_the_stream_like_scalar_calls(seed):
    # generate_ba draws a block of picks with one call and relies on it
    # drawing what one call per pick would, and leaving the same state;
    # both below and above 2^32, where numpy switches its bounded method,
    # and over an odd count, which leaves half a 64-bit word buffered
    highs = np.random.default_rng(seed).integers(1, 2**40, size=2001)
    highs[::3] %= 100
    highs[::3] += 1
    highs[::7] = 2**33 + 5
    batch, scalar = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
    for part in (highs[:1001], highs[1001:], highs[:1]):
        drawn = batch.integers(0, part)
        assert drawn.tolist() == [int(scalar.integers(0, int(h))) for h in part]
        assert batch.bit_generator.state == scalar.bit_generator.state


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


# ---------------------------------------------------------------------------
# CSR and jagged layout by placement, against the sort-and-scatter builders
# ---------------------------------------------------------------------------


def _reference_csr_from_canonical(n, eu, ev, w):
    """The 2m-argsort assembly that _csr_from_canonical replaced, kept as
    its oracle."""
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    ww = np.concatenate([w, w])
    # the arcs are distinct, so their flat keys are too and any sort gives
    # the (source, head) order
    order = np.argsort(src * n + dst)
    src, dst, ww = src[order], dst[order], ww[order]
    counts = np.bincount(src, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    degrees = np.bincount(src, weights=ww, minlength=n)
    return offsets, dst.astype(np.int64), ww.astype(np.float64), degrees


def _reference_jagged_layout(g: R.Graph) -> JaggedLayout:
    """The one-scatter layout that _jagged_layout replaced, kept as its
    oracle."""
    n, deg, src = g.node_count, np.diff(g.offsets), g.arc_sources
    order = np.argsort(-deg, kind="stable")
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    width = int(deg[order[JAGGED_MIN_ROWS - 1]]) if n >= JAGGED_MIN_ROWS else 0
    hubs = int(np.count_nonzero(deg > width))
    # rows of degree above j, for j < width, less the hubs
    lengths = n - np.cumsum(np.bincount(deg, minlength=width + 1)[:width]) - hubs
    starts = np.zeros(width, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    hub_start = int(lengths.sum())

    row = position[src]
    dest = np.empty(len(src), dtype=np.int64)
    hub = row < hubs
    body = np.flatnonzero(~hub)
    dest[body] = starts[body - g.offsets[src[body]]] + (row[body] - hubs)
    dest[hub] = np.arange(hub_start, len(src))
    neighbors = np.empty_like(g.neighbors)
    neighbors[dest] = g.neighbors
    weights = None
    if not g.is_unweighted:
        weights = np.empty_like(g.weights)
        weights[dest] = g.weights
    return JaggedLayout(
        position=position,
        hubs=hubs,
        columns=tuple(zip(starts.tolist(), lengths.tolist())),
        hub_start=hub_start,
        hub_rows=row[hub],
        neighbors=neighbors,
        weights=weights,
    )


def _assert_same_arrays(got, want) -> None:
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype and a.shape == b.shape, i
        assert a.tobytes() == b.tobytes(), i


def _assert_same_layout(got: JaggedLayout, want: JaggedLayout) -> None:
    assert (got.hubs, got.columns, got.hub_start) == (want.hubs, want.columns, want.hub_start)
    assert (got.weights is None) == (want.weights is None)
    fields = ["position", "hub_rows", "neighbors"] + (["weights"] if want.weights is not None else [])
    _assert_same_arrays([getattr(got, f) for f in fields], [getattr(want, f) for f in fields])


def _canonical_edges(n: int, m: int, seed: int):
    """``m`` distinct canonical edges on ``0..n-1``, in ascending order,
    with distinct random weights."""
    rng = np.random.default_rng(seed)
    codes = rng.choice(n * (n - 1) // 2, size=m, replace=False)
    codes.sort()
    # the pair of code c, in the row-major order of the upper triangle
    eu = np.searchsorted(np.cumsum(np.arange(n - 1, 0, -1)), codes, side="right")
    ev = codes - (eu * (2 * n - eu - 1)) // 2 + eu + 1
    return eu, ev, rng.uniform(0.25, 4.0, m)


def _edge_orders(eu, ev, w, seed):
    """The edges ascending, shuffled, and in (ev, eu) order, as
    generate_ba passes them."""
    perm = np.random.default_rng(seed).permutation(len(eu))
    by_head = np.lexsort((eu, ev))
    return {
        "sorted": (eu, ev, w),
        "shuffled": (eu[perm], ev[perm], w[perm]),
        "head-major": (eu[by_head], ev[by_head], w[by_head]),
    }


@pytest.mark.parametrize("n, m, extra", [
    (2, 1, 0), (10, 45, 0), (300, 2000, 0), (300, 2000, 50), (5000, 40_000, 7),
    (1, 0, 0), (5, 0, 0),
])
@pytest.mark.parametrize("order", ["sorted", "shuffled", "head-major"])
@pytest.mark.parametrize("weighted", [False, True])
def test_csr_placement_matches_the_argsort_assembly(n, m, extra, order, weighted, monkeypatch):
    # extra vertices above the touched ones have empty rows; distinct
    # weights show the order in which a degree is summed; no edges sum
    # into the reference's int64 zero degrees.  Unit weights take the
    # plain key sort, other weights ride their arc index in the keys, and
    # with no bits to spare they take the argsort
    eu, ev, w = _canonical_edges(n, m, n + m)
    if not weighted:
        w = np.ones(m)
    args = (n + extra, *_edge_orders(eu, ev, w, m)[order])
    want = _reference_csr_from_canonical(*args)
    _assert_same_arrays(_csr_from_canonical(*args), want)
    monkeypatch.setattr(graph_module, "_KEY_BITS", 0)
    _assert_same_arrays(_csr_from_canonical(*args), want)


def _layout_cases() -> dict:
    star = "".join(f"0 {i}\n" for i in range(1, 3 * JAGGED_MIN_ROWS))
    return {
        "below-min-rows": lambda: path_graph(9),  # every row a hub
        "star": lambda: graph_from_text(star),  # one hub
        "ba-2k": lambda: R.generate_ba(2000, 3, 5),  # the most hubs
        "er-200-dense": lambda: R.generate_er(200, 15_000, 4),
        "lattice": lambda: cut_lattice(30, 0.1, 4),  # no hubs
        "weighted": lambda: random_weighted(150, 3),
    }


@pytest.mark.parametrize("name", sorted(_layout_cases()))
def test_jagged_layout_matches_the_scatter(name):
    g = _layout_cases()[name]()
    _assert_same_layout(_jagged_layout(g), _reference_jagged_layout(g))


@st.composite
def _small_edge_sets(draw):
    n = draw(st.integers(2, 90))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=300))
    edges = draw(st.permutations(sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})))
    eu = np.array([a for a, _ in edges], dtype=np.int64)
    ev = np.array([b for _, b in edges], dtype=np.int64)
    if draw(st.booleans()):
        w = np.ones(len(edges))
    else:
        w = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.1, 10, len(edges))
    return n, eu, ev, w


@settings(max_examples=200, deadline=None)
@given(_small_edge_sets())
def test_placement_builders_match_the_references_on_small_edge_sets(case):
    n, eu, ev, w = case
    got = _csr_from_canonical(n, eu, ev, w)
    want = _reference_csr_from_canonical(n, eu, ev, w)
    _assert_same_arrays(got, want)
    with mock.patch.object(graph_module, "_KEY_BITS", 0):
        _assert_same_arrays(_csr_from_canonical(n, eu, ev, w), want)
    if len(eu):
        g = R.Graph(*got, np.arange(n, dtype=np.int64))
        _assert_same_layout(_jagged_layout(g), _reference_jagged_layout(g))


def _traced_peak(fn, *args):
    """The result of ``fn(*args)`` and the most memory traced above the
    start while it ran."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


@st.composite
def _codes_with_repeats(draw):
    codes = draw(st.lists(st.integers(0, draw(st.sampled_from([3, 40, 2**20]))), max_size=400))
    if draw(st.booleans()):
        # a code whose key would pass 63 bits: the stable argsort runs
        codes.insert(draw(st.integers(0, len(codes))), 2**62 + draw(st.integers(0, 5)))
    return np.array(codes, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(_codes_with_repeats())
def test_first_occurrences_packed_and_fallback_agree(codes):
    values, pos = np.unique(codes, return_index=True)  # the first occurrences
    got = _first_occurrences(codes)
    with mock.patch.object(graph_module, "_KEY_BITS", 0):
        fallback = _first_occurrences(codes)
    for a, b in ((values, pos), fallback):
        _assert_same_arrays(got, (a.astype(np.int64), b.astype(np.int64)))


def test_csr_placement_of_unit_weights_keeps_no_m_sized_scratch():
    # the sorted keys become the neighbours in place; only the bincounts
    # of the endpoints, n-long, come beside the outputs
    n, m = 50_000, 400_000
    eu, ev, _ = _canonical_edges(n, m, 1)
    perm = np.random.default_rng(2).permutation(m)
    eu, ev = eu[perm], ev[perm]
    out, peak = _traced_peak(_csr_from_canonical, n, eu, ev, np.ones(m))
    assert peak < sum(a.nbytes for a in out) + 8 * m


def test_csr_placement_keeps_only_m_sized_scratch():
    # the placement needs about four m-long int64 arrays beside its
    # outputs; the 2m argsort assembly took about nine and a half
    n, m = 50_000, 200_000
    eu, ev, w = _canonical_edges(n, m, 1)
    perm = np.random.default_rng(2).permutation(m)
    eu, ev, w = eu[perm], ev[perm], w[perm]
    out, peak = _traced_peak(_csr_from_canonical, n, eu, ev, w)
    assert peak <= sum(a.nbytes for a in out) + 6 * 8 * m


@pytest.mark.parametrize("weighted", [False, True])
def test_jagged_layout_keeps_only_n_sized_scratch(weighted):
    # the column fills need about five n-long int64 arrays beside the
    # layout; the scatter took over forty (2m-long temporaries, m = 5n)
    g = R.generate_er(50_000, 250_000, 1)
    if weighted:
        g = R.Graph(g.offsets, g.neighbors, 1.5 * g.weights, 1.5 * g.weighted_degrees, g.old_ids)
    assert g.is_unweighted != weighted  # a cache of the graph, built before
    lay, peak = _traced_peak(_jagged_layout, g)
    out = lay.position.nbytes + lay.hub_rows.nbytes + lay.neighbors.nbytes
    if weighted:
        out += lay.weights.nbytes
    assert peak <= out + 8 * 8 * g.node_count


def test_dense_query_builds_no_arc_sources():
    g = R.generate_er(3000, 15_000, 2)
    R.lanczos_rd(g, 0, 1000, 20)
    assert "jagged" in g.__dict__
    assert "arc_sources" not in g.__dict__
