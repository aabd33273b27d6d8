"""Immutable CSR graphs: parsing, cleaning, caching and generation.

Graphs are undirected and simple.  Loading an edge list always cleans the
input the same way: self loops are dropped, parallel edges are merged (their
weights summed), the largest connected component is extracted, and vertices
are relabeled to contiguous ids ``0..n-1`` ordered by their original labels.
Every algorithm in this package may therefore assume a connected graph with
positive degrees.  Callers read adjacency straight from the CSR arrays
(``offsets``, ``neighbors``, ``weights``).
"""

from __future__ import annotations

import os
import struct
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Union

import numpy as np

from .errors import EmptyGraphError, GraphFormatError, UnsupportedInputError

__all__ = [
    "Graph",
    "load_edge_list",
    "save_edge_list",
    "load_cache",
    "save_cache",
    "generate_er",
    "generate_ba",
]

_CACHE_MAGIC = b"RDG1"
_MAX_LABEL = 2**63 - 1  # labels are stored as int64

Source = Union[str, Path, IO]


@dataclass(frozen=True)
class Graph:
    """An undirected weighted graph in compressed sparse row form.

    Each undirected edge {u, v} is stored as the two arcs (u, v) and (v, u).
    The neighbor slice of a vertex is sorted ascending and contains neither
    duplicates nor the vertex itself.  Instances are immutable and safe to
    share across workers.  A graph caches, on first use, only what a query
    path reads: ``is_unweighted``, ``sqrt_degrees``, ``inv_sqrt_degrees``
    and ``min_sqrt_degree`` (the normalized products, the u_1 projections
    and the pruning threshold), ``jagged`` (the dense product),
    ``scratch_vectors`` (the pruned step's free list, the one mutable
    cache, which a pickled copy leaves out) and ``arc_sources`` (the arc
    flow and the widest-path search of every route query,
    ``FlowMap.norm1``, ``kirchhoff_residuals``, ``exact_rd`` and
    ``edge_arrays``; building ``jagged`` reads only ``offsets``, so
    a dense query leaves it unbuilt).  Nothing is cached per arc for the
    pruned product, which reads ``sqrt_degrees`` and
    ``inv_sqrt_degrees`` at the heads of the arcs it gathers.

    Attributes
    ----------
    offsets : int64 array, shape (n + 1,)
        CSR row pointers; the arcs of vertex ``u`` occupy
        ``offsets[u]:offsets[u + 1]``.
    neighbors : int64 array, shape (2m,)
        Arc heads.
    weights : float64 array, shape (2m,)
        Arc weights, strictly positive; ``1.0`` throughout for unweighted
        graphs.
    weighted_degrees : float64 array, shape (n,)
        Per-vertex sums of incident edge weights.
    old_ids : int64 array, shape (n,)
        Maps a contiguous vertex id back to the label it carried in the
        original input.
    """

    offsets: np.ndarray
    neighbors: np.ndarray
    weights: np.ndarray
    weighted_degrees: np.ndarray
    old_ids: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def edge_count(self) -> int:
        return len(self.neighbors) // 2

    @cached_property
    def is_unweighted(self) -> bool:
        # two reductions, where ``np.all(weights == 1.0)`` would build a
        # 2m-long mask on a graph's first pruned query
        w = self.weights
        return bool(w.size == 0 or w.min() == 1.0 == w.max())

    @cached_property
    def sqrt_degrees(self) -> np.ndarray:
        return np.sqrt(self.weighted_degrees)

    @cached_property
    def min_sqrt_degree(self) -> float:
        return float(self.sqrt_degrees.min())

    @cached_property
    def arc_sources(self) -> np.ndarray:
        """Source vertex of every arc, aligned with ``neighbors``."""
        return np.repeat(np.arange(self.node_count), np.diff(self.offsets))

    @cached_property
    def jagged(self) -> "JaggedLayout":
        """The arcs in jagged-diagonal order (see :class:`JaggedLayout`),
        built on first use."""
        return _jagged_layout(self)

    @cached_property
    def scratch_vectors(self) -> list:
        """A free list of zeroed float64 n-vectors for the pruned Lanczos
        step, so that a query does no O(n) allocation or zeroing.

        A user pops one (or allocates one when the list is empty), writes
        on a few entries, zeroes those again and appends it back; a run
        that raises drops its vectors instead.  ``list.pop`` and
        ``list.append`` are atomic, so threads never share a vector.
        """
        return []

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("scratch_vectors", None)
        return state

    @cached_property
    def inv_sqrt_degrees(self) -> np.ndarray:
        """1 / sqrt(weighted degree), used by the normalized operators."""
        return 1.0 / self.sqrt_degrees

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "unweighted" if self.is_unweighted else "weighted"
        return f"Graph(n={self.node_count}, m={self.edge_count}, {kind})"


# A jagged-diagonal column is kept while at least this many rows have an arc
# in it.  Any value from 32 to 1024 ran the dense product within 10% of the
# best on ER and BA graphs at n = 50k, m = 250k (2-vCPU Xeon).
JAGGED_MIN_ROWS = 64


@dataclass(frozen=True)
class JaggedLayout:
    """The arcs of a graph in jagged-diagonal order (Saad, "Iterative
    Methods for Sparse Linear Systems", 2003, section 3.4), with the
    highest-degree rows kept apart, as in the ELL + COO split of Bell and
    Garland's HYB format (SC'09).

    Rows are sorted by degree, descending and stable: ``position[u]`` is
    the sorted position of vertex u.  Column j is kept while at least
    ``JAGGED_MIN_ROWS`` rows have degree above j, so there are at most
    2m / ``JAGGED_MIN_ROWS`` columns.  The ``hubs`` rows of degree above
    the column count, fewer than ``JAGGED_MIN_ROWS``, take the first
    sorted positions.  Column j holds the j-th arc, in CSR order, of every
    other row of degree above j; those rows are the first ``length`` after
    the hubs, and their arcs sit at ``start:start + length`` for
    ``columns[j] = (start, length)``, so each column is filled by one
    gather.  After the columns come the hubs' arcs in CSR order, from
    ``hub_start`` on, with their rows' sorted positions in ``hub_rows``.
    ``neighbors`` and ``weights`` hold the arc heads and weights in this
    order; ``weights`` is None on an unweighted graph.
    """

    position: np.ndarray
    hubs: int
    columns: tuple
    hub_start: int
    hub_rows: np.ndarray
    neighbors: np.ndarray
    weights: np.ndarray | None


def _jagged_layout(g: Graph) -> JaggedLayout:
    """Lay the arcs of ``g`` out in jagged-diagonal order, a column at a
    time.

    Column j gathers arc ``offsets[u] + j`` of each of its rows u, so the
    builder keeps only n-sized scratch: the rows' first arcs in column
    order, and the hubs' arc positions.
    """
    n, offsets = g.node_count, g.offsets
    deg = np.diff(offsets)
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
    columns = tuple(zip(starts.tolist(), lengths.tolist()))

    neighbors = np.empty_like(g.neighbors)
    weights = None if g.is_unweighted else np.empty_like(g.weights)
    # the first arc of each non-hub row, in sorted order
    first = offsets[order[hubs:]]
    for j, (start, length) in enumerate(columns):
        arcs = first[:length] + j
        g.neighbors.take(arcs, out=neighbors[start : start + length])
        if weights is not None:
            g.weights.take(arcs, out=weights[start : start + length])
    hub_ids = np.sort(order[:hubs])
    arcs, count = _arc_positions(offsets, hub_ids)
    g.neighbors.take(arcs, out=neighbors[hub_start:])
    if weights is not None:
        g.weights.take(arcs, out=weights[hub_start:])
    return JaggedLayout(
        position=position,
        hubs=hubs,
        columns=columns,
        hub_start=hub_start,
        hub_rows=np.repeat(position[hub_ids], count),
        neighbors=neighbors,
        weights=weights,
    )


# ---------------------------------------------------------------------------
# construction pipeline
# ---------------------------------------------------------------------------


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending: ``np.unique(a)``.

    A sort and an adjacent-difference mask.  Since numpy 2.3, ``np.unique``
    without ``return_inverse`` (or index or counts) builds a hash table and
    then sorts its output, which costs 8-25x more on the int64 id arrays of
    the pruned Lanczos step.
    """
    c = a.copy()
    c.sort()
    if c.size == 0:
        return c
    keep = np.empty(c.size, dtype=bool)
    keep[0] = True
    np.not_equal(c[1:], c[:-1], out=keep[1:])
    return c[keep]


# The most bits a packed int64 sort key may use: one more would reach the
# sign bit.
_KEY_BITS = 63
# The most ids that the pair codes of _pair_codes hold.
_MAX_PAIR_IDS = 2**31


def _csr_from_canonical(n: int, eu: np.ndarray, ev: np.ndarray, w: np.ndarray):
    """Assemble CSR arrays from distinct canonical edges (eu < ev), in any
    order, by one in-place sort of packed arc keys.

    Arc (u, x) is the key ``(u << b) | x``, b the bit length of n - 1.
    The keys of the 2m arcs are distinct, and their one sorted order is
    the (source, head) order of CSR, so the sorted keys masked to their
    low b bits are ``neighbors``.  The rows' arc counts, the bincounts
    of both endpoints, give ``offsets``.

    Unit weights (``w`` all 1.0) give all-ones weights and the counts as
    degrees, exact integers with the bits of a sum of ones, and need no
    scratch beside the outputs.  Otherwise the arc's index in the
    arcs ``(eu, ev)`` then ``(ev, eu)`` rides below the head in the key
    when the three fields fit in ``_KEY_BITS``, and an argsort of the
    keys orders the arcs when they do not.  The weights are gathered
    through that order (arc i + m has the weight of edge i), the sorted
    keys shifted right by b are the arcs' sources, written over the
    order, and each degree sums its row's weights in CSR order.
    """
    m = len(eu)
    b = (n - 1).bit_length()
    counts = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    keys = np.concatenate((eu, ev))
    keys <<= b
    keys[:m] |= ev
    keys[m:] |= eu
    if m and w.min() == 1.0 == w.max():  # no edges take the path below
        keys.sort()
        keys &= (1 << b) - 1
        return offsets, keys, np.ones(2 * m), counts.astype(np.float64)
    c = (2 * m - 1).bit_length()
    if 2 * b + c <= _KEY_BITS:
        keys <<= c
        keys |= np.arange(2 * m)
        keys.sort()
        neighbors = keys >> c
        keys &= (1 << c) - 1
        order = keys
    else:
        order = np.argsort(keys)
        neighbors = keys[order]
    del keys  # freed on the argsort path; the packed path's order is the keys
    weights = w.take(order, mode="wrap")
    rows = np.right_shift(neighbors, b, out=order)  # the sources, in CSR order
    neighbors &= (1 << b) - 1
    degrees = np.bincount(rows, weights=weights, minlength=n)
    return offsets, neighbors, weights, degrees


def _arc_positions(offsets: np.ndarray, sources: np.ndarray) -> tuple:
    """Positions in the CSR arc arrays of the arcs of every vertex in
    ``sources``, slice after slice, and the arc count of each source."""
    starts = offsets[sources]
    count = offsets[1:][sources] - starts
    ends = count.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    arc = (starts + count - ends).repeat(count) + np.arange(total)
    return arc, count


def _component_labels(n: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """The root of every vertex of the edges ``(eu, ev)`` on ``0..n-1``:
    the smallest vertex of its component.  An edge may appear once or as
    both its arcs.

    Min-label hooking with pointer jumping: every root takes the smallest
    root across its edges, then every vertex jumps to its root.  A round
    hooks the root at each end of an edge to the root at the other, one
    ``np.minimum.at`` call per end; minima do not depend on the order
    they are taken in, so this is the round over both arcs of every edge.
    Roots that stay roots in one round are each the hook target of a
    distinct vertex of the round before, so every two rounds at least
    halve the trees of a component: O(log n) rounds of a few passes over
    the edges.
    """
    parent = np.arange(n)
    while True:
        root_u, root_v = parent[eu], parent[ev]
        if np.array_equal(root_u, root_v):
            return parent
        np.minimum.at(parent, root_u, root_v)
        np.minimum.at(parent, root_v, root_u)
        del root_u, root_v  # freed before the next round gathers its own
        # parents only ever point to smaller ids, so this ends at the roots
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def _build_graph(u_raw: np.ndarray, v_raw: np.ndarray, w_raw: np.ndarray) -> Graph:
    """Clean raw (label, label, weight) triples into a canonical Graph.

    Applies the full pipeline: self-loop removal, parallel-edge merging,
    then the tail shared with ``generate_er`` (``_largest_component``):
    largest-connected-component extraction, relabeling to contiguous ids
    ordered by original label, and the CSR assembly.

    One sort of the 2m endpoints finds the labels, and its inverse
    gives every endpoint its id, its label's rank: no search per
    endpoint.  Every pair is then one int64 code (``_pair_codes``), and
    a sort of the codes merges the parallel edges, in the order of the
    pairs.  The codes hold at most ``_MAX_PAIR_IDS`` labels.
    """
    keep = u_raw != v_raw
    u_raw, v_raw, w_raw = u_raw[keep], v_raw[keep], w_raw[keep]
    if u_raw.size == 0:
        raise EmptyGraphError("no edges remain after removing self loops")

    labels, ids = np.unique(np.concatenate([u_raw, v_raw]), return_inverse=True)
    u, v = ids[: len(u_raw)], ids[len(u_raw) :]

    n_all = len(labels)
    if n_all > _MAX_PAIR_IDS:
        raise UnsupportedInputError(
            f"{n_all} distinct labels exceed the {_MAX_PAIR_IDS} that pair keys hold"
        )
    keys, inverse = np.unique(_pair_codes(u, v, n_all), return_inverse=True)
    merged_w = np.bincount(inverse, weights=w_raw, minlength=len(keys))
    uniq_u, uniq_v = _pair_ends(keys, n_all)
    return _largest_component(labels, uniq_u, uniq_v, merged_w)


def _largest_component(
    labels: np.ndarray, uniq_u: np.ndarray, uniq_v: np.ndarray, w: np.ndarray
) -> Graph:
    """The Graph of the largest connected component of the distinct
    canonical edges ``(uniq_u, uniq_v, w)``, ``uniq_u < uniq_v``, over the
    vertices ``0..len(labels)-1``, whose original labels ``labels`` ascend.

    The tail that ``_build_graph`` and ``generate_er`` share.  The kept
    vertices are an ascending subset of the ids, so a vertex's new id is
    the count of kept vertices before it: a gather from a running count,
    not a search.  A component that holds every vertex keeps the edges
    and ids as they are.
    """
    roots = _component_labels(len(labels), uniq_u, uniq_v)
    # argmax takes the smallest root, so a tie goes to the component that
    # holds the smallest label
    counts = np.bincount(roots)
    best = int(np.argmax(counts))
    n = int(counts[best])
    if n == len(labels):
        eu, ev, old_ids = uniq_u, uniq_v, labels.astype(np.int64)
    else:
        in_lcc = roots == best
        remap = np.cumsum(in_lcc) - 1
        edge_mask = in_lcc[uniq_u]
        eu = remap[uniq_u[edge_mask]]
        ev = remap[uniq_v[edge_mask]]
        w = w[edge_mask]
        old_ids = labels[in_lcc].astype(np.int64)
    offsets, neighbors, weights, degrees = _csr_from_canonical(n, eu, ev, w)
    _check_finite_degrees(degrees, old_ids)
    return Graph(
        offsets=offsets,
        neighbors=neighbors,
        weights=weights,
        weighted_degrees=degrees,
        old_ids=old_ids,
    )


def _check_finite_degrees(degrees: np.ndarray, old_ids: np.ndarray) -> None:
    """Raise UnsupportedInputError if a weighted degree overflows float64."""
    finite = np.isfinite(degrees)
    if not finite.all():
        label = int(old_ids[np.argmin(finite)])
        raise UnsupportedInputError(
            f"the weighted degree of vertex {label} overflows float64"
        )


# ---------------------------------------------------------------------------
# edge-list I/O
# ---------------------------------------------------------------------------


# the bytes, besides non-ASCII ones, that a data line may not hold: the digit
# separator and the ASCII separators that str.split, unlike bytes.split,
# splits on
_MALFORMED = b"_\x1c\x1d\x1e\x1f"
# bytes read at a time, then completed to a whole line
_CHUNK_BYTES = 1 << 20


def _is_malformed(data: bytes) -> bool:
    """Whether ``data`` holds a byte that no data line may hold."""
    return not data.isascii() or len(data.translate(None, _MALFORMED)) != len(data)


def _shown(token: bytes) -> str:
    """A line or token of an edge list as text, for an error message."""
    return token.decode("utf-8", errors="replace")


def _iter_chunks(source: Source):
    """The bytes of ``source`` in chunks of whole lines, about
    ``_CHUNK_BYTES`` each."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _read_chunks(fh)
    else:
        for chunk in _read_chunks(source):
            yield chunk.encode() if isinstance(chunk, str) else chunk


def _read_chunks(fh):
    """A binary or text stream read ``_CHUNK_BYTES`` bytes or characters
    at a time, each read completed to a whole line."""
    while chunk := fh.read(_CHUNK_BYTES):
        yield chunk + fh.readline()


def load_edge_list(source: Source, weighted: bool = False) -> Graph:
    """Parse a whitespace-delimited edge list and return the cleaned graph.

    Each non-blank line is ``u v`` or ``u v w`` with integer vertex labels
    in [0, 2^63 - 1], its fields separated by ASCII whitespace (space,
    ``\\t``, ``\\n``, ``\\r``, ``\\x0b``, ``\\x0c``); lines starting with ``#``
    are comments and may hold anything, every other line must be ASCII
    without ``_`` or the ASCII separators ``\\x1c``-``\\x1f``.  With
    ``weighted=True`` the third column is required and must be positive;
    otherwise any third column is ignored.

    The source is read in chunks of whole lines (``_iter_chunks``).  An
    unweighted chunk whose data lines are each two labels of at most 18
    digits, the common case, is parsed in arrays (``_digit_edges``);
    every other chunk, and every chunk of a weighted load, goes to the
    line loop (``_line_edges``), which accepts the same lines with the
    same labels and is the one place that names a malformed line.  A
    chunk of about 1 MB costs a few MB of scratch on either path, and
    the edges so far are held as int64 arrays, 16 bytes an edge (24
    with weights).

    Parameters
    ----------
    source : str, Path, or file-like
        Path to the file, or an open text/binary stream.
    weighted : bool
        Whether to read the third column as an edge weight.

    Raises
    ------
    GraphFormatError
        On any malformed line (carries the line number).
    EmptyGraphError
        If no edges remain after cleaning.
    UnsupportedInputError
        If a weighted degree overflows float64, or the list holds more
        than 2^31 distinct labels.
    """
    parts = []
    lineno = 0
    for chunk in _iter_chunks(source):
        edges = None if weighted else _digit_edges(chunk)
        parts.append(_line_edges(chunk, lineno, weighted) if edges is None else edges)
        lineno += chunk.count(b"\n") + (not chunk.endswith(b"\n"))
    if not any(len(part[0]) for part in parts):
        raise EmptyGraphError("edge list contains no edges")
    u = np.concatenate([part[0] for part in parts])
    v = np.concatenate([part[1] for part in parts])
    if weighted:
        w = np.concatenate([part[2] for part in parts])
    else:
        w = np.ones(len(u), dtype=np.float64)
    del parts  # freed before the build
    return _build_graph(u, v, w)


# the most digits of a label that _digit_edges parses: 10^18 - 1 < 2^63 - 1
_DIGITS = 18


def _digit_edges(chunk: bytes):
    """The edges ``(u, v)`` of a chunk of whole lines, parsed in arrays,
    or None if the chunk is not one this parser takes.

    It takes a chunk whose data lines each hold exactly two labels of at
    most ``_DIGITS`` ASCII digits, separated by ASCII whitespace; blank
    lines and ``#`` comments may sit among them.  ``_line_edges`` accepts
    every such line and reads the same labels from it, so a chunk this
    parser declines goes to the loop unchanged.  The chunk is viewed as
    uint8 without a copy; the scratch is a few one-byte masks of the
    chunk's length, and int64 arrays of one word per label or line.
    """
    if not chunk.endswith(b"\n"):
        chunk += b"\n"
    b = np.frombuffer(chunk, dtype=np.uint8)
    newlines = np.flatnonzero(b == ord("\n"))
    # ink: every byte but the ASCII whitespace \t \n \x0b \x0c \r and space
    ink = (b - 9 > 4) & (b != ord(" "))
    hashes = np.flatnonzero(b == ord("#"))
    if hashes.size:
        # a line is a comment when its first ink is "#": mark each line
        # holding a "#" 1 up to its first "#" and 2 from there to its end
        line = np.searchsorted(newlines, hashes)
        first = np.ones(len(line), dtype=bool)
        np.not_equal(line[1:], line[:-1], out=first[1:])
        hashes, line = hashes[first], line[first]
        mark = np.zeros(len(b), dtype=np.int8)
        mark[np.where(line > 0, newlines[line - 1] + 1, 0)] += 1
        mark[hashes] += 1
        mark[newlines[line]] -= 2
        region = np.cumsum(mark, dtype=np.int8)
        if (ink & (region == 1)).any():
            return None  # a "#" after other ink: a data line, and malformed
        ink &= region == 0
    digits = ink & (b - ord("0") < 10)
    if np.count_nonzero(digits) != np.count_nonzero(ink):
        return None
    # runs of digits: the labels; the chunk ends in a newline, so every
    # run ends inside it
    bounds = np.flatnonzero(np.diff(digits, prepend=False))
    starts, ends = bounds[0::2], bounds[1::2]
    width = int((ends - starts).max(initial=0))
    if width > _DIGITS:
        return None
    # the labels of each pair share a line (an odd count fails on the
    # shapes), and the next pair starts on a later one
    line = np.searchsorted(newlines, starts)
    if not (np.array_equal(line[0::2], line[1::2]) and np.all(line[2::2] > line[1:-1:2])):
        return None
    # Horner's rule over the labels aligned at their last digit; below 10^18,
    # no partial value overflows int64
    labels = np.zeros(len(starts), dtype=np.int64)
    for j in range(width, 0, -1):
        at = ends - j
        digit = b.take(at, mode="clip") - ord("0")
        digit[at < starts] = 0  # left of a shorter label
        labels *= 10
        labels += digit
    return labels[0::2], labels[1::2]


def _line_edges(chunk: bytes, lineno: int, weighted: bool):
    """The edges ``(u, v, w)`` of a chunk of whole lines, the first of them
    line ``lineno + 1``, parsed one line at a time.

    The parser of every chunk that ``_digit_edges`` declines and of every
    weighted load, and the one place that raises GraphFormatError,
    naming the line, on a malformed line.  Without ``weighted``, ``w``
    is all ones.
    """
    us, vs, ws = [], [], []
    lines = chunk.split(b"\n")
    if not lines[-1]:
        lines.pop()  # the empty piece after the chunk's last newline
    # a chunk without a malformed byte needs no check per line
    clean = not _is_malformed(chunk)
    for lineno, raw in enumerate(lines, start=lineno + 1):
        line = raw.strip()
        if not line or line.startswith(b"#"):
            continue
        if not clean and _is_malformed(line):
            raise GraphFormatError(
                lineno,
                "data lines must be ASCII and hold no '_' or separator "
                f"\\x1c-\\x1f, got {_shown(line)!r}",
            )
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(lineno, f"expected 'u v [w]', got {_shown(line)!r}")
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError:
            raise GraphFormatError(
                lineno, f"vertex labels must be integers, got {_shown(line)!r}"
            ) from None
        if not (0 <= u <= _MAX_LABEL and 0 <= v <= _MAX_LABEL):
            raise GraphFormatError(lineno, "vertex labels must be in [0, 2^63 - 1]")
        if weighted:
            if len(parts) < 3:
                raise GraphFormatError(lineno, "weighted load requires a third column")
            try:
                w = float(parts[2])
            except ValueError:
                raise GraphFormatError(
                    lineno, f"edge weight must be a number, got {_shown(parts[2])!r}"
                ) from None
            if not np.isfinite(w) or w <= 0.0:
                raise GraphFormatError(lineno, f"edge weight must be positive, got {w}")
        else:
            w = 1.0
        us.append(u)
        vs.append(v)
        ws.append(w)
    return (
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        np.asarray(ws, dtype=np.float64),
    )


# edges formatted and written at a time by save_edge_list
_SAVE_EDGES = 1 << 16


def save_edge_list(g: Graph, path: Source) -> None:
    """Write ``g`` as an edge list over its contiguous internal ids.

    Weights are written as a third column, each its ``repr``, unless the
    graph is unweighted.  Reloading the file reproduces the graph
    exactly.  The lines are formatted and written ``_SAVE_EDGES`` edges
    at a time, so the text is never held whole.
    """
    eu, ev, w = edge_arrays(g)
    weights = None if g.is_unweighted else w
    with open(path, "w") if isinstance(path, (str, Path)) else nullcontext(path) as fh:
        for i in range(0, len(eu), _SAVE_EDGES):
            block = slice(i, i + _SAVE_EDGES)
            a, b = eu[block].tolist(), ev[block].tolist()
            if weights is None:
                fh.write("".join(f"{x} {y}\n" for x, y in zip(a, b)))
            else:
                fh.write("".join(
                    f"{x} {y} {z!r}\n" for x, y, z in zip(a, b, weights[block].tolist())
                ))


def edge_arrays(g: Graph):
    """Canonical undirected edge arrays ``(eu, ev, w)`` with ``eu < ev``.

    Edges are ordered lexicographically by ``(eu, ev)``.
    """
    rows = g.arc_sources
    mask = rows < g.neighbors
    return rows[mask], g.neighbors[mask], g.weights[mask]


# ---------------------------------------------------------------------------
# binary cache
# ---------------------------------------------------------------------------


def save_cache(g: Graph, path: Union[str, Path]) -> None:
    """Write ``g`` to the binary cache format.

    Layout: magic ``RDG1``, then little-endian uint64 ``n`` and ``m``,
    then the raw ``offsets`` (int64, n+1), ``neighbors`` (int64, 2m),
    ``weights`` (float64, 2m), and ``old_ids`` (int64, n) arrays.
    """
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack("<QQ", g.node_count, g.edge_count))
        fh.write(g.offsets.astype("<i8").tobytes())
        fh.write(g.neighbors.astype("<i8").tobytes())
        fh.write(g.weights.astype("<f8").tobytes())
        fh.write(g.old_ids.astype("<i8").tobytes())


def load_cache(path: Union[str, Path]) -> Graph:
    """Read a graph previously written by :func:`save_cache`.

    The file is checked against every invariant of :class:`Graph`: exact
    length for its header, CSR offsets from 0 to 2m, nonnegative strictly
    ascending labels, neighbor ids in range, sorted slices without self
    loops, positive finite weights, symmetric arcs and a single component.
    Symmetry is checked by rebuilding the CSR from the arcs u < x with
    :func:`_csr_from_canonical`, whose arrays must be the file's and whose
    degrees are returned.  The checks run on plain arrays, so the returned
    graph caches nothing yet.  The file is read once; on a little-endian
    host the four arrays are read-only views of those bytes, and only a
    big-endian host copies them to its own byte order.

    Raises
    ------
    GraphFormatError
        If the file is not a well-formed graph cache.
    EmptyGraphError
        If the cached graph has no edges.
    UnsupportedInputError
        If a weighted degree overflows float64.
    """
    header = 4 + 16
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        # one read into a buffer placed so that the arrays, which start
        # ``header`` bytes into the file, are 8-byte aligned: numpy gathers
        # from unaligned int64 arrays several times slower
        raw = np.empty(size + 8, dtype=np.uint8)
        start = -(raw.ctypes.data + header) % 8
        blob = raw[start : start + size]
        blob = blob[: fh.readinto(blob)]
    blob.flags.writeable = False
    if blob[:4].tobytes() != _CACHE_MAGIC:
        raise GraphFormatError(1, "not a graph cache file (bad magic)")
    if len(blob) < header:
        raise GraphFormatError(1, "truncated graph cache file")
    n, m = struct.unpack_from("<QQ", blob, 4)
    need = header + 8 * (n + 1) + 8 * 2 * m + 8 * 2 * m + 8 * n
    if len(blob) != need:
        raise GraphFormatError(
            1, f"graph cache holds {len(blob)} bytes, its header (n={n}, m={m}) needs {need}"
        )
    if m == 0:
        raise EmptyGraphError("graph cache holds no edges")
    pos = header

    def take(count, dtype):
        # a read-only view of the file's bytes, copied only on a big-endian host
        nonlocal pos
        arr = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
        pos += arr.nbytes
        return arr if arr.dtype.isnative else arr.astype(arr.dtype.newbyteorder("="))

    offsets = take(n + 1, "<i8")
    neighbors = take(2 * m, "<i8")
    weights = take(2 * m, "<f8")
    old_ids = take(n, "<i8")
    if offsets[0] != 0 or offsets[-1] != 2 * m or np.any(np.diff(offsets) < 0):
        raise GraphFormatError(1, "graph cache offsets are not monotone from 0 to 2m")
    # offsets ending at 2m > 0 make n >= 1
    if old_ids[0] < 0 or np.any(np.diff(old_ids) <= 0):
        raise GraphFormatError(
            1, "graph cache labels are not nonnegative and strictly ascending"
        )
    degrees = _check_cached_arcs(n, offsets, neighbors, weights)
    _check_finite_degrees(degrees, old_ids)
    return Graph(offsets, neighbors, weights, degrees, old_ids)


def _check_cached_arcs(n: int, offsets: np.ndarray, dst: np.ndarray, w: np.ndarray):
    """Raise GraphFormatError unless the CSR arcs with heads ``dst`` and
    weights ``w`` (whose ``offsets`` are already checked) form a connected
    simple undirected graph with positive finite weights; return its
    weighted degrees."""
    src = np.repeat(np.arange(n), np.diff(offsets))
    if dst.min() < 0 or dst.max() >= n:
        raise GraphFormatError(1, f"graph cache neighbor id outside [0, {n})")
    if np.any(src == dst):
        raise GraphFormatError(1, "graph cache holds a self loop")
    if np.any((src[1:] == src[:-1]) & (dst[1:] <= dst[:-1])):
        raise GraphFormatError(1, "graph cache neighbor slices are not strictly ascending")
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise GraphFormatError(1, "graph cache weights must be positive and finite")
    up = src < dst
    eu, ev, wu = src[up], dst[up], w[up]
    del src, up  # freed before the build allocates its own arrays
    # the slices ascend without loops or repeats, so the arcs are symmetric
    # exactly when the builder, placing both arcs of every edge u < x, gives
    # back the file's arrays
    *built, degrees = _csr_from_canonical(n, eu, ev, wu)
    if not all(map(np.array_equal, built, (offsets, dst, w))):
        raise GraphFormatError(1, "graph cache arcs are not symmetric")
    del built, wu  # freed before the component labels gather their own
    if _component_labels(n, eu, ev).max() != 0:
        raise GraphFormatError(1, "graph cache holds more than one component")
    return degrees


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def _check_vertex(g: Graph, u: int, name: str = "vertex") -> None:
    """Raise ValueError, naming the argument ``name``, unless ``u`` is an
    int or a numpy integer (see :func:`_integers`), and IndexError unless
    it lies in [0, n)."""
    (u,) = _integers(**{name: u})
    if not 0 <= u < g.node_count:
        raise IndexError(f"vertex {u} out of range for graph with n={g.node_count}")


def _hop_distance(g: Graph, s: int, t: int) -> int:
    """Hop distance from ``s`` to ``t`` (-1 if unreachable).

    A BFS that stops at the first arc reaching ``t``.  It walks one vertex
    at a time through memoryviews: on the narrow frontiers of sparse,
    long-diameter graphs a vectorised layer would pay several numpy calls
    for a handful of arcs.
    """
    if s == t:
        return 0
    offsets, neighbors = memoryview(g.offsets), memoryview(g.neighbors)
    seen = bytearray(g.node_count)
    seen[s] = 1
    frontier = [s]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for x in neighbors[offsets[u] : offsets[u + 1]]:
                if not seen[x]:
                    if x == t:
                        return d
                    seen[x] = 1
                    nxt.append(x)
        frontier = nxt
    return -1


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _integers(**args) -> list:
    """The values of the keyword arguments as ints; raise ValueError,
    naming the argument, on any that is not an int or a numpy integer
    (a bool is neither)."""
    for name, value in args.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    return [int(value) for value in args.values()]


def generate_er(n: int, m_target: int, seed: int) -> Graph:
    """Uniform random graph with ``n`` vertices and ``m_target`` distinct edges.

    Edges are sampled uniformly without replacement from all unordered
    pairs.  The returned graph is the largest connected component, so its
    vertex count may be below ``n``.  Deterministic for a given seed.

    Each round draws ``2 * need + 8`` endpoint pairs (``need`` edges still
    missing) in two calls, drops self loops and keeps, in draw order, the
    first occurrence of every pair not chosen in an earlier round, up to
    ``need`` of them.  That is the edge set of adding the pairs to a set
    one at a time until it holds ``m_target``, so a seed gives the graph
    of that loop, kept in the tests as the reference.  A target near the
    clique takes several rounds.

    The first ``need`` distinct pairs in draw order lie in any prefix of
    the draws that holds ``need`` distinct pairs.  So the first round
    dedupes only its first ``need + need // 64 + 16`` draws, and all of
    them, as every later round does, only when that prefix repeats too
    often (a target near the clique).  On the prefix, a partition of the
    first-occurrence positions at ``need - 1`` picks those pairs out of
    the distinct ones, which are already sorted.

    Each pair is held as its code ``(u << b) | v`` (``_pair_codes``), so
    ``n`` is at most ``_MAX_PAIR_IDS``.  The chosen edges are distinct,
    canonical (``u < v``) and sorted, so the graph skips
    ``_build_graph``'s label search and pair merging: the vertices that
    some edge touches, marked in an n-vector, are the labels, their ids
    a running count of the marks, and the edges go
    straight to the largest-component step that ``_build_graph`` ends
    with.
    """
    n, m_target, seed = _integers(n=n, m_target=m_target, seed=seed)
    if n < 2:
        raise ValueError("generate_er requires n >= 2")
    if n > _MAX_PAIR_IDS:
        raise ValueError(f"generate_er requires n <= {_MAX_PAIR_IDS}")
    max_edges = n * (n - 1) // 2
    if not 1 <= m_target <= max_edges:
        raise ValueError(
            f"m_target must be in [1, {max_edges}] for n={n}, got {m_target}"
        )
    u, v = _pair_ends(_er_codes(n, m_target, np.random.default_rng(seed)), n)
    present = np.zeros(n, dtype=bool)
    present[u] = True
    present[v] = True
    ids = np.cumsum(present) - 1
    return _largest_component(
        np.flatnonzero(present), ids[u], ids[v], np.ones(m_target, dtype=np.float64)
    )


def _pair_codes(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The code ``(min << s) | max`` of each pair ``(a, b)`` of ids below
    ``n``, s the bit length of n - 1: the codes ascend as the pairs
    (min, max) do, and stay below 2^62 for n up to ``_MAX_PAIR_IDS``."""
    codes = np.minimum(a, b)
    codes <<= (n - 1).bit_length()
    codes |= np.maximum(a, b)
    return codes


def _pair_ends(codes: np.ndarray, n: int) -> tuple:
    """The pairs ``(min, max)`` of the codes of :func:`_pair_codes`."""
    s = (n - 1).bit_length()
    return codes >> s, codes & ((1 << s) - 1)


def _first_occurrences(codes: np.ndarray) -> tuple:
    """The distinct values of ``codes`` (nonnegative), ascending, and the
    position of each one's first occurrence.

    One in-place sort of the keys ``(code << p) | position``, p the bit
    length of the last position: the keys are distinct and ascend by
    code, then by position, so the head of each run of equal codes holds
    that code's first occurrence.  Keys that would not fit in
    ``_KEY_BITS`` take a stable argsort of the codes instead, which puts
    the same position at the head of each run.
    """
    p = (len(codes) - 1).bit_length()
    if int(codes.max(initial=0)).bit_length() + p <= _KEY_BITS:
        keys = codes << p
        keys |= np.arange(len(codes))
        keys.sort()
        ranked = keys >> p
        keys &= (1 << p) - 1
        order = keys
    else:
        order = np.argsort(codes, kind="stable")
        ranked = codes[order]
    first = np.empty(len(codes), dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    return ranked[first], order[first]


def _er_codes(n: int, m_target: int, rng: np.random.Generator) -> np.ndarray:
    """The codes (:func:`_pair_codes`) of ``generate_er``'s edges,
    ascending."""
    chosen = np.empty(0, dtype=np.int64)
    while len(chosen) < m_target:
        need = m_target - len(chosen)
        a = rng.integers(0, n, size=2 * need + 8)
        b = rng.integers(0, n, size=2 * need + 8)
        if not len(chosen):
            head = need + need // 64 + 16
            ah, bh = a[:head], b[:head]
            values, pos = _first_occurrences(_pair_codes(ah, bh, n)[ah != bh])
            if len(values) >= need:
                # the need earliest first occurrences, left in ascending order
                return values[pos <= np.partition(pos, need - 1)[need - 1]]
        codes = _pair_codes(a, b, n)[a != b]
        fresh = codes[np.sort(_first_occurrences(codes)[1])]
        if len(chosen):
            fresh = fresh[~np.isin(fresh, chosen)]
        chosen = np.concatenate([chosen, fresh[:need]])
    chosen.sort()
    return chosen


# The most vertices whose picks generate_ba draws in one call.  Caps of 64
# to 4096 filled the pool of BA 50k (attach 5) in 0.06-0.09 s, 256 and 512
# at the low end (median of 5, 2-vCPU Xeon).
_BA_BLOCK = 256


def generate_ba(n: int, attach: int, seed: int) -> Graph:
    """Preferential-attachment random graph.

    Starts from a star over the first ``attach + 1`` vertices; every later
    vertex attaches to ``attach`` distinct existing vertices chosen with
    probability proportional to current degree.  Always connected, so the
    whole graph is returned.  Deterministic for a given seed.

    The targets of vertex v are drawn from a pool that lists both
    endpoints of every earlier edge, by ``rng.integers(0, len(pool))``
    until ``attach`` of them are distinct.  The graph is that of one such
    call per pick, drawn in batches:

    - The pool holds ``2 * attach * (v - attach)`` entries before v, so
      the bounds of a block of vertices are known before any draw.  One
      ``rng.integers(0, highs)`` call draws each vertex's first ``attach``
      picks, and it consumes the generator's stream exactly like the
      scalar calls (pinned by a test).
    - The pool is an int64 array whose even entries (the new vertices)
      are known in advance; the block fills the odd ones, its rows'
      targets.  A pick reads the pool at once, unless it lands on an odd
      entry at or after the block's start: that is the target of an
      earlier row of the block, read once that row is written.  Each
      round sorts the rows whose picks are all read, writes those before
      the first row with a repeated target, and reads the picks that wait
      on the rows just written.  Picks only read backwards, so the rounds
      number the longest chain of such reads, usually 1-4.
    - At the first vertex whose picks repeat a target, the generator
      rewinds: it restores the state saved before the block, re-draws the
      picks up to that vertex's, draws the extra picks one call at a time
      and starts the next block after that vertex; the rows after it are
      dropped.
    - A block after a rewind spans twice the vertices that the rewound
      block resolved, and a block after a clean one twice its size, up to
      ``_BA_BLOCK``.  Where repeats are frequent (``attach`` near ``n``,
      or the first vertices), a rewind then re-draws a few picks, not a
      whole block.

    The edges are distinct and connect every vertex by construction, so
    the graph skips ``_build_graph``'s merging, component labelling and
    relabelling, and the ids are the vertices' own.
    """
    n, attach, seed = _integers(n=n, attach=attach, seed=seed)
    if attach < 1:
        raise ValueError("attach must be >= 1")
    if n < attach + 1:
        raise ValueError(f"generate_ba requires n >= attach + 1 = {attach + 1}")
    rng = np.random.default_rng(seed)
    m = attach * (n - attach)
    width = 2 * attach  # pool entries a vertex adds
    # the pool: entries 2i and 2i + 1 are the endpoints of edge i, in the
    # order the edges are made; vertex v's edges are (v, t), t < v, so only
    # the targets t are left to fill
    ends = np.empty(2 * m, dtype=np.int64)
    ends[0 : 2 * attach : 2] = 0
    ends[1 : 2 * attach : 2] = np.arange(1, attach + 1)
    ends[2 * attach :: 2] = np.repeat(np.arange(attach + 1, n), attach)
    v0, block = attach + 1, _BA_BLOCK
    while v0 < n:
        stop = min(v0 + block, n)
        highs = np.repeat(np.arange(v0 - attach, stop - attach) * width, attach)
        state = rng.bit_generator.state
        picks = rng.integers(0, highs).reshape(-1, attach)
        pos0 = width * (v0 - attach)  # the pool's length before v0
        # row r holds the targets of vertex v0 + r, a view into the pool
        slots = ends[pos0 : width * (stop - attach)].reshape(-1, width)[:, 1::2]
        vals = ends[picks]
        # a pick of an odd entry at or after pos0 reads the target of an
        # earlier row of this block, row src, once that row is written (src
        # is 0 for the other picks, which wait on nothing)
        wait = (picks >= pos0) & (picks % 2 == 1)
        src = np.maximum(picks - pos0, 0) // width
        todo = np.ones(len(picks), dtype=bool)
        bad = len(picks)  # the first row whose picks repeat a target
        while True:
            ready = todo & ~wait.any(axis=1)
            rows = np.sort(vals, axis=1)
            # a row with a repeat stays unwritten, so each round finds it again
            repeat = ready & (rows[:, 1:] == rows[:, :-1]).any(axis=1)
            if repeat.any():
                bad = int(repeat.argmax())
            ready[bad:] = False
            slots[ready] = rows[ready]
            todo[ready] = False
            if not todo[:bad].any():
                break
            known = wait & ~todo[src]
            vals[known] = ends[picks[known]]
            wait &= ~known
        if bad < len(picks):
            rng.bit_generator.state = state
            rng.integers(0, highs[: (bad + 1) * attach])
            targets = set(vals[bad].tolist())
            pos = pos0 + width * bad
            while len(targets) < attach:
                targets.add(int(ends[rng.integers(0, pos)]))
            slots[bad] = sorted(targets)
            v0, block = v0 + bad + 1, 2 * (bad + 1)
        else:
            v0, block = stop, min(2 * block, _BA_BLOCK)
    # the pool is complete: flip the star's edges (0, t) so that every
    # odd entry is the smaller endpoint of its edge
    ends[0 : 2 * attach : 2] = ends[1 : 2 * attach : 2]
    ends[1 : 2 * attach : 2] = 0
    offsets, neighbors, weights, degrees = _csr_from_canonical(
        n, ends[1::2], ends[0::2], np.ones(m, dtype=np.float64)
    )
    return Graph(offsets, neighbors, weights, degrees, np.arange(n, dtype=np.int64))
