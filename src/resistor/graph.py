"""Immutable CSR graphs: parsing, cleaning, generation, and adjacency queries.

Graphs are undirected and simple.  Loading an edge list always cleans the
input the same way: self loops are dropped, parallel edges are merged (their
weights summed), the largest connected component is extracted, and vertices
are relabeled to contiguous ids ``0..n-1`` ordered by their original labels.
Every algorithm in this package may therefore assume a connected graph with
positive degrees.
"""

from __future__ import annotations

import io
import struct
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
    "degree",
    "neighbor_slice",
    "jump",
    "bfs_hops",
    "triangle_weight",
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
    share across workers.

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
        return bool(np.all(self.weights == 1.0))

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
    def reverse_arcs(self) -> np.ndarray:
        """Arc id of (x, u) for every arc (u, x), aligned with ``neighbors``.

        Arcs are sorted by (source, head), so sorting them by (head,
        source), one distinct int64 key per arc, lists the reverse of each
        arc in its place.  On a symmetric graph this is an involution.
        """
        return np.argsort(self.neighbors * self.node_count + self.arc_sources)

    @cached_property
    def inv_sqrt_degrees(self) -> np.ndarray:
        """1 / sqrt(weighted degree), used by the normalized operators."""
        return 1.0 / self.sqrt_degrees

    @cached_property
    def label_index(self) -> dict:
        """Original label -> contiguous id (inverse of ``old_ids``)."""
        return {int(old): new for new, old in enumerate(self.old_ids)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "unweighted" if self.is_unweighted else "weighted"
        return f"Graph(n={self.node_count}, m={self.edge_count}, {kind})"


# ---------------------------------------------------------------------------
# construction pipeline
# ---------------------------------------------------------------------------


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending: ``np.unique(a)``.

    A sort and an adjacent-difference mask.  Since numpy 2.3, ``np.unique``
    without ``return_inverse`` (or index or counts) builds a hash table and
    then sorts its output, which costs 8-25x more on the int64 id arrays of
    the graph build and the pruned Lanczos step.
    """
    c = np.sort(a)
    if c.size == 0:
        return c
    keep = np.empty(c.size, dtype=bool)
    keep[0] = True
    np.not_equal(c[1:], c[:-1], out=keep[1:])
    return c[keep]


def _csr_from_canonical(n: int, eu: np.ndarray, ev: np.ndarray, w: np.ndarray):
    """Assemble CSR arrays from deduplicated canonical edges (eu < ev)."""
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


def _gather_frontier(offsets: np.ndarray, neighbors: np.ndarray, frontier: np.ndarray):
    """Concatenate the neighbor slices of every vertex in ``frontier``."""
    starts = offsets[frontier]
    counts = offsets[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return neighbors[:0]
    group_starts = np.repeat(starts, counts)
    group_bases = np.concatenate([[0], np.cumsum(counts)[:-1]])
    within = np.arange(total, dtype=np.int64) - np.repeat(group_bases, counts)
    return neighbors[group_starts + within]


def _bfs_layers(offsets, neighbors, source, hops):
    """BFS from ``source`` writing hop counts into ``hops`` (in place)."""
    hops[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        nxt = _sorted_unique(_gather_frontier(offsets, neighbors, frontier))
        nxt = nxt[hops[nxt] < 0]
        d += 1
        hops[nxt] = d
        frontier = nxt


def _component_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component label of every vertex of the arcs ``(src, dst)`` on
    ``0..n-1``, numbered by each component's smallest vertex; every edge
    must appear as both its arcs.

    Min-label hooking with pointer jumping: every root takes the smallest
    root across its arcs, then every vertex jumps to its root.  Roots that
    stay roots in one round are each the hook target of a distinct vertex
    of the round before, so every two rounds at least halve the trees of a
    component: O(log n) rounds of a few passes over the arcs.
    """
    parent = np.arange(n)
    while True:
        root_src, root_dst = parent[src], parent[dst]
        if np.array_equal(root_src, root_dst):
            return np.unique(parent, return_inverse=True)[1]
        np.minimum.at(parent, root_src, root_dst)
        # parents only ever point to smaller ids, so this ends at the roots
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def _build_graph(u_raw: np.ndarray, v_raw: np.ndarray, w_raw: np.ndarray) -> Graph:
    """Clean raw (label, label, weight) triples into a canonical Graph.

    Applies the full pipeline: self-loop removal, parallel-edge merging,
    largest-connected-component extraction, and relabeling to contiguous
    ids ordered by original label.
    """
    keep = u_raw != v_raw
    u_raw, v_raw, w_raw = u_raw[keep], v_raw[keep], w_raw[keep]
    if u_raw.size == 0:
        raise EmptyGraphError("no edges remain after removing self loops")

    labels = _sorted_unique(np.concatenate([u_raw, v_raw]))
    u = np.searchsorted(labels, u_raw)
    v = np.searchsorted(labels, v_raw)

    # one int64 key per unordered pair, ordered as the pairs are; the keys
    # stay below n_all^2 <= (2m)^2, inside int64 for m below 1.5e9
    n_all = len(labels)
    keys, inverse = np.unique(
        np.minimum(u, v) * n_all + np.maximum(u, v), return_inverse=True
    )
    merged_w = np.bincount(inverse, weights=w_raw, minlength=len(keys))
    uniq_u, uniq_v = np.divmod(keys, n_all)

    comp = _component_labels(
        n_all, np.concatenate([uniq_u, uniq_v]), np.concatenate([uniq_v, uniq_u])
    )
    counts = np.bincount(comp)
    best = int(np.argmax(counts))
    kept = np.where(comp == best)[0]

    edge_mask = comp[uniq_u] == best
    eu = np.searchsorted(kept, uniq_u[edge_mask])
    ev = np.searchsorted(kept, uniq_v[edge_mask])
    ew = merged_w[edge_mask]

    offsets, neighbors, weights, degrees = _csr_from_canonical(len(kept), eu, ev, ew)
    old_ids = labels[kept].astype(np.int64)
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


def _iter_lines(source: Source):
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from fh
    else:
        data = source.read()
        if isinstance(data, str):
            data = data.encode()
        yield from io.BytesIO(data)


def load_edge_list(source: Source, weighted: bool = False) -> Graph:
    """Parse a whitespace-delimited edge list and return the cleaned graph.

    Each non-blank line is ``u v`` or ``u v w`` with integer vertex labels
    in [0, 2^63 - 1]; lines starting with ``#`` are comments.  With
    ``weighted=True`` the third column is required and must be positive;
    otherwise any third column is ignored.

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
        If a weighted degree overflows float64.
    """
    us, vs, ws = [], [], []
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.decode("utf-8", errors="replace").strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(lineno, f"expected 'u v [w]', got {line!r}")
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError:
            raise GraphFormatError(
                lineno, f"vertex labels must be integers, got {line!r}"
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
                    lineno, f"edge weight must be a number, got {parts[2]!r}"
                ) from None
            if not np.isfinite(w) or w <= 0.0:
                raise GraphFormatError(lineno, f"edge weight must be positive, got {w}")
        else:
            w = 1.0
        us.append(u)
        vs.append(v)
        ws.append(w)
    if not us:
        raise EmptyGraphError("edge list contains no edges")
    return _build_graph(
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        np.asarray(ws, dtype=np.float64),
    )


def save_edge_list(g: Graph, path: Source) -> None:
    """Write ``g`` as an edge list over its contiguous internal ids.

    Weights are written as a third column unless the graph is unweighted.
    Reloading the file reproduces the graph exactly.
    """
    eu, ev, w = edge_arrays(g)
    lines = []
    if g.is_unweighted:
        for a, b in zip(eu.tolist(), ev.tolist()):
            lines.append(f"{a} {b}\n")
    else:
        for a, b, x in zip(eu.tolist(), ev.tolist(), w.tolist()):
            lines.append(f"{a} {b} {x!r}\n")
    text = "".join(lines)
    if isinstance(path, (str, Path)):
        with open(path, "w") as fh:
            fh.write(text)
    else:
        path.write(text)


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

    Raises
    ------
    GraphFormatError
        If the file is not a well-formed graph cache.
    EmptyGraphError
        If the cached graph has no edges.
    UnsupportedInputError
        If a weighted degree overflows float64.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CACHE_MAGIC:
        raise GraphFormatError(1, "not a graph cache file (bad magic)")
    header = 4 + 16
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
        nonlocal pos
        arr = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
        pos += arr.nbytes
        return arr.astype(arr.dtype.newbyteorder("="))  # a native copy

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
    g = Graph(offsets, neighbors, weights, np.empty(n), old_ids)
    # the degrees read the arc sources that the arc checks read too
    g.weighted_degrees[:] = np.bincount(g.arc_sources, weights=weights, minlength=n)
    _check_cached_arcs(g)
    _check_finite_degrees(g.weighted_degrees, old_ids)
    return g


def _check_cached_arcs(g: Graph) -> None:
    """Raise GraphFormatError unless the arcs of ``g`` (whose offsets are
    already checked) form a connected simple undirected graph with
    positive finite weights."""
    n, src, dst, w = g.node_count, g.arc_sources, g.neighbors, g.weights
    if dst.min() < 0 or dst.max() >= n:
        raise GraphFormatError(1, f"graph cache neighbor id outside [0, {n})")
    if np.any(src == dst):
        raise GraphFormatError(1, "graph cache holds a self loop")
    if np.any((src[1:] == src[:-1]) & (dst[1:] <= dst[:-1])):
        raise GraphFormatError(1, "graph cache neighbor slices are not strictly ascending")
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise GraphFormatError(1, "graph cache weights must be positive and finite")
    rev = g.reverse_arcs
    if not (
        np.array_equal(dst[rev], src)
        and np.array_equal(src[rev], dst)
        and np.array_equal(w[rev], w)
    ):
        raise GraphFormatError(1, "graph cache arcs are not symmetric")
    if _component_labels(n, src, dst).max() != 0:
        raise GraphFormatError(1, "graph cache holds more than one component")


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def _check_vertex(g: Graph, u: int) -> None:
    if not 0 <= u < g.node_count:
        raise IndexError(f"vertex {u} out of range for graph with n={g.node_count}")


def degree(g: Graph, u: int) -> float:
    """Weighted degree of ``u`` (the count of neighbors when unweighted)."""
    _check_vertex(g, u)
    return float(g.weighted_degrees[u])


def neighbor_slice(g: Graph, u: int) -> list:
    """The ``(neighbor, weight)`` pairs of ``u``, sorted by neighbor id."""
    _check_vertex(g, u)
    lo, hi = g.offsets[u], g.offsets[u + 1]
    return list(zip(g.neighbors[lo:hi].tolist(), g.weights[lo:hi].tolist()))


def jump(g: Graph, rng: np.random.Generator) -> int:
    """A uniformly random vertex id drawn from ``rng``."""
    return int(rng.integers(0, g.node_count))


def bfs_hops(g: Graph, source: int) -> np.ndarray:
    """Hop distance from ``source`` to every vertex (-1 if unreachable)."""
    _check_vertex(g, source)
    hops = np.full(g.node_count, -1, dtype=np.int64)
    _bfs_layers(g.offsets, g.neighbors, source, hops)
    return hops


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
# derived weights
# ---------------------------------------------------------------------------


def triangle_weight(g: Graph) -> Graph:
    """Reweight an unweighted graph by per-edge triangle counts.

    The weight of each edge becomes the number of triangles it closes;
    edges in no triangle get weight 1 so connectivity is preserved.
    Weighted degrees are recomputed.  The vertex set and id map are
    unchanged.
    """
    if not g.is_unweighted:
        raise UnsupportedInputError("triangle reweighting expects an unweighted graph")
    eu, ev, _ = edge_arrays(g)
    offsets, neighbors = g.offsets, g.neighbors
    new_w = np.empty(len(eu), dtype=np.float64)
    for i, (a, b) in enumerate(zip(eu.tolist(), ev.tolist())):
        na = neighbors[offsets[a] : offsets[a + 1]]
        nb = neighbors[offsets[b] : offsets[b + 1]]
        t = np.intersect1d(na, nb, assume_unique=True).size
        new_w[i] = t if t > 0 else 1.0
    new_offsets, new_neighbors, new_weights, degrees = _csr_from_canonical(
        g.node_count, eu, ev, new_w
    )
    return Graph(new_offsets, new_neighbors, new_weights, degrees, g.old_ids.copy())


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def generate_er(n: int, m_target: int, seed: int) -> Graph:
    """Uniform random graph with ``n`` vertices and ``m_target`` distinct edges.

    Edges are sampled uniformly without replacement from all unordered
    pairs.  The returned graph is the largest connected component, so its
    vertex count may be below ``n``.  Deterministic for a given seed.
    """
    if n < 2:
        raise ValueError("generate_er requires n >= 2")
    max_edges = n * (n - 1) // 2
    if not 1 <= m_target <= max_edges:
        raise ValueError(
            f"m_target must be in [1, {max_edges}] for n={n}, got {m_target}"
        )
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


def generate_ba(n: int, attach: int, seed: int) -> Graph:
    """Preferential-attachment random graph.

    Starts from a star over the first ``attach + 1`` vertices; every later
    vertex attaches to ``attach`` distinct existing vertices chosen with
    probability proportional to current degree.  Always connected, so the
    whole graph is returned.  Deterministic for a given seed.
    """
    if attach < 1:
        raise ValueError("attach must be >= 1")
    if n < attach + 1:
        raise ValueError(f"generate_ba requires n >= attach + 1 = {attach + 1}")
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
