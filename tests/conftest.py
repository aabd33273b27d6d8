"""Shared fixtures and independent dense oracles.

The oracles here rebuild every matrix from the CSR arrays alone
(``offsets``, ``neighbors``, ``weights``), never from the kernels under
test, so agreement between an estimator and an oracle is a genuine
two-route check.
"""

from __future__ import annotations

import io
from collections import deque

import numpy as np
import pytest

from resistor import Graph, generate_er, load_edge_list


def graph_from_text(text: str, weighted: bool = False) -> Graph:
    return load_edge_list(io.StringIO(text), weighted=weighted)


def toy_graph() -> Graph:
    """Triangle 1-2-3 with pendant vertex 4 attached to 1 (labels 1..4,
    internal ids 0..3 after relabeling)."""
    return graph_from_text("1 2\n1 3\n2 3\n1 4\n")


def single_edge() -> Graph:
    return graph_from_text("0 1\n")


def path_graph(n: int) -> Graph:
    return graph_from_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    lines = [f"{i} {(i + 1) % n}\n" for i in range(n)]
    return graph_from_text("".join(lines))


def complete_graph(n: int) -> Graph:
    lines = [f"{i} {j}\n" for i in range(n) for j in range(i + 1, n)]
    return graph_from_text("".join(lines))


def grid_graph(rows: int, cols: int) -> Graph:
    lines = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                lines.append(f"{v} {v + 1}\n")
            if r + 1 < rows:
                lines.append(f"{v} {v + cols}\n")
    return graph_from_text("".join(lines))


def er_graph(n: int, m: int, seed: int) -> Graph:
    return generate_er(n, m, seed)


def random_connected(n: int, seed: int, density: float = 2.2) -> Graph:
    """An ER graph dense enough that its LCC keeps nearly all vertices."""
    m = max(n, int(density * n * np.log(max(n, 2)) / 2))
    m = min(m, n * (n - 1) // 2)
    return generate_er(n, m, seed)


def random_weighted(n: int, seed: int) -> Graph:
    """``random_connected(n, seed)`` with edge weights drawn from [0.25, 4)."""
    g = random_connected(n, seed)
    eu, ev = [], []
    for u in range(g.node_count):
        for v in g.neighbors[g.offsets[u] : g.offsets[u + 1]].tolist():
            if u < v:
                eu.append(u)
                ev.append(v)
    w = np.random.default_rng(seed).uniform(0.25, 4.0, len(eu))
    text = "".join(f"{a} {b} {x!r}\n" for a, b, x in zip(eu, ev, w.tolist()))
    return graph_from_text(text, weighted=True)


def cut_lattice(side: int, cut: float, seed: int) -> Graph:
    """A side x side lattice with a fraction ``cut`` of its edges removed;
    the loader keeps the largest component."""
    ids = np.arange(side * side).reshape(side, side)
    edges = np.concatenate(
        [
            np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1),
            np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1),
        ]
    )
    edges = edges[np.random.default_rng(seed).random(len(edges)) >= cut]
    return graph_from_text("".join(f"{a} {b}\n" for a, b in edges))


# ---------------------------------------------------------------------------
# oracles (built only from the CSR arrays)
# ---------------------------------------------------------------------------


def bfs_hops(g: Graph, source: int) -> np.ndarray:
    """Hop distance from ``source`` to every vertex (-1 if unreachable),
    by a plain queue BFS."""
    hops = np.full(g.node_count, -1, dtype=np.int64)
    hops[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.neighbors[g.offsets[u] : g.offsets[u + 1]].tolist():
            if hops[v] < 0:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


def dense_weight_matrix(g: Graph) -> np.ndarray:
    n = g.node_count
    w = np.zeros((n, n))
    for u in range(n):
        lo, hi = g.offsets[u], g.offsets[u + 1]
        w[u, g.neighbors[lo:hi]] = g.weights[lo:hi]
    return w


def dense_degrees(g: Graph) -> np.ndarray:
    return dense_weight_matrix(g).sum(axis=1)


def dense_laplacian(g: Graph) -> np.ndarray:
    w = dense_weight_matrix(g)
    return np.diag(w.sum(axis=1)) - w


def dense_normalized_adjacency(g: Graph) -> np.ndarray:
    w = dense_weight_matrix(g)
    inv_sqrt = 1.0 / np.sqrt(w.sum(axis=1))
    return inv_sqrt[:, None] * w * inv_sqrt[None, :]


def dense_transition(g: Graph) -> np.ndarray:
    w = dense_weight_matrix(g)
    return w / w.sum(axis=1)[None, :]


def dense_lazy_walk(g: Graph) -> np.ndarray:
    n = g.node_count
    return 0.5 * (np.eye(n) + dense_transition(g))


def pinv_resistance(g: Graph, s: int, t: int) -> float:
    pinv = np.linalg.pinv(dense_laplacian(g))
    e = np.zeros(g.node_count)
    e[s], e[t] = 1.0, -1.0
    return float(e @ pinv @ e)


def pinv_potential(g: Graph, s: int, t: int) -> np.ndarray:
    pinv = np.linalg.pinv(dense_laplacian(g))
    e = np.zeros(g.node_count)
    e[s], e[t] = 1.0, -1.0
    return pinv @ e


def dense_spectrum(g: Graph):
    """(lambda_2(A), lambda_min(A), kappa) from a dense eigendecomposition."""
    evals = np.linalg.eigvalsh(dense_normalized_adjacency(g))
    lambda2 = float(evals[-2]) if len(evals) > 1 else float(evals[-1])
    lambda_min = float(evals[0])
    return lambda2, lambda_min, 2.0 / (1.0 - lambda2)


def random_pair(rng: np.random.Generator, n: int):
    s = int(rng.integers(0, n))
    t = int(rng.integers(0, n - 1))
    if t >= s:
        t += 1
    return s, t


@pytest.fixture
def toy():
    return toy_graph()


@pytest.fixture
def edge():
    return single_edge()
