"""Independent references and validity checks for the benchmark.

Nothing here calls the estimators, kernels or spectral code under test.
The references read only the CSR arrays of a built graph (the workload's
input) and solve with SciPy's sparse matrices, so an estimate and its
reference share no numerical code.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla


def adjacency(g) -> sp.csr_matrix:
    """The weighted adjacency W of ``g`` as a SciPy CSR matrix."""
    n = len(g.offsets) - 1
    return sp.csr_matrix((g.weights, g.neighbors, g.offsets), shape=(n, n))


def laplacian(g) -> sp.csr_matrix:
    w = adjacency(g)
    deg = np.asarray(w.sum(axis=1)).ravel()
    return (sp.diags(deg) - w).tocsr()


def cg_resistance(lap: sp.csr_matrix, s: int, t: int, rtol: float = 1e-13, max_iter: int = 5000) -> float:
    """r(s, t) = x_s - x_t for L x = e_s - e_t, by plain conjugate gradients.

    The right-hand side is orthogonal to the null space of L (the
    constant vector on a connected graph), so CG converges on the
    singular system.  Raises ``RuntimeError`` if it does not reach
    ``rtol`` relative residual.
    """
    n = lap.shape[0]
    b = np.zeros(n)
    b[s], b[t] = 1.0, -1.0
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    stop = (rtol * np.sqrt(rr)) ** 2
    for _ in range(max_iter):
        ap = lap @ p
        step = rr / float(p @ ap)
        x += step * p
        r -= step * ap
        rr_next = float(r @ r)
        if rr_next <= stop:
            return float(x[s] - x[t])
        p = r + (rr_next / rr) * p
        rr = rr_next
    raise RuntimeError(f"CG reference did not converge for pair ({s}, {t})")


def kappa_reference(w: sp.csr_matrix) -> float:
    """kappa = 2 / mu_2 for the graph with adjacency ``w``, with mu_2 the
    smallest nonzero eigenvalue of the normalized Laplacian
    I - D^{-1/2} W D^{-1/2}, by shift-invert ARPACK."""
    inv_sqrt = 1.0 / np.sqrt(np.asarray(w.sum(axis=1)).ravel())
    n = w.shape[0]
    norm_lap = (sp.identity(n) - sp.diags(inv_sqrt) @ w @ sp.diags(inv_sqrt)).tocsc()
    v0 = np.linspace(1.0, 2.0, n)
    vals = spla.eigsh(norm_lap, k=2, sigma=-1e-3, which="LM", v0=v0, return_eigenvectors=False)
    mu2 = float(np.max(vals))
    return 2.0 / mu2


def relative_error(estimate: float, reference: float) -> float:
    return abs(estimate - reference) / abs(reference)


def graph_problems(g, expect_nodes=None, expect_edges=None) -> list:
    """Structural problems of a built graph; an empty list means valid.

    Checks CSR shape, ids in range, sorted slices without self loops or
    duplicates, arc symmetry, positive weights, degree sums, connectivity
    and, when given, the expected vertex and edge counts.
    """
    off, nb, wt = g.offsets, g.neighbors, g.weights
    n = len(off) - 1
    problems = []
    if off[0] != 0 or np.any(np.diff(off) < 0) or off[-1] != len(nb):
        return ["offsets are not a CSR row pointer"]
    if len(nb) and (nb.min() < 0 or nb.max() >= n):
        return ["neighbor id out of range"]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
    if np.any(rows == nb):
        problems.append("self loop")
    same_row = rows[1:] == rows[:-1]
    if np.any(nb[1:][same_row] <= nb[:-1][same_row]):
        problems.append("neighbor slice not strictly ascending")
    fwd = np.sort(rows * n + nb)
    rev = np.sort(nb * n + rows)
    if not np.array_equal(fwd, rev):
        problems.append("arcs are not symmetric")
    if not np.all(np.isfinite(wt)) or np.any(wt <= 0):
        problems.append("non-positive weight")
    if not np.allclose(np.bincount(rows, weights=wt, minlength=n), g.weighted_degrees):
        problems.append("weighted degrees disagree with arcs")
    ncomp, _ = csgraph.connected_components(adjacency(g), directed=False)
    if ncomp != 1:
        problems.append(f"graph has {ncomp} components")
    if expect_nodes is not None and n != expect_nodes:
        problems.append(f"expected {expect_nodes} vertices, got {n}")
    if expect_edges is not None and len(nb) // 2 != expect_edges:
        problems.append(f"expected {expect_edges} edges, got {len(nb) // 2}")
    return problems


def largest_component(edges: np.ndarray):
    """Largest component of a raw edge list (rows ``(u, v)``, no self
    loops or duplicates), as ``(labels, adjacency, components)``.

    ``labels`` holds the component's vertex labels in ascending order and
    ``adjacency`` is its unit-weight CSR adjacency with vertex i standing
    for ``labels[i]``, the same ids the graph loader assigns.
    """
    labels, inverse = np.unique(edges, return_inverse=True)
    inverse = inverse.reshape(edges.shape)
    n = len(labels)
    rows = np.concatenate([inverse[:, 0], inverse[:, 1]])
    cols = np.concatenate([inverse[:, 1], inverse[:, 0]])
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    ncomp, comp = csgraph.connected_components(adj, directed=False)
    keep = np.flatnonzero(comp == np.argmax(np.bincount(comp)))
    lcc = adj[keep][:, keep].tocsr()
    lcc.sort_indices()
    return labels[keep], lcc, ncomp


def route_problems(adj: sp.csr_matrix, routes, s: int, t: int, l: int) -> list:
    """Problems with an extracted route set; an empty list means valid.

    Every route must be a simple s-t path over edges of the graph with
    CSR adjacency ``adj`` (sorted indices) and a positive finite
    bottleneck, its recorded length and edge set must match its
    vertices, and exactly ``l`` routes must come back.
    """
    off, nb = adj.indptr, adj.indices
    problems = []
    routes = list(routes)
    if len(routes) != l:
        problems.append(f"expected {l} routes, got {len(routes)}")
    for i, r in enumerate(routes):
        path = [int(x) for x in r.vertices]
        if len(path) < 2 or path[0] != s or path[-1] != t:
            problems.append(f"route {i} does not run from {s} to {t}")
            continue
        if len(set(path)) != len(path):
            problems.append(f"route {i} repeats a vertex")
        hops = list(zip(path[:-1], path[1:]))
        for a, b in hops:
            lo, hi = off[a], off[a + 1]
            j = lo + np.searchsorted(nb[lo:hi], b)
            if j >= hi or nb[j] != b:
                problems.append(f"route {i} uses non-edge ({a}, {b})")
                break
        if r.length != len(hops) or set(r.edges) != {(min(a, b), max(a, b)) for a, b in hops}:
            problems.append(f"route {i} length or edge set disagrees with its vertices")
        if not (np.isfinite(r.bottleneck) and r.bottleneck > 0.0):
            problems.append(f"route {i} has bottleneck {r.bottleneck}")
    return problems
