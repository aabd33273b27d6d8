"""The three benchmark workloads: inputs, set-up, one query, and checks.

Each workload turns a graph seed into inputs (untimed), builds a ready
graph from them (timed as set-up), answers one query per s-t pair (timed
as a query), and checks outputs against the independent references in
``oracles`` (untimed).  Calls into the library are wrapped in tracer
spans named ``<layer>.<function>``; with the null tracer they cost one
context-manager entry each.
"""

from __future__ import annotations

import numpy as np
import resistor as R
import scipy.sparse.csgraph as csgraph

import oracles

# Sizes per workload.  "tiny" exists for the self-tests only.
SIZES = {
    "full": {
        "er-global": {"n": 50_000, "m": 250_000, "k": 20},
        "ba-local": {"n": 50_000, "attach": 5, "k": 20, "eps": 5e-3},
        "grid-route": {
            "side": 80, "delete": 0.10, "fragments": 8000,
            "k": 200, "l": 3, "p_delete": 0.05, "trials": 200,
        },
    },
    "tiny": {
        "er-global": {"n": 2_000, "m": 10_000, "k": 20},
        "ba-local": {"n": 2_000, "attach": 5, "k": 20, "eps": 5e-3},
        "grid-route": {
            "side": 12, "delete": 0.10, "fragments": 40,
            "k": 60, "l": 3, "p_delete": 0.05, "trials": 50,
        },
    },
}

# Push parameters of the push-versus-Lanczos probe, on every workload.
PUSH_K = 20
PUSH_EPS = 5e-3


class Workload:
    name = ""
    tolerance = 0.0  # largest accepted relative error of a checked output
    # The ``calibrate.kernel`` specs: work of the same kind as the query's
    # and as the set-up's.  Set-up is timed against the set-up kernel and
    # scaled by that kernel's time on the host the benchmark was tuned on
    # (2 vCPU Xeon KVM guest, in its fast mode), so ``setup_s`` reads in
    # that host's seconds.
    calibration: dict = {}
    setup_calibration: dict = {}
    setup_reference_s = 0.0

    def __init__(self, size: str = "full"):
        self.p = SIZES[size][self.name]
        self.k = self.p["k"]  # Lanczos iterations of the workload's own calls

    def input_counts(self, inputs, g) -> dict:
        """Input edges, vertices and components as the graph layer saw them.

        Generators hide their raw edges, so for them every input vertex
        missing from the returned largest component is counted as its own
        component: exact when those vertices are isolated, an upper bound
        otherwise.
        """
        n = inputs["vertices"]
        return {
            "edges": inputs["edges"],
            "vertices": n,
            "components": inputs.get("components", 1 + n - g.node_count),
        }


class ResistanceWorkload(Workload):
    """Single-pair resistance-distance queries checked against CG."""

    def prepare_checks(self, state, inputs) -> dict:
        return {"lap": oracles.laplacian(state["g"]), "refs": {}}

    def check(self, state, ctx, pair, out, reference: bool):
        value = out["value"]
        if not (np.isfinite(value) and value > 0.0):
            return [f"estimate {value} is not a positive number"], {}
        if not reference:
            return [], {}
        if pair not in ctx["refs"]:
            ctx["refs"][pair] = oracles.cg_resistance(ctx["lap"], *pair)
        err = oracles.relative_error(value, ctx["refs"][pair])
        problems = [f"relative error {err:.3g} > {self.tolerance:g}"] if err > self.tolerance else []
        return problems, {"rel_err": err}


class ErGlobal(ResistanceWorkload):
    name = "er-global"
    tolerance = 1e-6  # k=20 has converged to ~1e-15 here
    calibration = {"gather": (50_000, 500_000, 3)}  # dense matvecs of this size
    setup_calibration = {"interpreter": 6_000}  # generate_er: set-building loop
    setup_reference_s = 0.010

    def make_inputs(self, graph_seed: int, workdir) -> dict:
        p = self.p
        return {"n": p["n"], "m": p["m"], "seed": graph_seed, "edges": p["m"], "vertices": p["n"]}

    def setup(self, inputs, tracer) -> dict:
        with tracer.span("graph.generate_er"):
            g = R.generate_er(inputs["n"], inputs["m"], inputs["seed"])
        return {"g": g}

    def check_setup(self, state, inputs):
        g = state["g"]
        problems = oracles.graph_problems(g)
        if g.node_count > inputs["n"] or g.edge_count > inputs["m"]:
            problems.append("graph is larger than its input")
        return problems, {}

    def query(self, state, pair, qid, tracer) -> dict:
        with tracer.span("lanczos.lanczos_rd") as sp:
            est, run = R.lanczos_rd(state["g"], pair[0], pair[1], self.k)
        sp["iterations"] = run.k_effective
        sp["arcs"] = est.touched_edges
        return {"value": est.value}


class BaLocal(ResistanceWorkload):
    name = "ba-local"
    tolerance = 0.10  # pruning error; a 300-pair sample peaked at 3%
    calibration = {"scatter": (1_200, 8)}  # pruned push: per-row numpy and dict work
    setup_calibration = calibration  # generate_ba: per-vertex rng calls, sets, lists
    setup_reference_s = 0.008

    def make_inputs(self, graph_seed: int, workdir) -> dict:
        n, a = self.p["n"], self.p["attach"]
        return {"n": n, "attach": a, "seed": graph_seed, "edges": a * (n - a - 1) + a, "vertices": n}

    def setup(self, inputs, tracer) -> dict:
        with tracer.span("graph.generate_ba"):
            g = R.generate_ba(inputs["n"], inputs["attach"], inputs["seed"])
        return {"g": g, "cfg": R.PushConfig(k=self.k, epsilon=self.p["eps"])}

    def check_setup(self, state, inputs):
        return oracles.graph_problems(state["g"], inputs["n"], inputs["edges"]), {}

    def query(self, state, pair, qid, tracer) -> dict:
        with tracer.span("push.lanczos_push_rd") as sp:
            est, _, stats = R.lanczos_push_rd(state["g"], pair[0], pair[1], state["cfg"])
        push_counts(sp, stats)
        return {"value": est.value}


def push_counts(sp: dict, stats) -> None:
    sp["arcs"] = stats.touched_edges
    sp["extra_ops"] = stats.extra_ops
    sp["peak_support"] = stats.peak_support
    sp["subset_total"] = int(sum(stats.subset_sizes))
    sp["support_total"] = int(sum(stats.support_sizes))


def grid_edges(side: int, delete: float, fragments: int, rng) -> np.ndarray:
    """Lattice edges with a ``delete`` share removed, plus disjoint
    two-vertex fragments labelled after the lattice, in shuffled order."""
    idx = np.arange(side * side).reshape(side, side)
    lattice = np.concatenate([
        np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1),
        np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1),
    ])
    lattice = lattice[rng.random(len(lattice)) >= delete]
    frag = side * side + np.arange(2 * fragments).reshape(fragments, 2)
    edges = np.concatenate([lattice, frag])
    return edges[rng.permutation(len(edges))]


class GridRoute(Workload):
    name = "grid-route"
    tolerance = 0.10  # on kappa; the power method stops 0.5-3% low here
    # About 60% small-graph Lanczos matvecs, 40% widest-path and dict work.
    calibration = {"gather": (6_400, 25_600, 36), "interpreter": 2_400}
    # Parsing, then power iterations on the same small graph.
    setup_calibration = calibration
    setup_reference_s = 0.009

    def make_inputs(self, graph_seed: int, workdir) -> dict:
        p = self.p
        edges = grid_edges(p["side"], p["delete"], p["fragments"], np.random.default_rng(graph_seed))
        path = workdir / f"grid-{graph_seed}.txt"
        path.write_text("".join(f"{a} {b}\n" for a, b in edges.tolist()))
        labels, adj, ncomp = oracles.largest_component(edges)
        return {
            "path": path, "edges": len(edges), "vertices": int(np.unique(edges).size),
            "components": ncomp, "lcc_labels": labels, "lcc_adj": adj,
            "kappa_ref": oracles.kappa_reference(adj),
        }

    def setup(self, inputs, tracer) -> dict:
        with tracer.span("graph.load_edge_list"):
            g = R.load_edge_list(inputs["path"])
        with tracer.span("spectral.estimate_spectrum") as sp:
            spec = R.estimate_spectrum(g)
        sp["iterations"] = spec.iterations
        sp["converged"] = spec.converged
        return {"g": g, "spectrum": spec}

    def check_setup(self, state, inputs):
        """The graph must be the input's largest component, edge for edge,
        and kappa must be within tolerance of the reference."""
        g, spec = state["g"], state["spectrum"]
        adj = inputs["lcc_adj"]
        problems = oracles.graph_problems(g, adj.shape[0], adj.nnz // 2)
        if not problems and (
            not np.array_equal(g.old_ids, inputs["lcc_labels"])
            or (oracles.adjacency(g) != adj).nnz
        ):
            problems.append("graph differs from the input's largest component")
        err = oracles.relative_error(spec.kappa, inputs["kappa_ref"])
        if not (spec.converged and err <= self.tolerance):
            problems.append(f"kappa relative error {err:.3g} (converged={spec.converged})")
        return problems, {"kappa_rel_err": err}

    def prepare_checks(self, state, inputs) -> dict:
        return {"adj": inputs["lcc_adj"]}

    def query(self, state, pair, qid, tracer) -> dict:
        g, p = state["g"], self.p
        s, t = pair
        with tracer.span("routing.extract_routes") as sp:
            routes = R.extract_routes(g, s, t, p["k"], p["l"])
        sp["routes"] = len(routes)
        with tracer.span("routing.route_metrics"):
            metrics = R.route_metrics(g, routes, s, t, p["p_delete"], p["trials"], qid)
        return {"routes": routes, "metrics": metrics}

    def check(self, state, ctx, pair, out, reference: bool):
        s, t = pair
        routes, m = out["routes"], out["metrics"]
        problems = oracles.route_problems(ctx["adj"], routes, s, t, self.p["l"])
        if not routes.complete:
            problems.append("route set reported incomplete")
        if problems:
            return problems, {}
        hops = csgraph.shortest_path(ctx["adj"], unweighted=True, indices=s)[t]
        stretch = float(np.mean([r.length for r in routes])) / hops
        edge_sets = [set(r.edges) for r in routes]
        sims = [len(a & b) / len(a | b) for i, a in enumerate(edge_sets) for b in edge_sets[i + 1:]]
        diversity = 1.0 - (float(np.mean(sims)) if sims else 1.0)
        if abs(m.stretch - stretch) > 1e-12 * stretch or abs(m.diversity - diversity) > 1e-12:
            problems.append(f"route metrics ({m.stretch}, {m.diversity}) != ({stretch}, {diversity})")
        if not 0.0 <= m.robustness <= 1.0:
            problems.append(f"robustness {m.robustness} outside [0, 1]")
        return problems, {"stretch": m.stretch, "diversity": m.diversity}


WORKLOADS = {w.name: w for w in (ErGlobal, BaLocal, GridRoute)}
