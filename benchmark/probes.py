"""Layer probes and per-layer metrics of the traced run.

Each probe calls one public function of a layer on the workload's own
graph and pairs, inside a tracer span.  A workload's own calls already
cover the layers it uses; the probes add the calls the issue names
(matvec, tridiagonal solve, electric flow, ``FlowMap.from_potential``,
Lanczos on the same pairs as push) and one budgeted call into each layer
the workload bypasses, so every per-layer metric is measured on every
workload.
"""

from __future__ import annotations

import numpy as np
import resistor as R

from workloads import PUSH_EPS, PUSH_K, push_counts

PROBE_PAIRS = 6  # pairs for the Lanczos, potential and push-versus-Lanczos probes
ROUTE_PROBE_PAIRS = 2  # pairs for the routing probe where routing is bypassed
MATVEC_REPS = 30
TRIDIAG_REPS = 200
COPY_REPS = 5
SPECTRAL_PROBE_ITERS = 100  # power iterations per phase where spectral is bypassed
ROUTE_L = 3


def _median(xs) -> float:
    return float(np.median(xs))


def copy_bandwidth(tracer, array_bytes: int) -> float:
    """GB/s of an in-place copy from one half of a float64 array into the
    other; bytes read plus bytes written over the median time."""
    a = np.ones(array_bytes // 8)
    half = len(a) // 2
    for _ in range(COPY_REPS):
        with tracer.span("host.copy"):
            np.copyto(a[half:2 * half], a[:half])
    del a
    return 2 * half * 8 / _median(tracer.durations("host.copy")) / 1e9


def run_probes(wl, state, pairs, tracer, copy_bytes: int) -> dict:
    g = state["g"]
    k = wl.k
    out = {}
    with tracer.span("probe"):
        x = np.random.default_rng(0).standard_normal(g.node_count)
        for _ in range(MATVEC_REPS):
            with tracer.span("kernels.apply_normalized_adjacency"):
                R.apply_normalized_adjacency(g, x)

        phis = []
        for s, t in pairs[:PROBE_PAIRS]:
            with tracer.span("lanczos.lanczos_rd") as sp:
                est, run = R.lanczos_rd(g, s, t, k)
            sp["iterations"] = run.k_effective
            sp["arcs"] = est.touched_edges
            with tracer.span("lanczos.lanczos_potential"):
                phis.append(R.lanczos_potential(g, s, t, k))
        for _ in range(TRIDIAG_REPS):
            with tracer.span("kernels.tridiag_solve_e1"):
                R.tridiag_solve_e1(run.t)

        # push against Lanczos at the same k on the same pairs, alternating
        # which runs first
        cfg = R.PushConfig(k=PUSH_K, epsilon=PUSH_EPS)
        push_s = lz_s = 0.0
        for i, (s, t) in enumerate(pairs[:PROBE_PAIRS]):
            for push_first in ((True, False) if i % 2 == 0 else (False, True)):
                if push_first:
                    with tracer.span("push.lanczos_push_rd") as sp:
                        _, _, stats = R.lanczos_push_rd(g, s, t, cfg)
                    push_counts(sp, stats)
                    push_s += sp["end"] - sp["start"]
                else:
                    with tracer.span("push.lanczos_rd_same_k") as sp:
                        R.lanczos_rd(g, s, t, PUSH_K)
                    lz_s += sp["end"] - sp["start"]
        out["speedup_vs_lz"] = lz_s / push_s

        if not tracer.durations("spectral.estimate_spectrum"):
            with tracer.span("spectral.estimate_spectrum") as sp:
                spec = R.estimate_spectrum(g, max_iter=SPECTRAL_PROBE_ITERS)
            sp["iterations"] = spec.iterations
            sp["converged"] = spec.converged

        # extraction and its electric flow on the same pairs, so that their
        # difference is the widest-path search; where the workload routes
        # (grid-route) the probe takes as many pairs as the other probes
        route_pairs = PROBE_PAIRS if tracer.durations("routing.extract_routes") else ROUTE_PROBE_PAIRS
        search = []
        for i, (s, t) in enumerate(pairs[:route_pairs]):
            with tracer.span("routing.extract_routes") as ex:
                routes = R.extract_routes(g, s, t, k, ROUTE_L)
            ex["routes"] = len(routes)
            with tracer.span("routing.electric_flow") as fl:
                R.electric_flow(g, s, t, k)
            search.append((ex["end"] - ex["start"]) - (fl["end"] - fl["start"]))
            with tracer.span("routing.route_metrics"):
                R.route_metrics(g, routes, s, t, 0.05, 200, i)
        out["search_s"] = float(np.median(search))
        for (s, t), phi in zip(pairs[:PROBE_PAIRS], phis):
            with tracer.span("routing.FlowMap.from_potential"):
                R.FlowMap.from_potential(g, phi)

        out["copy_gbps"] = copy_bandwidth(tracer, copy_bytes)
    return out


# Per-layer metrics in report order, with their units.
LAYER_UNITS = {
    "graph.build_s": "s",
    "graph.input_edges": "count",
    "graph.input_components": "count",
    "graph.lcc_frac": "ratio",
    "graph.edges_per_s": "1/s",
    "kernels.matvec_s": "s",
    "kernels.matvec_ns_per_arc": "ns",
    "kernels.matvec_bytes_computed": "B",
    "kernels.matvec_gbps_computed": "GB/s",
    "kernels.copy_gbps": "GB/s",
    "kernels.tridiag_solve_s": "s",
    "lanczos.iterations": "count",
    "lanczos.arcs": "count",
    "lanczos.rd_s": "s",
    "lanczos.self_s": "s",
    "lanczos.potential_s": "s",
    "push.rd_s": "s",
    "push.arcs_relaxed": "count",
    "push.extra_ops": "count",
    "push.peak_support": "count",
    "push.significant_frac": "ratio",
    "push.ns_per_arc": "ns",
    "push.arc_ratio_vs_lz": "ratio",
    "push.speedup_vs_lz": "ratio",
    "spectral.estimate_s": "s",
    "spectral.iterations": "count",
    "spectral.s_per_iter": "s",
    "spectral.converged": "ratio",
    "routing.extract_s": "s",
    "routing.flow_s": "s",
    "routing.flowmap_s": "s",
    "routing.search_s": "s",
    "routing.metrics_s": "s",
    "routing.routes_per_query": "count",
    "trace.overhead_frac": "ratio",
}


def matvec_bytes(n: int, arcs: int) -> int:
    """Bytes one dense matvec must move, as computed (not measured): per
    arc an 8-byte neighbor id, an 8-byte weight and an 8-byte gathered
    value; per vertex an 8-byte offset, input, output and 1/sqrt(d)."""
    return 24 * arcs + 32 * n


def layer_metrics(g, counts: dict, tracer, probe: dict, overhead_frac: float) -> dict:
    d, v = tracer.durations, tracer.values
    med = _median
    arcs = 2 * g.edge_count
    build_s = med([r["end"] - r["start"] for r in tracer.spans
                   if r["name"] in ("graph.generate_er", "graph.generate_ba", "graph.load_edge_list")])
    matvec_s = med(d("kernels.apply_normalized_adjacency"))
    mv_bytes = matvec_bytes(g.node_count, arcs)
    tridiag_s = med(d("kernels.tridiag_solve_e1"))
    lz_s = med(d("lanczos.lanczos_rd"))
    lz_iters = med(v("lanczos.lanczos_rd", "iterations"))
    push_t, push_arcs = d("push.lanczos_push_rd"), v("push.lanczos_push_rd", "arcs")
    spec_s = med(d("spectral.estimate_spectrum"))
    spec_iters = med(v("spectral.estimate_spectrum", "iterations"))
    values = {
        "graph.build_s": build_s,
        "graph.input_edges": counts["edges"],
        "graph.input_components": counts["components"],
        "graph.lcc_frac": g.node_count / counts["vertices"],
        "graph.edges_per_s": counts["edges"] / build_s,
        "kernels.matvec_s": matvec_s,
        "kernels.matvec_ns_per_arc": matvec_s / arcs * 1e9,
        "kernels.matvec_bytes_computed": mv_bytes,
        "kernels.matvec_gbps_computed": mv_bytes / matvec_s / 1e9,
        "kernels.copy_gbps": probe["copy_gbps"],
        "kernels.tridiag_solve_s": tridiag_s,
        "lanczos.iterations": lz_iters,
        "lanczos.arcs": med(v("lanczos.lanczos_rd", "arcs")),
        "lanczos.rd_s": lz_s,
        "lanczos.self_s": lz_s - lz_iters * matvec_s - tridiag_s,
        "lanczos.potential_s": med(d("lanczos.lanczos_potential")),
        "push.rd_s": med(push_t),
        "push.arcs_relaxed": med(push_arcs),
        "push.extra_ops": med(v("push.lanczos_push_rd", "extra_ops")),
        "push.peak_support": med(v("push.lanczos_push_rd", "peak_support")),
        "push.significant_frac": sum(v("push.lanczos_push_rd", "subset_total"))
        / sum(v("push.lanczos_push_rd", "support_total")),
        "push.ns_per_arc": sum(push_t) / sum(push_arcs) * 1e9,
        "push.arc_ratio_vs_lz": med(push_arcs) / (PUSH_K * arcs),
        "push.speedup_vs_lz": probe["speedup_vs_lz"],
        "spectral.estimate_s": spec_s,
        "spectral.iterations": spec_iters,
        "spectral.s_per_iter": spec_s / spec_iters,
        "spectral.converged": float(np.mean(v("spectral.estimate_spectrum", "converged"))),
        "routing.extract_s": med(d("routing.extract_routes")),
        "routing.flow_s": med(d("routing.electric_flow")),
        "routing.flowmap_s": med(d("routing.FlowMap.from_potential")),
        "routing.search_s": probe["search_s"],
        "routing.metrics_s": med(d("routing.route_metrics")),
        "routing.routes_per_query": float(np.mean(v("routing.extract_routes", "routes"))),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: (float(values[name]), unit) for name, unit in LAYER_UNITS.items()}
