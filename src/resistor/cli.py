"""Command line interface.

Subcommands: ``query`` (one estimate), ``bench`` (method/parameter sweep to
CSV), ``kappa`` (spectral summary), ``gen`` (random graph files), ``route``
(alternate routes as JSON), ``check-assumption`` (pruned-recurrence
diagnostics).

Exit codes: 0 success, 2 usage error, 3 numerical failure (singular system
or unconverged iteration), 4 input/output error.  Machine-readable output
goes to stdout or ``--out``; human-readable summaries go to stderr.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import click
import numpy as np

from .baselines import RDEstimate, exact_rd, power_method_rd, random_walk_rd
from .errors import (
    EmptyGraphError,
    GraphFormatError,
    NumericalError,
    UnsupportedInputError,
)
from .graph import Graph, generate_ba, generate_er, load_cache, load_edge_list, save_cache, save_edge_list
from .lanczos import lanczos_rd
from .push import PushConfig, _walk_norm_peak, _within_cap, check_assumption, lanczos_push_rd
from .routing import extract_routes, route_metrics
from .spectral import estimate_spectrum

EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

BENCH_COLUMNS = ("method", "param", "pair", "abs_err", "seconds", "touched_edges")


@dataclass
class BenchRecord:
    """One benchmark CSV row."""

    method: str
    param: str
    pair: str
    abs_err: float
    seconds: float
    touched_edges: int


def _fail(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (GraphFormatError, EmptyGraphError, OSError) as exc:
            _fail(EXIT_IO, f"input error: {exc}")
        except NumericalError as exc:
            _fail(EXIT_NUMERICAL, f"numerical failure: {exc}")
        except (UnsupportedInputError, IndexError, ValueError) as exc:
            _fail(EXIT_USAGE, f"usage error: {exc}")

    return wrapper


def _load_graph(path: str, weighted: bool) -> Graph:
    if path.endswith(".rdg"):
        return load_cache(path)
    return load_edge_list(path, weighted=weighted)


def _resolve_vertex(g: Graph, label: int) -> int:
    try:
        return g.label_index[label]
    except KeyError:
        raise ValueError(
            f"vertex label {label} does not appear in the loaded graph"
        ) from None


def _emit(text: str, out):
    if out is None:
        click.echo(text, nl=not text.endswith("\n"))
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _record_text(record: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, indent=2, sort_keys=True)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(record.keys())
    writer.writerow(record.values())
    return buf.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# CSV/JSON round-trip helpers (shared with tests and downstream tooling)
# ---------------------------------------------------------------------------


def bench_records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(BENCH_COLUMNS)
    for r in records:
        # repr(float) keeps full precision; coerce first so numpy scalars
        # cannot leak their type name into the file
        writer.writerow(
            [r.method, r.param, r.pair, repr(float(r.abs_err)),
             repr(float(r.seconds)), int(r.touched_edges)]
        )
    return buf.getvalue()


def parse_bench_csv(text: str):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != BENCH_COLUMNS:
        raise ValueError(f"unexpected bench CSV header: {header}")
    return [
        BenchRecord(
            method=row[0],
            param=row[1],
            pair=row[2],
            abs_err=float(row[3]),
            seconds=float(row[4]),
            touched_edges=int(row[5]),
        )
        for row in reader
        if row
    ]


# ---------------------------------------------------------------------------
# estimator dispatch
# ---------------------------------------------------------------------------


def _run_exact(g: Graph, s: int, t: int, params: dict):
    t0 = time.perf_counter()
    value = exact_rd(g, s, t)
    return RDEstimate(value, 0, 0, time.perf_counter() - t0, "exact"), {}


def _run_pm(g: Graph, s: int, t: int, params: dict):
    return power_method_rd(g, s, t, params["l"]), {}


def _run_rw(g: Graph, s: int, t: int, params: dict):
    return random_walk_rd(g, s, t, params["l"], params["nr"], params["seed"]), {}


def _run_lz(g: Graph, s: int, t: int, params: dict):
    est, run = lanczos_rd(g, s, t, params["k"])
    return est, {"k_effective": run.k_effective, "breakdown": run.breakdown}


def _run_lzpush(g: Graph, s: int, t: int, params: dict):
    cfg = PushConfig(k=params["k"], epsilon=params["eps"])
    est, _, stats = lanczos_push_rd(g, s, t, cfg)
    return est, {"peak_support": stats.peak_support}


class Method(NamedTuple):
    """An estimator of the CLI.  ``run(g, s, t, params)`` returns the
    estimate and the extra fields of its query record; ``sweeps`` names
    the ``--*-grid`` values that ``bench`` crosses for it, in order."""

    run: Callable
    sweeps: tuple = ()


METHODS = {
    "exact": Method(_run_exact),
    "pm": Method(_run_pm, ("l",)),
    "rw": Method(_run_rw, ("l", "nr")),
    "lz": Method(_run_lz, ("k",)),
    "lzpush": Method(_run_lzpush, ("k", "eps")),
}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
def cli():
    """Resistance-distance estimators and benchmarks on undirected graphs."""


_graph_arg = click.argument("graph_path", metavar="GRAPH", type=click.Path())
_weighted_opt = click.option(
    "--weighted", is_flag=True, help="Read the third edge-list column as weights."
)
_format_opt = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
    show_default=True, help="Machine-readable output format.",
)
_out_opt = click.option(
    "--out", type=click.Path(), default=None,
    help="Write machine-readable output to this file instead of stdout.",
)


@cli.command()
@_graph_arg
@click.argument("s", type=int)
@click.argument("t", type=int)
@click.option(
    "--method", type=click.Choice(list(METHODS)), default="exact", show_default=True
)
@click.option("--l", "l", type=int, default=200, show_default=True,
              help="Iterations for pm / walk length for rw.")
@click.option("--k", type=int, default=50, show_default=True,
              help="Iterations for lz / lzpush.")
@click.option("--eps", type=float, default=1e-4, show_default=True,
              help="Pruning threshold for lzpush.")
@click.option("--nr", type=int, default=1000, show_default=True,
              help="Walks per length for rw.")
@click.option("--seed", type=int, default=0, show_default=True)
@_weighted_opt
@_format_opt
@_out_opt
@_guarded
def query(graph_path, s, t, method, l, k, eps, nr, seed, weighted, fmt, out):
    """Estimate the resistance distance between vertices S and T.

    S and T are labels from the input file, not internal ids.
    """
    g = _load_graph(graph_path, weighted)
    si = _resolve_vertex(g, s)
    ti = _resolve_vertex(g, t)
    params = {"l": l, "k": k, "eps": eps, "nr": nr, "seed": seed}
    est, extra = METHODS[method].run(g, si, ti, params)
    record = {
        "s": s,
        "t": t,
        "method": method,
        "value": est.value,
        "iterations": est.iterations,
        "touched_edges": est.touched_edges,
        "seconds": est.wall_time,
        "healthy": est.healthy,
    }
    record.update(extra)
    _emit(_record_text(record, fmt), out)
    click.echo(
        f"r({s}, {t}) ~= {est.value:.10g}  [{method}, {est.iterations} "
        f"iterations, {est.wall_time:.3f}s]",
        err=True,
    )
    if not est.healthy:
        _fail(
            EXIT_NUMERICAL,
            "I - T is indefinite (a Ritz value at or above 1); the estimate "
            "cannot be trusted, try fewer iterations or a smaller --eps",
        )


@cli.command()
@_graph_arg
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--max-iter", type=int, default=200_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_weighted_opt
@_format_opt
@_out_opt
@_guarded
def kappa(graph_path, tol, max_iter, seed, weighted, fmt, out):
    """Estimate lambda_2(A), lambda_min(A), and kappa = 2 / (1 - lambda_2)."""
    g = _load_graph(graph_path, weighted)
    est = estimate_spectrum(g, tol=tol, max_iter=max_iter, seed=seed)
    record = {
        "lambda2_a": est.lambda2_a,
        "lambda_min_a": est.lambda_min_a,
        "mu2": est.mu2,
        "kappa": est.kappa,
        "iterations": est.iterations,
        "residual": est.residual,
        "converged": est.converged,
    }
    _emit(_record_text(record, fmt), out)
    click.echo(
        f"kappa ~= {est.kappa:.6g} (lambda_2 = {est.lambda2_a:.8g}, "
        f"lambda_min = {est.lambda_min_a:.8g}, {est.iterations} iterations)",
        err=True,
    )
    if not est.converged:
        _fail(
            EXIT_NUMERICAL,
            f"Lanczos did not converge within {max_iter} steps "
            f"(last residual {est.residual:.3e})",
        )


@cli.command()
@click.argument("family", type=click.Choice(["er", "ba"]))
@click.argument("n", type=int)
@click.argument("out_path", metavar="OUT", type=click.Path())
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--m", "m_target", type=int, default=None,
              help="Edge count for er [default: ceil(n ln n)].")
@click.option("--attach", type=int, default=None,
              help="Edges per new vertex for ba [default: max(1, round(ln n))].")
@_guarded
def gen(family, n, out_path, seed, m_target, attach):
    """Generate a random graph and write it to OUT.

    Writes an edge list, or the binary cache format when OUT ends in
    ``.rdg``.  Deterministic for a given seed.
    """
    if family == "er":
        if m_target is None:
            m_target = math.ceil(n * math.log(n))
        g = generate_er(n, m_target, seed)
    else:
        if attach is None:
            attach = max(1, round(math.log(n)))
        g = generate_ba(n, attach, seed)
    if out_path.endswith(".rdg"):
        save_cache(g, out_path)
    else:
        save_edge_list(g, out_path)
    click.echo(
        f"wrote {family} graph: n={g.node_count}, m={g.edge_count}, "
        f"seed={seed} -> {out_path}",
        err=True,
    )


@cli.command()
@_graph_arg
@click.argument("s", type=int)
@click.argument("t", type=int)
@click.option("--k", type=int, default=100, show_default=True,
              help="Lanczos iterations for the flow solve.")
@click.option("--routes", "n_routes", type=int, default=3, show_default=True)
@click.option("--p-delete", type=float, default=0.05, show_default=True)
@click.option("--trials", type=int, default=200, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_weighted_opt
@_out_opt
@_guarded
def route(graph_path, s, t, k, n_routes, p_delete, trials, seed, weighted, out):
    """Extract alternate routes between S and T from the electric flow."""
    g = _load_graph(graph_path, weighted)
    si = _resolve_vertex(g, s)
    ti = _resolve_vertex(g, t)
    extraction = extract_routes(g, si, ti, k, n_routes)
    if len(extraction) == 0:
        _fail(
            EXIT_NUMERICAL,
            "no route with positive flow was found; increase --k",
        )
    metrics = route_metrics(g, extraction, si, ti, p_delete, trials, seed)
    old = g.old_ids
    record = {
        "routes": [[int(old[v]) for v in r.vertices] for r in extraction],
        "metrics": {
            "stretch": metrics.stretch,
            "diversity": metrics.diversity,
            "robustness": metrics.robustness,
            "mean_jaccard": metrics.mean_jaccard,
        },
        "complete": extraction.complete,
        "lengths": [r.length for r in extraction],
        "bottlenecks": [r.bottleneck for r in extraction],
    }
    _emit(json.dumps(record, indent=2, sort_keys=True), out)
    click.echo(
        f"{len(extraction)} route(s), stretch {metrics.stretch:.3f}, "
        f"diversity {metrics.diversity:.3f}, robustness {metrics.robustness:.3f}",
        err=True,
    )


@cli.command("check-assumption")
@_graph_arg
@click.argument("s", type=int)
@click.argument("t", type=int)
@click.option("--k", type=int, default=20, show_default=True)
@click.option("--eps", type=float, default=1e-4, show_default=True)
@click.option("--tol", type=float, default=1e-6, show_default=True,
              help="Slack allowed on the containment bounds.")
@_weighted_opt
@_out_opt
@_guarded
def check_assumption_cmd(graph_path, s, t, k, eps, tol, weighted, out):
    """Run the pruned recurrence and test eigenvalue containment.

    Reports whether the eigenvalues of the perturbed tridiagonal matrix
    stay inside [lambda_min(A), lambda_2(A)], plus the walk-norm and
    1-norm locality statistics.
    """
    g = _load_graph(graph_path, weighted)
    si = _resolve_vertex(g, s)
    ti = _resolve_vertex(g, t)
    if si == ti:
        raise ValueError("the containment check needs two distinct endpoints")
    cfg = PushConfig(k=k, epsilon=eps, collect_stats=True)
    est, tmat, stats = lanczos_push_rd(g, si, ti, cfg)
    spec = estimate_spectrum(g)
    report = check_assumption(tmat, spec.lambda_min_a, spec.lambda2_a, tol=tol)
    # locality statistics, computed directly so a cap excursion is reported
    # rather than raised
    k_eff = max(est.iterations, 1)
    c1 = _walk_norm_peak(g, si, ti, k_eff)
    c2 = float(max(stats.c2_terms))
    c1_cap = math.sqrt(g.edge_count)
    c2_cap = 3.0 * math.sqrt(g.node_count)
    record = {
        "passed": report.passed,
        "lambda_min_t": report.lambda_min_t,
        "lambda_max_t": report.lambda_max_t,
        "lambda_min_a": report.lambda_min_a,
        "lambda_2_a": report.lambda_2_a,
        "lower_slack": report.lower_slack,
        "upper_slack": report.upper_slack,
        "tol": report.tol,
        "estimate": est.value,
        "k_effective": est.iterations,
        "c1": c1,
        "c1_cap": c1_cap,
        "c1_within_cap": _within_cap(c1, c1_cap),
        "c1_plain": _walk_norm_peak(g, si, ti, k_eff, weighted=False),
        "c2": c2,
        "c2_cap": c2_cap,
        "c2_within_cap": _within_cap(c2, c2_cap),
        "spectrum_converged": spec.converged,
    }
    _emit(json.dumps(record, indent=2, sort_keys=True), out)
    verdict = "PASS" if report.passed else "FAIL"
    click.echo(
        f"containment {verdict}: lambda(T) in [{report.lambda_min_t:.8g}, "
        f"{report.lambda_max_t:.8g}], bounds [{report.lambda_min_a:.8g}, "
        f"{report.lambda_2_a:.8g}] (tol {tol:g})",
        err=True,
    )


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def build_query_set(g: Graph, count: int, policy: str, seed: int, cross: bool) -> tuple:
    """Choose benchmark pairs, as a tuple of (s, t) internal vertex ids.

    ``uniform-random`` samples distinct pairs; ``top-degree`` takes the
    2 * count highest-degree vertices (ties by id) and zips the first
    half with the second.  With ``cross`` the two halves are combined as
    a full Cartesian product instead.
    """
    n = g.node_count
    if count < 1:
        raise ValueError("pair count must be >= 1")
    if policy == "uniform-random":
        rng = np.random.default_rng(seed)
        max_pairs = n * (n - 1) // 2
        target = min(count, max_pairs)
        seen = set()
        order = []
        while len(order) < target:
            s = int(rng.integers(0, n))
            t = int(rng.integers(0, n))
            if s == t:
                continue
            key = (min(s, t), max(s, t))
            if key in seen:
                continue
            seen.add(key)
            order.append((s, t))
        sources = [p[0] for p in order]
        targets = [p[1] for p in order]
    elif policy == "top-degree":
        ranked = np.lexsort((np.arange(n), -g.weighted_degrees))
        half = min(count, n // 2)
        sources = [int(v) for v in ranked[:half]]
        targets = [int(v) for v in ranked[half : 2 * half]]
    else:
        raise ValueError(f"unknown pair policy {policy!r}")
    if cross:
        pairs = tuple(
            (s, t) for s in sources for t in targets if s != t
        )
    else:
        pairs = tuple(zip(sources, targets))
    if not pairs:
        raise ValueError("query-set construction produced no pairs")
    return pairs


def _parse_grid(text: str, kind, name: str):
    try:
        values = [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"could not parse --{name} grid {text!r}") from None
    if not values:
        raise ValueError(f"--{name} grid is empty")
    return values


def _bench_tasks(g: Graph, methods, grids: dict, seed: int, pairs) -> list:
    """One (method, sort key, pair labels, param string, params, s, t) task
    per grid point and pair, in output order.  Each method crosses the
    grids its ``sweeps`` name; one with none runs once per pair."""
    old = g.old_ids
    tasks = []
    for method in methods:
        sweeps = METHODS[method].sweeps
        for values in itertools.product(*(grids[name] for name in sweeps)):
            param = ";".join(
                f"{name}={v:g}" if isinstance(v, float) else f"{name}={v}"
                for name, v in zip(sweeps, values)
            )
            params = dict(zip(sweeps, values), seed=seed)
            sort_key = tuple(map(float, values)) or (0.0,)
            tasks.extend(
                (method, sort_key, (int(old[s]), int(old[t])), param or "dense", params, s, t)
                for s, t in pairs
            )
    return sorted(tasks, key=lambda task: task[:3])


_WORKER_GRAPH = None


def _init_worker(graph: Graph):
    global _WORKER_GRAPH
    _WORKER_GRAPH = graph


def _bench_one(task):
    method, _, _, _, params, s, t = task
    est, _ = METHODS[method].run(_WORKER_GRAPH, s, t, params)
    return est.value, est.touched_edges, est.wall_time


@cli.command()
@_graph_arg
@click.option("--methods", default="pm,lz,lzpush", show_default=True,
              help=f"Comma-separated subset of {','.join(METHODS)}.")
@click.option("--pairs", "pair_count", type=int, default=50, show_default=True)
@click.option("--policy", type=click.Choice(["uniform-random", "top-degree"]),
              default="uniform-random", show_default=True)
@click.option("--cross", is_flag=True,
              help="Use the full source x target product instead of zipping.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--l-grid", default="100,200,400,800", show_default=True,
              help="pm/rw iteration grid.")
@click.option("--k-grid", default="10,20,40", show_default=True,
              help="lz/lzpush iteration grid.")
@click.option("--eps-grid", default="1e-3,1e-4", show_default=True,
              help="lzpush pruning grid.")
@click.option("--nr-grid", default="1000", show_default=True,
              help="rw walks-per-length grid.")
@click.option("--gt-cap", type=int, default=2000, show_default=True,
              help="Dense ground truth up to this many vertices.")
@click.option("--gt-l", type=int, default=20_000, show_default=True,
              help="Power-method iterations for ground truth above the cap.")
@click.option("--budget", type=float, default=None,
              help="Abort (exit 2) if the projected total run time in "
                   "seconds exceeds this.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Worker processes for the sweep.")
@_weighted_opt
@_out_opt
@_guarded
def bench(graph_path, methods, pair_count, policy, cross, seed, l_grid, k_grid,
          eps_grid, nr_grid, gt_cap, gt_l, budget, jobs, weighted, out):
    """Sweep estimators over a query set; write one CSV row per run.

    Rows are sorted by (method, parameters, pair).  Reported seconds
    cover only the estimator call, never graph loading or ground truth.
    """
    total_start = time.perf_counter()
    g = _load_graph(graph_path, weighted)
    method_list = [m.strip() for m in methods.split(",") if m.strip()]
    for m in method_list:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r} in --methods")
    if not method_list:
        raise ValueError("--methods selected nothing")
    grids = {
        "l": _parse_grid(l_grid, int, "l-grid"),
        "k": _parse_grid(k_grid, int, "k-grid"),
        "eps": _parse_grid(eps_grid, float, "eps-grid"),
        "nr": _parse_grid(nr_grid, int, "nr-grid"),
    }
    pairs = build_query_set(g, pair_count, policy, seed, cross)

    def check_budget(projected: float, what: str, advice: str):
        if budget is not None and projected > budget:
            _fail(
                EXIT_USAGE,
                f"projected {what} time {projected:.1f}s exceeds budget "
                f"{budget:.1f}s; {advice}",
            )

    # ground truth per pair (dense when small, long power method otherwise)
    truths = {}
    for idx, (s, t) in enumerate(pairs):
        if g.node_count <= gt_cap:
            truths[(s, t)] = exact_rd(g, s, t, cap=gt_cap)
        else:
            truths[(s, t)] = power_method_rd(g, s, t, gt_l).value
        if idx == 0:
            check_budget(
                (time.perf_counter() - total_start) * len(pairs),
                "ground-truth", "raise --budget or lower --pairs",
            )

    tasks = _bench_tasks(g, method_list, grids, seed, pairs)
    # the first task runs here and calibrates the projection for the rest
    _init_worker(g)
    first = _bench_one(tasks[0])
    check_budget(
        time.perf_counter() - total_start + first[2] * (len(tasks) - 1) / max(jobs, 1),
        "sweep", "shrink the grids or raise --budget",
    )
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(g,)
        ) as pool:
            results = [first, *pool.map(_bench_one, tasks[1:], chunksize=4)]
    else:
        results = [first, *map(_bench_one, tasks[1:])]

    rows = [
        BenchRecord(
            method=method,
            param=param,
            pair=f"{a}-{b}",
            abs_err=abs(value - truths[(s, t)]),
            seconds=seconds,
            touched_edges=touched,
        )
        for (method, _, (a, b), param, _, s, t), (value, touched, seconds) in zip(
            tasks, results
        )
    ]
    _emit(bench_records_to_csv(rows), out)

    by_method = {}
    for r in rows:
        by_method.setdefault(r.method, []).append(r.abs_err)
    total = time.perf_counter() - total_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    click.echo(
        f"bench: n={g.node_count} m={g.edge_count} pairs={len(pairs)} "
        f"rows={len(rows)} total={total:.2f}s peak_rss={rss_mb:.1f}MB",
        err=True,
    )
    for method in sorted(by_method):
        errs = by_method[method]
        click.echo(
            f"  {method}: mean_abs_err={float(np.mean(errs)):.3e} "
            f"max_abs_err={float(np.max(errs)):.3e} runs={len(errs)}",
            err=True,
        )


def main():
    cli(prog_name="resistor")


if __name__ == "__main__":
    main()
