"""Command line interface.

Subcommands: ``query`` (one estimate), ``bench`` (method/parameter sweep to
CSV), ``kappa`` (spectral summary), ``gen`` (random graph files), ``route``
(alternate routes as JSON), ``check-assumption`` (pruned-recurrence
diagnostics).

Exit codes: 0 success, 2 usage error, 3 numerical failure (singular system,
unconverged iteration, or a ``bench`` truth that is unhealthy, unsettled or
beyond float64's reach), 4 input/output error.  Machine-readable output
goes to stdout or ``--out``; human-readable summaries go to stderr.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
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
from .graph import (_MAX_LABEL, Graph, generate_ba, generate_er, load_cache,
                    load_edge_list, save_cache, save_edge_list)
from .kernels import TridiagonalMatrix, _dot, solve_checked
from .lanczos import _estimate, definitional_start, lanczos_rd
from .push import PushConfig, check_assumption, lanczos_push_rd, locality_statistics
from .routing import extract_routes, route_metrics
from .spectral import estimate_spectrum

EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

BENCH_COLUMNS = ("method", "param", "pair", "abs_err", "seconds", "touched_edges")
GT_REL_TOL = 1e-12
GT_MAX_K = 65_536
GT_MIN_QUOTIENT = 2e-9


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
    """The id of an input label, by binary search of ``old_ids``."""
    if 0 <= label <= _MAX_LABEL:
        i = int(np.searchsorted(g.old_ids, label))
        if i < g.node_count and g.old_ids[i] == label:
            return i
    raise ValueError(f"vertex label {label} does not appear in the loaded graph")


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
            "I - T is indefinite (a Ritz value at or above 1) or pruning "
            "emptied the iterate; the estimate cannot be trusted, try fewer "
            "iterations or a smaller --eps",
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
@click.argument("n", type=click.IntRange(min=2))
@click.argument("out_path", metavar="OUT", type=click.Path())
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
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
    record = {
        **dataclasses.asdict(report),
        "estimate": est.value,
        "k_effective": est.iterations,
        # reported, not raised, when a statistic exceeds its cap
        **locality_statistics(g, si, ti, stats),
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
        rng, target, drawn = np.random.default_rng(seed), min(count, n * (n - 1) // 2), {}
        while len(drawn) < target:
            s, t = int(rng.integers(0, n)), int(rng.integers(0, n))
            if s != t:
                # the first draw of an unordered pair keeps its place and order
                drawn.setdefault((min(s, t), max(s, t)), (s, t))
        sources = [s for s, _ in drawn.values()]
        targets = [t for _, t in drawn.values()]
    elif policy == "top-degree":
        ranked = np.lexsort((np.arange(n), -g.weighted_degrees))
        half = min(count, n // 2)
        sources = [int(v) for v in ranked[:half]]
        targets = [int(v) for v in ranked[half : 2 * half]]
    else:
        raise ValueError(f"unknown pair policy {policy!r}")
    pairs = (tuple((s, t) for s in sources for t in targets if s != t) if cross
             else tuple(zip(sources, targets)))
    if not pairs:
        raise ValueError("query-set construction produced no pairs")
    return pairs


def _lanczos_truth(g: Graph, s: int, t: int) -> float:
    """``bench``'s truth: one ``lz`` run whose hook reads the estimate of
    T's leading block at k = 32, 64, ... (``lanczos_rd``'s at that k, as T_k
    is a prefix of every longer T) and stops at two successive estimates
    within ``GT_REL_TOL``, which Lanczos reaches without reorthogonalization
    (Greenbaum, LAA 1989), or at a breakdown (exact: ``lz`` prunes nothing).
    Raises NumericalError on an unhealthy checkpoint, on no stop by
    k = ``GT_MAX_K``, or when q = y_1 / y^T y, y = (I - T)^{-1} e_1 at the stop,
    is below ``GT_MIN_QUOTIENT``: q is a Rayleigh quotient of I - T, so above
    its least eigenvalue, and the value loses about eps / q of its digits."""
    v1, d = definitional_start(g, s, t), g.weighted_degrees
    scale_sq, first = 1.0 / d[s] + 1.0 / d[t], _dot(v1.val, v1.val)
    earlier = [math.nan]  # the estimates of the checkpoints that did not stop the run
    stop = []  # the y of the checkpoint that stopped the run: run.t is its T

    def settled(value: float) -> bool:
        return abs(value - earlier[-1]) <= GT_REL_TOL * value

    def visit(i: int, supp, v, alphas, betas) -> bool:
        k = len(alphas)
        if k < 32 or k & (k - 1):
            return False
        # _estimate's value, as a dense run's first row is (v_1^T v_1, 0, ..., 0)
        y, healthy = solve_checked(TridiagonalMatrix(alphas, betas[:-1]))
        value = float(scale_sq * (first * y[0]))
        if not healthy or settled(value):
            stop.append(y)
            return True
        earlier.append(value)
        return False

    est, run = _estimate(g, s, t, GT_MAX_K, 0.0, "lz", v1=v1, visit=visit)
    # a breakdown or k = GT_MAX_K ends the run with a T no checkpoint solved
    y = stop[0] if stop else solve_checked(run.t)[0]
    k, value, quotient = run.k_effective, est.value, float(y[0] / _dot(y, y))
    if not est.healthy:
        state = f"is unhealthy at k = {k}"
    elif not (run.breakdown or settled(value)):
        state = f"did not settle by k = {k}"
    elif quotient < GT_MIN_QUOTIENT:
        state = f"is too ill-conditioned for float64 at k = {k}: q = {quotient:.3e}"
    else:
        return value
    raise NumericalError(f"the ground truth of pair {g.old_ids[s]}-{g.old_ids[t]} {state}; "
                         f"last estimates {earlier[-1]!r}, {value!r}")


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
@click.option("--budget", type=float, default=None,
              help="Abort (exit 2) if the projected total run time in "
                   "seconds exceeds this.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker processes for the sweep.")
@_weighted_opt
@_out_opt
@_guarded
def bench(graph_path, methods, pair_count, policy, cross, seed, l_grid, k_grid,
          eps_grid, nr_grid, budget, jobs, weighted, out):
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
    grids = {name: _parse_grid(text, kind, f"{name}-grid") for name, text, kind in (
        ("l", l_grid, int), ("k", k_grid, int), ("eps", eps_grid, float), ("nr", nr_grid, int))}
    pairs = build_query_set(g, pair_count, policy, seed, cross)

    def check_budget(projected: float, what: str, advice: str):
        if budget is not None and projected > budget:
            _fail(
                EXIT_USAGE,
                f"projected {what} time {projected:.1f}s exceeds budget "
                f"{budget:.1f}s; {advice}",
            )

    truths = {}
    for idx, (s, t) in enumerate(pairs):
        solve_start = time.perf_counter()
        truths[(s, t)] = _lanczos_truth(g, s, t)
        if idx == 0:
            # the graph load is paid once; the first solve stands for the rest
            now = time.perf_counter()
            check_budget(
                now - total_start + (now - solve_start) * (len(pairs) - 1),
                "ground-truth", "raise --budget or lower --pairs",
            )

    tasks = _bench_tasks(g, method_list, grids, seed, pairs)
    # the first task runs here and calibrates the projection for the rest
    _init_worker(g)
    first = _bench_one(tasks[0])
    check_budget(
        time.perf_counter() - total_start + first[2] * (len(tasks) - 1) / jobs,
        "sweep", "shrink the grids or raise --budget",
    )
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(g,)
        ) as pool:
            results = [first, *pool.map(_bench_one, tasks[1:], chunksize=4)]
    else:
        results = [first, *map(_bench_one, tasks[1:])]

    # repr(float) keeps full precision; coerce first so numpy scalars
    # cannot leak their type name into the file
    rows = [
        (method, param, f"{a}-{b}", repr(float(abs(value - truths[(s, t)]))),
         repr(float(seconds)), int(touched))
        for (method, _, (a, b), param, _, s, t), (value, touched, seconds) in zip(
            tasks, results
        )
    ]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(BENCH_COLUMNS)
    writer.writerows(rows)
    _emit(buf.getvalue(), out)

    by_method = {}
    for method, _, _, abs_err, _, _ in rows:
        by_method.setdefault(method, []).append(float(abs_err))
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
