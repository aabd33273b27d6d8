#!/usr/bin/env python3
"""Alternating A/B timing of two ``resistor`` source trees in one process.

    python scripts/ab_inprocess.py PARENT_SRC CHANGE_SRC --out BENCH.json \\
        --parent-commit abc123 --change-commit def456

``PARENT_SRC`` and ``CHANGE_SRC`` are directories holding a ``resistor``
package (a checkout's ``src``).  Each package is copied to a temporary
directory as ``resistor_parent`` and ``resistor_change`` (the package
imports itself only relatively, so a renamed copy works), and both are
imported into this process.  Every round times each row once on each
side; the side that goes first, and the order of the rows, alternate
from round to round, so a drift of the host's speed falls on both sides
and on every row alike.  Separate processes of the benchmark cannot
resolve a move of a few percent on the small dense workloads;
alternating in one process can.

The rows, each built once per side on that side's own graphs:

- ``lanczos_rd`` (k = 20) on ``generate_er(50_000, 250_000, 1)``, over
  its 20 seeded pairs;
- ``lanczos_rd`` (k = 20) and ``lanczos_push_rd`` (k = 20) on
  ``generate_ba(n, 5, 1)`` for n = 12.5k, 50k and 200k, over each
  graph's 20 seeded pairs: ``lanczos_push_rd`` at eps = 5e-3 (the
  ba-local setting) on all three, and at eps = 1e-3, 3e-4 and 1e-4 on
  BA 50k.  ``--rows "rd ba"`` selects these nine rows, the lz-vs-lzpush
  sweep of the eps and of n.  The rows ``--rows push`` and
  ``--rows lanczos_rd`` select include the slow ones: a sample takes
  about 5.3 s at eps = 1e-4 and 2.8 s for ``lanczos_rd`` at 200k;
- ``lanczos_potential`` (k = 200) on the 80 x 80 lattice with 10% of its
  edges cut and 8000 two-vertex fragments, read through
  ``load_edge_list`` (the grid-route graph of the benchmark), over 20
  seeded pairs;
- ``estimate_spectrum`` on the same lattice, on the ER graph and on the
  BA 50k graph (``--rows spectrum`` selects these three);
- ``extract_routes`` (k = 200, l = 3) on the same lattice, over its 20
  pairs;
- ``generate_er(50_000, 250_000, 1)`` and ``generate_ba(50_000, 5, 1)``,
  the set-up of the er-global and ba-local workloads;
- ``generate_ba(200_000, 5, 1)``, which tracks how the generator scales
  (``--rows "generate_ba 200k"`` selects it alone);
- ``load_edge_list`` of the lattice's text file, the parse of the
  grid-route set-up (``GRID_LOADS`` = 5 loads per sample), and of a list
  of 1M seeded random lines over 200k labels, which tracks how the
  parser scales (``--rows load_edge_list`` selects these two);
- ``load_cache`` of the BA 200k graph, written once by ``save_cache`` to
  a temporary ``.rdg`` file, and of a weighted copy of it (every weight
  and degree times 1.5), which takes the builder's weighted path
  (``--rows load_cache`` selects the two, and ``--rows load`` them and
  the two parse rows);
- ``graph._jagged_layout`` of the ER graph, the layout that the first
  dense product of er-global builds (``--rows jagged`` selects it).

``--rows SUBSTR ...`` keeps the rows whose name holds one of the
substrings, e.g. ``--rows generate load`` for the set-up rows alone,
without the minutes of the query rows.

A sample is the wall time of one row on one side in one round, after
one untimed warm-up of each.  A row of a single call of 10-40 ms reads
about 5% either way between two copies of one tree, so the lattice load
is called ``GRID_LOADS`` times per sample and its sample divided by that
count (the row's ``calls_per_sample``).  Each row reports the median
and quartiles of each side's samples in seconds per call, the ratio of
the medians (change / parent) and the rounds the change won.  Counters
are read off each side's warm-up call: a spectrum row reports its
``iterations``, and a ``lanczos_rd`` or ``lanczos_push_rd`` row the
``arcs`` its queries relaxed (their summed ``touched_edges``).  A
spectrum row also reports the ``pivot_rows`` its Sturm bisections
evaluated, a count that does not depend on the host: the warm-up call
hands each Sturm loop of that side's ``kernels`` (``_sturm_reaches``,
or ``_sturm_some_below`` and ``_sturm_all_below``, whichever the tree
has) its diagonal entries through a counter, which the timed calls skip.

Two imported copies of the same code need not read a ratio of 1 or an
even win count: a few percent either way, and 16 wins in 20 rounds,
have been seen.  An A/A run, the parent tree passed as both
``PARENT_SRC`` and ``CHANGE_SRC`` with the same ``--rows`` and
``--rounds``, measures that bias; report it beside the A/B run.  An A/A
run of one tree is also how to compare ``lanczos_rd`` with
``lanczos_push_rd`` within that tree:

    python scripts/ab_inprocess.py src src --rows "rd ba" --out BENCH.json
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
# run.py imports only the standard library at load, so no third resistor
from benchmark.run import cpu_model  # noqa: E402

ER_N, ER_M, ER_SEED, ER_K = 50_000, 250_000, 1, 20
BA_N, BA_ATTACH, BA_SEED = 50_000, 5, 1
PUSH_K, PUSH_EPS = 20, ("5e-3", "1e-3", "3e-4", "1e-4")
BA_SCALE_N = 200_000
# BA sizes of the lz-vs-lzpush rows; the eps sweep runs on BA_N alone
SWEEP_NS = (12_500, BA_N, BA_SCALE_N)
GRID_SIDE, GRID_DELETE, GRID_FRAGMENTS, GRID_SEED, GRID_K = 80, 0.1, 8000, 1, 200
ROUTES = 3
GRID_LOADS = 5
BIG_LINES, BIG_LABELS, BIG_SEED = 1_000_000, 200_000, 5
PAIRS, PAIR_SEED = 20, 3
SIDES = ("parent", "change")
GRID_LOAD_ROW = "load_edge_list grid"
# calls timed per sample where one call is too short to time alone
CALLS_PER_SAMPLE = {GRID_LOAD_ROW: GRID_LOADS}


def grid_edges(side: int, delete: float, fragments: int, rng) -> np.ndarray:
    """Lattice edges with a ``delete`` share removed, plus disjoint
    two-vertex fragments labelled after the lattice, in shuffled order;
    the same edges, for the same generator state, as the grid-route
    workload of ``benchmark/workloads.py``."""
    idx = np.arange(side * side).reshape(side, side)
    lattice = np.concatenate([
        np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1),
        np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1),
    ])
    lattice = lattice[rng.random(len(lattice)) >= delete]
    frag = side * side + np.arange(2 * fragments).reshape(fragments, 2)
    edges = np.concatenate([lattice, frag])
    return edges[rng.permutation(len(edges))]


def import_copy(src: Path, name: str, into: Path):
    """Import the ``resistor`` package under ``src`` as module ``name``."""
    shutil.copytree(src / "resistor", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def pairs(n: int) -> list:
    return np.random.default_rng(PAIR_SEED).choice(n, size=(PAIRS, 2), replace=False).tolist()


# the Sturm loops of either tree; each takes the diagonal entries first
STURM_LOOPS = ("_sturm_reaches", "_sturm_some_below", "_sturm_all_below")


class CountedRows:
    """A Sturm loop's diagonal entries, counting in ``rows[0]`` the rows
    the loop reads (the ones it stops before are not read)."""

    def __init__(self, alpha, rows: list):
        self.alpha, self.rows = alpha, rows

    def __len__(self) -> int:
        return len(self.alpha)

    def __iter__(self):
        for a in self.alpha:
            self.rows[0] += 1
            yield a


@contextlib.contextmanager
def counting_pivot_rows(kernels):
    """Count, in the yielded list's one entry, the pivot rows that the
    Sturm loops of the module ``kernels`` evaluate inside the block."""
    rows = [0]
    saved = {name: getattr(kernels, name) for name in STURM_LOOPS if hasattr(kernels, name)}

    def counted(sturm):
        return lambda alpha, *rest: sturm(CountedRows(alpha, rows), *rest)

    try:
        for name, sturm in saved.items():
            setattr(kernels, name, counted(sturm))
        yield rows
    finally:
        for name, sturm in saved.items():
            setattr(kernels, name, sturm)


def write_edges(path: Path, edges: np.ndarray) -> None:
    """Write ``edges`` as an unweighted text edge list, one edge a line."""
    path.write_text("".join(f"{a} {b}\n" for a, b in edges.tolist()))


def make_rows(pkg, grid_path: Path, big_path: Path, cache_path: Path,
              weighted_cache_path: Path) -> dict:
    """The timed calls of one side, as closures over its graphs."""
    er = pkg.generate_er(ER_N, ER_M, ER_SEED)
    bas = {n: pkg.generate_ba(n, BA_ATTACH, BA_SEED) for n in SWEEP_NS}
    ba = bas[BA_N]
    if not cache_path.exists():  # written once, by the first side built
        big = bas[BA_SCALE_N]
        pkg.save_cache(big, cache_path)
        pkg.save_cache(pkg.Graph(big.offsets, big.neighbors, 1.5 * big.weights,
                                 1.5 * big.weighted_degrees, big.old_ids),
                       weighted_cache_path)
    grid = pkg.load_edge_list(grid_path)
    grid_pairs = pairs(grid.node_count)

    def lz(g):
        query_pairs = pairs(g.node_count)

        def run():
            return {"arcs": sum(pkg.lanczos_rd(g, s, t, ER_K)[0].touched_edges
                                for s, t in query_pairs)}

        return run

    def push(g, eps: str):
        query_pairs = pairs(g.node_count)
        cfg = pkg.PushConfig(k=PUSH_K, epsilon=float(eps))

        def run():
            return {"arcs": sum(pkg.lanczos_push_rd(g, s, t, cfg)[0].touched_edges
                                for s, t in query_pairs)}

        return run

    def potential():
        for s, t in grid_pairs:
            pkg.lanczos_potential(grid, s, t, GRID_K)

    def spectrum(g):
        counted = False

        def run():
            # the first call, the warm-up, counts the pivot rows
            nonlocal counted
            if counted:
                return {"iterations": pkg.estimate_spectrum(g).iterations}
            counted = True
            with counting_pivot_rows(pkg.kernels) as rows:
                iterations = pkg.estimate_spectrum(g).iterations
            return {"iterations": iterations, "pivot_rows": rows[0]}

        return run

    def routes():
        for s, t in grid_pairs:
            pkg.extract_routes(grid, s, t, GRID_K, ROUTES)

    def gen_er():
        pkg.generate_er(ER_N, ER_M, ER_SEED)

    def gen_ba():
        pkg.generate_ba(BA_N, BA_ATTACH, BA_SEED)

    def gen_ba_scale():
        pkg.generate_ba(BA_SCALE_N, BA_ATTACH, BA_SEED)

    def load(path):
        def run():
            pkg.load_edge_list(path)

        return run

    def load_cached(path):
        def run():
            pkg.load_cache(path)

        return run

    def jagged():
        pkg.graph._jagged_layout(er)

    rows = {f"lanczos_rd er50k k{ER_K}": lz(er)}
    for n, g in bas.items():
        rows[f"lanczos_rd ba{n / 1000:g}k k{ER_K}"] = lz(g)
        for eps in PUSH_EPS if n == BA_N else PUSH_EPS[:1]:
            rows[f"lanczos_push_rd ba{n / 1000:g}k k{PUSH_K} eps{eps}"] = push(g, eps)
    return {**rows,
            "lanczos_potential grid k200": potential,
            "estimate_spectrum grid": spectrum(grid),
            "estimate_spectrum er50k": spectrum(er),
            "estimate_spectrum ba50k": spectrum(ba),
            f"extract_routes grid k{GRID_K} l{ROUTES}": routes,
            "generate_er 50k/250k": gen_er, f"generate_ba 50k a{BA_ATTACH}": gen_ba,
            f"generate_ba 200k a{BA_ATTACH}": gen_ba_scale,
            GRID_LOAD_ROW: load(grid_path),
            f"load_edge_list {BIG_LINES // 1000}k lines {BIG_LABELS // 1000}k labels":
                load(big_path),
            f"load_cache ba{BA_SCALE_N // 1000}k": load_cached(cache_path),
            f"load_cache ba{BA_SCALE_N // 1000}k weighted": load_cached(weighted_cache_path),
            "jagged layout er50k": jagged}


def quartiles(xs: list) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--parent-commit", default="unknown")
    parser.add_argument("--change-commit", default="unknown")
    parser.add_argument("--rows", nargs="+", metavar="SUBSTR",
                        help="time only the rows whose name holds one of these")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be >= 2")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        grid_path = tmp / "grid.txt"
        edges = grid_edges(GRID_SIDE, GRID_DELETE, GRID_FRAGMENTS, np.random.default_rng(GRID_SEED))
        write_edges(grid_path, edges)
        big_path = tmp / "big.txt"
        write_edges(big_path, np.random.default_rng(BIG_SEED).integers(
            0, BIG_LABELS, size=(BIG_LINES, 2)))
        cache_path, weighted_cache_path = tmp / "ba200k.rdg", tmp / "ba200k-weighted.rdg"
        rows = {
            side: make_rows(import_copy(src, f"resistor_{side}", tmp), grid_path, big_path,
                            cache_path, weighted_cache_path)
            for side, src in zip(SIDES, (args.parent_src, args.change_src))
        }
        names = [name for name in rows["parent"]
                 if args.rows is None or any(sub in name for sub in args.rows)]
        if not names:
            parser.error(f"no row name holds any of {args.rows}")
        counters = {}
        for side in SIDES:
            for name in names:
                # warm-up: layouts and free lists are built
                for key, value in (rows[side][name]() or {}).items():
                    counters.setdefault(name, {}).setdefault(key, {})[side] = value
        samples = {name: {side: [] for side in SIDES} for name in names}
        for r in range(args.rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            for name in names if r % 2 == 0 else names[::-1]:
                calls = CALLS_PER_SAMPLE.get(name, 1)
                for side in order:
                    start = time.perf_counter()
                    for _ in range(calls):
                        rows[side][name]()
                    samples[name][side].append((time.perf_counter() - start) / calls)
            print(f"round {r + 1}/{args.rounds}", file=sys.stderr, flush=True)

    results = []
    for name in names:
        parent, change = samples[name]["parent"], samples[name]["change"]
        row = {
            "row": name,
            "parent_s": quartiles(parent),
            "change_s": quartiles(change),
            **counters.get(name, {}),
            "calls_per_sample": CALLS_PER_SAMPLE.get(name, 1),
            "ratio": statistics.median(change) / statistics.median(parent),
            "change_won": sum(c < p for p, c in zip(parent, change)),
            "rounds": args.rounds,
        }
        print(json.dumps(row), flush=True)
        results.append(row)
    doc = {
        "setup": {
            "er": f"generate_er({ER_N}, {ER_M}, {ER_SEED}), k = {ER_K}",
            "ba": f"generate_ba(n, {BA_ATTACH}, {BA_SEED}), n in {', '.join(map(str, SWEEP_NS))}",
            "push": (f"k = {PUSH_K}, eps in {', '.join(PUSH_EPS)} on n = {BA_N}, "
                     f"eps = {PUSH_EPS[0]} on the other n"),
            "ba_scale": f"generate_ba({BA_SCALE_N}, {BA_ATTACH}, {BA_SEED})",
            "cache": f"load_cache of save_cache(generate_ba({BA_SCALE_N}, {BA_ATTACH}, {BA_SEED}))",
            "cache_weighted": "load_cache of the same graph with its weights and degrees x 1.5",
            "grid": (f"load_edge_list of grid_edges({GRID_SIDE}, {GRID_DELETE}, "
                     f"{GRID_FRAGMENTS}, default_rng({GRID_SEED})), k = {GRID_K}, "
                     f"l = {ROUTES} routes"),
            "big": (f"load_edge_list of {BIG_LINES} lines of default_rng({BIG_SEED})"
                    f".integers(0, {BIG_LABELS}, size=({BIG_LINES}, 2))"),
            "pairs": f"{PAIRS} from np.random.default_rng({PAIR_SEED}).choice",
            "host": platform.node(),
            "cpu_model": cpu_model(),
            "nproc": os.cpu_count(),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "parent_commit": args.parent_commit,
            "change_commit": args.change_commit,
            "rows": args.rows,
        },
        "rows": results,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
