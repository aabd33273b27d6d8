#!/usr/bin/env python3
"""Time and check the ground truth of ``resistor bench``, or the truth it
used before, on one source tree.

    python scripts/truth_rows.py SRC --truth lanczos --workload grid

``SRC`` is a directory holding a ``resistor`` package (a checkout's
``src``).  ``--truth`` names the truth to time:

- ``power-method``: ``power_method_rd`` at 20 000 steps, the truth of
  ``bench`` while it had a ``--gt-l`` option (its default);
- ``dense``: ``exact_rd``, the truth of ``bench`` up to ``--gt-cap``
  vertices while it had that option;
- ``lanczos``: ``resistor.cli._lanczos_truth``, Lanczos run to
  stagnation (in a tree with ``--gt-cap``, its truth above the cap).

``--workload`` picks the graph and its pairs:

- ``grid``: the grid-route lattice of the benchmark (80 x 80, 10% of
  the edges cut, 8000 two-vertex fragments, ``default_rng(101)``), read
  back through ``load_edge_list``, with 4 pairs;
- ``er``: ``generate_er(50_000, 250_000, 1)`` with 2 pairs;
- ``er2000``, ``ba2000``: ``generate_er(2000, 8000, 1)`` and
  ``generate_ba(2000, 4, 1)``, 10 pairs each;
- ``path2000``: the unit path on labels 0..1999, 10 pairs;
- ``lattice40``: the unit 40 x 40 lattice, 10 pairs;
- ``bridged``: two copies of the largest component of
  ``generate_er(1100, 4400, 1)``, the second relabelled by its n = 1099,
  joined by one edge of weight 1e-9 between the copies of vertex 0
  (a weighted edge list), 10 pairs.

The pairs are ``build_query_set(g, count, "uniform-random", 0, False)``,
the ones ``bench --pairs count --seed 0`` takes.  Per pair the script
reports the seconds of one truth call (or the message of the
``NumericalError`` it raised) and its relative error against a
reference: the closed form where one exists (|a - b| on the path; on the
bridged graph the series r_A(a, 0) + 1e9 + r_A(0, b) across the bridge
and r_A(a, b) on one side, with r_A from ``cg_resistance`` on one copy),
otherwise ``benchmark/oracles.py``'s ``cg_resistance`` (SciPy CSR, plain
CG, no code of the package).  It also reports the exit code of the
tree's own ``bench --methods lz --k-grid 800`` on the same graph, run as
a subprocess, and the ``abs_err`` it writes for each pair when it exits
0.  The row goes to stdout as JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

WORKLOADS = {"grid": 4, "er": 2, "er2000": 10, "ba2000": 10, "path2000": 10,
             "lattice40": 10, "bridged": 10}
PM_STEPS = 20_000
LZ_K = 800
BRIDGE = 1e-9


def _lattice(side: int) -> np.ndarray:
    idx = np.arange(side * side).reshape(side, side)
    return np.concatenate([
        np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1),
        np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1),
    ])


def _bridged_text(half) -> str:
    """The weighted edge list of the ``bridged`` workload over ``half``."""
    n = half.node_count
    src, dst = half.arc_sources, half.neighbors
    edges = np.stack([src[src < dst], dst[src < dst]], axis=1)
    lines = [f"{a} {b} 1.0\n" for off in (0, n) for a, b in (edges + off).tolist()]
    return "".join(lines) + f"0 {n} {BRIDGE!r}\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("--truth", choices=("power-method", "dense", "lanczos"), required=True)
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    args = parser.parse_args()
    src = args.src.resolve()
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parents[1] / "benchmark")]
    import resistor as R
    from resistor.cli import build_query_set
    from oracles import cg_resistance, laplacian
    from workloads import grid_edges

    workload, count = args.workload, WORKLOADS[args.workload]
    weighted = workload == "bridged"
    edges = {
        "grid": lambda: grid_edges(80, 0.1, 8000, np.random.default_rng(101)),
        "path2000": lambda: np.stack([np.arange(1999), np.arange(1, 2000)], axis=1),
        "lattice40": lambda: _lattice(40),
    }
    generated = {
        "er": lambda: R.generate_er(50_000, 250_000, 1),
        "er2000": lambda: R.generate_er(2000, 8000, 1),
        "ba2000": lambda: R.generate_ba(2000, 4, 1),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{workload}.txt"
        if workload in generated:
            g = generated[workload]()
            R.save_edge_list(g, str(path))
        else:
            if weighted:
                half = R.generate_er(1100, 4400, 1)
                path.write_text(_bridged_text(half))
            else:
                path.write_text("".join(f"{a} {b}\n" for a, b in edges[workload]().tolist()))
            g = R.load_edge_list(str(path), weighted=weighted)

        if args.truth == "power-method":
            def truth(g, s, t):
                return R.power_method_rd(g, s, t, PM_STEPS).value
        elif args.truth == "dense":
            truth = R.exact_rd
        else:
            from resistor.cli import _lanczos_truth as truth
        if weighted:
            lap_half, n_half = laplacian(half), half.node_count

            def reference(a, b):
                a, b, across = a % n_half, b % n_half, (a < n_half) != (b < n_half)
                if not across:
                    return cg_resistance(lap_half, a, b)
                return cg_resistance(lap_half, a, 0) + 1.0 / BRIDGE + cg_resistance(lap_half, 0, b)
        elif workload == "path2000":
            def reference(a, b):
                return float(abs(a - b))
        else:
            lap = laplacian(g)

            def reference(a, b):
                s, t = (int(np.searchsorted(g.old_ids, x)) for x in (a, b))
                return cg_resistance(lap, s, t)

        pairs = []
        for s, t in build_query_set(g, count, "uniform-random", 0, False):
            a, b = int(g.old_ids[s]), int(g.old_ids[t])
            row = {"pair": f"{a}-{b}"}
            start = time.perf_counter()
            try:
                row["truth"] = truth(g, s, t)
            except R.NumericalError as exc:
                row["error"] = str(exc)
            row["seconds"] = time.perf_counter() - start
            ref = reference(a, b)
            row["rel_err"] = abs(row["truth"] - ref) / ref if "truth" in row else None
            pairs.append(row)
        bench = subprocess.run(
            [sys.executable, "-m", "resistor.cli", "bench", str(path), "--methods", "lz",
             "--k-grid", str(LZ_K), "--pairs", str(count), "--seed", "0",
             *(["--weighted"] if weighted else [])],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        )
    abs_err = {r["pair"]: float(r["abs_err"]) for r in csv.DictReader(io.StringIO(bench.stdout))}
    for p in pairs:
        p["bench_lz_k800_abs_err"] = abs_err.get(p["pair"])
    closed_form = weighted or workload == "path2000"
    print(json.dumps({
        "workload": workload, "truth": args.truth, "n": g.node_count, "m": g.edge_count,
        "reference": "closed form" if closed_form else "cg_resistance", "pairs": pairs,
        "bench_exit": bench.returncode, "bench_stderr": bench.stderr.strip().splitlines(),
    }, indent=2))


if __name__ == "__main__":
    main()
