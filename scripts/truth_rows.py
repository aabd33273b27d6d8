#!/usr/bin/env python3
"""Time and check the ground truth that ``resistor bench`` uses above
``--gt-cap``, on one source tree.

    python scripts/truth_rows.py SRC --truth lanczos --workload grid

``SRC`` is a directory holding a ``resistor`` package (a checkout's
``src``).  ``--truth`` names the truth to time:

- ``power-method``: ``power_method_rd`` at 20 000 steps, the truth of
  ``bench`` while it had a ``--gt-l`` option (its default);
- ``lanczos``: ``resistor.cli._lanczos_truth``, ``lanczos_rd`` run to
  stagnation.

``--workload`` picks the graph and its pairs:

- ``grid``: the grid-route lattice of the benchmark (80 x 80, 10% of
  the edges cut, 8000 two-vertex fragments, ``default_rng(101)``), read
  back through ``load_edge_list``, with 4 pairs;
- ``er``: ``generate_er(50_000, 250_000, 1)`` with 2 pairs.

The pairs are ``build_query_set(g, count, "uniform-random", 0, False)``,
the ones ``bench --pairs count --seed 0`` takes.  Per pair the script
reports the seconds of one truth call, its relative error against
``benchmark/oracles.py``'s ``cg_resistance`` (SciPy CSR, plain CG, no
code of the package), and the ``abs_err`` that the tree's own ``bench
--methods lz --k-grid 800`` writes for that pair, run as a subprocess on
the same graph.  The row goes to stdout as JSON.
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

WORKLOADS = {"grid": 4, "er": 2}
PM_STEPS = 20_000
LZ_K = 800


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("--truth", choices=("power-method", "lanczos"), required=True)
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    args = parser.parse_args()
    src = args.src.resolve()
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parents[1] / "benchmark")]
    import resistor as R
    from resistor.cli import build_query_set
    from oracles import cg_resistance, laplacian
    from workloads import grid_edges

    count = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{args.workload}.txt"
        if args.workload == "grid":
            edges = grid_edges(80, 0.1, 8000, np.random.default_rng(101))
            path.write_text("".join(f"{a} {b}\n" for a, b in edges.tolist()))
            g = R.load_edge_list(str(path))
        else:
            g = R.generate_er(50_000, 250_000, 1)
            R.save_edge_list(g, str(path))
        if args.truth == "power-method":
            def truth(g, s, t):
                return R.power_method_rd(g, s, t, PM_STEPS).value
        else:
            from resistor.cli import _lanczos_truth as truth
        lap = laplacian(g)
        pairs = []
        for s, t in build_query_set(g, count, "uniform-random", 0, False):
            start = time.perf_counter()
            value = truth(g, s, t)
            seconds = time.perf_counter() - start
            reference = cg_resistance(lap, s, t)
            pairs.append({
                "pair": f"{g.old_ids[s]}-{g.old_ids[t]}", "truth": value,
                "seconds": seconds, "rel_err_vs_cg": abs(value - reference) / reference,
            })
        bench = subprocess.run(
            [sys.executable, "-m", "resistor.cli", "bench", str(path), "--methods", "lz",
             "--k-grid", str(LZ_K), "--pairs", str(count), "--seed", "0"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            check=True,
        )
    abs_err = {r["pair"]: float(r["abs_err"]) for r in csv.DictReader(io.StringIO(bench.stdout))}
    for p in pairs:
        p["bench_lz_k800_abs_err"] = abs_err[p["pair"]]
    print(json.dumps({
        "workload": args.workload, "truth": args.truth, "n": g.node_count,
        "m": g.edge_count, "pairs": pairs,
        "bench_stderr": bench.stderr.strip().splitlines(),
    }, indent=2))


if __name__ == "__main__":
    main()
