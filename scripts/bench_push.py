#!/usr/bin/env python3
"""Per-query times of ``lzpush`` and ``lz`` on Barabasi-Albert graphs.

    PYTHONPATH=src python scripts/bench_push.py --label change --commit abc123 \\
        --out BENCH.json

Two sweeps on BA graphs (attach 5, k = 20, ten seeded random pairs):
``n`` in {12.5k, 50k, 200k} at eps = 5e-3, and eps in {5e-3, 1e-3,
3e-4, 1e-4} at n = 50k.  Each configuration warms up on two queries;
then every pair is timed ``--repeats`` times (default 3) with
``lanczos_push_rd`` and with ``lanczos_rd`` on each configuration in
turn, the method that goes first alternating from one repeat and pair to
the next.  A pair's time is the median of its repeats.  A row reports
the median and quartiles over the pairs of the per-query milliseconds of
both (``*_ms``, ``*_ms_q1``, ``*_ms_q3``), the median relaxed arcs of
``lzpush`` and its median nanoseconds per relaxed arc.  A single timed
call per pair moved the medians of ``lz`` by a third between runs of the
same code.  ``--rounds`` repeats the whole sweep in the same process.

The rows are stored under ``runs[label]`` of ``--out`` (created or
merged), with the host, numpy version, commit and seeds, so runs of two
checkouts alternated by hand land in one file.  Whichever ``resistor``
is first on the import path is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

import resistor as R

ATTACH, K, PAIRS = 5, 20, 10
GRAPH_SEED, PAIR_SEED = 7, 3
SIZE_SWEEP = [(12_500, 5e-3), (50_000, 5e-3), (200_000, 5e-3)]
EPS_SWEEP = [(50_000, 1e-3), (50_000, 3e-4), (50_000, 1e-4)]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def quartiles(xs: list) -> tuple:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def sweep(repeats: int) -> list:
    """One row per configuration.  The pairs are the outer loop, so each
    pair is timed on every configuration in turn and a drift of the
    host's speed falls on all of them alike."""
    configs = SIZE_SWEEP + EPS_SWEEP
    graphs = {n: R.generate_ba(n, ATTACH, GRAPH_SEED) for n, _ in configs}
    pairs = {
        n: np.random.default_rng(PAIR_SEED).choice(n, size=(PAIRS, 2), replace=False).tolist()
        for n in graphs
    }
    for n, eps in configs:
        for s, t in pairs[n][:2]:
            R.lanczos_push_rd(graphs[n], s, t, R.PushConfig(k=K, epsilon=eps))
            R.lanczos_rd(graphs[n], s, t, K)
    samples = {c: ([], [], []) for c in configs}
    for p in range(PAIRS):
        for n, eps in configs:
            g, (s, t) = graphs[n], pairs[n][p]
            cfg = R.PushConfig(k=K, epsilon=eps)
            push_s, lz_s, arcs = samples[(n, eps)]
            push_pair, lz_pair = [], []
            for r in range(repeats):
                push_first = (p + r) % 2 == 0
                if not push_first:
                    lz_pair.append(timed(R.lanczos_rd, g, s, t, K)[0])
                sec, (est, _, _) = timed(R.lanczos_push_rd, g, s, t, cfg)
                push_pair.append(sec)
                if push_first:
                    lz_pair.append(timed(R.lanczos_rd, g, s, t, K)[0])
            push_s.append(statistics.median(push_pair))
            lz_s.append(statistics.median(lz_pair))
            arcs.append(est.touched_edges)
    rows = []
    for (n, eps), (push_s, lz_s, arcs) in samples.items():
        push_q1, push, push_q3 = quartiles(push_s)
        lz_q1, lz, lz_q3 = quartiles(lz_s)
        row = {
            "n": n,
            "eps": eps,
            "lzpush_ms": 1e3 * push,
            "lzpush_ms_q1": 1e3 * push_q1,
            "lzpush_ms_q3": 1e3 * push_q3,
            "lz_ms": 1e3 * lz,
            "lz_ms_q1": 1e3 * lz_q1,
            "lz_ms_q3": 1e3 * lz_q3,
            "lz_over_lzpush": lz / push,
            "lzpush_arcs": statistics.median(arcs),
            "lz_arcs": K * 2 * graphs[n].edge_count,
            "lzpush_ns_per_arc": statistics.median(
                1e9 * sec / max(a, 1) for sec, a in zip(push_s, arcs)
            ),
        }
        print(json.dumps(row), flush=True)
        rows.append(row)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--commit", default="unknown")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed calls of each method per pair (default 3)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("setup", {
        "graph": f"generate_ba(n, {ATTACH}, {GRAPH_SEED})",
        "k": K,
        "pairs": f"{PAIRS} from np.random.default_rng({PAIR_SEED}).choice",
        "host": platform.node(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    })
    runs = doc.setdefault("runs", {}).setdefault(args.label, [])
    for _ in range(args.rounds):
        runs.append({"commit": args.commit, "repeats": args.repeats,
                     "rows": sweep(args.repeats)})
        args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
