#!/usr/bin/env python3
"""Run one benchmark workload against the library in this checkout.

    python3 benchmark/run.py --workload er-global --seed 1 --seconds 15 --trace 0

The load is one process and one thread in a closed loop: one query in
flight, the next sent when the previous returns.  A run derives graph
seeds and the pair seed from ``--seed``, sets up one graph per graph
seed (the median set-up is ``setup_s``), warms up, then times queries
for ``--seconds`` (and at least ``MIN_QUERIES`` of them), and finally
checks every output against the independent references in ``oracles``.

The host's speed drifts, so the bounded time metrics are calibrated
(see ``calibrate``): each timed query is followed by one run of the
workload's calibration kernel and ``query_p50_rel`` is the median of
query time over kernel time; each set-up is bracketed by runs of the
set-up kernel and ``setup_s`` is set-up time over kernel time, in
seconds of the host the benchmark was tuned on.  Raw wall times are
printed alongside, unbounded.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` each pair is run once untraced and once traced (alternating
which goes first), the probes in ``probes`` measure every layer, and the
metrics are the per-layer ones, including the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each run also writes its result, metadata and span summary to
``benchmark/out/``, and in traced runs the spans themselves.  The
library is imported from ``src/`` next to this directory; without it the
run exits with status 2 before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 3
SETUP_KERNEL_REPS = 10  # calibration kernel runs before and after each set-up
WARMUP_QUERIES = 10
MIN_QUERIES = {"full": 110, "tiny": 12}  # 110 leaves ten samples above p90
REFERENCE_QUERIES = 12  # seeded subset checked against a reference solve
DEFAULT_L3_BYTES = 105 * 2**20

# End-to-end metrics with a bound in BENCHMARK.json.
END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_rel": "ratio",
    "peak_rss_mb": "MB",
}
# Reported alongside without a bound: raw latencies and throughput move
# with the host's speed more than any allowed bound (see NOTES.md), the
# rest are workload-specific or zero when all is well.
EXTRA_UNITS = {
    "query_p90_rel": "ratio",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "queries_per_s": "1/s",
    "calibration_p50_s": "s",
    "setup_wall_s": "s",
    "failed_frac": "ratio",
    "rel_err_max": "ratio",
    "kappa_rel_err": "ratio",
    "route_stretch_mean": "ratio",
    "route_diversity_mean": "ratio",
}


def load_library():
    """Import ``resistor`` from this checkout's ``src/``; exit 2 if absent."""
    if not (SRC / "resistor" / "__init__.py").is_file():
        print(f"benchmark: no library at {SRC}/resistor", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import resistor

    if Path(resistor.__file__).resolve().parent != SRC / "resistor":
        print(f"benchmark: imported resistor from {resistor.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return resistor


def l3_bytes() -> int:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
        return int(text[:-1]) * 1024 if text.endswith("K") else int(text)
    except (OSError, ValueError):
        return DEFAULT_L3_BYTES


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, graph_seeds: list, copy_bytes: int, l3: int) -> dict:
    import numpy
    import scipy

    return {
        "host": platform.node(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "graph_seeds": graph_seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "load": "closed loop, 1 process, 1 thread, 1 query in flight",
        "l3_bytes": l3,
        "copy_array_bytes": copy_bytes if args.trace else None,
    }


def pair_stream(rng, n: int):
    """Uniform random s-t pairs, s != t, no pair repeated."""
    seen = set()
    while True:
        s, t = (int(x) for x in rng.integers(0, n, size=2))
        key = (min(s, t), max(s, t))
        if s != t and key not in seen:
            seen.add(key)
            yield s, t


def timed_query(wl, state, pair, qid, tracer):
    """One query; returns (seconds, output or the exception it raised)."""
    tracer.query = qid
    start = time.perf_counter()
    try:
        with tracer.span("query"):
            out = wl.query(state, pair, qid, tracer)
    except Exception as exc:  # a raising query is a failed operation
        out = exc
    return time.perf_counter() - start, out


def run(args) -> dict:
    import numpy as np

    import calibrate
    import probes
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.size)
    min_queries = MIN_QUERIES[args.size]
    graph_ss, pair_ss, warm_ss, check_ss = np.random.SeedSequence(args.seed).spawn(4)
    graph_seeds = [int(ss.generate_state(1)[0]) for ss in graph_ss.spawn(SETUP_REPS)]
    l3 = l3_bytes()
    copy_bytes = 4 * l3 if args.size == "full" else 8 * 2**20
    meta = metadata(args, graph_seeds, copy_bytes, l3)
    null = NullTracer()
    tracer = Tracer() if args.trace else null
    failures = []
    extras = {}

    OUT.mkdir(exist_ok=True)
    setup_kernel = calibrate.kernel(wl.setup_calibration)
    setup_kernel()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setup_s, setup_kernel_s = [], []
        failed_setups = 0
        for rep, graph_seed in enumerate(graph_seeds):
            state = inputs = None  # free the previous graph first
            inputs = wl.make_inputs(graph_seed, Path(workdir))
            gc.collect()
            before = calibrate.mean_time(setup_kernel, SETUP_KERNEL_REPS)
            start = time.perf_counter()
            with tracer.span("setup"):
                state = wl.setup(inputs, tracer)
            setup_s.append(time.perf_counter() - start)
            after = calibrate.mean_time(setup_kernel, SETUP_KERNEL_REPS)
            setup_kernel_s.append((before + after) / 2)
            problems, found = wl.check_setup(state, inputs)
            extras.update(found)
            failed_setups += bool(problems)
            failures += [f"setup {rep}: {p}" for p in problems]
    g = state["g"]
    ctx = wl.prepare_checks(state, inputs)

    kernel = calibrate.kernel(wl.calibration)
    warm = pair_stream(np.random.default_rng(warm_ss), g.node_count)
    for qid in range(WARMUP_QUERIES):
        timed_query(wl, state, next(warm), -1 - qid, null)
        calibrate.timed(kernel)

    pairs = pair_stream(np.random.default_rng(pair_ss), g.node_count)
    latencies, traced_latencies, outputs, kernel_s = [], [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or (
        not args.trace and len(latencies) < min_queries
    ):
        qid = len(latencies)
        pair = next(pairs)
        if not args.trace:
            order = (null,)
        else:
            order = (null, tracer) if qid % 2 == 0 else (tracer, null)
        for tr in order:
            dt, out = timed_query(wl, state, pair, qid, tr)
            (latencies if tr is null else traced_latencies).append(dt)
            outputs.append((qid, pair, out))
        if not args.trace:
            kernel_s.append(calibrate.timed(kernel))
    queries = len(latencies)

    ref_count = min(REFERENCE_QUERIES, queries)
    ref_qids = set(np.random.default_rng(check_ss).choice(min(queries, min_queries), ref_count, replace=False).tolist())
    found = {}
    failed_queries = 0
    for qid, pair, out in outputs:
        if isinstance(out, Exception):
            problems = [f"raised {out!r}"]
        else:
            problems, vals = wl.check(state, ctx, pair, out, qid in ref_qids)
            for key, val in vals.items():
                found.setdefault(key, []).append(val)
        if problems:
            failed_queries += 1
            failures += [f"query {qid} {pair}: {p}" for p in problems]
    if "rel_err" in found:
        extras["rel_err_max"] = max(found["rel_err"])
    if "stretch" in found:
        extras["route_stretch_mean"] = float(np.mean(found["stretch"]))
        extras["route_diversity_mean"] = float(np.mean(found["diversity"]))

    attempted = SETUP_REPS + len(outputs)
    failed = failed_queries + failed_setups
    extras["failed_frac"] = failed / attempted
    counts = {"setup_s": SETUP_REPS, "setup_wall_s": SETUP_REPS,
              "query_p50_rel": queries, "query_p90_rel": queries,
              "query_p50_s": queries, "query_p90_s": queries, "queries_per_s": queries,
              "calibration_p50_s": queries, "peak_rss_mb": 1, "failed_frac": attempted,
              "rel_err_max": ref_count, "kappa_rel_err": 1,
              "route_stretch_mean": queries, "route_diversity_mean": queries}

    if args.trace:
        probe = probes.run_probes(wl, state, [p for _, p, _ in outputs[::2]], tracer, copy_bytes)
        overhead = (sum(traced_latencies) - sum(latencies)) / sum(latencies)
        metrics = probes.layer_metrics(g, wl.input_counts(inputs, g), tracer, probe, overhead)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        lat = np.asarray(latencies)
        rel = lat / np.asarray(kernel_s)
        extras["query_p50_s"] = float(np.percentile(lat, 50))
        extras["query_p90_s"] = float(np.percentile(lat, 90))
        extras["queries_per_s"] = queries / float(lat.sum())
        extras["query_p90_rel"] = float(np.percentile(rel, 90))
        extras["calibration_p50_s"] = float(np.median(kernel_s))
        extras["setup_wall_s"] = float(np.median(setup_s))
        setup_cal = np.asarray(setup_s) * wl.setup_reference_s / np.asarray(setup_kernel_s)
        values = {
            "setup_s": float(np.median(setup_cal)),
            "query_p50_rel": float(np.percentile(rel, 50)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}

    return {
        "meta": meta,
        "metrics": metrics,
        "extras": {k: (extras[k], u) for k, u in EXTRA_UNITS.items() if k in extras},
        "counts": counts,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "latencies": latencies,
        "calibration_s": kernel_s,
        "setup_s": setup_s,
        "setup_calibration_s": setup_kernel_s,
        "spans": tracer.summary() if args.trace else {},
    }


def report(args, res) -> None:
    print("# meta " + json.dumps(res["meta"]))
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{res['attempted']} operations, {res['failed']} failed")
    rows = list(res["metrics"].items()) + list(res["extras"].items())
    for name, (value, unit) in rows:
        n = res["counts"].get(name)
        print(f"{name:32s} {value:16.6g} {unit:6s}" + (f" n={n}" if n else ""))
    if res["spans"]:
        print("# span                             count       total_s        self_s")
        for name, row in sorted(res["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"# {name:32s} {row['count']:6d} {row['total_s']:13.6f} {row['self_s']:13.6f}")
    for line in res["failures"][:20]:
        print("# FAILED " + line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["er-global", "ba-local", "grid-route"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every input, for the self-tests")
    args = parser.parse_args(argv)
    load_library()
    res = run(args)
    report(args, res)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(res, indent=1, default=str))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
