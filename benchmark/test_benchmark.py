"""Self-tests of the benchmark: tiny smoke runs of every workload, metric
names and units against BENCHMARK.json, and failure accounting for
perturbed outputs.

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

R = run.load_library()
import calibrate  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_tiny(capsys, workload: str, trace: int = 0):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", str(trace), "--size", "tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric_with_its_unit(capsys, workload, trace):
    lines, res = run_tiny(capsys, workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())
    printed = {line.split()[0]: line.split() for line in lines[:-1] if not line.startswith("#")}
    for m in spec:
        assert printed[m["name"]][2] == m["unit"]
        if not trace:
            assert printed[m["name"]][3].startswith("n=")
    assert "failed_frac" in printed
    if not trace:
        assert printed["query_p50_s"][2:4] == ["s", f"n={printed['query_p90_s'][3][2:]}"]
        assert printed["queries_per_s"][2] == "1/s"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_calibration_kernels_run_and_reject_unknown_parts(workload):
    wl = workloads.WORKLOADS[workload]
    for spec in (wl.calibration, wl.setup_calibration):
        assert calibrate.timed(calibrate.kernel(spec)) > 0.0
    with pytest.raises(ValueError):
        calibrate.kernel({"matvec": 3})


def test_perturbed_estimate_counts_as_failed(capsys, monkeypatch):
    real = R.lanczos_rd

    def off_by_a_thousandth(*args, **kwargs):
        est, lz_run = real(*args, **kwargs)
        return dataclasses.replace(est, value=est.value * (1 + 1e-3)), lz_run

    monkeypatch.setattr(R, "lanczos_rd", off_by_a_thousandth)
    _, res = run_tiny(capsys, "er-global")
    assert not res["correct"]
    assert res["failed"] == run.REFERENCE_QUERIES


def test_route_through_a_non_edge_counts_as_failed(capsys, monkeypatch):
    real = R.extract_routes

    def skip_a_vertex(*args, **kwargs):
        ex = real(*args, **kwargs)
        r = ex.routes[0]
        ex.routes[0] = dataclasses.replace(r, vertices=r.vertices[:1] + r.vertices[2:])
        return ex

    monkeypatch.setattr(R, "extract_routes", skip_a_vertex)
    _, res = run_tiny(capsys, "grid-route")
    assert not res["correct"]
    assert res["failed"] == res["attempted"] - run.SETUP_REPS


def test_route_problems_flags_each_violation():
    # path graph 0-1-2-3 plus chord 0-2
    _, edges, _ = oracles.largest_component(np.array([[0, 1], [1, 2], [2, 3], [0, 2]]))
    good = R.Route((0, 1, 2, 3), frozenset({(0, 1), (1, 2), (2, 3)}), 3, 3.0, 0.5)
    other = R.Route((0, 2, 3), frozenset({(0, 2), (2, 3)}), 2, 2.0, 0.5)
    assert oracles.route_problems(edges, [good, other], 0, 3, 2) == []
    assert oracles.route_problems(edges, [good], 0, 3, 2)  # too few routes
    assert oracles.route_problems(edges, [good, dataclasses.replace(other, bottleneck=0.0)], 0, 3, 2)
    looped = R.Route((0, 1, 0, 2, 3), frozenset({(0, 1), (0, 2), (2, 3)}), 4, 4.0, 0.5)
    assert oracles.route_problems(edges, [good, looped], 0, 3, 2)
    assert oracles.route_problems(edges, [good, other], 0, 2, 2)  # wrong endpoint


def test_exits_nonzero_without_printing_where_the_library_is_absent(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
