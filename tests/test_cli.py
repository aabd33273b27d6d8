"""End-to-end tests for the command-line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from resistor import save_edge_list
from resistor.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_USAGE, cli, parse_bench_csv

from conftest import grid_graph, random_pair

TOY = "1 2\n2 3\n3 1\n1 4\n"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text(TOY)
    return str(path)


def _json_of(result):
    return json.loads(result.stdout)


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def test_query_exact(runner, toy_file):
    result = runner.invoke(cli, ["query", toy_file, "1", "4"])
    assert result.exit_code == 0, result.output
    record = _json_of(result)
    assert record["method"] == "exact"
    assert record["value"] == pytest.approx(1.0, abs=1e-12)
    assert record["s"] == 1 and record["t"] == 4


@pytest.mark.parametrize("method", ["pm", "rw", "lz", "lzpush"])
def test_query_each_estimator_near_truth(runner, toy_file, method):
    # rw pays per-step sampling cost, so it gets a short horizon and a
    # loose tolerance; the deterministic methods get tight ones
    l = "12" if method == "rw" else "2000"
    result = runner.invoke(
        cli,
        ["query", toy_file, "1", "4", "--method", method,
         "--l", l, "--k", "4", "--nr", "4000", "--eps", "0"],
    )
    assert result.exit_code == 0, result.output
    record = _json_of(result)
    tol = 0.1 if method == "rw" else 1e-6
    assert record["value"] == pytest.approx(1.0, abs=tol)
    assert record["iterations"] >= 0


def test_query_uses_original_labels(runner, tmp_path):
    # labels 10 and 30 with a gap: internal ids differ from labels
    path = tmp_path / "gap.txt"
    path.write_text("10 20\n20 30\n")
    result = runner.invoke(cli, ["query", str(path), "10", "30"])
    assert result.exit_code == 0, result.output
    assert _json_of(result)["value"] == pytest.approx(2.0, abs=1e-10)


def test_query_csv_format(runner, toy_file):
    result = runner.invoke(cli, ["query", toy_file, "1", "4", "--format", "csv"])
    assert result.exit_code == 0
    header, row = result.stdout.strip().splitlines()
    assert header.split(",")[:3] == ["s", "t", "method"]
    assert row.split(",")[:3] == ["1", "4", "exact"]


def test_query_writes_out_file(runner, toy_file, tmp_path):
    out = tmp_path / "r.json"
    result = runner.invoke(cli, ["query", toy_file, "1", "4", "--out", str(out)])
    assert result.exit_code == 0
    assert json.loads(out.read_text())["value"] == pytest.approx(1.0, abs=1e-12)


def test_query_unknown_label_is_usage_error(runner, toy_file):
    result = runner.invoke(cli, ["query", toy_file, "1", "99"])
    assert result.exit_code == EXIT_USAGE


def test_query_missing_file_is_io_error(runner, tmp_path):
    result = runner.invoke(cli, ["query", str(tmp_path / "nope.txt"), "1", "2"])
    assert result.exit_code == EXIT_IO


def test_query_malformed_file_is_io_error(runner, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\nbogus line here\n")
    result = runner.invoke(cli, ["query", str(path), "1", "2"])
    assert result.exit_code == EXIT_IO


def test_query_overflowing_weights_is_usage_error(runner, tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("0 1 1e308\n1 0 1e308\n")
    result = runner.invoke(cli, ["query", str(path), "0", "1", "--weighted"])
    assert result.exit_code == EXIT_USAGE
    assert "overflows" in result.output


def test_query_unknown_method_is_usage_error(runner, toy_file):
    result = runner.invoke(cli, ["query", toy_file, "1", "4", "--method", "magic"])
    assert result.exit_code == EXIT_USAGE


def test_query_unhealthy_estimate_exits_numerical(runner, tmp_path):
    # the pruned run of test_push::test_indefinite_pruned_run_is_flagged
    g = grid_graph(10, 30)
    s, t = random_pair(np.random.default_rng(805), g.node_count)
    path = tmp_path / "grid.txt"
    save_edge_list(g, path)
    result = runner.invoke(
        cli,
        ["query", str(path), str(s), str(t), "--method", "lzpush",
         "--k", "348", "--eps", "1e-3"],
    )
    assert result.exit_code == EXIT_NUMERICAL
    # the record is still emitted before the failure exit
    assert _json_of(result)["healthy"] is False


def test_query_weighted_graph(runner, tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("0 1 2.0\n1 2 2.0\n")
    result = runner.invoke(cli, ["query", str(path), "0", "2", "--weighted"])
    assert result.exit_code == 0
    assert _json_of(result)["value"] == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------


def test_kappa_reports_spectrum(runner, toy_file):
    result = runner.invoke(cli, ["kappa", toy_file])
    assert result.exit_code == 0, result.output
    record = _json_of(result)
    assert record["converged"] is True
    assert record["kappa"] == pytest.approx(2.5930703, abs=1e-4)
    assert record["mu2"] == pytest.approx(1 - record["lambda2_a"], abs=1e-12)


def test_kappa_unconverged_exits_numerical(runner, toy_file):
    result = runner.invoke(cli, ["kappa", toy_file, "--max-iter", "1"])
    assert result.exit_code == EXIT_NUMERICAL
    # the estimate is still printed before the failure exit
    assert '"converged": false' in result.stdout


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_er_is_deterministic(runner, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for target in (a, b):
        result = runner.invoke(
            cli, ["gen", "er", "60", str(target), "--seed", "5", "--m", "150"]
        )
        assert result.exit_code == 0, result.output
    assert a.read_bytes() == b.read_bytes()


def test_gen_ba_and_query_round_trip(runner, tmp_path):
    path = tmp_path / "ba.txt"
    result = runner.invoke(
        cli, ["gen", "ba", "40", str(path), "--seed", "3", "--attach", "2"]
    )
    assert result.exit_code == 0
    result = runner.invoke(cli, ["query", str(path), "0", "39"])
    assert result.exit_code == 0
    assert _json_of(result)["value"] > 0.0


def test_gen_rdg_cache_loads_back(runner, tmp_path):
    path = tmp_path / "g.rdg"
    result = runner.invoke(cli, ["gen", "er", "30", str(path), "--m", "70"])
    assert result.exit_code == 0
    result = runner.invoke(cli, ["query", str(path), "0", "1"])
    assert result.exit_code == 0, result.output
    assert _json_of(result)["value"] > 0.0


@pytest.mark.parametrize(
    "command",
    [["query", "{path}", "0", "1", "--method", "lz"], ["route", "{path}", "0", "1"]],
    ids=["query", "route"],
)
def test_corrupt_cache_is_an_input_error(runner, tmp_path, command):
    path = tmp_path / "g.rdg"
    assert runner.invoke(cli, ["gen", "er", "30", str(path), "--m", "70"]).exit_code == 0
    blob = bytearray(path.read_bytes())
    n = int(np.frombuffer(bytes(blob[4:12]), dtype="<u8")[0])
    first_neighbor = 4 + 16 + 8 * (n + 1)
    blob[first_neighbor : first_neighbor + 8] = np.int64(10**6).astype("<i8").tobytes()
    path.write_bytes(bytes(blob))
    result = runner.invoke(cli, [arg.format(path=path) for arg in command])
    assert result.exit_code == EXIT_IO, result.output
    assert "neighbor id" in result.output


def test_gen_validates_family(runner, tmp_path):
    result = runner.invoke(cli, ["gen", "tree", "30", str(tmp_path / "x.txt")])
    assert result.exit_code == EXIT_USAGE


# ---------------------------------------------------------------------------
# route
# ---------------------------------------------------------------------------


def test_route_reports_original_labels(runner, toy_file):
    result = runner.invoke(
        cli, ["route", toy_file, "2", "4", "--k", "4", "--routes", "2"]
    )
    assert result.exit_code == 0, result.output
    record = _json_of(result)
    assert record["routes"] == [[2, 1, 4], [2, 3, 1, 4]]
    assert record["complete"] is True
    assert record["lengths"] == [2, 3]
    assert record["metrics"]["stretch"] == pytest.approx(1.25, abs=1e-9)
    assert record["metrics"]["diversity"] == pytest.approx(0.75, abs=1e-9)
    assert record["bottlenecks"][0] == pytest.approx(2 / 3, abs=1e-6)


def test_route_same_endpoints_is_usage_error(runner, toy_file):
    result = runner.invoke(cli, ["route", toy_file, "1", "1"])
    assert result.exit_code == EXIT_USAGE


# ---------------------------------------------------------------------------
# check-assumption
# ---------------------------------------------------------------------------


def test_check_assumption_passes_on_toy(runner, toy_file):
    result = runner.invoke(
        cli, ["check-assumption", toy_file, "1", "4", "--k", "4", "--eps", "0"]
    )
    assert result.exit_code == 0, result.output
    record = _json_of(result)
    assert record["passed"] is True
    assert record["c2_within_cap"] is True
    assert record["lambda_max_t"] <= record["lambda_2_a"] + record["tol"]
    assert record["estimate"] == pytest.approx(1.0, abs=1e-9)


def test_check_assumption_reports_cap_excursion(runner, toy_file):
    # the degree-scaled walk norm from the pendant exceeds sqrt(m) here;
    # the command reports it as a boolean instead of crashing
    result = runner.invoke(
        cli, ["check-assumption", toy_file, "1", "4", "--k", "4", "--eps", "1e-4"]
    )
    assert result.exit_code == 0, result.output
    record = _json_of(result)
    assert record["c1_within_cap"] is False
    assert record["c1"] > record["c1_cap"]


def test_check_assumption_same_vertex_is_usage_error(runner, toy_file):
    result = runner.invoke(cli, ["check-assumption", toy_file, "1", "1"])
    assert result.exit_code == EXIT_USAGE


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _bench_args(toy_file, extra=()):
    return [
        "bench", toy_file, "--pairs", "3", "--seed", "1",
        "--l-grid", "50,100", "--k-grid", "4", "--eps-grid", "1e-3",
        "--nr-grid", "200",
    ] + list(extra)


def test_bench_csv_round_trip(runner, toy_file):
    result = runner.invoke(cli, _bench_args(toy_file))
    assert result.exit_code == 0, result.output
    rows = parse_bench_csv(result.stdout)
    # 3 pairs x (pm: 2 ls + lz: 1 k + lzpush: 1 (k, eps))
    assert len(rows) == 3 * 4
    methods = sorted({r.method for r in rows})
    assert methods == ["lz", "lzpush", "pm"]
    assert all(r.abs_err < 1e-3 for r in rows if r.method != "rw")


def test_bench_rows_are_sorted(runner, toy_file):
    result = runner.invoke(cli, _bench_args(toy_file))
    rows = parse_bench_csv(result.stdout)

    def numeric_params(param):
        return tuple(float(p.split("=")[1]) for p in param.split(";"))

    def pair_tuple(pair):
        a, b = pair.split("-")
        return int(a), int(b)

    keys = [
        (r.method, numeric_params(r.param), pair_tuple(r.pair)) for r in rows
    ]
    assert keys == sorted(keys)


def test_bench_rw_method_and_grids(runner, toy_file):
    result = runner.invoke(
        cli, _bench_args(toy_file, ["--methods", "rw", "--nr-grid", "100,200"])
    )
    assert result.exit_code == 0, result.output
    rows = parse_bench_csv(result.stdout)
    # 3 pairs x 2 ls x 2 nrs
    assert len(rows) == 12
    assert all(r.method == "rw" for r in rows)


def test_bench_cross_policy_pair_count(runner, toy_file):
    result = runner.invoke(
        cli,
        _bench_args(toy_file, ["--policy", "top-degree", "--cross",
                               "--methods", "lz"]),
    )
    assert result.exit_code == 0, result.output
    rows = parse_bench_csv(result.stdout)
    pairs = {r.pair for r in rows}
    assert len(rows) == len(pairs)
    # top half {1, 2} crossed with next half {3, 4} on the toy graph
    assert pairs == {"1-3", "1-4", "2-3", "2-4"}


def test_bench_out_file(runner, toy_file, tmp_path):
    out = tmp_path / "bench.csv"
    result = runner.invoke(
        cli, _bench_args(toy_file, ["--methods", "lz", "--out", str(out)])
    )
    assert result.exit_code == 0
    rows = parse_bench_csv(out.read_text())
    assert len(rows) == 3


def test_bench_parallel_matches_serial(runner, toy_file):
    serial = runner.invoke(cli, _bench_args(toy_file, ["--methods", "pm,lz"]))
    parallel = runner.invoke(
        cli, _bench_args(toy_file, ["--methods", "pm,lz", "--jobs", "2"])
    )
    assert serial.exit_code == 0 and parallel.exit_code == 0
    srows = parse_bench_csv(serial.stdout)
    prows = parse_bench_csv(parallel.stdout)
    assert [(r.method, r.param, r.pair, r.abs_err, r.touched_edges)
            for r in srows] == \
           [(r.method, r.param, r.pair, r.abs_err, r.touched_edges)
            for r in prows]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_budget_abort(runner, toy_file, monkeypatch, jobs):
    # every task claims 1e6 s, so the projected sweep exceeds any budget
    monkeypatch.setattr(
        "resistor.cli._bench_one", lambda task: (0.0, 0, 1e6)
    )
    result = runner.invoke(
        cli, _bench_args(toy_file, ["--budget", "1000", "--jobs", jobs])
    )
    assert result.exit_code == EXIT_USAGE, result.output
    assert "projected sweep time" in result.output


def test_bench_unknown_method_rejected(runner, toy_file):
    result = runner.invoke(cli, _bench_args(toy_file, ["--methods", "pm,nope"]))
    assert result.exit_code == EXIT_USAGE


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


def test_console_script_runs(toy_file):
    proc = subprocess.run(
        [sys.executable, "-m", "resistor.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "query" in proc.stdout and "bench" in proc.stdout


def test_import_needs_no_scipy():
    # the runtime dependencies are numpy and click; SciPy is for the
    # benchmark's references only
    code = "import sys; sys.modules['scipy'] = None; import resistor, resistor.cli"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_console_script_query(toy_file):
    proc = subprocess.run(
        [sys.executable, "-m", "resistor.cli", "query", toy_file, "1", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(1.0, abs=1e-12)
