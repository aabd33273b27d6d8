"""End-to-end tests for the command-line interface."""

import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

import resistor.cli as cli_mod
from resistor import (
    exact_rd,
    generate_ba,
    generate_er,
    lanczos_rd,
    load_edge_list,
    save_edge_list,
)
from resistor.cli import BENCH_COLUMNS, EXIT_IO, EXIT_NUMERICAL, EXIT_USAGE, cli
from resistor.kernels import solve_checked
from resistor.lanczos import _estimate as lanczos_estimate

from conftest import grid_graph, path_graph, random_pair

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


def test_query_malformed_token_is_io_error(runner, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n1_0 2\n", encoding="utf-8")
    result = runner.invoke(cli, ["query", str(path), "1", "2"])
    assert result.exit_code == EXIT_IO
    assert "line 2" in result.output and "ASCII" in result.output


def test_query_ascii_separator_is_io_error(runner, tmp_path):
    # str.split would have read the edge (1, 2) from this line
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1 2\n1\x1f2\n")
    result = runner.invoke(cli, ["query", str(path), "1", "2"])
    assert result.exit_code == EXIT_IO
    assert "line 2" in result.output and "separator" in result.output


@pytest.mark.parametrize("label", ["-1", str(2**64)])
def test_query_label_outside_int64_is_usage_error(runner, toy_file, label):
    result = runner.invoke(cli, ["query", toy_file, "--", label, "4"])
    assert result.exit_code == EXIT_USAGE
    assert "does not appear" in result.output


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


@pytest.mark.parametrize("family", ["er", "ba"])
def test_gen_defaults_scale_with_log_n(runner, tmp_path, family):
    # er: m = ceil(n ln n); ba: attach = round(ln n), 4 at n = 40
    n = 40
    path, want = tmp_path / "g.txt", tmp_path / "want.txt"
    assert runner.invoke(cli, ["gen", family, str(n), str(path)]).exit_code == 0
    if family == "er":
        g = generate_er(n, math.ceil(n * math.log(n)), 0)
        assert g.edge_count == math.ceil(n * math.log(n))
    else:
        g = generate_ba(n, round(math.log(n)), 0)
        assert g.edge_count == 4 * (n - 4)
    save_edge_list(g, want)
    assert path.read_bytes() == want.read_bytes()


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


@pytest.mark.parametrize("family", ["er", "ba"])
@pytest.mark.parametrize("args, named", [
    (["0"], "'N'"), (["1"], "'N'"), (["30", "--seed", "-1"], "'--seed'"),
], ids=["n0", "n1", "seed-negative"])
def test_gen_validates_n_and_seed_before_the_defaults(runner, tmp_path, family, args, named):
    # n = 0 once reached log(0) in the default m / attach
    out = tmp_path / "x.txt"
    result = runner.invoke(cli, ["gen", family, args[0], str(out), *args[1:]])
    assert result.exit_code == EXIT_USAGE
    assert named in result.output and "domain" not in result.output
    assert not out.exists()


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


def test_check_assumption_record_has_every_key(runner, toy_file):
    # the report's eight fields, the estimate and its iterations, the
    # locality statistics and the spectrum flag: nothing more, nothing less
    result = runner.invoke(cli, ["check-assumption", toy_file, "1", "4", "--k", "4"])
    assert result.exit_code == 0, result.output
    assert sorted(_json_of(result)) == [
        "c1", "c1_cap", "c1_plain", "c1_within_cap", "c2", "c2_cap", "c2_within_cap",
        "estimate", "k_effective", "lambda_2_a", "lambda_max_t", "lambda_min_a",
        "lambda_min_t", "lower_slack", "passed", "spectrum_converged", "tol",
        "upper_slack",
    ]


def test_check_assumption_same_vertex_is_usage_error(runner, toy_file):
    result = runner.invoke(cli, ["check-assumption", toy_file, "1", "1"])
    assert result.exit_code == EXIT_USAGE


@pytest.mark.parametrize(
    "args",
    [["kappa", "--tol", "nan"], ["kappa", "--tol", "inf"],
     ["check-assumption", "1", "4", "--tol", "nan"]],
    ids=["kappa-nan", "kappa-inf", "check-assumption-nan"],
)
def test_non_finite_tol_is_usage_error(runner, toy_file, args):
    result = runner.invoke(cli, [args[0], toy_file, *args[1:]])
    assert result.exit_code == EXIT_USAGE
    assert "tol must be finite" in result.output


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _bench_args(toy_file, extra=()):
    return [
        "bench", toy_file, "--pairs", "3", "--seed", "1",
        "--l-grid", "50,100", "--k-grid", "4", "--eps-grid", "1e-3",
        "--nr-grid", "200",
    ] + list(extra)


def _bench_rows(text: str) -> list:
    """The rows of bench's CSV, as dicts with ``abs_err`` and ``seconds``
    read as floats and ``touched_edges`` as an int."""
    reader = csv.DictReader(io.StringIO(text))
    assert tuple(reader.fieldnames) == BENCH_COLUMNS
    return [
        {**row, "abs_err": float(row["abs_err"]), "seconds": float(row["seconds"]),
         "touched_edges": int(row["touched_edges"])}
        for row in reader
    ]


def test_bench_csv_round_trip(runner, toy_file):
    result = runner.invoke(cli, _bench_args(toy_file))
    assert result.exit_code == 0, result.output
    rows = _bench_rows(result.stdout)
    # 3 pairs x (pm: 2 ls + lz: 1 k + lzpush: 1 (k, eps))
    assert len(rows) == 3 * 4
    methods = sorted({r["method"] for r in rows})
    assert methods == ["lz", "lzpush", "pm"]
    assert all(r["abs_err"] < 1e-3 for r in rows if r["method"] != "rw")


@pytest.fixture
def path150_file(tmp_path):
    path = tmp_path / "path150.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 150)))
    return str(path)


_PATH150_LZ = ["--methods", "lz", "--k-grid", "400", "--pairs", "3", "--seed", "1"]


def test_bench_truth_above_the_cap_is_lanczos_to_stagnation(runner, path150_file, monkeypatch):
    # the power method needs ~kappa steps on a path and read abs_err up to
    # 0.23 here; lanczos_rd at k = 400 is within 1.1e-11 of the exact value
    def no_power_method(*args):
        raise AssertionError("the truth ran the power method")

    monkeypatch.setattr(cli_mod, "power_method_rd", no_power_method)
    result = runner.invoke(cli, ["bench", path150_file, *_PATH150_LZ])
    assert result.exit_code == 0, result.output
    assert "warning" not in result.stderr
    rows = _bench_rows(result.stdout)
    assert len(rows) == 3
    g = load_edge_list(path150_file)
    for r in rows:
        s, t = (int(np.searchsorted(g.old_ids, int(x))) for x in r["pair"].split("-"))
        assert r["abs_err"] <= 1e-9 * exact_rd(g, s, t)


def _unhealthy_estimate(*args, **kwargs):
    est, run = lanczos_estimate(*args, **kwargs)
    return dataclasses.replace(est, healthy=False), run


@pytest.mark.parametrize("name, value", [
    ("GT_MAX_K", 32),  # a path of 150 vertices needs more than 32 steps
    ("_estimate", _unhealthy_estimate),
], ids=["unsettled", "unhealthy"])
def test_bench_fails_loudly_on_a_truth_it_cannot_trust(
    runner, path150_file, monkeypatch, name, value
):
    monkeypatch.setattr(cli_mod, name, value)
    result = runner.invoke(cli, ["bench", path150_file, *_PATH150_LZ])
    assert result.exit_code == EXIT_NUMERICAL, result.output
    assert result.stdout == ""
    g = load_edge_list(path150_file)
    s, t = cli_mod.build_query_set(g, 3, "uniform-random", 1, False)[0]
    assert f"pair {g.old_ids[s]}-{g.old_ids[t]}" in result.stderr
    assert "last estimates" in result.stderr


def _rerun_truth(g, s, t):
    """The former truth of ``bench``, frozen as the one-run truth's
    reference: ``lanczos_rd`` rerun from step 1 at k = 32, 64, ... up to a
    breakdown or two successive estimates within ``GT_REL_TOL``."""
    value, k = math.nan, 32
    while k <= cli_mod.GT_MAX_K:
        previous = value
        est, run = lanczos_rd(g, s, t, k)
        value = est.value
        assert est.healthy
        if run.breakdown or abs(value - previous) <= cli_mod.GT_REL_TOL * value:
            return value
        k *= 2
    raise AssertionError(f"the rerun truth of {s}-{t} did not settle")


@pytest.mark.parametrize("make", [
    lambda: path_graph(150), lambda: grid_graph(15, 20), lambda: generate_er(2000, 8000, 1),
], ids=["path150", "grid15x20", "er2000"])
def test_lanczos_truth_is_the_rerun_truth_from_one_run(make, monkeypatch):
    g = make()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return lanczos_estimate(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "_estimate", counted)
    pairs = cli_mod.build_query_set(g, 6, "uniform-random", 0, False)
    for s, t in pairs:
        assert cli_mod._lanczos_truth(g, s, t) == _rerun_truth(g, s, t)
    assert calls == list(pairs)


@pytest.mark.parametrize("make", [
    lambda: path_graph(150), lambda: grid_graph(15, 20), lambda: generate_er(2000, 8000, 1),
], ids=["path150", "grid15x20", "er2000"])
def test_lanczos_truth_solves_each_checkpoint_once(make, monkeypatch):
    # one solve per checkpoint k = 32, 64, ... below the run's last k, and
    # one of the last T, whether a checkpoint or a breakdown (path150)
    # ended the run
    g = make()
    solved, runs = [], []

    def counted_solve(tmat):
        solved.append(tmat.order)
        return solve_checked(tmat)

    def kept_run(*args, **kwargs):
        est, run = lanczos_estimate(*args, **kwargs)
        runs.append(run)
        return est, run

    monkeypatch.setattr(cli_mod, "solve_checked", counted_solve)
    monkeypatch.setattr(cli_mod, "_estimate", kept_run)
    for s, t in cli_mod.build_query_set(g, 4, "uniform-random", 0, False):
        solved.clear()
        cli_mod._lanczos_truth(g, s, t)
        k = runs[-1].k_effective
        assert solved == [2**j for j in range(5, 17) if 2**j < k] + [k]


def test_lanczos_truth_reads_a_path_to_float64():
    # r(s, t) = |s - t| on a unit path
    g = path_graph(150)
    for s, t in cli_mod.build_query_set(g, 10, "uniform-random", 3, False):
        exact = abs(int(g.old_ids[s]) - int(g.old_ids[t]))
        assert cli_mod._lanczos_truth(g, s, t) == pytest.approx(exact, rel=1e-11)


def _bridged_er_text(bridge: float):
    """Two copies of the LCC of ``generate_er(1100, 4400, 1)``, the second
    relabelled by n, joined by one edge of weight ``bridge`` between the
    copies of vertex 0, as a weighted edge list; and the first copy."""
    half = generate_er(1100, 4400, 1)
    n = half.node_count
    src, dst = half.arc_sources, half.neighbors
    edges = [(u, v) for u, v in zip(src.tolist(), dst.tolist()) if u < v]
    lines = [f"{u + off} {v + off} 1.0\n" for off in (0, n) for u, v in edges]
    return "".join(lines) + f"0 {n} {bridge!r}\n", half


@pytest.fixture(scope="module")
def bridged_er(tmp_path_factory):
    text, half = _bridged_er_text(1e-9)
    path = tmp_path_factory.mktemp("bridged") / "bridged.txt"
    path.write_text(text)
    return str(path), half


def test_bench_refuses_a_truth_float64_cannot_resolve(runner, bridged_er):
    # across the 1e-9 bridge the old truth of pair 5-1106 settled 2.1e-4
    # off the series closed form r_A(5, 0) + 1e9 + r_A(0, 7)
    path, half = bridged_er
    result = runner.invoke(cli, ["bench", path, "--weighted", "--methods", "lz",
                                 "--k-grid", "20", "--pairs", "10", "--seed", "0"])
    assert result.exit_code == EXIT_NUMERICAL, result.output
    assert result.stdout == ""
    g = load_edge_list(path, weighted=True)
    n = half.node_count
    cross = [(g.old_ids[s], g.old_ids[t])
             for s, t in cli_mod.build_query_set(g, 10, "uniform-random", 0, False)
             if (g.old_ids[s] < n) != (g.old_ids[t] < n)]
    assert f"pair {cross[0][0]}-{cross[0][1]}" in result.stderr
    assert "q = " in result.stderr and "last estimates" in result.stderr


def test_lanczos_truth_on_one_side_of_a_weak_bridge(bridged_er):
    path, half = bridged_er
    g, n = load_edge_list(path, weighted=True), half.node_count
    for a, b in [(5, 7), (12, 1000), (n + 3, n + 9)]:
        s, t = (int(np.searchsorted(g.old_ids, x)) for x in (a, b))
        assert cli_mod._lanczos_truth(g, s, t) == pytest.approx(
            exact_rd(half, a % n, b % n), abs=1e-12)


def test_bench_reads_a_path_with_one_heavy_edge(runner, tmp_path):
    # the dense truth refused it: the heavy edge set L's scale
    path = tmp_path / "heavy.txt"
    path.write_text("".join(f"{i} {i + 1} {1e9 if i == 4 else 1.0!r}\n" for i in range(9)))
    result = runner.invoke(cli, ["bench", str(path), "--weighted", "--methods", "lz",
                                 "--k-grid", "20", "--pairs", "5"])
    assert result.exit_code == 0, result.output
    assert all(r["abs_err"] <= 1e-12 * 8 for r in _bench_rows(result.stdout))


def test_bench_has_no_gt_cap_option(runner, toy_file):
    result = runner.invoke(cli, _bench_args(toy_file, ["--gt-cap", "0"]))
    assert result.exit_code == EXIT_USAGE, result.output
    assert "--gt-cap" in result.output


def test_bench_rows_are_sorted(runner, toy_file):
    result = runner.invoke(cli, _bench_args(toy_file))
    rows = _bench_rows(result.stdout)

    def numeric_params(param):
        return tuple(float(p.split("=")[1]) for p in param.split(";"))

    def pair_tuple(pair):
        a, b = pair.split("-")
        return int(a), int(b)

    keys = [
        (r["method"], numeric_params(r["param"]), pair_tuple(r["pair"])) for r in rows
    ]
    assert keys == sorted(keys)


def test_bench_rw_method_and_grids(runner, toy_file):
    result = runner.invoke(
        cli, _bench_args(toy_file, ["--methods", "rw", "--nr-grid", "100,200"])
    )
    assert result.exit_code == 0, result.output
    rows = _bench_rows(result.stdout)
    # 3 pairs x 2 ls x 2 nrs
    assert len(rows) == 12
    assert all(r["method"] == "rw" for r in rows)


def test_bench_cross_policy_pair_count(runner, toy_file):
    result = runner.invoke(
        cli,
        _bench_args(toy_file, ["--policy", "top-degree", "--cross",
                               "--methods", "lz"]),
    )
    assert result.exit_code == 0, result.output
    rows = _bench_rows(result.stdout)
    pairs = {r["pair"] for r in rows}
    assert len(rows) == len(pairs)
    # top half {1, 2} crossed with next half {3, 4} on the toy graph
    assert pairs == {"1-3", "1-4", "2-3", "2-4"}


def test_bench_out_file(runner, toy_file, tmp_path):
    out = tmp_path / "bench.csv"
    result = runner.invoke(
        cli, _bench_args(toy_file, ["--methods", "lz", "--out", str(out)])
    )
    assert result.exit_code == 0
    rows = _bench_rows(out.read_text())
    assert len(rows) == 3


def test_bench_parallel_matches_serial(runner, toy_file):
    serial = runner.invoke(cli, _bench_args(toy_file, ["--methods", "pm,lz"]))
    parallel = runner.invoke(
        cli, _bench_args(toy_file, ["--methods", "pm,lz", "--jobs", "2"])
    )
    assert serial.exit_code == 0 and parallel.exit_code == 0
    srows = _bench_rows(serial.stdout)
    prows = _bench_rows(parallel.stdout)
    assert [(r["method"], r["param"], r["pair"], r["abs_err"], r["touched_edges"])
            for r in srows] == \
           [(r["method"], r["param"], r["pair"], r["abs_err"], r["touched_edges"])
            for r in prows]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_rejects_a_job_count_below_one(runner, toy_file, jobs):
    # both ran serially and exited 0
    result = runner.invoke(cli, _bench_args(toy_file, ["--methods", "lz", "--jobs", jobs]))
    assert result.exit_code == 2, result.output
    assert "--jobs" in result.output


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


def test_bench_budget_ignores_a_slow_load(runner, toy_file, monkeypatch):
    # the load is paid once: 0.5 s of it times 3 pairs would project 1.5 s
    real_load = cli_mod._load_graph

    def slow_load(path, weighted):
        time.sleep(0.5)
        return real_load(path, weighted)

    monkeypatch.setattr(cli_mod, "_load_graph", slow_load)
    result = runner.invoke(cli, _bench_args(toy_file, ["--budget", "1.25"]))
    assert result.exit_code == 0, result.output


def test_bench_budget_aborts_on_a_slow_ground_truth(runner, toy_file, monkeypatch):
    # 0.3 s per pair projects at least 0.9 s for the 3 pairs
    def slow_truth(g, s, t):
        time.sleep(0.3)
        return 1.0

    monkeypatch.setattr(cli_mod, "_lanczos_truth", slow_truth)
    result = runner.invoke(cli, _bench_args(toy_file, ["--budget", "0.5"]))
    assert result.exit_code == EXIT_USAGE, result.output
    assert "projected ground-truth time" in result.output


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
