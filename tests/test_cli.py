import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from posikit import (
    CanonicalDesign,
    InfeasibleError,
    ModelUniverse,
    canonicalize,
    direction_stream,
    enumerate_models,
    load_design,
    orthogonality_census,
    scheffe_constant,
)
from posikit import cli
from posikit.cli import _warn_large_stream, run

BASE_KEYS = {"K", "alpha", "df", "mc_samples", "mc_standard_error", "seed",
             "d", "p", "direction_count", "universe", "tool_version"}


@pytest.fixture()
def files(tmp_path):
    rng = np.random.default_rng(0)
    paths = {}
    paths["identity4"] = tmp_path / "I4.csv"
    np.savetxt(paths["identity4"], np.eye(4), delimiter=",")
    X = rng.standard_normal((12, 3))
    paths["generic3"] = tmp_path / "g3.csv"
    np.savetxt(paths["generic3"], X, delimiter=",")
    y = X @ np.array([1.0, 0.4, 0.0]) + rng.standard_normal(12)
    paths["response"] = tmp_path / "y.txt"
    np.savetxt(paths["response"], y)
    paths["mu"] = tmp_path / "mu.txt"
    np.savetxt(paths["mu"], X @ np.array([1.0, 0.4, 0.0]))
    paths["rankdef"] = tmp_path / "rd.csv"
    np.savetxt(paths["rankdef"], np.hstack([X[:, :2], X[:, :1] + X[:, 1:2]]),
               delimiter=",")
    paths["ragged"] = tmp_path / "ragged.csv"
    paths["ragged"].write_text("1,2,3\n4,5\n")
    return {k: str(v) for k, v in paths.items()}


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_k_command_payload(files, capsys):
    payload = run_json(capsys, [
        "k", "--design", files["identity4"], "--mc-samples", "20000",
        "--seed", "1",
    ])
    assert BASE_KEYS <= payload.keys()
    assert payload["d"] == 4 and payload["p"] == 4
    assert payload["direction_count"] == 32
    assert payload["universe"] == "all"
    assert payload["df"] == "inf"
    assert abs(payload["K"] - 2.49) < 0.1


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_k_rejects_a_bad_rank_tolerance(files, capsys, tolerance):
    # Exit 1 (bad argument), not 3: a NaN tolerance used to reach the fold
    # and fail there with "direction set is empty".
    code = run(["k", "--design", files["generic3"], "--rank-tolerance", tolerance,
                "--mc-samples", "1000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(
        "error: rank_tolerance must be nonnegative and finite, got ")


@pytest.mark.parametrize("design, model, code, message", [
    ("generic3", "1,7", 1, "error: model ModelId({1, 7}) references columns beyond p=3\n"),
    ("rankdef", "1,2,3", 3,
     "infeasible request: submodel ModelId({1, 2, 3}) has more columns than d=2\n"),
])
def test_intervals_checks_the_model_before_k(files, capsys, monkeypatch, design, model,
                                             code, message):
    def no_constant(*args, **kwargs):
        raise AssertionError("K computed for a model the design cannot fit")

    monkeypatch.setattr(cli, "posi_constant", no_constant)
    assert run(["intervals", "--design", files[design], "--response",
                files["response"], "--model", model, "--sigma-hat", "1.0",
                "--mc-samples", "1000"]) == code
    assert capsys.readouterr().err == message


def test_k_threads_byte_identical(files, capsys):
    commands = (
        ["k", "--design", files["generic3"], "--mc-samples", "20000"],
        ["k1", "--design", files["generic3"], "--predictor", "2",
         "--mc-samples", "20000"],
        ["coverage", "--design", files["generic3"], "--k-source", "posi",
         "--mc-samples", "5000", "--replications", "50", "--df", "9"],
    )
    for argv in commands:
        outputs = []
        for threads in ("1", "3", "7", "auto"):
            code = run(argv + ["--seed", "9", "--threads", threads])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3], argv[0]


def test_k1_command(files, capsys):
    payload = run_json(capsys, [
        "k1", "--design", files["generic3"], "--predictor", "2",
        "--mc-samples", "20000",
    ])
    assert payload["predictor"] == 2
    assert payload["direction_count"] == 4  # 2^(p-1) models containing j


def test_scheffe_command(capsys):
    payload = run_json(capsys, ["scheffe", "--d", "2", "--alpha", "0.05"])
    assert payload["K"] == pytest.approx(2.4477, abs=5e-5)


def test_orth_command(capsys):
    payload = run_json(capsys, ["orth", "--d", "2"])
    assert payload["K"] == pytest.approx(2.2365, abs=5e-5)


def test_bound_command(capsys):
    payload = run_json(capsys, ["bound", "--direction-count", "5120", "--d", "10"])
    assert payload["K"] > 3.0
    assert payload["asymptotic_rate_constant"] == pytest.approx(
        math.sqrt(1 - 5120 ** (-2 / 10)), abs=1e-9
    )


def test_bound_on_an_empty_direction_set_is_infeasible(files, capsys):
    # No model of at least 7 columns among 3: exit 3, as k does. It exited 1
    # with "direction_count must be >= 1".
    universe = ["--design", files["generic3"], "--universe", "size>=7"]
    assert run(["bound", *universe]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "infeasible request: direction set is empty\n")
    assert run(["k", "--mc-samples", "100", *universe]) == 3
    # A count given by the user is still validated as an argument.
    assert run(["bound", "--direction-count", "0", "--d", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: direction_count must be >= 1" in captured.err


@pytest.mark.parametrize("spec", ["size<=p-", "size<=x", "size>=", "size<p-x", "size>1.5",
                                  "size<=p+1"])
def test_a_bad_size_bound_is_named(files, capsys, spec):
    # These exited 1 with int()'s "invalid literal for int() with base 10",
    # and p+1 with "unrecognized size bound"; one message now names them all.
    assert run(["bound", "--design", files["generic3"], "--universe", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    bound = spec.lstrip("size<>=")
    assert captured.err == (
        f"error: size bound must be an integer, p or p-K, got {bound!r}\n")


def test_bound_falls_back_to_scheffe_beyond_the_cap_bracket(capsys):
    # A million directions at d = 2 need a cap beyond the bracket's upper end;
    # this exited 1 with scipy's "f(a) and f(b) must have different signs".
    payload = run_json(capsys, ["bound", "--direction-count", "1000000", "--d", "2"])
    assert payload["K"] == scheffe_constant(0.05, 2).k
    assert math.isfinite(payload["K"]) and payload["direction_count"] == 1_000_000


def test_intervals_command(files, capsys):
    payload = run_json(capsys, [
        "intervals", "--design", files["generic3"], "--response",
        files["response"], "--sigma-hat", "1.0", "--model", "1,2",
        "--mc-samples", "10000", "--mu", files["mu"],
    ])
    assert payload["model"] == [1, 2]
    assert len(payload["intervals"]) == 2
    for row in payload["intervals"]:
        assert row["lower"] <= row["estimate"] <= row["upper"]
        assert row["covers_target"] in (True, False)


def test_spar_command(files, capsys):
    payload = run_json(capsys, [
        "spar", "--design", files["generic3"], "--response", files["response"],
        "--sigma-hat", "1.0",
    ])
    assert payload["selected_model"]
    assert payload["max_abs_t"] > 0


def test_coverage_command(files, capsys):
    payload = run_json(capsys, [
        "coverage", "--design", files["generic3"], "--replications", "400",
        "--mc-samples", "20000", "--selector", "spar", "--seed", "2",
    ])
    assert payload["replications"] == 400
    assert 0.85 <= payload["coverage"] <= 1.0


SELECTION_STDOUT = {
    "spar": '{"K": null, "alpha": null, "d": 8, "df": null, "direction_count": null, '
            '"max_abs_t": 5.476314279670935, "mc_samples": null, "mc_standard_error": null, '
            '"p": 8, "predictor": null, "seed": null, "selected_model": [1, 2, 7], '
            '"sigma_hat": 1.0, "tool_version": "0.1.0", "universe": "all"}',
    "spar --predictor 2": '{"K": null, "alpha": null, "d": 8, "df": null, '
            '"direction_count": null, "max_abs_t": 2.412379820899366, "mc_samples": null, '
            '"mc_standard_error": null, "p": 8, "predictor": 2, "seed": null, '
            '"selected_model": [1, 2, 3, 4, 7, 8], "sigma_hat": 1.0, '
            '"tool_version": "0.1.0", "universe": "all"}',
    "coverage --selector spar": '{"K": 3.2050631968544656, "alpha": 0.05, '
            '"binomial_se": 0.013856406460551024, "coverage": 0.96, "d": 8, "df": "inf", '
            '"direction_count": 1024, "k_source": "posi", "mc_samples": 2000, '
            '"mc_standard_error": 0.03332770402148339, "p": 8, "replications": 200, '
            '"seed": 5, "selector": "spar", "tool_version": "0.1.0", "universe": "all"}',
    "coverage --selector spar1:2": '{"K": 3.2050631968544656, "alpha": 0.05, '
            '"binomial_se": 0.008595056718835545, "coverage": 0.985, "d": 8, "df": "inf", '
            '"direction_count": 1024, "k_source": "posi", "mc_samples": 2000, '
            '"mc_standard_error": 0.03332770402148339, "p": 8, "replications": 200, '
            '"seed": 5, "selector": "spar1:2", "tool_version": "0.1.0", "universe": "all"}',
}


@pytest.mark.parametrize("command", SELECTION_STDOUT)
def test_selection_stdout_is_pinned(tmp_path, capsys, command):
    # A seeded 20 x 8 design, 1 024 directions.
    rng = np.random.default_rng(23)
    X = rng.standard_normal((20, 8))
    y = X @ np.array([0.8, 0.0, -0.5, 0.0, 0.3, 0.0, 0.0, 0.2]) + rng.standard_normal(20)
    np.savetxt(tmp_path / "X.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.txt", y)
    argv = command.split() + ["--design", str(tmp_path / "X.csv")]
    if argv[0] == "spar":
        argv += ["--response", str(tmp_path / "y.txt"), "--sigma-hat", "1.0"]
    else:
        argv += ["--k-source", "posi", "--mc-samples", "2000", "--replications", "200",
                 "--seed", "5"]
    assert run(argv) == 0
    assert capsys.readouterr().out == SELECTION_STDOUT[command] + "\n"


def test_analyze_command(files, capsys):
    payload = run_json(capsys, ["analyze", "--design", files["generic3"]])
    assert payload["direction_count"] == 12
    assert payload["distinct_directions"] == 12
    assert payload["duality"]["matched_pairs"] == 12
    assert payload["duality"]["max_norm_product_error"] < 1e-8


def test_family_exchangeable_command(capsys):
    payload = run_json(capsys, [
        "family", "exchangeable", "--p-list", "3", "--a-grid", "0,1",
        "--mc-samples", "4000",
    ])
    assert payload["family"] == "exchangeable"
    assert len(payload["rows"]) == 1
    assert 1.0 < payload["rows"][0]["ratio"] < 2.0


def test_family_worst_posi1_command(capsys):
    payload = run_json(capsys, [
        "family", "worst-posi1", "--p", "40", "--mc-samples", "2000",
    ])
    assert payload["family"] == "worst-posi1"
    assert payload["sup_ratio"] > 0.3


@pytest.mark.parametrize("argv, message", [
    (["family", "worst-posi1", "--p", "10", "--c-grid", "0.5"],
     "error: need c^2 < 1/(p-1) = 0.111111 for full rank"),
    (["family", "worst-posi1", "--p", "10", "--c-grid", "0.1,-0.34"],
     "error: need c^2 < 1/(p-1) = 0.111111 for full rank"),
    (["family", "worst-posi1", "--p", "1"], "error: p must be >= 2"),
    (["family", "exchangeable", "--p-list", "1"], "error: p must be >= 2"),
    (["family", "exchangeable", "--p-list", "0"], "error: p must be >= 2"),
    (["family", "exchangeable", "--p-list", "5,1", "--a-grid", "0"],
     "error: p must be >= 2"),
])
def test_family_rejects_bad_p_or_c(argv, message, capsys):
    # Checked before any draw: one error line on stderr, exit 1, no
    # RuntimeWarning from a negative square root and no traceback.
    assert run(argv + ["--mc-samples", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


@pytest.mark.parametrize("alpha", ["0", "1", "1.5"])
def test_worst_posi1_family_validates_alpha(alpha, capsys):
    # At alpha = 1 the table printed the largest draw as K1, with exit 0;
    # at 1.5 it failed with a bare "math domain error".
    from posikit.families import worst_posi1_table

    code = run(["family", "worst-posi1", "--p", "20", "--mc-samples", "100",
                "--alpha", alpha])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: alpha must lie in (0, 1), got {float(alpha)}\n"
    with pytest.raises(ValueError, match="^alpha must lie in"):
        worst_posi1_table(20, alpha=float(alpha), n_samples=100)


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 1)])
def test_seeds_outside_64_bits_exit_1(files, seed, capsys):
    # Under a 64-bit mask, -1 printed the K of 2**64 - 1 and 2**64 that of 0.
    for argv in (["k", "--design", files["generic3"]],
                 ["k1", "--design", files["generic3"], "--predictor", "2"],
                 ["coverage", "--design", files["generic3"], "--k-source", "naive",
                  "--replications", "20"],
                 ["family", "worst-posi1", "--p", "10"]):
        assert run(argv + ["--mc-samples", "100", "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed must be in 0..2**64-1, got {seed}\n"


def test_seeds_at_both_ends_of_64_bits(files, capsys):
    argv = ["k", "--design", files["generic3"], "--mc-samples", "100", "--seed"]
    low = run_json(capsys, argv + ["0"])
    high = run_json(capsys, argv + [str(2**64 - 1)])
    assert (low["seed"], high["seed"]) == (0, 2**64 - 1)
    assert low["K"] != high["K"]


@pytest.mark.parametrize("n", ["0", "-5"])
def test_k_rejects_draw_counts_below_one(files, n, capsys):
    assert run(["k", "--design", files["generic3"], "--mc-samples", n]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_samples must be >= 1\n"


SPAR = ["spar", "--response", "{response}", "--sigma-hat", "1", "--predictor"]
COVERAGE = ["coverage", "--replications", "20", "--mc-samples", "100", "--selector"]


@pytest.mark.parametrize("argv, message", [
    (SPAR + ["4"], "error: predictor 4 out of range 1..3"),
    (SPAR + ["0"], "error: predictor 0 out of range 1..3"),
    (COVERAGE + ["spar1:4", "--k-source", "naive"], "error: predictor 4 out of range 1..3"),
    (COVERAGE + ["spar1:x", "--k-source", "naive"], "error: unknown --selector 'spar1:x'"),
    (COVERAGE + ["spar1:"], "error: unknown --selector 'spar1:'"),
    (COVERAGE + ["spar2"], "error: unknown --selector 'spar2'"),
    (COVERAGE + ["spar1:0", "--k-source", "naive"], "error: predictor 0 out of range 1..3"),
    (["k1", "--predictor", "0"], "error: predictor 0 out of range 1..3"),
])
def test_spar1_rejects_a_bad_predictor_or_selector(files, argv, message, capsys):
    # A usage error (exit 1), not an infeasible request over no directions.
    argv = [a.format(response=files["response"]) for a in argv]
    assert run(argv + ["--design", files["generic3"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_coverage_checks_the_spar1_predictor_before_k(files, capsys, monkeypatch):
    # An out-of-range predictor is a usage error before any Monte Carlo K.
    def no_constant(*args, **kwargs):
        raise AssertionError("K computed before the selector was checked")

    monkeypatch.setattr(cli, "posi_constant", no_constant)
    argv = COVERAGE + ["spar1:4", "--design", files["generic3"]]
    assert run(argv + ["--mc-samples", "100000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: predictor 4 out of range 1..3\n"


def test_coverage_spar_posi_walks_its_universe_once(files, capsys, monkeypatch):
    # K, the spar selector and the refits read one held walk of the
    # universe: no walk of the selected models' explicit universe.
    # Output is that of the constant and the experiment run apart.
    import posikit.lattice
    from posikit import ErrorModel, coverage_experiment, posi_constant

    walks = []
    walker = posikit.lattice._walk_factors

    def counting(*args, **kwargs):
        walks.append(args[1])
        yield from walker(*args, **kwargs)

    monkeypatch.setattr(posikit.lattice, "_walk_factors", counting)
    design = canonicalize(load_design(files["generic3"]))
    em = ErrorModel(9)
    for universe in ("all", "size<=2"):
        walks.clear()
        payload = run_json(capsys, [
            "coverage", "--design", files["generic3"], "--universe", universe,
            "--mc-samples", "5000", "--replications", "300", "--seed", "4",
            "--df", "9"])
        u = ModelUniverse.from_spec(universe, p=design.p)
        assert walks == [u]
        walks.clear()
        est = posi_constant(design, u, error_model=em, n_samples=5000, seed=4)
        result = coverage_experiment(design, u, "spar", 0.05, em, est, 300, seed=4)
        assert walks == [u, u]  # the constant's and the selector's; no refit walk
        assert (payload["K"], payload["mc_standard_error"]) == (
            est.k, est.mc_standard_error)
        assert payload["direction_count"] == est.direction_count
        assert payload["coverage"] == result.coverage


def test_universe_spec_round_trip_through_cli(files, capsys):
    payload = run_json(capsys, [
        "k", "--design", files["identity4"], "--universe", "size<=2&forced=1",
        "--mc-samples", "5000",
    ])
    echoed = payload["universe"]
    design = canonicalize(load_design(files["identity4"]))
    original = ModelUniverse.from_spec("size<=2&forced=1", p=4)
    reparsed = ModelUniverse.from_spec(echoed, p=4)
    assert list(enumerate_models(design, reparsed)) == list(
        enumerate_models(design, original)
    )


def test_exit_code_usage(capsys):
    # run returns the code of a usage error, from the parser or a handler.
    assert run(["k", "--design"]) == 1
    assert run(["k"]) == 1
    assert "error: this command requires --design" in capsys.readouterr().err
    # Help and the version still exit 0.
    for argv in (["--help"], ["--version"], ["k", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0


def test_analyze_walks_its_universe_once(files, tmp_path, capsys, monkeypatch):
    import posikit.lattice

    # A duplicated column: degenerate skips and duplicate directions, d < p.
    X = np.loadtxt(files["generic3"], delimiter=",")
    duplicated = tmp_path / "dup.csv"
    np.savetxt(duplicated, np.hstack([X, X[:, :1]]), delimiter=",")
    walks = []
    walker = posikit.lattice._level_batches

    def counting(*args, **kwargs):
        walks.append(args[0].p)
        yield from walker(*args, **kwargs)

    monkeypatch.setattr(posikit.lattice, "_level_batches", counting)
    for path, universe, expected_walks in [
        (str(duplicated), "all", 1),
        (str(duplicated), "size<=2", 1),
        (files["identity4"], "all", 3),  # the universe, then duality's two
    ]:
        walks.clear()
        payload = run_json(capsys, ["analyze", "--design", path, "--universe", universe])
        assert len(walks) == expected_walks
        design = canonicalize(load_design(path))
        u = ModelUniverse.from_spec(universe, p=design.p)
        streamed = direction_stream(design, u)
        assert payload["direction_count"] == streamed.count
        assert payload["degenerate_skips"] == streamed.degenerate_skips
        assert payload["distinct_directions"] == direction_stream(
            design, u, dedup="up_to_sign").count
        census = orthogonality_census(direction_stream(design, u))
        assert payload["orthogonality_histogram"] == {
            str(k): v for k, v in census.histogram.items()}
    assert payload["direction_count"] == 32 and payload["distinct_directions"] == 4
    dup = run_json(capsys, ["analyze", "--design", str(duplicated)])
    assert dup["degenerate_skips"] > 0
    assert dup["distinct_directions"] < dup["direction_count"]
    assert dup["duality"] is None


def test_run_builds_its_parser_once(files, capsys, monkeypatch):
    builds = []
    builder = cli.build_parser

    def counting():
        builds.append(1)
        return builder()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        k = ["k", "--design", files["generic3"], "--mc-samples", "2000", "--seed", "3"]
        spar = ["spar", "--design", files["generic3"], "--response", files["response"],
                "--sigma-hat", "1"]
        calls = [k + ["--df", "20"], k, spar + ["--predictor", "2"], spar,
                 ["k", "--design"], k + ["--df", "20"], spar, ["scheffe", "--d", "3"],
                 spar + ["--predictor", "1"], k]
        for argv in calls:
            code = run(argv)
            reused = capsys.readouterr()
            # The same call parsed by a parser of its own, which exits 1 on a
            # usage error; its handler's payload is written as run writes it.
            try:
                args = builder().parse_args(argv)
                cli._emit(args.handler(args), args.output)
                fresh_code = 0
            except SystemExit as exc:
                fresh_code = exc.code
            fresh = capsys.readouterr()
            assert (code, reused.out, reused.err) == (fresh_code, fresh.out, fresh.err)
            assert code == (1 if argv == ["k", "--design"] else 0)
        assert len(builds) == 1
    finally:
        cli._parser.cache_clear()


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_python_m_posikit():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-m", "posikit", "scheffe", "--d", "3"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["d"] == 3
    assert payload["K"] == scheffe_constant(0.05, 3).k
    usage = subprocess.run([sys.executable, "-m", "posikit", "scheffe", "--alpha"],
                           capture_output=True, text=True, env=env, timeout=120)
    assert usage.returncode == 1
    assert usage.stdout == "" and "usage: posikit scheffe" in usage.stderr
    # A handler's usage error exits 1 too, and the version exits 0.
    for argv, code in ((["k"], 1), (["--version"], 0)):
        out = subprocess.run([sys.executable, "-m", "posikit", *argv],
                             capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == code, out.stderr


def test_exit_code_data_error(files, capsys):
    assert run(["k", "--design", files["ragged"]]) == 2
    assert run(["k", "--design", "does-not-exist.csv"]) == 2


def test_exit_code_infeasible(files, capsys):
    code = run(["analyze", "--design", files["rankdef"], "--form", "symmetric"])
    assert code == 3


def test_csv_output(files, capsys):
    code = run(["scheffe", "--d", "3", "--output", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert "K" in header


def test_text_output(files, capsys):
    code = run(["orth", "--d", "3", "--output", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "K:" in out


# Each table command, the name of its rows in the payload and its columns:
# the fields of its result dataclass, in declaration order.
TABLES = {
    "intervals": (["intervals", "--design", "@generic3", "--response", "@response",
                   "--sigma-hat", "1", "--model", "1,3", "--mu", "@mu",
                   "--mc-samples", "1000"], "intervals",
                  ["predictor", "name", "estimate", "lower", "upper", "t_observed",
                   "K_used", "covers_target"]),
    "worst-posi1": (["family", "worst-posi1", "--p", "6", "--c-grid", "0.1,0.2",
                     "--mc-samples", "500"], "rows",
                    ["p", "c", "K1", "mc_standard_error", "ratio"]),
    "exchangeable": (["family", "exchangeable", "--p-list", "3,4", "--a-grid", "0,0.5",
                      "--mc-samples", "500"], "rows",
                     ["p", "best_a", "K", "mc_standard_error", "ratio"]),
}


@pytest.mark.parametrize("table", sorted(TABLES))
def test_tables_in_csv_and_text(files, capsys, table):
    argv, key, columns = TABLES[table]
    argv = [files[token[1:]] if token.startswith("@") else token for token in argv]
    rows = run_json(capsys, argv)[key]
    first = {column: rows[0][column] for column in columns}
    assert run(argv + ["--output", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(columns)
    assert len(lines) == len(rows) + 1
    assert lines[1] == ",".join("" if v is None else str(v) for v in first.values())
    assert run(argv + ["--output", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[lines.index(f"{key}:") + 1] == f"  {first}"


@pytest.mark.parametrize("command", ["orth", "scheffe"])
@pytest.mark.parametrize("d", ["0", "-2"])
def test_closed_forms_reject_d_below_one(capsys, command, d):
    assert run([command, "--d", d]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "d must be >= 1" in captured.err


@pytest.mark.parametrize("sigma_hat", ["-1", "0", "nan"])
@pytest.mark.parametrize("predictor", [[], ["--predictor", "2"]],
                         ids=["spar", "spar1"])
def test_spar_rejects_nonpositive_sigma_hat(files, capsys, sigma_hat, predictor):
    code = run(["spar", "--design", files["generic3"], "--response",
                files["response"], "--sigma-hat", sigma_hat] + predictor)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "sigma_hat must be positive" in captured.err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_response_or_mean_is_a_data_error(files, capsys, tmp_path, bad):
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(["0.5"] * 11 + [bad]) + "\n")
    common = ["--design", files["generic3"], "--sigma-hat", "1.0"]
    assert run(["spar", "--response", str(path)] + common) == 2
    intervals = ["intervals", "--model", "1,2", "--mc-samples", "1000"] + common
    assert run(intervals + ["--response", str(path)]) == 2
    assert run(intervals + ["--response", files["response"], "--mu", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("non-finite") == 3


def test_response_and_design_accept_a_utf8_byte_order_mark(files, capsys, tmp_path):
    # Spreadsheet "CSV UTF-8" exports start with a BOM; the output is that
    # of the same files without one.
    outputs = []
    for bom in (False, True):
        paths = []
        for name in ("generic3", "response"):
            text = open(files[name]).read()
            path = tmp_path / f"{name}-{bom}.txt"
            path.write_bytes(text.encode("utf-8-sig" if bom else "utf-8"))
            paths.append(str(path))
        assert run(["spar", "--design", paths[0], "--response", paths[1],
                    "--sigma-hat", "1.0"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_bad_model_list_is_a_data_error_naming_file_and_line(files, capsys, tmp_path):
    path = tmp_path / "m.txt"
    for lines, line in (("1,2\n3,9\n", 2), ("1,x\n", 1), ("1\n0,2\n", 2)):
        path.write_text(lines)
        assert run(["k", "--design", files["generic3"], "--universe", f"file={path}",
                    "--mc-samples", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"model list {str(path)!r}, line {line}: members must be integers in 1..3" \
            in captured.err


# (member list, accepted) at p = 3; a member list means the same thing in
# every channel that takes one.
MEMBER_LISTS = [("1,,2", True), (" 2 , 1 ", True), ("0", False), ("-1", False),
                ("4", False), ("1.5", False), ("a", False)]


@pytest.mark.parametrize("members, accepted", MEMBER_LISTS)
@pytest.mark.parametrize("channel", ["model", "forced", "models", "file"])
def test_member_lists_get_one_verdict_in_every_channel(files, capsys, tmp_path,
                                                       channel, members, accepted):
    if channel == "model":
        argv = ["intervals", "--response", files["response"], "--sigma-hat", "1.0",
                "--k-source", "scheffe", "--model", members]
    elif channel == "file":
        path = tmp_path / "models.txt"
        path.write_text(f"1\n{members}\n")
        argv = ["bound", "--universe", f"file={path}"]
    else:
        argv = ["bound", "--universe", f"{channel}={members}"]
    code = run(argv + ["--design", files["generic3"]])
    captured = capsys.readouterr()
    # A bad file line is a data error (exit 2); a bad argument or spec term
    # is a usage error (exit 1).
    assert code == (0 if accepted else 2 if channel == "file" else 1), captured.err
    assert (captured.out != "") == accepted
    if not accepted:
        assert "Traceback" not in captured.err
        assert ("members must be integers" in captured.err
                or "references columns beyond p=3" in captured.err)


@pytest.mark.parametrize("flag, value", [("--p-list", "5,x"), ("--a-grid", "0,,one"),
                                         ("--c-grid", "0.1;0.2")])
def test_family_lists_name_the_flag_of_a_bad_cell(capsys, flag, value):
    command = "worst-posi1" if flag == "--c-grid" else "exchangeable"
    assert run(["family", command, flag, value, "--mc-samples", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    kind = "int" if flag == "--p-list" else "float"
    assert f"error: argument {flag}: invalid {kind} list value: {value!r}" in captured.err


def test_family_lists_split_like_text_lines(capsys):
    # Cells are split on commas and whitespace, as in every text input.
    outputs = []
    for a_grid in ("0,1", " 0 1 ", "0,,1"):
        outputs.append(run_json(capsys, ["family", "exchangeable", "--p-list", "3",
                                         "--a-grid", a_grid, "--mc-samples", "500"]))
    assert outputs[0] == outputs[1] == outputs[2]


def run_quietly(capsys, argv) -> tuple[int, str, str]:
    """Run argv; fail if it raises a RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command, sigma_hat, message", [
    ("intervals", "inf", "sigma_hat must be positive and finite, got inf"),
    ("spar", "inf", "sigma_hat must be positive and finite, got inf"),
    ("spar", "1e-320", "sigma_hat 1e-320 is too small for the response"),
], ids=["intervals-inf", "spar-inf", "spar-subnormal"])
def test_sigma_hat_must_be_finite_and_usable(files, capsys, command, sigma_hat, message):
    # All three exited 0: intervals printed infinite bounds, spar a max_abs_t
    # of 0.0, and the subnormal one Infinity after an overflow warning.
    argv = [command, "--design", files["generic3"], "--response", files["response"],
            "--sigma-hat", sigma_hat]
    if command == "intervals":
        argv += ["--model", "1,2", "--mc-samples", "1000"]
    code, out, err = run_quietly(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: " + message)


def test_coverage_naive_validates_alpha(files, capsys):
    # The naive K is a normal quantile of 1 - alpha/2; at alpha = -0.5 it was
    # NaN, printed with exit 0.
    for k_source in ("naive", "scheffe", "posi"):
        code, out, err = run_quietly(capsys, [
            "coverage", "--design", files["generic3"], "--k-source", k_source,
            "--alpha", "-0.5", "--mc-samples", "1000", "--replications", "10"])
        assert (code, out, err) == (1, "", "error: alpha must lie in (0, 1), got -0.5\n")


@pytest.mark.parametrize("alpha, df", [("1e-17", "inf"), ("5e-324", "5")])
def test_coverage_naive_refuses_an_infinite_k(files, capsys, monkeypatch, alpha, df):
    # The normal or t quantile of 1 - alpha/2 is +inf: every replication ran,
    # and then the command exited 1 with json's "Out of range float values
    # are not JSON compliant".
    import posikit.inference

    def no_experiment(*args, **kwargs):
        raise AssertionError("replicated with an infinite K")

    monkeypatch.setattr(posikit.inference, "coverage_experiment", no_experiment)
    code, out, err = run_quietly(capsys, [
        "coverage", "--design", files["generic3"], "--k-source", "naive",
        "--alpha", alpha, "--df", df, "--replications", "50"])
    assert (code, out) == (1, "")
    assert err == f"error: K is infinite at alpha={float(alpha)}; use a larger alpha\n"


def test_exchangeable_family_needs_a_finite_a(capsys):
    # a = inf used to reach the draws and end in "direction set is empty"
    # (exit 3) after three RuntimeWarnings.
    code, out, err = run_quietly(capsys, ["family", "exchangeable", "--p-list", "3",
                                          "--a-grid", "0,inf", "--mc-samples", "100"])
    assert (code, out) == (1, "")
    assert err == "error: a must be finite and exceed -1/p = -0.333333 for positive " \
        "definiteness\n"


def test_json_output_refuses_non_finite_numbers(capsys, monkeypatch):
    # NaN and Infinity are not JSON (RFC 8259); json.dumps writes them unless
    # told not to.
    monkeypatch.setattr(cli, "_payload_from_estimate",
                        lambda est, design=None: {"K": math.nan})
    assert run(["scheffe", "--d", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Out of range float values are not JSON")


def test_intervals_checks_the_universe_before_k(files, capsys, monkeypatch):
    def no_constant(*args, **kwargs):
        raise AssertionError("K computed for a model outside the universe")

    monkeypatch.setattr(cli, "posi_constant", no_constant)
    assert run(["intervals", "--design", files["generic3"], "--response",
                files["response"], "--universe", "nested", "--model", "2,3",
                "--sigma-hat", "1.0", "--mc-samples", "1000"]) == 3
    assert capsys.readouterr().err == (
        "infeasible request: constant was not computed for a universe containing "
        "ModelId({2, 3}); the simultaneous guarantee would be void\n")


def test_large_stream_warning_uses_measured_rates(capsys, tmp_path, monkeypatch):
    # 17 columns: 17 * 2^16 pairs, over the 2^20 threshold. Only the nominal
    # count is computed; no walk runs.
    n_samples = 1000
    _warn_large_stream(CanonicalDesign.from_canonical(np.eye(17)),
                       ModelUniverse.all(), n_samples)
    pairs = 17 * 2 ** 16
    walk_s = pairs * cli._WALK_S_PER_DIRECTION
    fold_s = pairs * n_samples * cli._FOLD_S_PER_DIR_DRAW
    err = capsys.readouterr().err
    assert f"about {pairs} directions" in err
    total = walk_s + fold_s
    assert f"~{total:.0f}s (~{walk_s:.0f}s enumeration + ~{fold_s:.0f}s" in err
    _warn_large_stream(CanonicalDesign.from_canonical(np.eye(16)),
                       ModelUniverse.all(), n_samples)
    assert capsys.readouterr().err == ""
    # k1 walks once over the models that contain the predictor, one pair
    # each: 2^(p-1), over the threshold from p = 22 on. The constant itself
    # is stubbed out, so no walk runs.
    def no_constant(*args, **kwargs):
        raise InfeasibleError("stub")

    monkeypatch.setattr(cli, "posi1_constant", no_constant)
    for p in (17, 22):
        design = tmp_path / f"I{p}.csv"
        np.savetxt(design, np.eye(p), delimiter=",")
        assert run(["k1", "--design", str(design), "--predictor", "2",
                    "--mc-samples", str(n_samples)]) == 3
    err = capsys.readouterr().err
    pairs = 2 ** 21
    walk_s = pairs * cli._WALK_S_PER_PREDICTOR_PAIR
    fold_s = pairs * n_samples * cli._FOLD_S_PER_DIR_DRAW
    assert err.count("warning") == 1
    assert f"p=22 with this universe streams about {pairs} directions" in err
    total = walk_s + fold_s
    assert f"~{total:.0f}s (~{walk_s:.0f}s enumeration + ~{fold_s:.0f}s" in err


def test_intervals_and_coverage_warn_on_a_large_stream(capsys, tmp_path, monkeypatch):
    # With --k-source posi both fold over the universe as k does: at p = 17,
    # 17 * 2^16 pairs, over the threshold. The constants are stubbed out, so
    # no walk runs. What they refuse before K is refused before the warning.
    def no_constant(*args, **kwargs):
        raise InfeasibleError("stub")

    monkeypatch.setattr(cli, "posi_constant", no_constant)
    monkeypatch.setattr(cli, "_posi_from", no_constant)
    p, n_samples = 17, 1000
    design, response = tmp_path / "I17.csv", tmp_path / "y.txt"
    np.savetxt(design, np.eye(p), delimiter=",")
    np.savetxt(response, np.ones(p))
    common = ["--design", str(design), "--mc-samples", str(n_samples)]
    intervals = ["intervals", "--response", str(response), "--sigma-hat", "1.0"]
    pairs = p * 2 ** (p - 1)
    walk_s = pairs * cli._WALK_S_PER_DIRECTION
    fold_s = pairs * n_samples * cli._FOLD_S_PER_DIR_DRAW
    for argv in (intervals + ["--model", "1,2"],
                 ["coverage", "--replications", "10"],
                 ["coverage", "--selector", "spar1:2", "--replications", "10"]):
        assert run(argv + common) == 3
        err = capsys.readouterr().err
        assert err.count("warning") == 1
        assert f"p=17 with this universe streams about {pairs} directions; " \
            f"projected time ~{walk_s + fold_s:.0f}s" in err
    for argv in (intervals + ["--model", "1,18"],
                 ["coverage", "--selector", "spar1:18", "--replications", "10"]):
        assert run(argv + common) == 1
        assert "warning" not in capsys.readouterr().err
    assert run(intervals + ["--model", "1,2", "--k-source", "scheffe"] + common) == 0
    assert capsys.readouterr().err == ""


def test_coverage_reports_the_draws_it_made(files, capsys):
    # A closed-form or naive K draws nothing; with --k-source scheffe the
    # report gave --mc-samples (100 000 by default), where intervals gave 0.
    base = ["--design", files["generic3"], "--mc-samples", "1000"]
    for k_source, draws in (("scheffe", 0), ("naive", 0), ("posi", 1000)):
        payload = run_json(capsys, ["coverage", "--k-source", k_source,
                                    "--replications", "10"] + base)
        assert payload["mc_samples"] == draws
    payload = run_json(capsys, ["intervals", "--response", files["response"],
                                "--sigma-hat", "1.0", "--model", "1,2",
                                "--k-source", "scheffe"] + base)
    assert payload["mc_samples"] == 0


@pytest.mark.parametrize("predictor", ["0", "23"])
def test_k1_checks_the_predictor_before_the_cost_warning(capsys, tmp_path, predictor):
    # At p = 22 the predictor's models are 2^21 pairs, over the warning
    # threshold; an out-of-range predictor is refused before any estimate.
    design = tmp_path / "X.csv"
    np.savetxt(design, np.random.default_rng(0).standard_normal((26, 22)), delimiter=",")
    assert run(["k1", "--design", str(design), "--predictor", predictor,
                "--mc-samples", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: predictor {predictor} out of range 1..22\n"


def test_large_stream_warning_counts_the_census(capsys, tmp_path, monkeypatch):
    # analyze's census forms count^2 inner products. A full lattice at
    # p = 13 (53 248 directions) is projected past _CENSUS_WARN_S, p = 12
    # (24 576) is not; the walk-only warning stays silent at both. Only
    # the nominal count is computed; no walk or census runs.
    for p, warns in ((12, False), (13, True)):
        _warn_large_stream(CanonicalDesign.from_canonical(np.eye(p)),
                           ModelUniverse.all(), 0, census=True)
        err = capsys.readouterr().err
        pairs = p * 2 ** (p - 1)
        census_s = pairs * pairs * cli._CENSUS_S_PER_PAIR
        walk_s = pairs * cli._WALK_S_PER_DIRECTION
        assert (census_s > cli._CENSUS_WARN_S) == warns
        if not warns:
            assert err == ""
            continue
        assert f"p={p} with this universe streams about {pairs} directions" in err
        assert (f"projected time ~{walk_s + census_s:.0f}s (~{walk_s:.0f}s "
                f"enumeration + ~0s Monte Carlo + ~{census_s:.0f}s "
                f"orthogonality census)") in err
        _warn_large_stream(CanonicalDesign.from_canonical(np.eye(p)),
                           ModelUniverse.all(), 0)
        assert capsys.readouterr().err == ""

    # The analyze command asks for the census term; its walk is stubbed out.
    def no_walk(*args, **kwargs):
        raise InfeasibleError("stub")

    monkeypatch.setattr(cli, "direction_stream", no_walk)
    design = tmp_path / "I13.csv"
    np.savetxt(design, np.eye(13), delimiter=",")
    assert run(["analyze", "--design", str(design)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "orthogonality census" in captured.err
    assert captured.err.count("warning") == 1


def test_large_stream_warning_counts_models_of_at_most_d_columns(tmp_path, capsys,
                                                                  monkeypatch):
    # A 10 x 20 design has d = 10: the walk considers the models of at most
    # 10 columns, sum_k k C(20, k) = 20 * 2^18 pairs, not all 20 * 2^19.
    def no_constant(*args, **kwargs):
        raise InfeasibleError("stub")

    monkeypatch.setattr(cli, "posi_constant", no_constant)
    design = tmp_path / "X.csv"
    np.savetxt(design, np.random.default_rng(0).standard_normal((10, 20)), delimiter=",")
    assert run(["k", "--design", str(design), "--mc-samples", "1000"]) == 3
    assert "p=20 with this universe streams about 5242880 directions" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("value", ["abc", "2.5", "0", "-1"])
def test_threads_must_be_a_positive_integer_or_auto(capsys, value):
    assert run(["scheffe", "--d", "3", "--threads", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--threads must be a positive integer or 'auto'" in captured.err
    assert "_threads_arg" not in captured.err


@pytest.mark.parametrize("s, code", [(1e-9, 0), (1e-12, 3)])
def test_intervals_near_collinear_model(tmp_path, capsys, s, code):
    # Full rank under the rank tolerance at s = 1e-9, so K counts the model's
    # pairs and its intervals are given; at s = 1e-12 the enumeration skips
    # them, and the request is infeasible.
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 3))
    X[:, 1] = X[:, 0] + s * rng.standard_normal(6)
    design, response = tmp_path / "X.csv", tmp_path / "y.txt"
    np.savetxt(design, X, delimiter=",")
    np.savetxt(response, rng.standard_normal(6))
    assert run(["intervals", "--design", str(design), "--response", str(response),
                "--sigma-hat", "1", "--model", "1,2", "--mc-samples", "2000"]) == code
    out = capsys.readouterr().out
    if code == 0:
        payload = json.loads(out)
        assert payload["direction_count"] == 12
        assert all(math.isfinite(row["lower"]) and row["lower"] < row["upper"]
                   for row in payload["intervals"])


def test_closed_forms_load_no_scipy_stats(files):
    code = ("import sys; from posikit.cli import run; "
            f"assert run(['scheffe', '--d', '4']) == 0; "
            f"assert run(['scheffe', '--d', '4', '--df', '9']) == 0; "
            f"assert run(['bound', '--design', {files['generic3']!r}]) == 0; "
            f"assert run(['coverage', '--design', {files['generic3']!r}, "
            "'--k-source', 'naive', '--replications', '20']) == 0; "
            f"assert run(['coverage', '--design', {files['generic3']!r}, '--df', '9', "
            "'--k-source', 'naive', '--replications', '20']) == 0; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_import_loads_no_thread_pool(tmp_path):
    # Neither the import nor a fold loads a thread pool, and the fold starts
    # no thread: a k run at p = 10 with 20 000 draws (5 120 directions x
    # 20 000 draws) folds in the calling thread, whatever --threads and the
    # BLAS thread count say.
    design = tmp_path / "g10.csv"
    np.savetxt(design, np.random.default_rng(1).standard_normal((14, 10)), delimiter=",")
    code = ("import sys, threading, posikit; "
            "print('concurrent.futures' in sys.modules); "
            "from posikit.cli import run; started = []; start = threading.Thread.start; "
            "threading.Thread.start = lambda self: started.append(self) or start(self); "
            f"assert run(['k', '--design', {str(design)!r}, '--mc-samples', '20000', "
            "'--threads', '2']) == 0; "
            "print('concurrent.futures' in sys.modules, len(started), "
            "threading.active_count())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="2")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "False"
    assert lines[-1] == "False 0 1"


def test_import_loads_no_scipy():
    code = ("import sys, posikit; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# The output contract under fuzzed argv
# ---------------------------------------------------------------------------

# Example counts scale with the active hypothesis profile against
# hypothesis's default: 1 in tier-1, 10 under the deep profile (conftest.py).
DEPTH = settings.default.max_examples // settings.get_profile("default").max_examples


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """The files the fuzzer names as @name: a 10 x 5 Gaussian design (p is
    at most 6, with --intercept), one with an exactly collinear column, a
    3 x 5 one (p > d), responses of the
    right and wrong lengths or with a NaN, model lists, and empty,
    byte-order-mark, non-numeric and missing files."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(29)
    X, y = rng.standard_normal((10, 5)), rng.standard_normal((10, 1))
    arrays = {"design": X, "collinear": np.column_stack([X[:, :4], X[:, 0] + X[:, 1]]),
              "wide": X[:3], "y": y, "short": y[:9], "ynan": np.vstack([[np.nan], y[1:]])}
    paths = {}
    for name, values in arrays.items():
        paths[name] = root / f"{name}.csv"
        np.savetxt(paths[name], values, delimiter=",")
    for name, text in {"models": "1,2\n3\n2,4,5\n", "badmodels": "1,9\n", "empty": "",
                       "words": "a,b\nc,d\n"}.items():
        paths[name] = root / f"{name}.txt"
        paths[name].write_text(text)
    for name, source in (("bom", "design"), ("ybom", "y")):
        paths[name] = root / f"{name}.csv"
        paths[name].write_text("\ufeff" + paths[source].read_text(), encoding="utf-8")
    paths["missing"] = root / "missing.csv"
    return {name: str(path) for name, path in paths.items()}


EDGE_NUMBERS = ("0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "1e-320",
                "", "x", "1.5", "99999999999999999999")
# Values of the counts that set the work done: none is large.
EDGE_COUNTS = ("0", "-1", "1", "nan", "inf", "", "x", "1.5", "1e3")
OMITTED = None


def option(flag, valid, edge=(), required=False):
    """A flag (None for a positional), its valid values and its edge values.
    A value of None leaves the flag out; True gives a switch."""
    return flag, valid, edge, required


COMMON = (option("--alpha", ("0.05", "0.5", "0.2"), ("1", "0.999") + EDGE_NUMBERS),
          option("--df", ("inf", "Infinity", "1", "5", "20"), EDGE_NUMBERS),
          option("--threads", ("auto", "1", "2"), ("0", "-1", "x", "")),
          option("--output", ("json",), ("xml", "")))
DESIGN = (option("--design", ("@design", "@collinear", "@wide", "@bom", "@y"),
                 ("@empty", "@words", "@missing", "@ynan", OMITTED), required=True),
          option("--header", (True,)), option("--intercept", (True,)),
          option("--rank-tolerance", ("1e-10", "1e-3"), EDGE_NUMBERS),
          option("--universe", ("all", "size<=2", "size>=p-1", "forced=1", "nested",
                                "nested&forced=3", "size<=2&forced=1,2", "models=1,2;3",
                                "file=@models"),
                 ("size>=7", "size<=p-", "size<=x", "size<0", "forced=9", "forced=0",
                  "forced=", "models=", "models=1,9", "file=@badmodels", "file=@empty",
                  "file=@missing", "file=@design", "junk", "", "&&")))
MC = (option("--mc-samples", ("50", "120", "200"), EDGE_COUNTS, required=True),
      option("--seed", ("0", "1", "7"),
             ("-1", str(2**64 - 1), str(2**64)) + EDGE_NUMBERS))
RESPONSE = (option("--response", ("@y", "@ybom"),
                   ("@short", "@ynan", "@design", "@empty", "@words", "@missing", OMITTED),
                   required=True),
            option("--sigma-hat", ("1", "0.5", "2"), EDGE_NUMBERS + (OMITTED,),
                   required=True))
MU = option("--mu", ("@y",), ("@short", "@ynan", "@empty", "@words", "@missing"))
PREDICTORS, EDGE_PREDICTORS = ("1", "3", "5"), ("7",) + EDGE_NUMBERS
DIMENSION = option("--d", ("1", "6", "11"), EDGE_NUMBERS + (OMITTED,))
COMMANDS = (
    ("k", COMMON + DESIGN + MC),
    ("k1", COMMON + DESIGN + MC + (option("--predictor", PREDICTORS,
                                          EDGE_PREDICTORS + (OMITTED,), required=True),)),
    ("scheffe", COMMON + DESIGN + (DIMENSION,)),
    ("orth", COMMON + DESIGN + (DIMENSION,)),
    ("bound", COMMON + DESIGN + (DIMENSION, option("--direction-count",
                                                   ("1", "5120", "1000000"),
                                                   EDGE_NUMBERS))),
    ("intervals", COMMON + DESIGN + MC + RESPONSE + (
        MU, option("--k-source", ("posi", "scheffe"), ("naive", "x")),
        option("--model", ("1", "1,2", "2,4,5", "1,,2", "1,2,3,4,5"),
               ("", "0", "7", "-1", "x", "1.5", "99999999999999999999", OMITTED),
               required=True))),
    ("spar", COMMON + DESIGN + RESPONSE + (option("--predictor", PREDICTORS,
                                                  EDGE_PREDICTORS),)),
    ("coverage", COMMON + DESIGN + MC + (
        MU, option("--k-source", ("posi", "scheffe", "naive"), ("x",)),
        option("--replications", ("2", "7", "20"), EDGE_COUNTS, required=True),
        option("--selector", ("spar", "spar1:1", "spar1:5"),
               ("spar1:0", "spar1:7", "spar1:", "spar1:x", "spar1:-1", "bogus", "")))),
    ("analyze", COMMON + DESIGN + (option("--form", ("upper_triangular", "symmetric"),
                                          ("x",)),)),
    ("family", (option(None, ("exchangeable",), ("bogus",), required=True),) + COMMON + MC + (
        option("--p-list", ("3", "2,5", "6", "2,,6"),
               ("1", "0", "-1", "", "x", "nan", "1.5"), required=True),
        option("--a-grid", ("0,0.5", "0,,0.5", "0.3"),
               ("0.99", "1", "-1", "-0.1", "1e-300", "5e-324", "nan", "inf", "-inf", "",
                "x")))),
    ("family", (option(None, ("worst-posi1",), ("bogus",), required=True),) + COMMON + MC + (
        option("--p", ("2", "5", "20"), ("1", "0", "-1", "", "x", "1.5"), required=True),
        option("--c-grid", ("0.1", "0,0.05", "-0.0"),
               ("2", "-0.5", "1e-300", "5e-324", "nan", "inf", "-inf", "", "x")))),
)


@st.composite
def argvs(draw):
    """One subcommand's argv: each optional flag present or not, and every
    value valid but those of at most two flags, which take edge values."""
    name, options = draw(st.sampled_from(COMMANDS))
    edges = draw(st.sets(st.sampled_from(range(len(options))), max_size=2))
    argv = [name]
    for i, (flag, valid, edge, required) in enumerate(options):
        if not (required or draw(st.booleans())):
            continue
        value = draw(st.sampled_from(edge if i in edges and edge else valid))
        if value is OMITTED:
            continue
        argv.append(value if flag is None else flag if value is True else f"{flag}={value}")
    return argv


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@settings(max_examples=150 * DEPTH, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
# Each exited 1: a walk with no direction ("direction_count must be >= 1"),
# and int()'s bare message for a size bound.
@example(argv=["bound", "--design=@design", "--universe=size>=7"])
@example(argv=["k", "--design=@design", "--universe=size<=p-", "--mc-samples=50"])
@example(argv=["bound", "--design=@design", "--universe=size<=x"])
# Found by this test: an overflow warning, a traceback, three bare messages.
@example(argv=["k", "--design=@design", "--rank-tolerance=1e308", "--mc-samples=50"])
@example(argv=["orth", "--d=3", "--df=99999999999999999999"])
@example(argv=["orth", "--d=3", "--df=5", "--alpha=1e-320"])
@example(argv=["bound", "--design=@design", "--alpha=5e-324"])
@example(argv=["analyze", "--design=@collinear", "--rank-tolerance=0"])
# An infinite K reached the JSON backstop, whose message names no input.
@example(argv=["scheffe", "--alpha=1e-320", "--d=1", "--df=20"])
@example(argv=["orth", "--alpha=5e-324", "--d=3"])
# The naive K was +inf: every replication ran before the JSON backstop.
@example(argv=["coverage", "--design=@design", "--k-source=naive", "--alpha=1e-17",
               "--replications=50"])
@example(argv=["coverage", "--design=@design", "--k-source=naive", "--alpha=5e-324",
               "--df=5", "--replications=50"])
def test_fuzzed_argv_keeps_the_output_contract(fuzz_files, argv):
    """Every subcommand, on edge values: an exit code in 0..3 and no
    traceback; strict JSON on stdout at exit 0 and nothing otherwise; no
    RuntimeWarning; no bare Python message; and an empty walk is an
    infeasible request, not a bad count."""
    argv = [re.sub(r"@(\w+)", lambda m: fuzz_files[m.group(1)], token) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
            redirect_stderr(err):
        warnings.simplefilter("always")
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    if code == 0:
        strict_json(out)
    else:
        assert out == "", err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    for bare in ("invalid literal for", "could not convert", "math domain error",
                 "Singular matrix", "must have different signs", "Out of range float"):
        assert bare not in err
    if "direction_count must be >= 1" in err:
        assert any(token.startswith("--direction-count") for token in argv)
