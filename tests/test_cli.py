import json
import math

import numpy as np
import pytest

from posikit import (
    CanonicalDesign,
    ModelUniverse,
    canonicalize,
    enumerate_models,
    load_design,
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


def test_k_threads_byte_identical(files, capsys):
    outputs = []
    for threads in ("1", "3", "7"):
        code = run(["k", "--design", files["generic3"], "--mc-samples", "20000",
                    "--seed", "9", "--threads", threads])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


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
    with pytest.raises(SystemExit) as exc:
        run(["k", "--design"])
    assert exc.value.code == 1


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


def test_large_stream_warning_uses_measured_rates(capsys):
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
