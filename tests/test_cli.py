"""Command-line behavior: outputs, formats, exit codes."""

import json

import numpy as np
import pytest

from permsep.cli import main
from permsep.states import state_to_dict, random_state


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_table(capsys):
    code, out, _ = run(capsys, "enumerate", "--parties", "3")
    assert code == 0
    assert "7 classes" in out
    assert out.count("QT") >= 3


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--parties", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == [
        {"roles": "FF", "label": "identity", "permutation": [1, 2, 3, 4]},
        {"roles": "FL", "label": "QT", "permutation": [1, 2, 4, 3]},
        {"roles": "HT", "label": "R", "permutation": [1, 3, 2, 4]},
    ]


def test_count_with_oracle(capsys):
    code, out, _ = run(capsys, "count", "--parties", "2", "--oracle")
    assert code == 0
    assert "formula=3" in out and "oracle=3" in out


def test_count_oracle_refuses_large_r(capsys):
    code, _, err = run(capsys, "count", "--parties", "5", "--oracle")
    assert code == 2
    assert "r <= 4" in err


def test_evaluate_builtin_chessboard(capsys):
    code, out, _ = run(capsys, "evaluate", "--builtin", "chessboard")
    assert code == 0
    assert "entangled" in out
    assert "1.1666666667" in out


def test_evaluate_json(capsys):
    code, out, _ = run(
        capsys, "evaluate", "--builtin", "bell", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["entangled"] is True
    assert len(data["results"]) == 3


def test_evaluate_state_file(tmp_path, capsys):
    rho = random_state(2, 2, np.random.default_rng(1))
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(state_to_dict(rho)))
    code, out, _ = run(capsys, "evaluate", "--state", str(path))
    assert code == 0
    assert "d=2, r=2" in out


def test_evaluate_rejects_invalid_state(tmp_path, capsys):
    path = tmp_path / "bad.json"
    cases = [
        ({"d": 2, "r": 1, "re": [[1.0, 0.0], [0.0, 1.0]]}, "trace"),
        (5, "state must be a JSON object, got int"),
        (None, "state must be a JSON object, got NoneType"),
        ("builtin", "state must be a JSON object, got str"),
        ({"builtin": ["x"]}, "key 'builtin' must be a string, got ['x']"),
        ({"d": 2, "r": 1, "re": {"a": 1}}, "key 're' must be an array of numbers"),
        ({"d": 2, "r": 1, "re": [[0.5, 0], [0, 0.5]], "im": {"a": 1}},
         "key 'im' must be an array of numbers"),
    ]
    for data, message in cases:
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "evaluate", "--state", str(path))
        assert code == 2
        assert message in err


def test_evaluate_rejects_non_finite_entry(tmp_path, capsys):
    re = (np.eye(4) / 4).tolist()
    re[1][1] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"d": 2, "r": 2, "re": re}))
    code, _, err = run(capsys, "evaluate", "--state", str(path))
    assert code == 2
    assert "finiteness: entry (1, 1) is" in err


@pytest.mark.parametrize("key", ["d", "r"])
@pytest.mark.parametrize("value", [2.7, "2", True])
def test_evaluate_rejects_non_integer_dimensions(tmp_path, capsys, key, value):
    data = {"d": 2, "r": 1, "re": [[0.5, 0.0], [0.0, 0.5]]}
    data[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "evaluate", "--state", str(path))
    assert code == 2
    assert f"key '{key}' must be an integer" in err


def test_evaluate_accepts_null_imaginary_part(tmp_path, capsys):
    path = tmp_path / "real.json"
    path.write_text(json.dumps({"d": 2, "r": 1, "re": [[0.5, 0.0], [0.0, 0.5]], "im": None}))
    code, out, _ = run(capsys, "evaluate", "--state", str(path))
    assert code == 0
    assert "d=2, r=1" in out


def test_evaluate_rejects_mismatched_expectations(capsys):
    code, _, err = run(
        capsys, "evaluate", "--builtin", "bell", "--dim", "3"
    )
    assert code == 2
    assert "d=2" in err


def test_evaluate_missing_file(capsys):
    code, _, err = run(capsys, "evaluate", "--state", "/nonexistent.json")
    assert code == 2
    assert "invalid state" in err


def test_verify_rule5_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "rule5", "--parties", "2", "--dim", "2",
        "--samples", "3", "--seed", "2",
    )
    assert code == 0
    assert "PASS" in out


def test_verify_rule5_json(capsys):
    code, out, _ = run(
        capsys, "verify", "rule5", "--parties", "2", "--samples", "2",
        "--seed", "3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_rule5_fails_with_impossible_threshold(capsys):
    code, out, _ = run(
        capsys, "verify", "rule5", "--parties", "2", "--samples", "2",
        "--seed", "3", "--tol", "1e-300",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_distinctness(capsys):
    code, out, _ = run(
        capsys, "verify", "distinctness", "--parties", "3", "--samples", "1",
        "--seed", "0",
    )
    assert code == 0
    assert "all distinct" in out


def test_verify_distinctness_needs_two_classes(capsys):
    code, out, err = run(
        capsys, "verify", "distinctness", "--parties", "1", "--format", "json"
    )
    assert code == 2
    assert out == ""
    assert "at least two classes" in err


def test_verify_rejects_zero_samples(capsys):
    code, out, err = run(capsys, "verify", "rule5", "--parties", "3", "--samples", "0")
    assert code == 2
    assert out == ""
    assert err == "error: samples must be >= 1, got 0\n"


def test_verify_large_r_needs_flag(capsys):
    code, _, err = run(
        capsys, "verify", "distinctness", "--parties", "7", "--samples", "1",
        "--seed", "0",
    )
    assert code == 2
    assert "--large" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])  # missing --parties
    assert exc.value.code == 2


def test_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_enumerate_out_of_range_parties(capsys):
    code, _, err = run(capsys, "enumerate", "--parties", "9")
    assert code == 2
    assert "1..8" in err


def test_beta_sweep_rejects_bad_steps(capsys):
    code, _, err = run(capsys, "beta-sweep", "--steps", "3")
    assert code == 2
    assert "steps" in err


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
@pytest.mark.parametrize("command", [
    ["evaluate", "--builtin", "bell"],
    ["beta-sweep"],
    ["verify", "rule5", "--parties", "2"],
])
def test_non_positive_or_non_finite_tolerance_is_a_usage_error(capsys, command, tol):
    code, out, err = run(capsys, *command, "--tol", tol)
    assert code == 2
    assert out == ""
    # verify's --tol sets the rule-5 equality threshold
    assert ("equality_threshold" if command[0] == "verify" else "tolerance") in err


def test_beta_sweep_json(capsys):
    code, out, _ = run(capsys, "beta-sweep", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["classes"]) == 23
    assert data["rows"]["QT"] == 0.0
    assert data["rows"]["2R"] > data["rows"]["R"] > 0
