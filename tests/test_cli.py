"""Command-line behavior: outputs, formats, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from permsep import verify
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
        # integers beyond float64 range
        ({"d": 2, "r": 1, "re": [[10**400, 0], [0, 0]]},
         "key 're' must be an array of numbers: int too large to convert to float"),
        ({"d": 2, "r": 1, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 10**400], [0, 0]]},
         "key 'im' must be an array of numbers: int too large to convert to float"),
    ]
    for data, message in cases:
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "evaluate", "--state", str(path))
        assert code == 2
        assert message in err


def test_evaluate_rejects_a_huge_party_count_at_once(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"d": 3, "r": 30_000_000, "re": [[1]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "evaluate", "--state", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (
        "error: invalid state: shape: expected 3^30000000x3^30000000 "
        "for d=3, r=30000000, got (1, 1)\n"
    )


def test_evaluate_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run(capsys, "evaluate", "--state", str(path))
    assert code == 2 and out == ""
    assert err == "error: invalid state: JSON nests too deeply to parse\n"


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


def test_evaluate_rejects_a_builtin_of_another_size(tmp_path, capsys):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps({"builtin": "bell", "d": 3, "r": 4}))
    assert run(capsys, "evaluate", "--state", str(path)) == (
        2, "", "error: invalid state: key 'd' is 3, builtin 'bell' has 2\n")
    path.write_text(json.dumps({"builtin": "bell", "d": 2, "r": 2}))
    code, out, _ = run(capsys, "evaluate", "--state", str(path))
    assert code == 0 and "d=2, r=2" in out


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


def test_evaluate_rejects_a_repeated_class_id(capsys):
    code, out, err = run(capsys, "evaluate", "--builtin", "bell", "--classes", "1,1")
    assert code == 2
    assert out == ""
    assert err == "error: class id 1 given twice\n"


@pytest.mark.parametrize("classes", ["", "1,x"])
def test_evaluate_rejects_a_bad_class_list(capsys, classes):
    code, out, err = run(capsys, "evaluate", "--builtin", "bell", "--classes", classes)
    assert code == 2
    assert out == ""
    assert err == f"error: bad --classes list {classes!r}\n"


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


def test_verify_rejects_a_negative_seed(capsys):
    code, out, err = run(capsys, "verify", "rule5", "--parties", "2", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: seed must be a non-negative integer, got -1\n"


def test_verify_rejects_a_local_dimension_below_two(capsys):
    code, out, err = run(capsys, "verify", "rule5", "--parties", "3", "--dim", "-2")
    assert code == 2
    assert out == ""
    assert err == "error: local dimension must be >= 2, got -2\n"


def test_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    def no_memory(dim, parties, rng):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(verify, "random_state", no_memory)
    code, out, err = run(capsys, "verify", "rule5", "--parties", "2", "--dim", "1000")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"


def test_verify_names_the_party_range_before_sizing_the_state(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "verify", "rule5", "--parties", "30000000", "--dim", "3"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: parties must be in 1..8, got 30000000\n"


def test_verify_large_r_needs_flag(capsys):
    code, _, err = run(
        capsys, "verify", "distinctness", "--parties", "7", "--samples", "1",
        "--seed", "0",
    )
    assert code == 2
    assert "--large" in err


@pytest.mark.parametrize("argv,message", [
    (["--parties", "7", "--dim", "-2"], "local dimension must be >= 2, got -2"),
    (["--parties", "7", "--samples", "0"], "samples must be >= 1, got 0"),
    (["--parties", "8", "--dim", "1"], "local dimension must be >= 2, got 1"),
], ids=["r7-dim-2", "r7-samples-0", "r8-dim-1"])
def test_verify_names_a_bad_field_before_asking_for_large(capsys, argv, message):
    code, out, err = run(capsys, "verify", "distinctness", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


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
    # byte for byte the output of the dense sweep, before class norms of
    # product states were taken factor by factor
    assert out == (Path(__file__).parent / "data" / "beta_sweep.json").read_text()


@pytest.mark.parametrize("fmt,suffix", [("table", "txt"), ("json", "json")])
@pytest.mark.parametrize("tol", ["1e-7", "1e-5", "1e-3"])
def test_beta_sweep_output_is_the_recorded_one(capsys, tol, fmt, suffix):
    # byte for byte the output of the sweep on dense images, before the
    # searches of product states' classes ran on block-diagonal images
    code, out, _ = run(capsys, "beta-sweep", "--tol", tol, "--format", fmt)
    assert code == 0
    golden = Path(__file__).parent / "data" / f"beta_sweep_tol_{tol}.{suffix}"
    assert out == golden.read_text()


CLASSIFY_SHA256 = json.loads(
    (Path(__file__).parent / "data" / "classify_sha256.json").read_text()
)


@pytest.mark.parametrize("command", list(CLASSIFY_SHA256))
def test_classify_output_is_the_recorded_one(capsys, command):
    # byte for byte the output of the enumeration by orbit search, before
    # the canonical words were generated in sorted order
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_SHA256[command]


@pytest.mark.parametrize("argv,expected", [
    (["count", "--parties", "3"], 0),
    (["verify", "rule5", "--parties", "2", "--samples", "1", "--tol", "1e-300"], 1),
    (["count", "--parties", "9"], 2),
])
def test_module_entry_point_exit_codes(argv, expected):
    proc = subprocess.run(
        [sys.executable, "-m", "permsep", *argv], env=_src_env(), capture_output=True,
        text=True,
    )
    assert proc.returncode == expected, proc.stderr


def _script_entry():
    """``python`` arguments that call the ``permsep`` script's entry point,
    as named in pyproject.toml, the way an installed script calls it."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, func = re.search(r'^permsep = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    return ["-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_closed_stdout_exits_141_without_a_traceback(fmt):
    for entry in (["-m", "permsep"], _script_entry()):
        proc = subprocess.Popen(
            [sys.executable, *entry, "enumerate", "--parties", "8", "--format", fmt],
            env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()  # as `| head -1` does, with most of the output unwritten
        _, err = proc.communicate(timeout=120)
        assert first == (b"[\n" if fmt == "json" else b"3299 classes for r=8\n")
        assert (proc.returncode, err) == (141, b""), entry


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


# the process machinery that importing permsep loaded, then what beta-sweep
# and evaluate of a built-in loaded: runs that start no pool
_NO_POOL = """
import contextlib, io, sys
import numpy
before = set(sys.modules)
import permsep, permsep.cli
machinery = {"multiprocessing", "concurrent.futures"}
print(sorted(machinery & (set(sys.modules) - before)))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [permsep.cli.main(argv) for argv in
             (["beta-sweep", "--format", "json"], ["evaluate", "--builtin", "chessboard"])]
print(codes, sorted(machinery & set(sys.modules)))
"""


def test_importing_permsep_loads_no_process_machinery():
    # the import alone would cost more than beta-sweep's whole computation
    proc = subprocess.run(
        [sys.executable, "-c", _NO_POOL], env=_src_env(), capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n[0, 0] []\n", "")


# a pool forks only on Linux, under the OpenBLAS thread limit
needs_fork_pool = pytest.mark.skipif(
    sys.platform != "linux" or verify._ONE_BLAS_THREAD is None, reason="no pool here"
)

# evaluate with the pool forced on one worker, then the children still alive
# and whether the pool ran
_POOLED_CLI = """
import multiprocessing, sys
from permsep import cli, verify
verify.POOL_MIN_WORK = 0
verify._usable_cores = lambda: 2
code = cli.main(sys.argv[1:])
print(multiprocessing.active_children(), "concurrent.futures" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


@needs_fork_pool
def test_a_pooled_cli_run_joins_its_workers(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_dict(random_state(2, 5, np.random.default_rng(3)))))
    argv = ["evaluate", "--state", str(path), "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-X", "dev", "-c", _POOLED_CLI, *argv],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "[] True\n")
    # the pooled stdout is the serial one, byte for byte
    assert run(capsys, *argv) == (0, proc.stdout, "")


# evaluate with the pool forced on one worker, then the resource tracker's pid
_POOLED_CLI_TRACKER = """
import sys
from multiprocessing import resource_tracker
from permsep import cli, verify
verify.POOL_MIN_WORK = 0
verify._usable_cores = lambda: 2
code = cli.main(sys.argv[1:])
print("tracker", resource_tracker._resource_tracker._pid)
sys.exit(code)
"""


@needs_fork_pool
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="lists processes through /proc")
def test_a_pooled_cli_run_leaves_no_process_behind(tmp_path):
    # a fork pool's semaphores are unlinked when made, so no resource
    # tracker starts, and the workers are joined before the call returns:
    # the command's session ends with it
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_dict(random_state(2, 5, np.random.default_rng(3)))))
    argv = ["evaluate", "--state", str(path)]
    proc = subprocess.Popen(
        [sys.executable, "-W", "error", "-X", "dev", "-c", _POOLED_CLI_TRACKER, *argv],
        env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out.splitlines()[-1], err) == (0, "tracker None", "")
    left = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:  # the process ended meanwhile
            continue
        # the session id is the fourth field after the parenthesised name
        if int(stat[stat.rindex(")") + 2:].split()[3]) == proc.pid:
            left.append(stat)
    assert left == []


# a script with no __main__ guard that pools: a forked worker does not
# import the script again, so the top level runs once
_UNGUARDED = """
import sys
import numpy as np
from permsep import random_state, verify
verify.POOL_MIN_WORK = 0
verify._usable_cores = lambda: 2
print("top level")
norms = verify.class_norms(random_state(2, 5, np.random.default_rng(3)))
print(len(norms), "concurrent.futures" in sys.modules)
"""


@needs_fork_pool
def test_an_unguarded_script_pools_cleanly(tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-X", "dev", str(script)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "top level\n71 True\n", "")
