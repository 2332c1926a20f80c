"""permsep benchmark: run one workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

A closed loop with one client: passes run back to back, each in a fresh
Python process (``passrun.py``), until ``--seconds`` have passed and at
least MIN_PASSES passes ran.  With ``--trace 1`` untraced and traced passes
alternate, so the run also measures the tracing overhead.  Every result is
checked against ``reference.py`` after timing.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
and ``perfbench/out/results/`` record the machine context and every pass.
The inherited environment reaches each pass unchanged, BLAS thread
variables included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1  # seed 7 is held out: no tuning used it, so re-check claims on it
MIN_PASSES = 3  # per kind (untraced, traced) in one run
DEADLINE_S = 150.0  # no pass may run past this many seconds after start


def run_pass(spec_path: Path, traced: int, output: Path, log, started: float) -> dict:
    """Spawn one pass and wait for it; CPU and peak RSS come from wait4, so
    they cover the pass process and every child it waited for."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passrun.py"), str(spec_path)],
        stdin=subprocess.DEVNULL, stdout=log, stderr=log,
    )
    timer = threading.Timer(max(1.0, DEADLINE_S - (spawned - started)), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {
        "traced": traced,
        "code": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
        "out": None,
    }
    if proc.returncode == 0 and output.is_file():
        out = json.loads(output.read_text())
        output.unlink()
        record["setup_s"] = out.pop("imported") - spawned
        record["wall_s"] = out.pop("wall_s")
        record["out"] = out
    return record


def tail(values: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    xs = sorted(values)
    rank = len(xs) - 10
    if rank < 1:
        return {"percentile": None, "value": None, "samples": len(xs)}
    return {"percentile": 100 * rank / len(xs), "value": xs[rank - 1], "samples": len(xs)}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy

    import permsep

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "permsep": permsep.__version__,
        "commit": git_commit(),
    }


def run_loop(spec_paths: dict, output: Path, seconds: float, trace: bool, log,
             started: float) -> list:
    """Closed loop, one client: the next pass starts when the last one ends."""
    passes = []
    begin = time.monotonic()
    while not passes or passes[-1]["out"] is not None:  # stop at a crashed pass
        untraced = sum(not p["traced"] for p in passes)
        traced = len(passes) - untraced
        if (time.monotonic() - begin >= seconds and untraced >= MIN_PASSES
                and (not trace or traced >= MIN_PASSES)):
            break
        kind = int(trace and traced < untraced)  # untraced, traced, untraced, ...
        passes.append(run_pass(spec_paths[kind], kind, output, log, started))
    return passes


def check_passes(workload, spec: dict, passes: list) -> list[str]:
    """Fill in each pass's failed count, and its layer metrics if traced;
    return the errors that make the run incorrect beyond failed results."""
    errors = []
    for p in passes:
        p["attempted"] = p["failed"] = workload.attempted(spec)
        if p["out"] is None:
            errors.append(f"pass exited with code {p['code']}")
            continue
        try:
            p["failed"] = int(workload.check(spec, p["out"]))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            errors.append(f"unreadable output: {exc!r}")
        if not p["traced"]:
            continue
        layers = tracing.summarize(p["out"]["spans"], p["out"]["counts"], workload.norm_results)
        self_total = sum(layers[f"{name}.self_s"] for name in tracing.LAYERS)
        layers["trace.unaccounted_s"] = p["wall_s"] - self_total
        p["layers"] = layers
        missing = [name for name in workload.layers if not layers[f"{name}.calls"]]
        if missing:
            errors.append(f"layers with no calls: {missing}")
        if self_total > p["wall_s"]:
            errors.append(f"layer self time {self_total} exceeds wall {p['wall_s']}")
    return errors


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "permsep" / "__init__.py").is_file():
        print(f"error: no permsep package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # metric names and units are defined in BENCHMARK.json alone
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = HERE / "out" / f"work-{tag}-{os.getpid()}"
    results_dir = HERE / "out" / "results"
    workdir.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        spec = workload.setup(args.seed, workdir)
        output = workdir / "pass.json"
        spec_paths = {}
        for traced in (0, 1):
            spec_paths[traced] = workdir / f"spec{traced}.json"
            spec_paths[traced].write_text(json.dumps(dict(spec, trace=traced, output=str(output))))
        with open(workdir / "passes.log", "w") as log:
            passes = run_loop(spec_paths, output, args.seconds, bool(args.trace), log, started)
        errors = check_passes(workload, spec, passes)
        plain = [p for p in passes if p["out"] is not None and not p["traced"]]
        traced_passes = [p for p in passes if p["out"] is not None and p["traced"]]
        if not plain or (args.trace and not traced_passes):
            log_text = (workdir / "passes.log").read_text()
            print(f"error: no pass finished; {errors}\n{log_text[-2000:]}", file=sys.stderr)
            return 1
        if traced_passes:
            spans = [p["out"]["spans"] for p in traced_passes]
            (results_dir / f"{tag}-spans.json").write_text(json.dumps(spans))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics = {name: statistics.median(p["layers"][name] for p in traced_passes)
                   for name in units if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced_passes)
                                       - statistics.median(p["wall_s"] for p in plain))
    else:
        metrics = {name: statistics.median(p[name] for p in plain)
                   for name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
        metrics["correct_share"] = 1 - failed / attempted
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "wall_tail_s": tail([p["wall_s"] for p in plain]),
        "failed_share": failed / attempted,
        "errors": errors,
        "environment": environment(),
    }
    record = dict(context, metrics=metrics,
                  passes=[{k: v for k, v in p.items() if k != "out"} for p in passes])
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))

    correct = failed == 0 and not errors
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
