"""One benchmark pass in a fresh process.

Usage: python3 perfbench/passrun.py SPEC.json

Imports permsep from the checkout's ``src``, notes when the import finished
(``time.monotonic`` is one clock for every process on Linux, so the parent
subtracts its spawn time), runs the pass the spec describes and writes what
permsep returned to the spec's output file.  Nothing is checked here.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import permsep  # noqa: E402
import permsep.cli  # noqa: E402

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

import tracing  # noqa: E402


def call_cli(argv: list[str]) -> list:
    """[exit code, stdout, stderr] of one permsep CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = permsep.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def run_pass(spec: dict) -> dict:
    criteria = permsep.criteria
    start = time.perf_counter()
    cli = [call_cli(argv) for argv in spec["cli"]]
    classes = [criteria.class_of(permsep.Permutation(tuple(p))) for p in spec.get("class_of", ())]
    canon = [criteria.canonicalize(word) for word in spec.get("canonicalize", ())]
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "cli": cli,
        "class_of": [[c.class_id, "".join("FLHT"[x] for x in c.roles)] for c in classes],
        "canonicalize": [[c.class_id, "".join("FLHT"[x] for x in c.roles)] for c in canon],
    }


def main(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out = run_pass(spec)
    out["imported"] = IMPORTED
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts
    with open(spec["output"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
