"""Command-line front end.

Exit codes: 0 success, 1 a verification assertion failed, 2 usage or
state-file errors, 141 (128 + SIGPIPE) stdout closed early, under the
``permsep`` script and ``python -m permsep``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .criteria import (
    MAX_PARTIES,
    class_to_dict,
    describe,
    enumerate_classes,
    roles_to_string,
    to_permutation,
)
from .perms import cycle_string
from .states import BUILTIN_STATES, load_state, state_from_dict
from .verify import (
    LARGE_PARTIES,
    VerificationConfig,
    beta_sweep,
    census,
    evaluate_state,
    verify_distinctness,
    verify_rule5,
)

USAGE_ERROR = 2
ASSERTION_ERROR = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permsep",
        description="Enumerate permutation separability criteria and evaluate "
        "them on density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list all criterion classes")
    p_enum.add_argument("--parties", type=int, required=True, metavar="R")
    p_enum.add_argument("--format", choices=("table", "json"), default="table")

    p_count = sub.add_parser("count", help="count criterion classes")
    p_count.add_argument("--parties", type=int, required=True, metavar="R")
    p_count.add_argument(
        "--oracle",
        action="store_true",
        help="also run the (2r)! brute-force count (r <= 4)",
    )

    p_eval = sub.add_parser("evaluate", help="evaluate every class on a state")
    src = p_eval.add_mutually_exclusive_group(required=True)
    src.add_argument("--state", metavar="FILE", help="JSON state file")
    src.add_argument("--builtin", choices=sorted(BUILTIN_STATES))
    p_eval.add_argument("--dim", type=int, help="expected local dimension")
    p_eval.add_argument("--parties", type=int, help="expected party count")
    p_eval.add_argument("--tol", type=float, default=1e-9)
    p_eval.add_argument("--classes", help="comma-separated class ids to evaluate")
    p_eval.add_argument("--format", choices=("table", "json"), default="table")

    p_verify = sub.add_parser("verify", help="randomized verification suites")
    p_verify.add_argument("suite", choices=("rule5", "distinctness"))
    p_verify.add_argument("--parties", type=int, required=True, metavar="R")
    p_verify.add_argument("--dim", type=int, default=2, metavar="D")
    p_verify.add_argument("--samples", type=int, default=20, metavar="N")
    p_verify.add_argument("--seed", type=int, default=0, metavar="S")
    p_verify.add_argument("--tol", type=float, default=1e-10)
    p_verify.add_argument("--gap", type=float, default=1e-6)
    p_verify.add_argument(
        "--large",
        action="store_true",
        help=f"allow r >= {LARGE_PARTIES} (slow: many large SVDs)",
    )
    p_verify.add_argument("--format", choices=("table", "json"), default="table")

    p_beta = sub.add_parser(
        "beta-sweep", help="detection thresholds on the noisy two-copy chessboard family"
    )
    p_beta.add_argument(
        "--steps",
        type=int,
        default=12,
        help="kept for compatibility: validated (>= 10) and reported, but "
        "thresholds come from secant steps on a fixed grid of 2^-44 and do "
        "not depend on it",
    )
    p_beta.add_argument("--tol", type=float, default=1e-9)
    p_beta.add_argument("--format", choices=("table", "json"), default="table")

    return parser


def _cmd_enumerate(args) -> int:
    classes = enumerate_classes(args.parties)
    if args.format == "json":
        print(json.dumps([class_to_dict(c) for c in classes], indent=2))
        return 0
    width = max(args.parties, 5) + 2
    print(f"{len(classes)} classes for r={args.parties}")
    print(f"{'id':>4}  {'roles':<{width}}  {'label':<10}  {'permutation':<16} detail")
    for cls in classes:
        perm = to_permutation(cls)
        print(
            f"{cls.class_id:>4}  {roles_to_string(cls.roles):<{width}}  "
            f"{cls.label:<10}  {cycle_string(perm):<16} {describe(cls)}"
        )
    return 0


def _cmd_count(args) -> int:
    info = census(args.parties, with_oracle=args.oracle)
    print(f"r={info['r']}: formula={info['formula']} enumerated={info['enumerated']}"
          + (f" oracle={info['oracle']}" if args.oracle else ""))
    agree = info["formula"] == info["enumerated"] and (
        not args.oracle or info["oracle"] == info["formula"]
    )
    if not agree:
        print("COUNT MISMATCH", file=sys.stderr)
        return ASSERTION_ERROR
    return 0


def _cmd_evaluate(args) -> int:
    try:
        if args.builtin:
            rho = state_from_dict({"builtin": args.builtin})
            source = f"builtin:{args.builtin}"
        else:
            rho = load_state(args.state)
            source = args.state
    except (OSError, ValueError) as exc:
        print(f"error: invalid state: {exc}", file=sys.stderr)
        return USAGE_ERROR
    for key, expected, actual in (("d", args.dim, rho.dim), ("r", args.parties, rho.parties)):
        if expected is not None and actual != expected:
            print(f"error: state has {key}={actual}, expected {expected}", file=sys.stderr)
            return USAGE_ERROR
    class_ids = None
    if args.classes is not None:
        try:
            class_ids = [int(v) for v in args.classes.split(",")]
        except ValueError:
            print(f"error: bad --classes list {args.classes!r}", file=sys.stderr)
            return USAGE_ERROR
    report = evaluate_state(rho, tolerance=args.tol, source=source,
                            class_ids=class_ids)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    width = max(report.parties, 5) + 2
    print(f"state {source} (d={report.dim}, r={report.parties}, "
          f"tolerance {report.tolerance:g})")
    print(f"{'id':>4}  {'roles':<{width}}  {'label':<10}  {'trace norm':>14}  violated")
    for res in report.results:
        mark = "YES" if res.violated else "-"
        print(f"{res.class_id:>4}  {res.roles:<{width}}  "
              f"{res.label:<10}  {res.trace_norm:>14.10f}  {mark}")
    verdict = "entangled" if report.violations else "no violation"
    print(f"verdict: {verdict} ({len(report.violations)} of "
          f"{len(report.results)} classes violated)")
    return 0


def _cmd_verify(args) -> int:
    config = VerificationConfig(
        parties=args.parties,
        dim=args.dim,
        samples=args.samples,
        seed=args.seed,
        equality_threshold=args.tol,
        distinctness_threshold=args.gap,
    )
    # above MAX_PARTIES the suite itself names the range, and d^r is not built
    if LARGE_PARTIES <= args.parties <= MAX_PARTIES and not args.large:
        print(
            f"error: r={args.parties} needs --large "
            f"(runs {args.samples} samples of {args.dim ** args.parties}-dim SVDs)",
            file=sys.stderr,
        )
        return USAGE_ERROR
    if args.suite == "rule5":
        report = verify_rule5(config)
        if args.format == "json":
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(f"rule5 r={config.parties} d={config.dim} "
                  f"samples={config.samples} seed={config.seed}")
            print(f"max |norm(sigma) - norm(sigma.tau)| = {report.max_deviation:.3e} "
                  f"(threshold {config.equality_threshold:g})")
            for class_id, sample, dev in report.failures:
                print(f"FAIL class {class_id} sample {sample}: deviation {dev:.3e}")
            print("PASS" if report.passed else "FAIL")
        return 0 if report.passed else ASSERTION_ERROR
    report = verify_distinctness(config)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"distinctness r={config.parties} d={config.dim} "
              f"samples={config.samples} seed={config.seed}")
        print(f"min gap = {report.min_gap:.6e} between classes "
              f"{report.closest_pair[0]} and {report.closest_pair[1]} "
              f"(threshold {config.distinctness_threshold:g})")
        for warning in report.warnings:
            print(f"warning: {warning}")
        print("all distinct" if report.all_distinct else
              "WARNING: coinciding norms (possible non-generic state)")
    # coinciding norms are a warning, not a failure: PSD images all have norm 1
    return 0


def _cmd_beta_sweep(args) -> int:
    report = beta_sweep(steps=args.steps, tolerance=args.tol)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    print(f"beta sweep on (1-b)*rho_c(x)rho_c + b*I/81, steps={report.steps}")
    print(f"{'id':>4}  {'label':<10}  threshold")
    for class_id, label, beta in report.class_thresholds:
        print(f"{class_id:>4}  {label:<10}  {beta:.12f}")
    print("row maxima:")
    for label, beta in sorted(report.row_thresholds().items()):
        print(f"  {label:<10} {beta:.12f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "enumerate": _cmd_enumerate,
        "count": _cmd_count,
        "evaluate": _cmd_evaluate,
        "verify": _cmd_verify,
        "beta-sweep": _cmd_beta_sweep,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return USAGE_ERROR


def run() -> None:
    """Entry point of the ``permsep`` script and ``python -m permsep``."""
    try:
        code = main()
        sys.stdout.flush()  # inside the try, so a closed pipe is caught here
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): silence the flush at exit and
        # exit as a shell reports a process killed by SIGPIPE, 128 + 13
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    run()
