"""Command-line interface.

Two composite entry points plus one subcommand per library operation:

  hilbsam run FILE            execute the task blocks of a problem file
  hilbsam suite paper         run the built-in reproduction suite
  hilbsam OPERATION --file FILE ...  run one task command (gb, colength,
                              hilb, coeffs, kernel-e1, ...) against the
                              named objects of a problem file

Polynomial grammar: integer literals, variable names, + - * ^ and
parentheses; ^ binds tightest, then *, then + and -; unary minus is
allowed; implicit multiplication is forbidden.

Exit codes: 0 success, 1 expectation failure, 2 input error, 3 resource
limit (including colengths that are not finite at the origin).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import HilbsamError, InputError, ResourceLimit, SamplingExhausted
from .problem import TASK_KEYS, Report, TaskRunner, load_problem, read_problem, run_problem
from .suite import run_paper_suite

# one subcommand per task command a problem file accepts
_OP_COMMANDS = [name[4:].replace("_", "-") for name in vars(TaskRunner) if name.startswith("cmd_")]

# task keys every subcommand takes through _add_common
_COMMON_KEYS = ("nmax", "cutoff", "seed")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--field", default=None, help="coefficient field: fp:P or qq")
    parser.add_argument("--seed", type=int, default=None, help="seed for sampled reductions")
    parser.add_argument("--nmax", type=int, default=None, help="largest sampled power index")
    parser.add_argument("--cutoff", type=int, default=None, help="truncation cutoff cap")
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    parser.add_argument("--timings", action="store_true", help="include timings in the JSON report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbsam",
        description="Exact Hilbert-Samuel functions and Hilbert coefficients of parameter ideals",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="execute the task blocks of a problem file")
    p_run.add_argument("file")
    _add_common(p_run)

    p_suite = sub.add_parser("suite", help="run a built-in suite")
    p_suite.add_argument("name", choices=["paper"])
    _add_common(p_suite)

    for cmd in _OP_COMMANDS:
        p = sub.add_parser(cmd, help=f"run the {cmd} operation against a problem file")
        p.add_argument("--file", required=True, help="problem file with the named objects")
        for key, kind in TASK_KEYS.items():
            if key not in _COMMON_KEYS:
                p.add_argument("--" + key.replace("_", "-"), default=None, help=kind.what, **kind.flag)
        p.add_argument("--expect", type=str, default=None, help="expected primary value, as JSON")
        _add_common(p)
    return parser


def _emit(report: Report, args) -> int:
    if args.json:
        print(json.dumps(report.to_json(timings=args.timings), sort_keys=True, indent=2))
    else:
        print(report.render_table())
        summary = report.to_json()["summary"]
        print(
            f"\n{summary['total']} tasks, {summary['checked']} checked, "
            f"{summary['failed']} failed"
        )
    return 0 if report.ok else 1


def _single_task(args) -> dict:
    task: dict = {"command": args.subcommand, "name": args.subcommand}
    for key in TASK_KEYS:
        if getattr(args, key) is not None:
            task[key] = getattr(args, key)
    if args.expect is not None:
        task["expect"] = json.loads(args.expect)
    return task


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand in ("suite", "run") and args.nmax is not None:
            raise InputError("--nmax applies to single-operation commands; set 'nmax' per task instead")
        if args.subcommand == "suite":
            report = run_paper_suite(field=args.field or "fp:32003", seed=args.seed or 0, cutoff=args.cutoff)
            return _emit(report, args)
        doc = read_problem(args.file)
        if args.subcommand != "run":
            # single-operation commands reuse the problem-file objects
            doc = {**doc, "tasks": [_single_task(args)]}
        problem = load_problem(doc, field_override=args.field, seed=args.seed, cutoff=args.cutoff)
        return _emit(run_problem(problem), args)
    except InputError as exc:
        return _error(exc, 2)
    except (ResourceLimit, SamplingExhausted) as exc:  # NotLocallyFinite, budgets
        return _error(exc, 3, typed=True)
    except HilbsamError as exc:
        return _error(exc, 2, typed=True)
    except ValueError as exc:
        return _error(exc, 2)


def _error(exc: Exception, code: int, typed: bool = False) -> int:
    """Print exc as one stderr line, with its class when typed, naming the
    task that raised it when the document named that task; returns code."""
    where = f"task {exc.task!r}: " if hasattr(exc, "task") else ""
    kind = f"{type(exc).__name__}: " if typed else ""
    print(f"error: {where}{kind}{exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
