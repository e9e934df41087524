"""Command-line front end.

Subcommands:

* ``compute``  -- solve a (degree, coef) problem and print the design(s),
* ``verify``   -- certify a design read from a file,
* ``oracle``   -- cross-check the solver against the LP oracle on [-1, 1]
  and on a grid,
* ``examples`` -- recompute the built-in reference tables for degrees 3, 4.

Exit codes: 0 success / verified, 1 verification or reference-table failure,
2 usage or parse error, 3 numerical failure, 141 (128 + SIGPIPE, as a shell
reports a tool killed by it) when stdout is closed before the output is
written, as in ``polydesign verify ... | head -1``, without a traceback, and
74 (``EX_IOERR``) when any other write to stdout fails, as to a full disk or
``/dev/full``, with one ``error: cannot write output: ...`` line on stderr.
Output is deterministic: identical invocations produce byte-identical text.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .design import CONDITION_TOL, DesignProblem
from .document import document_from_result, format_float as _fmt, parse_design_file, render_document
from .elfving import VARIANCE_RTOL, ElfvingReport, check_tolerance, verify
from .errors import (
    DocumentError,
    InvalidProblemError,
    NumericalDegeneracyError,
    OracleFailureError,
    PolydesignError,
)
from .oracle import DEFAULT_GRID_SIZE as ORACLE_GRID_SIZE, elfving_lp, oracle_variance
from .solver import certificate_for, solve

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141
EXIT_IO_ERROR = 74

MAX_DEGREE = 30

_SQRT2 = math.sqrt(2.0)
_RADICAL = math.sqrt(_SQRT2 - 1.0)

# Reference designs for degrees 3 and 4: exact fractions and radicals
# evaluated in double precision. One tuple per problem:
# (degree, coef, [(support, weights), ...]).
REFERENCE_DESIGNS = [
    (3, 1, [((-1.0, -0.5, 0.5), (1 / 9, 2 / 3, 2 / 9)),
            ((-0.5, 0.5, 1.0), (2 / 9, 2 / 3, 1 / 9))]),
    (3, 2, [((-1.0, 1.0), (0.5, 0.5))]),
    (3, 3, [((-1.0, 0.5, 1.0), (1 / 12, 2 / 3, 1 / 4)),
            ((-1.0, -0.5, 1.0), (1 / 4, 2 / 3, 1 / 12))]),
    (4, 1, [((-1.0, -0.5, 0.5, 1.0), (1 / 18, 4 / 9, 4 / 9, 1 / 18))]),
    (4, 2, [((-1.0, -_RADICAL, _RADICAL, 1.0),
             (_SQRT2 / (8 * _SQRT2 + 8), (3 * _SQRT2 + 4) / (8 * _SQRT2 + 8),
              (3 * _SQRT2 + 4) / (8 * _SQRT2 + 8), _SQRT2 / (8 * _SQRT2 + 8)))]),
    (4, 3, [((-1.0, -0.5, 0.5, 1.0), (1 / 6, 1 / 3, 1 / 3, 1 / 6))]),
    (4, 4, [((-1.0, -_RADICAL, _RADICAL, 1.0),
             (_SQRT2 / (4 * _SQRT2 + 4), (_SQRT2 + 2) / (4 * _SQRT2 + 4),
              (_SQRT2 + 2) / (4 * _SQRT2 + 4), _SQRT2 / (4 * _SQRT2 + 4)))]),
]


def _check_problem(degree: int, coef: int) -> DesignProblem:
    if not 1 <= degree <= MAX_DEGREE:
        raise InvalidProblemError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
    return DesignProblem(n=degree, p=coef)


def _print_design_table(out, result) -> None:
    print(f"degree:    {result.problem.n}", file=out)
    print(f"coef:      {result.problem.p}", file=out)
    print(f"case:      {result.case_tag}", file=out)
    print(f"h:         {_fmt(result.h)}", file=out)
    print(f"variance:  {_fmt(result.variance)}", file=out)
    print(f"certificate Chebyshev coeffs c_1..c_n: "
          f"[{', '.join(_fmt(c) for c in result.certificate.coeffs)}]", file=out)
    for idx, design in enumerate(result.designs, start=1):
        print(f"design {idx}:", file=out)
        print("  support                    weight", file=out)
        for x, w in zip(design.support, design.weights):
            print(f"  {_fmt(x):<26} {_fmt(w)}", file=out)


def _print_design_csv(out, result) -> None:
    print("degree,coef,case_tag,design_index,support,weight,h,variance", file=out)
    for idx, design in enumerate(result.designs, start=1):
        for x, w in zip(design.support, design.weights):
            print(
                f"{result.problem.n},{result.problem.p},{result.case_tag},"
                f"{idx},{_fmt(x)},{_fmt(w)},{_fmt(result.h)},{_fmt(result.variance)}",
                file=out,
            )


def cmd_compute(args, out) -> int:
    problem = _check_problem(args.degree, args.coef)
    result = solve(problem)
    if args.format == "json":
        out.write(render_document(document_from_result(result)))
    elif args.format == "csv":
        _print_design_csv(out, result)
    else:
        _print_design_table(out, result)
    return EXIT_OK


def _print_report(out, label: str, report: ElfvingReport, tol: float) -> None:
    print(f"{label}:", file=out)
    print(f"  condition1_ok:       {str(report.condition1_ok).lower()}"
          f"  (max |P| = {_fmt(report.condition1_max)}; ok when <= 1 + {tol!r})", file=out)
    print(f"  condition2_ok:       {str(report.condition2_ok).lower()}"
          f"  (ok when ||P(x_i)| - 1| <= {tol!r})", file=out)
    print(f"  condition3_residual: {_fmt(report.condition3_residual)}"
          f"  (ok when <= {tol!r})", file=out)
    print(f"  h:                   {_fmt(report.h)}", file=out)
    print(f"  variance (formula):  {_fmt(report.variance_formula)}", file=out)
    print(f"  variance (matrix):   {_fmt(report.variance_matrix)}", file=out)
    print(f"  variances_agree:     {str(report.variances_agree).lower()}"
          f"  (|formula - matrix| <= {_fmt(VARIANCE_RTOL)} * matrix)", file=out)
    print(f"  verdict:             {str(report.verdict).lower()}", file=out)


def cmd_verify(args, out) -> int:
    problem = _check_problem(args.degree, args.coef)
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read design file: {exc}") from exc
    designs, certificate = parse_design_file(text, problem)
    if certificate is None:
        certificate = certificate_for(problem)
    all_ok = True
    for idx, design in enumerate(designs, start=1):
        report = verify(design, problem, certificate, condition_tol=args.tol)
        _print_report(out, f"design {idx}", report, args.tol)
        all_ok = all_ok and report.verdict
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_oracle(args, out) -> int:
    problem = _check_problem(args.degree, args.coef)
    solver = solve(problem).variance
    # the grid bound first, as it checks --grid before any LP runs; nothing
    # is printed until both LPs have succeeded
    grid = oracle_variance(problem, args.grid)
    interval = elfving_lp(problem).variance
    print(f"degree:                 {problem.n}", file=out)
    print(f"coef:                   {problem.p}", file=out)
    print(f"grid:                   {args.grid}", file=out)
    print(f"solver variance:        {_fmt(solver)}", file=out)
    for name, variance in (("interval", interval), ("grid", grid)):
        gap = variance - solver
        print(f"{name + ' variance:':<24}{_fmt(variance)}", file=out)
        print(f"{name + ' absolute gap:':<24}{_fmt(gap)}", file=out)
        print(f"{name + ' relative gap:':<24}{_fmt(abs(gap) / solver)}", file=out)
    return EXIT_OK


def cmd_examples(args, out) -> int:
    check_tolerance(args.tol)
    max_dev = 0.0
    rows = []
    for degree, coef, tables in REFERENCE_DESIGNS:
        result = solve(DesignProblem(n=degree, p=coef))
        if len(result.designs) != len(tables):
            raise NumericalDegeneracyError(
                f"expected {len(tables)} design(s) for ({degree}, {coef})"
            )
        for idx, ((ref_support, ref_weights), design) in enumerate(
            zip(tables, result.designs), start=1
        ):
            dev = max(
                np.abs(design.support - np.array(ref_support)).max(),
                np.abs(design.weights - np.array(ref_weights)).max(),
            )
            max_dev = max(max_dev, dev)
            for x, w, rx, rw in zip(design.support, design.weights, ref_support, ref_weights):
                rows.append((degree, coef, idx, x, w, rx, rw))

    if args.format == "csv":
        print("degree,coef,design_index,support,weight,reference_support,reference_weight", file=out)
        for degree, coef, idx, x, w, rx, rw in rows:
            print(f"{degree},{coef},{idx},{_fmt(x)},{_fmt(w)},{_fmt(rx)},{_fmt(rw)}", file=out)
    else:
        print("degree coef design    computed (support, weight)                 reference (support, weight)", file=out)
        for degree, coef, idx, x, w, rx, rw in rows:
            print(f"{degree:>6} {coef:>4} {idx:>6}    ({_fmt(x)}, {_fmt(w)})    ({_fmt(rx)}, {_fmt(rw)})", file=out)
    print(f"max absolute deviation: {_fmt(max_dev)}", file=out)
    ok = max_dev <= args.tol
    print(f"all tables match: {str(ok).lower()}", file=out)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    ``parse_args`` returns a fresh namespace on each call, so one call's
    arguments never leak into the next.
    """
    parser = argparse.ArgumentParser(
        prog="polydesign",
        description="Minimum-variance designs for single coefficients of "
                    "polynomial regression through the origin on [-1, 1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="solve a design problem")
    p_compute.add_argument("--degree", type=int, required=True)
    p_compute.add_argument("--coef", type=int, required=True)
    p_compute.add_argument("--format", choices=("table", "csv", "json"), default="table")

    p_verify = sub.add_parser("verify", help="certify a design from a file")
    p_verify.add_argument("--file", required=True)
    p_verify.add_argument("--degree", type=int, required=True)
    p_verify.add_argument("--coef", type=int, required=True)
    p_verify.add_argument("--tol", type=float, default=CONDITION_TOL,
                          help="per-condition tolerance")

    p_oracle = sub.add_parser("oracle", help="LP cross-check of the solver")
    p_oracle.add_argument("--degree", type=int, required=True)
    p_oracle.add_argument("--coef", type=int, required=True)
    p_oracle.add_argument("--grid", type=int, default=ORACLE_GRID_SIZE,
                          help="evenly spaced points of the grid bound")

    p_examples = sub.add_parser("examples", help="recompute the reference tables")
    p_examples.add_argument("--format", choices=("table", "csv"), default="table")
    p_examples.add_argument("--tol", type=float, default=1e-12,
                            help="maximum allowed deviation from the reference values")

    return parser


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    args = build_parser().parse_args(argv)
    handlers = {
        "compute": cmd_compute,
        "verify": cmd_verify,
        "oracle": cmd_oracle,
        "examples": cmd_examples,
    }
    try:
        return handlers[args.command](args, out)
    except (OracleFailureError, NumericalDegeneracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (PolydesignError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except OSError as exc:  # a closed pipe, or ENOSPC on a full disk
        if isinstance(exc, BrokenPipeError):
            code = EXIT_BROKEN_PIPE
        else:
            print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
            code = EXIT_IO_ERROR
        # Python flushes stdout once more at exit, which would raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
