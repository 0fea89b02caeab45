"""Command-line front end.

Subcommands::

    matmeans gen     --n 4 --cond 100 --seed 7 --out a.json
    matmeans mean    --kind geom --nu 0.5 --a a.json --b b.json [--out m.json]
    matmeans norm    --kind schatten --p 3 --x a.json
    matmeans verify  [--case NAME ...] [--instances K] [--seed S] ...
    matmeans sweep   --case young_reverse_pos --param N --grid 1:8:1 [--csv f.csv]

Standard output carries data only; diagnostics go to standard error. Exit
codes: 0 success, 1 verification failures, 2 domain/precondition error or
a solver that did not converge, 64 usage error (a bad flag, or a flag value
out of its range).

``verify`` and ``sweep`` make no request check of their own: what the
harness's one check rejects before any instance is drawn raises
``RequestError``, a usage error, and a DomainError met while the cases run
exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import harness, means, norms
from .errors import ConvergenceError, DomainError, RequestError
from .linalg import SpdMatrix, matrix_from_json, matrix_to_json, random_spd
from .reporting import reports_to_csv

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

# Most points a sweep grid may hold; a larger count is a usage error.
MAX_GRID_POINTS = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; route through our usage exit code.
    def error(self, message):
        raise _UsageError(message)


def _load_matrix(path: str):
    try:
        return matrix_from_json(json.loads(Path(path).read_text()))
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read matrix file {path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _cmd_gen(args) -> int:
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    with _usage_check():
        m = random_spd(args.n, args.cond, args.seed)
    _emit(json.dumps(matrix_to_json(m)), args.out)
    return EXIT_OK


def _cmd_mean(args) -> int:
    if not math.isfinite(args.nu):
        raise _UsageError(f"--nu must be finite, got {args.nu}")
    a, b = SpdMatrix(_load_matrix(args.a).a), SpdMatrix(_load_matrix(args.b).a)
    fn = {
        "arith": means.arithmetic_mean,
        "geom": means.geometric_mean,
        "harm": means.harmonic_mean,
    }[args.kind]
    result = fn(a, b, args.nu)
    _emit(json.dumps(matrix_to_json(result)), args.out)
    return EXIT_OK


def _parse_norm_kind(args) -> norms.NormKind:
    if args.kind == "schatten":
        if args.p is None:
            raise _UsageError("--kind schatten requires --p")
        return norms.NormKind.schatten(args.p)
    if args.kind == "kyfan":
        if args.k is None:
            raise _UsageError("--kind kyfan requires --k")
        return norms.NormKind.ky_fan(args.k)
    return {
        "spectral": norms.NormKind.spectral,
        "trace": norms.NormKind.trace_norm,
        "frobenius": norms.NormKind.frobenius,
    }[args.kind]()


def _cmd_norm(args) -> int:
    with _usage_check():
        kind = _parse_norm_kind(args)
    value = norms.ui_norm(_load_matrix(args.x), kind)
    _emit(f"{value:.17g}", None)
    return EXIT_OK


@contextmanager
def _usage_check():
    """Report a DomainError from an argument check as a usage error."""
    try:
        yield
    except DomainError as exc:
        raise _UsageError(str(exc)) from None


def _overrides(**flags) -> dict:
    """Config overrides for the flags given explicitly; per-case defaults
    apply to the other flags."""
    return {key: val for key, val in flags.items() if val is not None}


def _cmd_verify(args) -> int:
    names = args.case or harness.case_names()
    overrides = _overrides(
        instances=args.instances, seed=args.seed, dim_max=args.dim_max, rel_tol=args.tol
    )
    reports = harness.run_suite(names=names, failures_dir=args.failures_dir, **overrides)
    for report in reports:
        sys.stdout.write(report.summary_line() + "\n")
    total_failures = sum(r.failures for r in reports)
    sys.stdout.write(
        f"total: {len(reports)} cases, {sum(r.instances for r in reports)} instances, "
        f"{total_failures} failures\n"
    )
    if args.csv is not None:
        Path(args.csv).write_text(reports_to_csv(reports))
    return EXIT_OK if total_failures == 0 else EXIT_FAILURES


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"grid values must be numeric, got {text!r}") from None
    if not np.all(np.isfinite((start, stop, step))):
        raise _UsageError(f"grid values must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise _UsageError(f"empty grid {text!r}")
    # Points start + i * step up to the last one <= stop, counted from the
    # span in steps. The allowance covers the rounding of the span and of
    # the decimal start, stop and step (0:0.3:0.1 keeps 0.3), but stays
    # below a quarter step where the grid is as fine as the doubles at
    # start and stop.
    span = (stop - start) / step
    eps = sys.float_info.epsilon
    allowance = min(0.25, 4.0 * eps * ((abs(start) + abs(stop)) / step + span))
    if not span + allowance < MAX_GRID_POINTS:
        raise _UsageError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    # The values np.arange gives: start, start + step, then start + i * delta
    # with delta = (start + step) - start.
    grid = np.empty(math.floor(span + allowance) + 1)
    grid[0] = start
    if len(grid) > 1:
        grid[1] = start + step
        grid[2:] = start + np.arange(2, len(grid)) * (grid[1] - start)
    return grid


def _cmd_sweep(args) -> int:
    param = {"nu": "nu", "N": "depth", "cond": "cond"}[args.param]
    grid = _parse_grid(args.grid)
    overrides = _overrides(instances=args.instances, seed=args.seed)
    rows = harness.sweep(args.case, param, grid, **overrides)
    lines = [f"{args.param},mean_gap,mean_gain"]
    lines.extend(
        f"{r.value:.17g},{r.mean_gap:.17g},{r.mean_gain:.17g}" for r in rows
    )
    _emit("\n".join(lines), args.csv)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="matmeans", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a random SPD matrix as JSON")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--cond", type=float, default=100.0)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(fn=_cmd_gen)

    p_mean = sub.add_parser("mean", help="compute a weighted operator mean")
    p_mean.add_argument("--kind", choices=("arith", "geom", "harm"), required=True)
    p_mean.add_argument("--nu", type=float, required=True)
    p_mean.add_argument("--a", required=True)
    p_mean.add_argument("--b", required=True)
    p_mean.add_argument("--out", default=None)
    p_mean.set_defaults(fn=_cmd_mean)

    p_norm = sub.add_parser("norm", help="evaluate a unitarily invariant norm")
    p_norm.add_argument(
        "--kind",
        choices=("spectral", "trace", "frobenius", "schatten", "kyfan"),
        required=True,
    )
    p_norm.add_argument("--p", type=float, default=None)
    p_norm.add_argument("--k", type=int, default=None)
    p_norm.add_argument("--x", required=True)
    p_norm.set_defaults(fn=_cmd_norm)

    p_verify = sub.add_parser("verify", help="run the inequality verification suite")
    p_verify.add_argument("--case", action="append", default=None)
    p_verify.add_argument("--instances", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--dim-max", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--csv", default=None)
    p_verify.add_argument("--failures-dir", default="matmeans_failures")
    p_verify.set_defaults(fn=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="sweep one case parameter over a grid")
    p_sweep.add_argument("--case", required=True)
    p_sweep.add_argument("--param", choices=("nu", "N", "cond"), required=True)
    p_sweep.add_argument("--grid", required=True)
    p_sweep.add_argument("--instances", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--csv", default=None)
    p_sweep.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (_UsageError, RequestError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (DomainError, ConvergenceError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
