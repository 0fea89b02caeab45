"""Write a snapshot of matmeans' outputs, to check that a change is bit-identical.

Run it once on each of two source trees and compare the two directories::

    python3 tools/identity_snapshot.py --src ../parent/src --out /tmp/snap-parent
    python3 tools/identity_snapshot.py --src src --out /tmp/snap-change
    diff -r /tmp/snap-parent /tmp/snap-change   # silent when identical

``--src`` is the directory that holds the ``matmeans`` package to import.
Every float goes out as ``float.hex``, so any change in the last bit shows.
The files:

* ``default.csv`` and ``default_quantiles.txt``: ``reports_to_csv(run_suite())``
  at the default config, and every report's ``link_quantiles``;
* ``instances20.csv`` and ``instances20_quantiles.txt``: the same at
  ``instances=20``;
* ``highcond.csv`` and ``highcond_quantiles.txt``: the same at
  ``instances=20, cond_max=1e12``, so the matrix cases' stacks of mixed n
  are compared at a high condition number too;
* ``sweeps.txt``: every registered case x ``sweep_params`` series at 6
  instances, on nu {0, 1.5, 3} (or {-1, -2.5, -4} on the nu <= -1 branch),
  depth {1, 3, 6} and cond {2, 50}, and again on grids that revisit a
  value and reverse: nu [3, 0, 3] (or [-4, -1, -4]), depth [6, 1, 6, 3]
  and cond [50, 2, 50]. A nu or depth sweep builds each instance's whole
  grid in one call, which evaluates each distinct weight once, and a cond
  sweep draws each instance again at every value, a revisited one too; a
  value read at the wrong grid point, or a redraw that differs, would show
  on these lines;
* ``sweep_depth.txt``: the series of the ``sweep_depth`` benchmark workload
  (depth 1..16, one instance at each dimension n) on seeds 7,
  ``DEFAULT_SEED`` and 11;
* ``payloads.txt``: ``json.dumps(build_instance(name, i, forced).payload)``
  for every registered case and i = 0..3, once unforced and once with each
  of its sweep parameters pinned (nu 2.0, or -2.5 on the nu <= -1 branch;
  depth 3; cond 10). Failure files replay exactly these payloads;
* ``means.txt``: ``arithmetic_mean``, ``geometric_mean`` and
  ``harmonic_mean`` at nu {0, 0.3, 1, 1.3, -0.7, 5, -3, 1e308, -1e308,
  nan}, with ``operator_reverse_chain``, ``operator_squared_chain`` (nu >=
  0 and nu <= -1), ``harmonic_operator_chain`` at depths 1 and 5 and
  ``kantorovich_operator_chain`` at the same weights, on three seeded pairs
  at each n in {1, 2, 3, 5} and cond 1e6 (the harmonic and Kantorovich
  chains, which need A <= B, on (A, A + B)); a mean's entries, a chain's
  value rows, or the error a call raises. The harness reaches the matrix
  chains only through their grid forms, and never calls the means;
* ``chains.txt``: every public chain that the refinement kernel serves,
  called one value at a time, at nu {0, 0.7, 3, -1, -2.5, -0.5, 1e308,
  -1e308, nan} (both branches, the gap, the extremes and NaN) and depths
  {1, 5, 32}:
  ``convex_refined_chain`` and ``logconvex_refined_chain`` with every
  catalog function on both anchors, on two intervals; the Young, harmonic
  and Kantorovich chains on three (x, y) pairs, one of them reversed; the
  three trace chains on seeded pairs at n in {1, 2, 3} and cond 1e6; and
  ``norm_reverse_chain``, ``norm_heinz_chain``, ``combined_norm_chain`` and
  ``heinz_reverse_chain`` for each of the five ``DEFAULT_NORM_KINDS`` on
  the same pairs with a seeded complex X. A line holds the chain's values
  or the error the call raises. The CSV aggregates see these chains only
  through the harness's draws;
* ``cli.txt``: for each bad request in ``CLI_REQUESTS`` (a ``verify`` or
  ``sweep`` with an unknown case, a parameter the case does not sweep, a
  flag or grid value out of range, a malformed grid, or a catalog function
  taken outside its domain), the exit code and standard error of
  ``cli.main``, or the type and text of an exception that escapes it;
* ``failures/``: the failure files that ``run_case(name, instances=200,
  depth_min=32, depth_max=32, failures_dir=...)`` writes for the four
  catalog cases, whose telescoped drop loses enough to round-off at depth
  32 that some true instances fail (17 files at the default seed). They
  cover the path that picks the failing rows and draws their payloads.

With ``--against DIR`` it then compares the new snapshot with the one in
``DIR`` and prints what moved: for each CSV row that differs, whether its
``instances``, ``skipped`` and ``failures`` match and how far ``min_slack``
and ``max_gap`` shifted; for each other file, how many lines differ and the
largest shift of a value relative to the largest value of its line, and
each line of ``means.txt``, ``chains.txt`` and ``cli.txt`` that differs.
It exits 1 when a count differs, a case is missing on one side, a file's
line count differs, a series errors on one side only, a payload or a line
of ``chains.txt`` differs, a request of ``cli.txt`` ends in another exit
code or exception type, or a failure file differs or is missing on one
side::

    python3 tools/identity_snapshot.py --src src --out /tmp/snap-change \
        --against /tmp/snap-parent

The default suite takes most of the run time; the whole snapshot takes
about five seconds on a 2-core x86-64 machine.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

SWEEP_INSTANCES = 6
#: Each parameter's grids: rising, then revisiting and reversing.
GRIDS = {"depth": ((1, 3, 6), (6, 1, 6, 3)), "cond": ((2.0, 50.0), (50.0, 2.0, 50.0))}
NU_GRIDS = {1: ((0.0, 1.5, 3.0), (3.0, 0.0, 3.0)), -1: ((-1.0, -2.5, -4.0), (-4.0, -1.0, -4.0))}
PAYLOAD_INSTANCES = 4
#: The value ``payloads.txt`` pins each sweep parameter to (nu by branch).
PINS = {"depth": 3, "cond": 10.0}
NU_PINS = {1: 2.0, -1: -2.5}
#: The ``sweep_depth`` workload of perfbench/workloads.py: case -> largest n.
SWEEP_DEPTH_CASES = {"operator_reverse_pos": 8, "norm_heinz_power": 6, "heinz_reverse": 6}
SWEEP_DEPTHS = tuple(range(1, 17))
COUNTS = ("instances", "skipped", "failures")
#: The suite runs: file stem -> ``run_suite`` overrides.
SUITES = {
    "default": {},
    "instances20": {"instances": 20},
    "highcond": {"instances": 20, "cond_max": 1e12},
}
#: ``means.txt``: the weights, the chains' depths, and the seeded pairs.
MEAN_NUS = (0.0, 0.3, 1.0, 1.3, -0.7, 5.0, -3.0, 1e308, -1e308, math.nan)
MEAN_DEPTHS = (1, 5)
MEAN_DIMS = (1, 2, 3, 5)
MEAN_SEEDS = (0, 1, 2)
MEAN_COND = 1e6
#: ``chains.txt``: the weights and depths, the scalar inputs, and the pairs.
CHAIN_NUS = (0.0, 0.7, 3.0, -1.0, -2.5, -0.5, 1e308, -1e308, math.nan)
CHAIN_DEPTHS = (1, 5, 32)
CHAIN_INTERVALS = ((-0.75, 1.5), (0.25, 2.0))
CHAIN_XY = ((0.3, 2.5), (1e-3, 7.0), (2.5, 0.3))
CHAIN_DIMS = (1, 2, 3)
CHAIN_SEEDS = (0, 1)
#: ``cli.txt``: bad ``verify`` and ``sweep`` requests. Each names one case,
#: so a request that is wrongly accepted runs only that case.
CLI_REQUESTS = (
    ("verify", "--case", "no_such_case"),
    ("verify", "--case", "kantorovich_scalar", "--instances", "0"),
    ("verify", "--case", "kantorovich_scalar", "--tol", "-1"),
    ("sweep", "--case", "no_such_case", "--param", "nu", "--grid", "0:1:1"),
    ("sweep", "--case", "kantorovich_scalar", "--param", "N", "--grid", "1:2:1"),
    ("sweep", "--case", "operator_reverse_neg", "--param", "nu", "--grid", "0:1:1"),
    ("sweep", "--case", "young_reverse_pos", "--param", "N", "--grid", "2.5:2.5:1"),
    ("sweep", "--case", "operator_reverse_pos", "--param", "cond", "--grid", "0.5:0.5:1"),
    ("sweep", "--case", "young_reverse_pos", "--param", "nu", "--grid", "1:2"),
    ("sweep", "--case", "convex_refined_a", "--param", "nu", "--grid", "500:500:1",
     "--instances", "50"),
)
#: The runs whose failure files go to ``failures/``: case -> overrides.
FAILURE_RUNS = {
    name: {"instances": 200, "depth_min": 32, "depth_max": 32}
    for name in ("convex_refined_a", "convex_refined_b", "logconvex_refined_a",
                 "logconvex_refined_b")
}


def _hex(x: float) -> str:
    return float(x).hex()


def _quantile_lines(reports) -> str:
    lines = []
    for r in reports:
        qs = " | ".join(" ".join(_hex(q) for q in link) for link in r.link_quantiles)
        lines.append(f"{r.name}: {qs}")
    return "\n".join(lines) + "\n"


def _series(harness, name: str, param: str, grid, **overrides) -> str:
    try:
        rows = harness.sweep(name, param, grid, **overrides)
    except (ValueError, RuntimeError) as exc:  # DomainError, ConvergenceError, ...
        return f"{name} {param}: {type(exc).__name__}: {exc}"
    cells = " ".join(f"{_hex(r.value)},{_hex(r.mean_gap)},{_hex(r.mean_gain)}" for r in rows)
    return f"{name} {param}: {cells}"


def _call(label: str, fn, *args) -> str:
    """The line of ``fn(*args)``: a chain's value rows, a matrix's entries
    (real and imaginary parts), or the error it raises."""
    from matmeans.linalg import OperatorChain
    from matmeans.scalar import ScalarChain

    try:
        out = fn(*args)
    except Exception as exc:  # any type, so a change of type shows too
        return f"{label}: {type(exc).__name__}: {exc}"
    if isinstance(out, OperatorChain):
        return f"{label}: " + " | ".join(" ".join(_hex(v) for v in row) for row in out.values)
    if isinstance(out, ScalarChain):
        return f"{label}: " + " ".join(_hex(v) for v in out.values)
    return f"{label}: " + " ".join(f"{_hex(z.real)},{_hex(z.imag)}" for z in out.a.ravel())


def _means_lines() -> list:
    from matmeans import means
    from matmeans.linalg import SpdMatrix, random_spd

    lines = []
    for n in MEAN_DIMS:
        for seed in MEAN_SEEDS:
            a, b = random_spd(n, MEAN_COND, 2 * seed), random_spd(n, MEAN_COND, 2 * seed + 1)
            ordered = SpdMatrix(a.a + b.a)  # A <= A + B
            for nu in MEAN_NUS:
                where = f"n={n} seed={seed} nu={nu!r}"
                for fn in (means.arithmetic_mean, means.geometric_mean, means.harmonic_mean):
                    lines.append(_call(f"{fn.__name__} {where}", fn, a, b, nu))
                for depth in MEAN_DEPTHS:
                    for fn, c in ((means.operator_reverse_chain, b),
                                  (means.operator_squared_chain, b),
                                  (means.harmonic_operator_chain, ordered)):
                        lines.append(_call(f"{fn.__name__} {where} depth={depth}",
                                           fn, a, c, nu, depth))
                lines.append(_call(f"kantorovich_operator_chain {where}",
                                   means.kantorovich_operator_chain, a, ordered, nu))
    return lines


def _chains_lines() -> list:
    import numpy as np

    from matmeans import means, norms, scalar
    from matmeans.linalg import random_spd

    lines = []
    catalogs = ((scalar.convex_refined_chain, scalar.CONVEX_CATALOG),
                (scalar.logconvex_refined_chain, scalar.LOGCONVEX_CATALOG))
    xy_chains = (scalar.young_reverse_chain, scalar.young_squared_chain,
                 scalar.young_refinement_chain, scalar.harmonic_reverse_chain,
                 scalar.harmonic_geometric_chain)
    for nu in CHAIN_NUS:
        for depth in CHAIN_DEPTHS:
            where = f"nu={nu!r} depth={depth}"
            for chain_fn, catalog in catalogs:
                for name, f in catalog:
                    for lo, hi in CHAIN_INTERVALS:
                        for anchor in ("a", "b"):
                            lines.append(_call(
                                f"{chain_fn.__name__} {name} [{lo!r}, {hi!r}] {anchor} {where}",
                                chain_fn, f, lo, hi, nu, depth, anchor,
                            ))
            for x, y in CHAIN_XY:
                for chain_fn in xy_chains:
                    lines.append(_call(f"{chain_fn.__name__} x={x!r} y={y!r} {where}",
                                       chain_fn, x, y, nu, depth))
        for x, y in CHAIN_XY:
            lines.append(_call(f"kantorovich_chain x={x!r} y={y!r} nu={nu!r}",
                               scalar.kantorovich_chain, x, y, nu))

    norm_chains = (norms.norm_reverse_chain, norms.norm_heinz_chain,
                   norms.combined_norm_chain, norms.heinz_reverse_chain)
    for n in CHAIN_DIMS:
        for seed in CHAIN_SEEDS:
            a, b = random_spd(n, MEAN_COND, 2 * seed), random_spd(n, MEAN_COND, 2 * seed + 1)
            z = np.random.default_rng(seed).standard_normal((2, n, n))
            x = z[0] + 1j * z[1]
            for nu in CHAIN_NUS:
                where = f"n={n} seed={seed} nu={nu!r}"
                for depth in CHAIN_DEPTHS:
                    for chain_fn in (means.trace_additive_chain, means.trace_multiplicative_chain):
                        lines.append(_call(f"{chain_fn.__name__} {where} depth={depth}",
                                           chain_fn, a, b, nu, depth))
                    for kind in norms.DEFAULT_NORM_KINDS:
                        for chain_fn in norm_chains:
                            lines.append(_call(
                                f"{chain_fn.__name__} {kind} {where} depth={depth}",
                                chain_fn, a, b, x, nu, depth, kind,
                            ))
                lines.append(_call(f"trace_depth1_chain {where}",
                                   means.trace_depth1_chain, a, b, nu))
    return lines


def _cli_lines(failures: Path) -> list:
    """One line per request of ``CLI_REQUESTS``: its exit code and standard
    error, or the exception that escapes ``cli.main``. A request that runs
    writes its failure files to ``failures``."""
    from matmeans import cli

    lines = []
    for argv in CLI_REQUESTS:
        label = " ".join(argv)
        argv = [*argv, "--failures-dir", str(failures)] if argv[0] == "verify" else list(argv)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # any type, so a change of type shows
            lines.append(f"{label}: raised {type(exc).__name__}: {exc}")
        else:
            lines.append(f"{label}: exit {code}: {err.getvalue().strip()}")
    return lines


def snapshot(out: Path) -> None:
    from matmeans import harness

    out.mkdir(parents=True, exist_ok=True)
    for stem, overrides in SUITES.items():
        reports = harness.run_suite(**overrides)
        (out / f"{stem}.csv").write_text(harness.reports_to_csv(reports))
        (out / f"{stem}_quantiles.txt").write_text(_quantile_lines(reports))

    lines = []
    for name in harness.case_names():
        case = harness.REGISTRY[name]
        for param in case.sweep_params:
            grids = NU_GRIDS[-1 if case.nu_branch < 0 else 1] if param == "nu" else GRIDS[param]
            for grid in grids:
                lines.append(_series(harness, name, param, grid, instances=SWEEP_INSTANCES))
    (out / "sweeps.txt").write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} sweep series", file=sys.stderr)

    lines = []
    for seed in (7, harness.DEFAULT_SEED, 11):
        for name, dim_max in SWEEP_DEPTH_CASES.items():
            for n in range(2, dim_max + 1):
                series = _series(
                    harness, name, "depth", SWEEP_DEPTHS,
                    instances=1, seed=seed, dim_min=n, dim_max=n,
                )
                lines.append(f"seed={seed} n={n} {series}")
    (out / "sweep_depth.txt").write_text("\n".join(lines) + "\n")

    lines = []
    for name in harness.case_names():
        case = harness.REGISTRY[name]
        for param in (None, *case.sweep_params):
            if param is None:
                forced = {}
            elif param == "nu":
                forced = {param: NU_PINS[-1 if case.nu_branch < 0 else 1]}
            else:
                forced = {param: PINS[param]}
            for i in range(PAYLOAD_INSTANCES):
                payload = harness.build_instance(name, i, forced).payload
                lines.append(f"{name} {i} {json.dumps(forced)}: {json.dumps(payload)}")
    (out / "payloads.txt").write_text("\n".join(lines) + "\n")

    (out / "means.txt").write_text("\n".join(_means_lines()) + "\n")
    (out / "chains.txt").write_text("\n".join(_chains_lines()) + "\n")
    with tempfile.TemporaryDirectory() as scratch:
        (out / "cli.txt").write_text("\n".join(_cli_lines(Path(scratch))) + "\n")

    failures = out / "failures"
    shutil.rmtree(failures, ignore_errors=True)  # only this run's files
    failures.mkdir()
    for name, overrides in FAILURE_RUNS.items():
        harness.run_case(name, failures_dir=failures, **overrides)
    print(f"{len(list(failures.iterdir()))} failure files", file=sys.stderr)


def _failure_files(out: Path) -> dict:
    return {p.name: p.read_text() for p in sorted((out / "failures").glob("*.json"))}


def _csv_rows(path: Path) -> dict:
    with path.open(newline="") as fh:
        return {row["case"]: row for row in csv.DictReader(fh)}


def _shift(old: dict, new: dict, key: str) -> str:
    if old[key] == new[key]:
        return f"{key} {old[key]} (same)"
    return f"{key} {old[key]} -> {new[key]} ({float(new[key]) - float(old[key]):+.3e})"


def _values(line: str):
    """The floats of a snapshot line, or None for a series that raised."""
    cells = line.partition(": ")[2]
    if ": " in cells:  # "ExceptionType: message"
        return None
    return [float.fromhex(t) for t in re.split(r"[ ,|]+", cells) if t]


def compare(out: Path, against: Path) -> bool:
    """Print how the snapshot in ``out`` differs from the one in ``against``.

    Returns whether every verdict count is the same on both sides.
    """
    same = True
    for stem in SUITES:
        old, new = _csv_rows(against / f"{stem}.csv"), _csv_rows(out / f"{stem}.csv")
        for case in [*old, *(c for c in new if c not in old)]:
            o, n = old.get(case), new.get(case)
            if o == n:
                continue
            if o is None or n is None:
                same = False
                print(f"{stem}.csv {case}: only in {against if n is None else out}")
                continue
            counts = all(o[k] == n[k] for k in COUNTS)
            same = same and counts
            verdict = "counts match" if counts else "COUNTS DIFFER " + ", ".join(
                f"{k} {o[k]} -> {n[k]}" for k in COUNTS if o[k] != n[k]
            )
            print(f"{stem}.csv {case}: {verdict}; "
                  f"{_shift(o, n, 'min_slack')}; {_shift(o, n, 'max_gap')}")
    names = (*(f"{stem}_quantiles.txt" for stem in SUITES), "sweeps.txt", "sweep_depth.txt",
             "means.txt", "chains.txt")
    for name in (*names, "payloads.txt", "cli.txt"):
        old = (against / name).read_text().splitlines()
        new = (out / name).read_text().splitlines()
        if len(old) != len(new):
            same = False
            print(f"{name}: {len(old)} lines -> {len(new)} lines")
            continue
        if name == "cli.txt":
            # "request: exit N: stderr" or "request: raised Type: text".
            for o, n in zip(old, new):
                if o != n:
                    print(f"{name}: {o!r} -> {n!r}")
                    same = same and o.split(": ")[1] == n.split(": ")[1]
            continue
        if name == "payloads.txt":
            moved = sum(o != n for o, n in zip(old, new))
            same = same and not moved
            print(f"{name}: {moved} of {len(new)} lines differ")
            continue
        moved, worst = 0, 0.0
        for o, n in zip(old, new):
            if o == n:
                continue
            moved += 1
            vo, vn = _values(o), _values(n)
            raised = vo is None or vn is None or len(vo) != len(vn)
            if raised or name in ("means.txt", "chains.txt"):
                print(f"{name}: {o!r} -> {n!r}")
            same = same and name != "chains.txt"
            if raised:
                same = same and vo is None and vn is None  # raised on both sides
                continue
            scale = max(map(abs, vo + vn)) or 1.0
            worst = max(worst, max(abs(a - b) for a, b in zip(vo, vn)) / scale)
        print(f"{name}: {moved} of {len(new)} lines differ, largest shift "
              f"{worst:.3e} of its line's largest value")
    old, new = _failure_files(against), _failure_files(out)
    one_side = sorted(old.keys() ^ new.keys())
    moved = sum(old[f] != new[f] for f in old.keys() & new.keys())
    same = same and not one_side and not moved
    print(f"failures/: {len(old)} files -> {len(new)} files, {moved} differ"
          + (f", only on one side: {' '.join(one_side)}" if one_side else ""))
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="directory holding the matmeans package")
    parser.add_argument("--out", required=True, type=Path, help="directory to write")
    parser.add_argument("--against", type=Path,
                        help="snapshot directory to compare the new one with")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import matmeans

    if Path(matmeans.__file__).resolve().parent.parent != src:
        parser.error(f"imported matmeans from {matmeans.__file__}, not from {src}")
    snapshot(args.out)
    if args.against is not None and not compare(args.out, args.against):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
