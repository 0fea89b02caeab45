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
  value and reverse: nu [3, 0, 3] (or [-4, -1, -4]) and depth
  [6, 1, 6, 3]. A rebuild reuses what the evaluation contexts kept from
  the previous grid value, so a value kept that its pin had moved would
  show on these lines;
* ``sweep_depth.txt``: the series of the ``sweep_depth`` benchmark workload
  (depth 1..16, one instance at each dimension n) on seeds 7,
  ``DEFAULT_SEED`` and 11;
* ``payloads.txt``: ``json.dumps(build_instance(name, i, forced).payload)``
  for every registered case and i = 0..3, once unforced and once with each
  of its sweep parameters pinned (nu 2.0, or -2.5 on the nu <= -1 branch;
  depth 3; cond 10). Failure files replay exactly these payloads;
* ``failures/``: the failure files that ``run_case(name, instances=200,
  depth_min=32, depth_max=32, failures_dir=...)`` writes for the four
  catalog cases, whose telescoped drop loses enough to round-off at depth
  32 that some true instances fail (17 files at the default seed). They
  cover the path that picks the failing rows and draws their payloads.

With ``--against DIR`` it then compares the new snapshot with the one in
``DIR`` and prints what moved: for each CSV row that differs, whether its
``instances``, ``skipped`` and ``failures`` match and how far ``min_slack``
and ``max_gap`` shifted; for each other file, how many lines differ and the
largest shift of a value relative to the largest value of its line. It
exits 1 when a count differs, a case is missing on one side, a file's line
count differs, a series errors on one side only, a payload differs, or a
failure file differs or is missing on one side::

    python3 tools/identity_snapshot.py --src src --out /tmp/snap-change \
        --against /tmp/snap-parent

The default suite takes most of the run time; the whole snapshot takes
about five seconds on a 2-core x86-64 machine.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import shutil
import sys
from pathlib import Path

SWEEP_INSTANCES = 6
#: Each parameter's grids: rising, then revisiting and reversing.
GRIDS = {"depth": ((1, 3, 6), (6, 1, 6, 3)), "cond": ((2.0, 50.0),)}
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
    names = (*(f"{stem}_quantiles.txt" for stem in SUITES), "sweeps.txt", "sweep_depth.txt")
    for name in (*names, "payloads.txt"):
        old = (against / name).read_text().splitlines()
        new = (out / name).read_text().splitlines()
        if len(old) != len(new):
            same = False
            print(f"{name}: {len(old)} lines -> {len(new)} lines")
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
            if vo is None or vn is None or len(vo) != len(vn):
                same = same and vo is None and vn is None  # raised on both sides
                print(f"{name}: {o!r} -> {n!r}")
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
