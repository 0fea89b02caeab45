"""The workloads: what one pass calls, how large it is, and how it is checked.

Every pass draws its instances from the seed it is given; the same seed
gives the same instances, and the same program must then give the same
bytes. A pass is a list of calls into matmeans' public entry points. Each
call yields *units* (a case report, or one row of a sweep) that pass or
fail the check; ``check`` also returns, per unit, the exact text the
program produced, so ``run.py`` can require identical output from every
sample of a run.

The cost of a matrix instance grows steeply with its dimension n, which
the harness draws from the seed. With a few dozen instances per case, that
draw alone moved the time of a pass by 12% between seeds (IQR over eight
seeds, one tenth of the default suite). The matrix cases therefore run once
per dimension, with ``dim_min = dim_max = n`` and an equal share of their
instances at every n: the same mix as the default uniform draw, without its
sampling noise. The CLI has no flag that pins the dimension, so those calls
go through ``harness.run_suite`` and ``harness.sweep``, which the CLI
itself calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

#: Every registered case: its default instance count and, for matrix cases,
#: the largest dimension it draws (norm and Heinz cases cap n at 6).
CASES: dict[str, tuple[int, int | None]] = {
    "convex_refined_a": (1000, None),
    "convex_refined_b": (1000, None),
    "logconvex_refined_a": (1000, None),
    "logconvex_refined_b": (1000, None),
    "young_reverse_pos": (1000, None),
    "young_reverse_neg": (1000, None),
    "young_squared": (1000, None),
    "young_refined_t": (1000, None),
    "young_collapse_depth1": (1000, None),
    "harmonic_reverse": (1000, None),
    "harmonic_geometric": (1000, None),
    "kantorovich_scalar": (1000, None),
    "harmonic_curvature": (500, None),
    "operator_reverse_pos": (200, 8),
    "operator_reverse_neg": (200, 8),
    "operator_squared_pos": (200, 8),
    "operator_squared_neg": (200, 8),
    "harmonic_operator": (200, 8),
    "kantorovich_operator": (200, 8),
    "trace_additive": (200, 8),
    "trace_multiplicative": (200, 8),
    "trace_depth1": (200, 8),
    "norm_reverse_pos": (500, 6),
    "norm_reverse_neg": (500, 6),
    "norm_heinz_power": (500, 6),
    "norm_combined": (500, 6),
    "norm_collapse_depth1": (500, 6),
    "norm_logconvexity": (500, 6),
    "heinz_symmetry": (500, 6),
    "heinz_midpoint_convexity": (500, 6),
    "heinz_monotonicity": (50, 6),
    "heinz_reverse": (200, 6),
    "heinz_reverse_outside": (200, 6),
    "heinz_pq": (200, 6),
    "heinz_interpolated": (200, 6),
    "heinz_interpolated_grid": (200, 6),
}
SCALAR_CASES = tuple(name for name, (_, dim) in CASES.items() if dim is None)
DIM_MIN = 2
#: verify_default runs this fraction of every case's default instance count,
#: so that a pass fits many times into one run (the full suite takes ~64 s).
VERIFY_FRACTION = 10
SWEEP_CASES = ("operator_reverse_pos", "norm_heinz_power", "heinz_reverse")
SWEEP_DEPTHS = tuple(range(1, 17))


@dataclass
class Output:
    call: object
    csv: str = ""
    rc: int = 0
    rows: list = field(default_factory=list)
    error: str = ""


def _csv_rows(text: str) -> dict[str, str]:
    return {line.split(",", 1)[0]: line for line in text.splitlines()[1:] if line}


def _case_units(out: Output, cases, instances: int, suffix: str) -> dict:
    rows = _csv_rows(out.csv)
    units = {}
    for case in cases:
        row = rows.get(case, "")
        fields = row.split(",")
        ok = (
            not out.error
            and out.rc == 0
            and len(fields) == 6
            and fields[1] == str(instances)
            and fields[3] == "0"
        )
        units[case + suffix] = [ok, row]
    return units


@dataclass(frozen=True)
class CliVerify:
    """``matmeans verify --case ... --instances K`` through ``cli.main``."""

    cases: tuple[str, ...]
    instances: int

    @property
    def size(self) -> int:
        return len(self.cases) * self.instances

    def __call__(self, seed: int, tmp: Path) -> Output:
        from matmeans import cli

        csv = tmp / "verify.csv"
        argv = ["verify"]
        for case in self.cases:
            argv += ["--case", case]
        argv += ["--instances", str(self.instances), "--seed", str(seed),
                 "--csv", str(csv), "--failures-dir", str(tmp / "failures")]
        rc = cli.main(argv)
        text = csv.read_text() if csv.exists() else ""
        csv.unlink(missing_ok=True)
        return Output(self, csv=text, rc=rc)

    def units(self, out: Output) -> dict:
        return _case_units(out, self.cases, self.instances, "")


@dataclass(frozen=True)
class SuiteAtDim:
    """``harness.run_suite`` over some cases, every instance at dimension n."""

    cases: tuple[str, ...]
    instances: int
    dim: int

    @property
    def size(self) -> int:
        return len(self.cases) * self.instances

    def __call__(self, seed: int, tmp: Path) -> Output:
        from matmeans import harness, reporting

        reports = harness.run_suite(
            names=self.cases, failures_dir=tmp / "failures", instances=self.instances,
            seed=seed, dim_min=self.dim, dim_max=self.dim,
        )
        return Output(self, csv=reporting.reports_to_csv(reports))

    def units(self, out: Output) -> dict:
        return _case_units(out, self.cases, self.instances, f"@n{self.dim}")


@dataclass(frozen=True)
class SweepAtDim:
    """``harness.sweep(case, "depth", depths)`` with every instance at dimension n.

    The check: the mean refinement gain never decreases with depth.
    """

    case: str
    dim: int
    instances: int
    depths: tuple[int, ...] = SWEEP_DEPTHS

    @property
    def size(self) -> int:
        return len(self.depths) * self.instances

    def __call__(self, seed: int, tmp: Path) -> Output:
        from matmeans import harness

        rows = harness.sweep(
            self.case, "depth", self.depths, instances=self.instances, seed=seed,
            dim_min=self.dim, dim_max=self.dim,
        )
        return Output(self, rows=[(r.value, r.mean_gap, r.mean_gain) for r in rows])

    def units(self, out: Output) -> dict:
        units = {}
        rows = out.rows if len(out.rows) == len(self.depths) else [None] * len(self.depths)
        previous_gain = float("-inf")
        for depth, row in zip(self.depths, rows):
            ok = not out.error and row is not None and row[2] >= previous_gain
            if row is not None:
                previous_gain = row[2]
            units[f"{self.case}@n{self.dim}@depth{depth}"] = [ok, repr(row)]
        return units


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple
    #: Run once before the timed pass, in the same fresh process: set-up.
    first: object

    @property
    def instances(self) -> int:
        return sum(call.size for call in self.calls)

    def check(self, outputs: list[Output]) -> dict:
        units = {}
        for out in outputs:
            units.update(out.call.units(out))
        return units


def _dims(case: str) -> range:
    return range(DIM_MIN, CASES[case][1] + 1)


def _verify_default_calls() -> tuple:
    scalar_groups: dict[int, list[str]] = {}
    for case in SCALAR_CASES:
        scalar_groups.setdefault(CASES[case][0] // VERIFY_FRACTION, []).append(case)
    calls = [CliVerify(tuple(cases), k) for k, cases in scalar_groups.items()]
    for dim in range(DIM_MIN, max(d for _, d in CASES.values() if d is not None) + 1):
        per_dim: dict[int, list[str]] = {}
        for case, (default, max_dim) in CASES.items():
            if max_dim is not None and dim <= max_dim:
                share = max(1, round(default / VERIFY_FRACTION / len(_dims(case))))
                per_dim.setdefault(share, []).append(case)
        calls += [SuiteAtDim(tuple(cases), k, dim) for k, cases in per_dim.items()]
    return tuple(calls)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_default",
            "all 36 cases at a tenth of their default size: the suite users wait on",
            _verify_default_calls(),
            first=CliVerify(SCALAR_CASES[:1], 1),
        ),
        Workload(
            "scalar_chains",
            "the 13 scalar cases at full size: no linalg, means or norms (control)",
            (
                CliVerify(tuple(c for c in SCALAR_CASES if CASES[c][0] == 1000), 1000),
                CliVerify(tuple(c for c in SCALAR_CASES if CASES[c][0] == 500), 500),
            ),
            first=CliVerify(SCALAR_CASES[:1], 1),
        ),
        Workload(
            "sweep_depth",
            "depth 1..16 on three matrix cases: same A, B re-evaluated, deep chains",
            tuple(SweepAtDim(case, dim, 1) for case in SWEEP_CASES for dim in _dims(case)),
            first=SweepAtDim(SWEEP_CASES[0], DIM_MIN, 1, depths=(1,)),
        ),
    )
}
