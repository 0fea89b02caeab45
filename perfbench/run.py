"""matmeans benchmark: time to a verified verdict, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify_default --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

A run repeats one workload in fresh worker processes (``worker.py``), one
pass per process, until ``--seconds`` have passed and at least
``MIN_SAMPLES`` passes are done. With ``--trace 0`` it reports the
end-to-end metrics as medians over the passes; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
the median traced pass. ``--workload all`` runs every workload both ways
and prints every metric. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reported in reference seconds: the worker scales each call of
a pass by a fixed reference computation timed just before and after it,
and the pass's other times by the same overall factor. This cancels most
of a shared host's speed drift (see README.md for the measurements).
Wall-clock times are printed too.

Every pass is checked (see ``workloads.py``), and every pass of a run must
produce byte-identical output. Exit codes: 0 verdict passed, 1 verdict
failed, 2 the benchmark could not run (no matmeans source here, or a worker
crashed); no result line is printed for 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs HERE on sys.path)

MIN_SAMPLES = 5
MIN_TRACED = 3
#: A run stops starting passes that could end past this many seconds.
LIMIT_S = 165.0
TMP_DIR = ROOT / ".perfbench_tmp"

END_TO_END = (
    ("run_s", "s"),
    ("instances_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
EIG_DIMS = range(2, 9)
PER_LAYER = (
    ("linalg.eig.calls", "count"),
    ("linalg.eig.self_s", "s"),
    *((f"linalg.eig.us_per_call.n{n}", "us") for n in EIG_DIMS),
    ("linalg.power.calls", "count"),
    ("linalg.power.self_s", "s"),
    ("linalg.power.repeat_share", "ratio"),
    ("linalg.construct.calls", "count"),
    ("linalg.construct.self_s", "s"),
    ("linalg.random_spd.self_s", "s"),
    ("norms.ui_norm.calls", "count"),
    ("norms.ui_norm.self_s", "s"),
    ("norms.chain.self_s", "s"),
    ("means.chain.calls", "count"),
    ("means.chain.self_s", "s"),
    ("scalar.chain.self_s", "s"),
    ("harness.self_s", "s"),
    ("harness.instance_rng_s", "s"),
    ("reporting.slacks.self_s", "s"),
    ("reporting.aggregate_s", "s"),
    ("cli.self_s", "s"),
    ("harness.instances", "count"),
    ("harness.resampled", "count"),
    ("harness.resample_share", "ratio"),
    *((f"case.{name}.ms_per_instance", "ms") for name in workloads.CASES),
    ("trace.run_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.overhead_s", "s"),
)
#: The per-layer self times; with trace.remainder_s they add up to trace.run_s.
SELF_TIMES = tuple(
    name for name, unit in PER_LAYER
    if unit == "s" and not name.startswith("trace.")
)


class RunError(Exception):
    """The benchmark could not measure (as opposed to a failed verdict)."""


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # One single-threaded process per workload.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _sample(workload: str, seed, traced: bool, tmp: Path, timeout: float) -> dict:
    tmp.mkdir(parents=True)
    out = tmp / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--trace", str(int(traced)), "--tmp", str(tmp), "--out", str(out)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=tmp, env=_worker_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} pass did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not out.is_file():
        raise RunError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["setup_done"] - spawned
    result["traced"] = traced
    shutil.rmtree(tmp)
    return result


def collect(workload: str, seed, seconds: float, trace: bool, tmp: Path) -> list[dict]:
    """Run passes until ``seconds`` have passed and enough passes are done."""
    start = time.monotonic()
    samples: list[dict] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        plain = sum(not s["traced"] for s in samples)
        traced = len(samples) - plain
        if elapsed >= seconds and (
            traced >= MIN_TRACED and plain >= MIN_TRACED if trace else plain >= MIN_SAMPLES
        ):
            break
        if samples and elapsed + 1.25 * longest > LIMIT_S:
            break
        began = time.monotonic()
        samples.append(
            _sample(workload, seed, trace and plain > traced, tmp / f"s{len(samples)}",
                    LIMIT_S + 10.0 - elapsed)
        )
        longest = max(longest, time.monotonic() - began)
    return samples


def verdict(samples: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed units over all passes, and what failed.

    A unit fails when its own check fails, or when its output differs from
    the first pass's output for the same unit.
    """
    reference: dict[str, str] = {}
    attempted = failed = 0
    problems = []
    for i, sample in enumerate(samples):
        for unit, (ok, text) in sample["units"].items():
            attempted += 1
            same = reference.setdefault(unit, text) == text
            if not (ok and same):
                failed += 1
                reason = "check failed" if not ok else "output differs from first pass"
                problems.append(f"pass {i}: {unit}: {reason}: {text}")
        problems.extend(f"pass {i}: {err.strip()}" for err in sample["errors"])
    return attempted, failed, problems


def _scale(sample: dict) -> float:
    """Factor from the pass's wall-clock seconds to reference seconds."""
    return sample["scaled_run_s"] / sample["run_s"]


def end_to_end(samples: list[dict]) -> dict:
    return {
        "run_s": statistics.median(s["scaled_run_s"] for s in samples),
        "instances_per_s": statistics.median(
            s["instances"] / s["scaled_run_s"] for s in samples
        ),
        "setup_s": statistics.median(s["setup_s"] * _scale(s) for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def per_layer(samples: list[dict]) -> dict:
    """Per-layer numbers of the traced pass with the median run time."""
    traced = sorted((s for s in samples if s["traced"]), key=lambda s: s["scaled_run_s"])
    plain = [s["scaled_run_s"] for s in samples if not s["traced"]]
    chosen = traced[(len(traced) - 1) // 2]
    counters, per_case = chosen["trace"]["counters"], chosen["trace"]["per_case"]
    scale = _scale(chosen)
    spans = {
        k: {"self_s": v["self_s"] * scale, "total_s": v["total_s"] * scale, "calls": v["calls"]}
        for k, v in chosen["trace"]["spans"].items()
    }

    def total(field, match):
        return sum(v[field] for k, v in spans.items() if match(k))

    def key(field, name):
        return spans.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    eig = lambda k: k.startswith("linalg.eig.n")  # noqa: E731
    power_calls = key("calls", "linalg.power")
    instances = counters.get("harness.instances", 0)
    resampled = counters.get("harness.resampled", 0)
    m = {
        "linalg.eig.calls": total("calls", eig),
        "linalg.eig.self_s": total("self_s", eig),
        **{
            f"linalg.eig.us_per_call.n{n}": 1e6 * ratio(key("self_s", f"linalg.eig.n{n}"),
                                                        key("calls", f"linalg.eig.n{n}"))
            for n in EIG_DIMS
        },
        "linalg.power.calls": power_calls,
        "linalg.power.self_s": key("self_s", "linalg.power"),
        "linalg.power.repeat_share": ratio(counters.get("linalg.power.repeats", 0), power_calls),
        "linalg.construct.calls": key("calls", "linalg.construct"),
        "linalg.construct.self_s": key("self_s", "linalg.construct"),
        "linalg.random_spd.self_s": key("self_s", "linalg.random_spd"),
        "norms.ui_norm.calls": key("calls", "norms.ui_norm"),
        "norms.ui_norm.self_s": key("self_s", "norms.ui_norm"),
        "norms.chain.self_s": key("self_s", "norms.chain"),
        "means.chain.calls": key("calls", "means.chain"),
        "means.chain.self_s": key("self_s", "means.chain"),
        "scalar.chain.self_s": key("self_s", "scalar.chain"),
        "harness.self_s": total("self_s", lambda k: k == "harness.suite" or k.startswith("harness.case.")),
        "harness.instance_rng_s": key("self_s", "harness.instance_rng"),
        "reporting.slacks.self_s": key("self_s", "reporting.slacks"),
        "reporting.aggregate_s": key("self_s", "reporting.aggregate"),
        "cli.self_s": key("self_s", "cli"),
        "harness.instances": instances,
        "harness.resampled": resampled,
        "harness.resample_share": ratio(resampled, instances + resampled),
        **{
            f"case.{name}.ms_per_instance": 1e3 * ratio(key("total_s", f"harness.case.{name}"),
                                                        per_case.get(name, 0))
            for name in workloads.CASES
        },
        "trace.run_s": key("total_s", "workload"),
    }
    m["trace.remainder_s"] = m["trace.run_s"] - sum(m[name] for name in SELF_TIMES)
    m["trace.overhead_s"] = (
        statistics.median(s["scaled_run_s"] for s in traced) - statistics.median(plain)
    )
    return m


def _print_metrics(title: str, values: dict, units) -> None:
    print(title)
    for name, unit in units:
        print(f"  {name:<48s} {values[name]:>16.6g} {unit}")


def measure(workload: str, seed, seconds: float, trace: bool, tmp: Path) -> dict:
    """One run: collect passes, check them, print a readable report."""
    samples = collect(workload, seed, seconds, trace, tmp)
    attempted, failed, problems = verdict(samples)
    facts = samples[0]["facts"]
    plain = [s for s in samples if not s["traced"]]
    print(f"workload {workload}: {workloads.WORKLOADS[workload].why}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"passes: {len(plain)} untraced, {len(samples) - len(plain)} traced; "
          f"{samples[0]['instances']} instances per pass")
    if trace:
        values, units = per_layer(samples), PER_LAYER
        missing = next(s for s in samples if s["traced"])["trace"]["missing"]
        if missing:
            print("hooks not installed (target missing): " + ", ".join(missing))
    else:
        values, units = end_to_end(plain), END_TO_END
        for name in ("run_s", "setup_s", "ref_s"):
            print(f"{name} per pass, wall clock: " + " ".join(f"{s[name]:.4g}" for s in plain))
    _print_metrics("metrics (traced pass with median time):" if trace else "metrics (medians):",
                   values, units)
    if trace:
        covered = sum(values[name] for name in SELF_TIMES)
        print(f"  layer self times add up to {covered:.6g} s of trace.run_s "
              f"{values['trace.run_s']:.6g} s; remainder {values['trace.remainder_s']:.3g} s")
    print(f"failed_share: {failed / attempted:.6g} ({failed} of {attempted} units failed)")
    for problem in problems[:20]:
        print("  " + problem)
    print("verdict: " + ("ok" if failed == 0 else "FAILED"))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="instance seed (default: the harness's DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so the worker being
    # waited for is killed and reaped and the temporary files are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "matmeans" / "__init__.py").is_file():
        print(f"error: no matmeans source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp = TMP_DIR / str(os.getpid())
    try:
        if args.workload == "all":
            correct = True
            for name in workloads.WORKLOADS:
                for trace in (False, True):
                    correct &= measure(name, args.seed, args.seconds, trace,
                                       tmp / f"{name}-{int(trace)}")["correct"]
                    print()
            return 0 if correct else 1
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass  # another run is still using it, or it was never made
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
