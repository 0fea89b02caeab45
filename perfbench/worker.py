"""One pass of one workload, in a fresh process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``. It imports matmeans and verifies the workload's first instance
(the set-up). Then it runs one timed pass, with the span hooks installed
if ``--trace 1``, checks the pass's outputs, and writes everything to the
JSON file named by ``--out``. The program's own output goes wherever the
parent sent it; files go only under ``--tmp``.

Between the pass's calls, and outside their timing, the worker times a
fixed reference computation that does not touch matmeans (see
``reference_chunk``) and scales each call's time by it, to cancel the
host's speed, which drifts by up to 2x over minutes on shared machines.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs HERE on sys.path)

#: Reference chunks per pass, spread over the gaps between its calls.
REF_CHUNKS = 48
#: The reference chunk's time on a quiet core of a shared 2-vCPU x86-64 VM
#: (2.1 GHz, Python 3.11, numpy 2.4); it only scales reported times.
REF_NOMINAL_S = 0.005
_REF_MATRIX = (
    (2.0, 1j, 0.5, 0.0),
    (-1j, 3.0, 0.0, 0.2),
    (0.5, 0.0, 1.0, 0.1j),
    (0.0, 0.2, -0.1j, 4.0),
)


def reference_chunk() -> float:
    """Seconds one fixed computation takes; it does not touch matmeans.

    Its mix (element access on a small complex array, Python arithmetic,
    small matrix products) is what matmeans spends its time on, so a slower
    or faster host moves both alike.
    """
    import numpy as np

    a = np.array(_REF_MATRIX, dtype=np.complex128)
    start = time.perf_counter()
    s = 0.0
    for i in range(2000):
        p, r = i % 4, (i * 3 + 1) % 4
        v = a[p, r]
        s += abs(v) ** 2 + (v.real * 0.5 - v.imag)
        a[p, r] = v * 0.999 + 0.001
    for _ in range(150):
        s += float(np.trace(a @ a.conj().T).real)
    return time.perf_counter() - start


def timed_pass(workload, seed: int, tmp: Path, recorder=None):
    """Run every call of ``workload`` once, timing the reference around each.

    Returns the outputs, the pass's wall-clock seconds, its seconds scaled
    to the reference speed, and the median reference chunk time. Each call
    is scaled by the median of the chunks just before and just after it, so
    a change of host speed during the pass is followed call by call.

    A call that raises yields an output carrying the error, so its units
    fail the check instead of the pass being lost.
    """
    per_gap = -(-REF_CHUNKS // (len(workload.calls) + 1))
    gaps = [[reference_chunk() for _ in range(per_gap)]]
    outputs = []
    run_s = scaled_s = 0.0
    for call in workload.calls:
        start = time.perf_counter()
        try:
            if recorder is None:
                outputs.append(call(seed, tmp))
            else:
                outputs.append(recorder.root(lambda: call(seed, tmp)))
        except Exception:
            outputs.append(workloads.Output(call, error=traceback.format_exc(limit=3)))
        seconds = time.perf_counter() - start
        gaps.append([reference_chunk() for _ in range(per_gap)])
        run_s += seconds
        scaled_s += seconds * REF_NOMINAL_S / statistics.median(gaps[-2] + gaps[-1])
    return outputs, run_s, scaled_s, statistics.median(c for gap in gaps for c in gap)


def _blas_facts(np) -> dict:
    facts = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                facts["blas_threads"] = int(fn())
                return facts
    facts["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return facts


def machine_facts() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_blas_facts(np),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from matmeans import harness

    seed = harness.DEFAULT_SEED if args.seed is None else args.seed
    workload = workloads.WORKLOADS[args.workload]
    tmp = Path(args.tmp)
    workload.first(seed, tmp)
    setup_done = time.monotonic()

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    outputs, run_s, scaled_s, ref_s = timed_pass(workload, seed, tmp, recorder)

    result = {
        "setup_done": setup_done,
        "run_s": run_s,
        "scaled_run_s": scaled_s,
        "ref_s": ref_s,
        "instances": workload.instances,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units": workload.check(outputs),
        "errors": [o.error for o in outputs if o.error],
        "facts": machine_facts(),
        "trace": None,
    }
    if recorder is not None:
        result["trace"] = {
            "spans": recorder.summary(),
            "counters": recorder.counters,
            "per_case": recorder.per_case,
            "missing": recorder.missing,
        }
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # the parent reports the traceback and fails the run
        traceback.print_exc()
        sys.exit(3)
