"""In-memory spans around calls into the matmeans modules.

``install`` replaces the public functions and methods of each layer with
wrappers that record one span per call: a key naming the layer, the span
that was open when the call began (its parent), and start and end times.
Spans live in flat arrays and are only folded into per-layer numbers by
``Recorder.summary`` once the pass is over.

Self time is a span's duration minus the durations of its direct children,
so the self times of all spans add up to the duration of the root span.
A call counts once per outermost span of its key: a span whose parent has
the same key (a constructor calling its base class, ``heinz_reverse_chain``
calling ``heinz_norm``) adds time but not calls.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array

import numpy as np

ROOT = "workload"


class Recorder:
    """Collects spans and plain counters for one traced pass."""

    def __init__(self):
        self.keys: list[str] = []
        self._ids: dict[str, int] = {}
        self._key = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self.per_case: dict[str, int] = {}
        self.missing: list[str] = []
        # (matrix bytes, exponent) pairs powered within the current instance.
        self.seen_powers: set = set()

    def key_id(self, key: str) -> int:
        kid = self._ids.get(key)
        if kid is None:
            kid = self._ids[key] = len(self.keys)
            self.keys.append(key)
        return kid

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def wrap(self, fn, key):
        """Return ``fn`` recording a span per call.

        ``key`` is a layer key, or a function of the call's arguments that
        returns one (used to split spans by case name or matrix size).
        """
        clock = time.perf_counter
        stack = self._stack
        keys, parents, starts, ends = self._key, self._parent, self._start, self._end
        key_id = self.key_id
        fixed = None if callable(key) else key_id(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            keys.append(fixed if fixed is not None else key_id(key(args, kwargs)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per-key self time, outermost-call duration and outermost-call count."""
        key = np.array(self._key, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        dur = np.array(self._end) - np.array(self._start)
        n, k = key.shape[0], len(self.keys)
        child = parent >= 0
        child_time = np.bincount(parent[child], weights=dur[child], minlength=n)
        self_time = dur - child_time
        parent_key = np.where(child, key[np.maximum(parent, 0)], -1)
        outer = parent_key != key
        self_s = np.bincount(key, weights=self_time, minlength=k)
        outer_s = np.bincount(key[outer], weights=dur[outer], minlength=k)
        calls = np.bincount(key[outer], minlength=k)
        return {
            name: {"self_s": float(self_s[i]), "total_s": float(outer_s[i]), "calls": int(calls[i])}
            for i, name in enumerate(self.keys)
        }

    def root(self, fn):
        """Run ``fn()`` inside the root span; its self time is what no layer covers."""
        return self.wrap(fn, ROOT)()


def _public_functions(module):
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


def _case_key(args, kwargs) -> str:
    name = args[0] if args else kwargs.get("name")
    return f"harness.case.{name}"


def _eig_key(args, kwargs) -> str:
    return f"linalg.eig.n{args[0].n}"


def install(rec: Recorder) -> None:
    """Time every layer of the imported matmeans package into ``rec``.

    A hook whose target is missing (a later version renamed or removed it)
    is skipped and listed in ``rec.missing``; the pass then still runs.
    """
    from matmeans import cli, harness, linalg, means, norms, reporting, scalar

    plan: dict[object, object] = {}

    def plan_fn(module, name, key):
        fn = getattr(module, name, None)
        if inspect.isfunction(fn):
            plan[fn] = rec.wrap(fn, key)
        else:
            rec.missing.append(f"{module.__name__}.{name}")

    for _, fn in _public_functions(scalar):
        plan[fn] = rec.wrap(fn, "scalar.chain")
    for _, fn in _public_functions(means):
        plan[fn] = rec.wrap(fn, "means.chain")
    for name, fn in _public_functions(norms):
        key = "norms.ui_norm" if name in ("ui_norm", "singular_values") else "norms.chain"
        plan[fn] = rec.wrap(fn, key)
    for name, fn in _public_functions(reporting):
        key = "reporting.aggregate" if name in ("aggregate_report", "reports_to_csv") else "reporting.slacks"
        plan[fn] = rec.wrap(fn, key)
    plan_fn(linalg, "random_spd", "linalg.random_spd")
    plan_fn(harness, "run_suite", "harness.suite")
    plan_fn(harness, "run_case", _case_key)
    plan_fn(harness, "sweep", _case_key)
    plan_fn(harness, "build_instance", _case_key)
    plan_fn(harness, "instance_rng", "harness.instance_rng")
    plan_fn(cli, "main", "cli")

    # Rebind every module-level reference, so names imported with
    # ``from .x import y`` are timed as well as ``x.y``, and every reference
    # a case builder captured when it was registered (``_trace_builder``).
    for modname, module in list(sys.modules.items()):
        if modname != "matmeans" and not modname.startswith("matmeans."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in plan:
                setattr(module, attr, plan[value])
    for case in getattr(harness, "REGISTRY", {}).values():
        for cell in getattr(case.build, "__closure__", None) or ():
            if inspect.isfunction(cell.cell_contents) and cell.cell_contents in plan:
                cell.cell_contents = plan[cell.cell_contents]

    _install_linalg_classes(rec, linalg)
    _install_case_counters(rec, harness)


def _install_linalg_classes(rec: Recorder, linalg) -> None:
    eig = vars(getattr(linalg, "HermitianMatrix", object)).get("eig")
    if isinstance(eig, functools.cached_property):
        timed = functools.cached_property(rec.wrap(eig.func, _eig_key))
        timed.__set_name__(linalg.HermitianMatrix, "eig")
        linalg.HermitianMatrix.eig = timed
    else:
        rec.missing.append("matmeans.linalg.HermitianMatrix.eig")

    for cls_name in ("ComplexMatrix", "HermitianMatrix", "SpdMatrix"):
        cls = getattr(linalg, cls_name, None)
        init = vars(cls).get("__init__") if cls is not None else None
        if inspect.isfunction(init):
            cls.__init__ = rec.wrap(init, "linalg.construct")
        else:
            rec.missing.append(f"matmeans.linalg.{cls_name}.__init__")

    spd = getattr(linalg, "SpdMatrix", None)
    power = vars(spd).get("power") if spd is not None else None
    if not inspect.isfunction(power):
        rec.missing.append("matmeans.linalg.SpdMatrix.power")
        return
    timed_power = rec.wrap(power, "linalg.power")

    def power_counting_repeats(self, t, *args, **kwargs):
        key = (self.a.tobytes(), float(t))
        if key in rec.seen_powers:
            rec.count("linalg.power.repeats")
        else:
            rec.seen_powers.add(key)
        return timed_power(self, t, *args, **kwargs)

    spd.power = functools.wraps(power)(power_counting_repeats)


def _install_case_counters(rec: Recorder, harness) -> None:
    """Count built and resampled instances per case; an instance is one
    call of the case's builder, and repeated powers are tracked within it."""
    registry = getattr(harness, "REGISTRY", None)
    resample = getattr(harness, "Resample", None)
    if not isinstance(registry, dict) or resample is None:
        rec.missing.append("matmeans.harness.REGISTRY")
        return

    def counting(name, build):
        @functools.wraps(build)
        def counted(*args, **kwargs):
            rec.seen_powers.clear()
            try:
                built = build(*args, **kwargs)
            except resample:
                rec.count("harness.resampled")
                raise
            rec.count("harness.instances")
            rec.per_case[name] = rec.per_case.get(name, 0) + 1
            return built

        return counted

    for name, case in list(registry.items()):
        registry[name] = dataclasses.replace(case, build=counting(name, case.build))
