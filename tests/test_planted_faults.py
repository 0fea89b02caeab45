"""Planted faults: each makes a case's claimed ordering false, and the case
must then report failures.

A check that never fails on a wrong chain shows nothing. Each fault below
swaps a case's chain function, or the builder of a case that is not a
refinement row, for a copy with one deliberate error, and the test asserts
that ``run_case`` catches it at a reduced instance count. The same test runs
the case once more through the swapped-in builder with the true chain
function or builder, to show that the failures come from the fault alone.
"""

import dataclasses
import math

import numpy as np
import pytest

from matmeans import harness, means, norms
from matmeans.harness import Built
from matmeans.means import OperatorChain
from matmeans.scalar import ScalarChain


def _kantorovich_exponent_lowered(a, b, nu):
    """``kantorovich_operator_chain`` with the exponent 2 nu of its lower
    bound made 2 nu - 0.1. The base (1 + 1/w)/2 is at most 1 for w >= 1, so
    a smaller exponent raises the lower bound, past A !_{-nu} B where the
    true bound is tight."""
    chain = means.kantorovich_operator_chain(a, b, nu)
    t = means._Transfer(a, b)
    lower = t.push(((1.0 + 1.0 / t.w) / 2.0) ** (2.0 * nu - 0.1))
    return OperatorChain(chain.labels, (lower, chain.matrices[1]))


def _trace_cross_term_raised(a, b, nu):
    """``trace_depth1_chain`` with the factor 2 of its cross term
    -2 tr(sqrt(A) sqrt(B)) made 2.2, which can drop the second value below
    the first."""
    chain = means.trace_depth1_chain(a, b, nu)
    roots = means._traces(a, b)([0.5])[0]
    values = list(chain.values)
    values[1] -= 0.2 * nu * roots
    return ScalarChain(chain.labels, tuple(values))


def _norm_collapse_exponent_lowered(rng, cfg, forced, drawn):
    """``norm_collapse_depth1`` with the exponent 2 nu of f(1/2) on both
    right-hand sides made 2 nu - 0.1."""
    a, b, x, kind, payload = harness._norm_triple(drawn)
    nu = harness._draw_nu(rng, cfg, forced, branch=1)
    products = norms._products(
        a, b, x, [0.5, 1.0 + nu, 1.0, 1.0, 1.0 + nu], [0.5, -nu, 0.0, 1.0, 1.0 + nu]
    )
    half, f_end, f_ax, g0, g_end = norms._norms_of(products, kind).tolist()
    margins = []
    for lhs_base, end in ((f_ax, f_end), (g0, g_end)):
        lhs = math.exp((1.0 + 2.0 * nu) * math.log(lhs_base))
        rhs = math.exp(math.log(end) + (2.0 * nu - 0.1) * math.log(half))
        margins.append((rhs - lhs) / max(1.0, lhs, rhs))
    return Built(margins=np.array(margins), payload={**payload, "nu": nu})


def _norm_logconvexity_bound_lowered(rng, cfg, forced, drawn):
    """``norm_logconvexity`` with its log-convex bound scaled by 0.99."""
    a, b, x, kind, payload = harness._norm_triple(drawn)
    v1, v2 = rng.uniform(-2.0, 3.0, size=2)
    alpha = float(rng.uniform(0.0, 1.0))
    weights = [float(v1), float(v2), float(alpha * v1 + (1 - alpha) * v2)]
    fa, fb, fm = norms._functional_values(a, b, x, weights, kind).tolist()
    bound = 0.99 * math.exp(alpha * math.log(fa) + (1 - alpha) * math.log(fb))
    return Built(margins=np.array([(bound - fm) / max(1.0, bound, fm)]), payload=payload)


def _heinz_mirror_shifted(rng, cfg, forced, drawn):
    """``heinz_symmetry`` comparing f(nu) with f(1 - nu + 1e-6)."""
    a, b, x, kind, payload = harness._norm_triple(drawn)
    nu = float(rng.uniform(-3.0, 4.0))
    f_nu, f_mirror = norms._heinz_values(a, b, x, [nu, 1.0 - nu + 1e-6], kind).tolist()
    d = abs(f_nu - f_mirror)
    return Built(margins=np.array([(1e-10 - d) / 1e-10]), payload={**payload, "nu": nu})


def _heinz_grid_shifted(rng, cfg, forced, drawn):
    """``heinz_monotonicity`` with the Heinz functional evaluated at v + 0.1
    on its grid, so its minimum no longer sits at the grid's split at 1/2."""
    a, b, x, kind, payload = harness._norm_triple(drawn)
    grid = np.linspace(-3.0, 4.0, 81)
    vals = norms._heinz_values(a, b, x, grid + 0.1, kind)
    scale = max(1.0, float(vals.max()))
    split = int(np.argmin(np.abs(grid - 0.5)))
    down = (vals[:split] - vals[1 : split + 1]) / scale
    up = (vals[split + 1 :] - vals[split:-1]) / scale
    return Built(margins=np.concatenate([down, up]), payload=payload)


# Refinement rows: case -> (the true chain function, its faulty copy, the
# row's _refinement options).
CHAIN_FAULTS = {
    "kantorovich_operator": (
        means.kantorovich_operator_chain,
        _kantorovich_exponent_lowered,
        {"depth": False},
    ),
    "trace_depth1": (means.trace_depth1_chain, _trace_cross_term_raised, {"depth": False}),
}

# Cases with a builder of their own: case -> the builder's faulty copy.
BUILDER_FAULTS = {
    "norm_collapse_depth1": _norm_collapse_exponent_lowered,
    "norm_logconvexity": _norm_logconvexity_bound_lowered,
    "heinz_symmetry": _heinz_mirror_shifted,
    "heinz_monotonicity": _heinz_grid_shifted,
}


def _builders(name):
    """The true and the faulty builder of ``name``, swapped in the same way:
    a refinement row rebuilt on each chain function, or each builder given
    the case's input draw as ``_register`` gives it."""
    case = harness.REGISTRY[name]
    if name in CHAIN_FAULTS:
        true_fn, faulty_fn, options = CHAIN_FAULTS[name]
        return [
            harness._refinement(case.build.inputs, fn, branch=case.nu_branch, **options)
            for fn in (true_fn, faulty_fn)
        ]

    def wrap(fn):
        def build(rng, cfg, forced, drawn=None):
            return fn(rng, cfg, forced, drawn)

        build.inputs = case.build.inputs
        return build

    return [wrap(case.build), wrap(BUILDER_FAULTS[name])]


def _run_with(monkeypatch, name, build, instances):
    """``run_case`` of ``name`` with its builder swapped for ``build``."""
    case = harness.REGISTRY[name]
    monkeypatch.setitem(harness.REGISTRY, name, dataclasses.replace(case, build=build))
    return harness.run_case(name, instances=instances)


@pytest.mark.parametrize("name", sorted([*CHAIN_FAULTS, *BUILDER_FAULTS]))
def test_planted_fault_is_caught(monkeypatch, name):
    true_build, faulty_build = _builders(name)
    instances = min(100, harness.REGISTRY[name].overrides.get("instances", 100))
    want = harness.run_case(name, instances=instances)
    assert want.failures == 0
    assert _run_with(monkeypatch, name, true_build, instances) == want
    report = _run_with(monkeypatch, name, faulty_build, instances)
    assert report.failures > 0, (name, report.failures, report.min_slack)
