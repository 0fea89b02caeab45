"""Planted faults: each makes a case's claimed ordering false, and the case
must then report failures.

A check that never fails on a wrong chain shows nothing. Each fault below
swaps a case's chain function, or its build, for a copy with one
deliberate error, and the test asserts
that ``run_case`` catches it at a reduced instance count. A build is a pure
function of the drawn parameters, so a copy draws nothing and every
instance keeps its draws. The same test runs the case once more through the
true chain function, or through the copy of the build with no fault, to
show that the failures come from the fault alone.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from matmeans import harness, means, norms, scalar
from matmeans.harness import Built
from matmeans.means import OperatorChain
from matmeans.scalar import ScalarChain


def _kantorovich_exponent_lowered(a, b, nu):
    """``kantorovich_operator_chain`` with the exponent 2 nu of its lower
    bound made 2 nu - 0.1. The base (1 + 1/w)/2 is at most 1 for w >= 1, so
    a smaller exponent raises the lower bound, past A !_{-nu} B where the
    true bound is tight."""
    chain = means.kantorovich_operator_chain(a, b, nu)
    w = means._pair(a, b).w
    lower = ((1.0 + 1.0 / w) / 2.0) ** (2.0 * nu - 0.1)
    return OperatorChain(chain.labels, chain.m, (lower, chain.value("harm")))


def _term_scaled(chain_fn, base, **fixed):
    """A copy of the build of a refinement row, whose refinement term (the
    refined value minus the ``base`` value, or those rows on the spectrum of
    X for an operator chain) is scaled by 1 + fault."""

    def build(fault, **args):
        chain = chain_fn(**args, **fixed)
        lo, refined = chain.value(base), chain.value("refined")
        refined = refined + fault * (refined - lo)
        values = tuple(
            refined if label == "refined" else row for label, row in zip(chain.labels, chain.values)
        )
        if isinstance(chain, OperatorChain):
            chain = OperatorChain(chain.labels, chain.m, values)
        else:
            chain = ScalarChain(chain.labels, values)
        return Built(chain=chain, refined=refined, base=lo)

    return build


def _trace_cross_term_raised(a, b, nu):
    """``trace_depth1_chain`` with the factor 2 of its cross term
    -2 tr(sqrt(A) sqrt(B)) made 2.2, which can drop the second value below
    the first."""
    chain = means.trace_depth1_chain(a, b, nu)
    roots = means._traces(a, b)([0.5])[0]
    values = list(chain.values)
    values[1] -= 0.2 * nu * roots
    return ScalarChain(chain.labels, tuple(values))


def _kantorovich_scalar_exponent_raised(x, y, nu, fault):
    """``kantorovich_scalar`` with the exponent nu of K(y/x) made nu + fault.
    K >= 1, so a larger exponent raises the lower bound, past
    harm_mean(x, y, -nu) where the true bound is tight."""
    lx, ly = math.log(x), math.log(y)
    k = scalar.kantorovich_constant(y / x)
    lhs = math.exp((1.0 + nu) * lx - nu * ly + (nu + fault) * math.log(k))
    harm = scalar.harm_mean(x, y, -nu)
    return Built(chain=ScalarChain(("geom_kantorovich", "harm"), (lhs, harm)))


def _young_squared_term_scaled(x, y, nu, depth, fault):
    """``young_squared`` with the refinement term of its left side (the
    left side minus the unrefined ((1+nu) x - nu y)^2) scaled by 1 + fault."""
    chain = scalar.young_squared_chain(x, y, nu, depth)
    base = ((1.0 + nu) * x - nu * y) ** 2
    lhs, target = chain.values
    lhs += fault * (lhs - base)
    return Built(chain=ScalarChain(chain.labels, (lhs, target)), refined=lhs, base=base)


def _young_refined_t_term_scaled(x, y, t, depth, fault):
    """``young_refined_t`` with the refinement term of its left side (the
    left side minus x^t y^{1-t}) scaled by 1 + fault."""
    chain = scalar.young_refinement_chain(x, y, t, depth)
    base = scalar.geom_mean(x, y, 1.0 - t)
    lhs, arith = chain.values
    lhs += fault * (lhs - base)
    return Built(chain=ScalarChain(chain.labels, (lhs, arith)), refined=lhs, base=base)


def _young_collapse_square_scaled(x, y, nu, fault):
    """``young_collapse_depth1`` with the square term of its closed form
    scaled by 1 + fault."""
    chain = scalar.young_reverse_chain(x, y, nu, 1)
    base = (1.0 + nu) * x - nu * y
    if nu >= 0.0:
        closed = base + nu * (math.sqrt(x) - math.sqrt(y)) ** 2 * (1.0 + fault)
    else:
        closed = base - (1.0 + nu) * (math.sqrt(y) - math.sqrt(x)) ** 2 * (1.0 + fault)
    tol = 1e-12 * max(1.0, abs(closed), abs(chain.values[-1]))
    return Built(margins=np.array([(tol - abs(chain.value("refined") - closed)) / tol]))


def _harmonic_curvature_scaled(x, y, nu, fault):
    """``harmonic_curvature`` with the exact curvature scaled by 1 + fault."""
    h = 1e-3
    f = lambda v: scalar.harm_mean(x, y, v)
    fd = (f(nu + h) - 2.0 * f(nu) + f(nu - h)) / h ** 2
    exact = 2.0 * x * (x - y) ** 2 * y / (nu * (x - y) + y) ** 3 * (1.0 + fault)
    rel_err = abs(fd - exact) / abs(exact)
    return Built(margins=np.array([(1e-4 - rel_err) / 1e-4]))


def _norm_collapse_exponent_lowered(a, b, x, kind, nu, fault):
    """``norm_collapse_depth1`` with the exponent 2 nu of f(1/2) on both
    right-hand sides made 2 nu - fault."""
    half, f_end, f_ax, g0, g_end = norms._product_norms(
        a, b, x, [0.5, 1.0 + nu, 1.0, 1.0, 1.0 + nu], [0.5, -nu, 0.0, 1.0, 1.0 + nu], kind
    ).tolist()
    margins = []
    for lhs_base, end in ((f_ax, f_end), (g0, g_end)):
        lhs = math.exp((1.0 + 2.0 * nu) * math.log(lhs_base))
        rhs = math.exp(math.log(end) + (2.0 * nu - fault) * math.log(half))
        margins.append((rhs - lhs) / max(1.0, lhs, rhs))
    return Built(margins=np.array(margins))


def _norm_logconvexity_bound_lowered(a, b, x, kind, v1, v2, alpha, fault):
    """``norm_logconvexity`` with its log-convex bound scaled by 1 - fault."""
    weights = [v1, v2, alpha * v1 + (1 - alpha) * v2]
    fa, fb, fm = norms._functional_values(a, b, x, weights, kind).tolist()
    bound = (1.0 - fault) * math.exp(alpha * math.log(fa) + (1 - alpha) * math.log(fb))
    return Built(margins=np.array([(bound - fm) / max(1.0, bound, fm)]))


def _heinz_mirror_shifted(a, b, x, kind, nu, fault):
    """``heinz_symmetry`` comparing f(nu) with f(1 - nu + fault)."""
    f_nu, f_mirror = norms._heinz_values(a, b, x, [nu, 1.0 - nu + fault], kind).tolist()
    return Built(margins=np.array([(1e-10 - abs(f_nu - f_mirror)) / 1e-10]))


def _heinz_grid_shifted(a, b, x, kind, fault):
    """``heinz_monotonicity`` with the Heinz functional evaluated at v + fault
    on its grid, so its minimum no longer sits at the grid's split at 1/2."""
    grid = np.linspace(-3.0, 4.0, 81)
    vals = norms._heinz_values(a, b, x, grid + fault, kind)
    scale = max(1.0, float(vals.max()))
    split = int(np.argmin(np.abs(grid - 0.5)))
    down = (vals[:split] - vals[1 : split + 1]) / scale
    up = (vals[split + 1 :] - vals[split:-1]) / scale
    return Built(margins=np.concatenate([down, up]))


# Refinement rows: case -> (the true chain function, its faulty copy). Each
# is checked through ``_chain_build``, as the registered row is.
CHAIN_FAULTS = {
    "kantorovich_operator": (means.kantorovich_operator_chain, _kantorovich_exponent_lowered),
    "trace_depth1": (means.trace_depth1_chain, _trace_cross_term_raised),
}

# Cases with a build of their own: case -> (a copy of the build that plants
# a fault of size ``fault``, and that size). At ``fault=0`` the copy is the
# build itself, bit for bit.
BUILD_FAULTS = {
    "convex_refined_a": (_term_scaled(scalar.convex_refined_chain, "secant", anchor="a"), 1.0),
    "convex_refined_b": (_term_scaled(scalar.convex_refined_chain, "secant", anchor="b"), 1.0),
    "logconvex_refined_a": (_term_scaled(scalar.logconvex_refined_chain, "power", anchor="a"), 1.0),
    "logconvex_refined_b": (_term_scaled(scalar.logconvex_refined_chain, "power", anchor="b"), 1.0),
    "young_reverse_pos": (_term_scaled(scalar.young_reverse_chain, "arith"), 1.0),
    "young_reverse_neg": (_term_scaled(scalar.young_reverse_chain, "arith"), 1.0),
    "harmonic_reverse": (_term_scaled(scalar.harmonic_reverse_chain, "arith"), 1.0),
    "harmonic_geometric": (_term_scaled(scalar.harmonic_geometric_chain, "geom"), 1.0),
    "kantorovich_scalar": (_kantorovich_scalar_exponent_raised, 0.1),
    "young_squared": (_young_squared_term_scaled, 1.0),
    "young_refined_t": (_young_refined_t_term_scaled, 1.0),
    "young_collapse_depth1": (_young_collapse_square_scaled, 1e-6),
    "harmonic_curvature": (_harmonic_curvature_scaled, 1e-3),
    "norm_collapse_depth1": (_norm_collapse_exponent_lowered, 0.1),
    "norm_logconvexity": (_norm_logconvexity_bound_lowered, 0.01),
    "heinz_symmetry": (_heinz_mirror_shifted, 1e-6),
    "heinz_monotonicity": (_heinz_grid_shifted, 0.1),
    "operator_reverse_pos": (_term_scaled(means.operator_reverse_chain, "arith"), 1.0),
    "operator_reverse_neg": (_term_scaled(means.operator_reverse_chain, "arith"), 1.0),
    "operator_squared_pos": (_term_scaled(means.operator_squared_chain, "scaled_arith"), 1.0),
    "operator_squared_neg": (_term_scaled(means.operator_squared_chain, "scaled_b"), 1.0),
    "harmonic_operator": (_term_scaled(means.harmonic_operator_chain, "arith"), 1.0),
    "trace_additive": (_term_scaled(means.trace_additive_chain, "arith"), 1.0),
    "trace_multiplicative": (_term_scaled(means.trace_multiplicative_chain, "power"), 1.0),
}

# Cases whose fault is also run at a high condition number, where A's small
# eigenvalues would hide a violation from a check normalized by ||X||.
HIGH_COND = {
    "operator_reverse_pos",
    "operator_reverse_neg",
    "operator_squared_pos",
    "operator_squared_neg",
    "harmonic_operator",
    "kantorovich_operator",
}


def _builds(name):
    """The true and the faulty build of ``name``: ``_chain_build`` of each
    chain function, or the copy of the case's build at no fault and at its
    fault."""
    if name in CHAIN_FAULTS:
        return [harness._chain_build(fn) for fn in CHAIN_FAULTS[name]]
    copy, fault = BUILD_FAULTS[name]
    return [functools.partial(copy, fault=size) for size in (0.0, fault)]


def _run_with(monkeypatch, name, build, **overrides):
    """``run_case`` of ``name`` with its build swapped for ``build``; the
    case's draw is kept, so every instance draws what it always did."""
    case = harness.REGISTRY[name]
    monkeypatch.setitem(harness.REGISTRY, name, dataclasses.replace(case, build=build))
    return harness.run_case(name, **overrides)


@pytest.mark.parametrize("name", sorted([*CHAIN_FAULTS, *BUILD_FAULTS]))
def test_planted_fault_is_caught(monkeypatch, name):
    true_build, faulty_build = _builds(name)
    instances = min(100, harness.REGISTRY[name].overrides.get("instances", 100))
    for cond in ({}, {"cond_max": 1e12}) if name in HIGH_COND else ({},):
        overrides = {"instances": instances, **cond}
        want = harness.run_case(name, **overrides)
        assert want.failures == 0, cond
        with monkeypatch.context() as patch:
            same = _run_with(patch, name, true_build, **overrides)
            assert same == want and same.slacks.tobytes() == want.slacks.tobytes(), cond
            report = _run_with(patch, name, faulty_build, **overrides)
        assert report.failures > 0, (name, cond, report.failures, report.min_slack)
