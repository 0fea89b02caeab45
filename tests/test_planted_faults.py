"""Planted faults: each makes a case's claimed ordering false, and the case
must then report failures.

A check that never fails on a wrong chain shows nothing. Each fault below
swaps a case's chain function for a copy with one deliberate error, and the
test asserts that ``run_case`` catches it at a reduced instance count. The
same test runs the case once more through the swapped-in row with the true
chain function, to show that the failures come from the fault alone.
"""

import dataclasses

import pytest

from matmeans import harness, means
from matmeans.means import OperatorChain


def _kantorovich_exponent_lowered(a, b, nu):
    """``kantorovich_operator_chain`` with the exponent 2 nu of its lower
    bound made 2 nu - 0.1. The base (1 + 1/w)/2 is at most 1 for w >= 1, so
    a smaller exponent raises the lower bound, past A !_{-nu} B where the
    true bound is tight."""
    chain = means.kantorovich_operator_chain(a, b, nu)
    t = means._Transfer(a, b)
    lower = t.push(((1.0 + 1.0 / t.w) / 2.0) ** (2.0 * nu - 0.1))
    return OperatorChain(chain.labels, (lower, chain.matrices[1]))


# case -> (the true chain function, its faulty copy, the row's _refinement options)
FAULTS = {
    "kantorovich_operator": (
        means.kantorovich_operator_chain,
        _kantorovich_exponent_lowered,
        {"depth": False},
    ),
}


def _run_with_chain(monkeypatch, name, chain_fn, options, instances):
    """``run_case`` of ``name`` with its refinement row rebuilt on ``chain_fn``."""
    case = harness.REGISTRY[name]
    build = harness._refinement(
        case.build.inputs, chain_fn, branch=case.nu_branch, **options
    )
    monkeypatch.setitem(harness.REGISTRY, name, dataclasses.replace(case, build=build))
    return harness.run_case(name, instances=instances)


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_planted_fault_is_caught(monkeypatch, name):
    true_fn, faulty_fn, options = FAULTS[name]
    instances = 100
    want = harness.run_case(name, instances=instances)
    assert want.failures == 0
    assert _run_with_chain(monkeypatch, name, true_fn, options, instances) == want
    report = _run_with_chain(monkeypatch, name, faulty_fn, options, instances)
    assert report.failures > 0, (name, report.min_slack)
