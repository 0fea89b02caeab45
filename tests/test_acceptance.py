"""Acceptance suite: every headline guarantee at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``
or in captured output on failure). The full default verification run is
executed once in a module fixture and shared by the criteria that assert on
its reports; timing criteria run fresh.
"""

import time

import numpy as np
import pytest

from matmeans import harness
from matmeans import (
    HermitianMatrix,
    harmonic_operator_chain,
    harmonic_reverse_chain,
    kantorovich_chain,
    kantorovich_operator_chain,
    operator_reverse_chain,
    operator_squared_chain,
    OperatorChain,
    SpdMatrix,
    young_reverse_chain,
    young_squared_chain,
)
from matmeans.reporting import reports_to_csv


def _announce(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def suite():
    t0 = time.perf_counter()
    reports = harness.run_suite()
    elapsed = time.perf_counter() - t0
    return {r.name: r for r in reports}, elapsed


def _all_pass(by_name, names):
    return all(by_name[n].failures == 0 for n in names)


def test_criterion_1_scalar_refinement_suite(suite):
    by_name, _ = suite
    names = (
        "convex_refined_a",
        "convex_refined_b",
        "logconvex_refined_a",
        "logconvex_refined_b",
    )
    ok = _all_pass(by_name, names)
    ok = ok and all(by_name[n].instances == 1000 for n in names)
    t0 = time.perf_counter()
    for name in names:
        harness.run_case(name)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _announce(
        1,
        f"convex/log-convex refinement chains, 1000 instances/case, slack >= -1e-9*scale, "
        f"runtime {elapsed:.2f}s < 5s",
        ok,
    )


def test_criterion_2_reverse_young_family(suite):
    by_name, _ = suite
    names = ("young_reverse_pos", "young_reverse_neg", "young_squared", "young_refined_t")
    ok = _all_pass(by_name, names)
    ok = ok and all(by_name[n].instances == 1000 for n in names)
    # depth-1 collapse identities within 1e-12 (margins case, rel_tol 0)
    ok = ok and by_name["young_collapse_depth1"].failures == 0
    _announce(
        2,
        "reverse Young family, 1000 instances each, slack >= -1e-10*scale; "
        "depth-1 closed forms within 1e-12",
        ok,
    )


def _diag_spd(vals):
    return SpdMatrix(np.diag(np.asarray(vals, dtype=float)))


def test_criterion_3_operator_suite(suite):
    by_name, _ = suite
    names = (
        "operator_reverse_pos",
        "operator_reverse_neg",
        "operator_squared_pos",
        "harmonic_operator",
        "kantorovich_operator",
    )
    ok = _all_pass(by_name, names)
    ok = ok and all(by_name[n].instances == 200 for n in names)

    # Commuting-diagonal instances match the scalar oracles entrywise.
    rng = np.random.default_rng(90210)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        av = np.exp(rng.uniform(-2, 2, n))
        bv = np.exp(rng.uniform(-2, 2, n))
        a, b = _diag_spd(av), _diag_spd(bv)
        nu = float(rng.uniform(0, 6))
        depth = int(rng.integers(1, 7))
        chain = operator_reverse_chain(a, b, nu, depth)
        for i in range(n):
            svals = young_reverse_chain(av[i], bv[i], nu, depth).values
            mvals = [float(m.a[i, i].real) for m in chain.matrices]
            scale = max(1.0, max(abs(v) for v in svals))
            worst = max(worst, max(abs(x - y) for x, y in zip(mvals, svals)) / scale)
        bo = _diag_spd(av + np.exp(rng.uniform(-2, 2, n)))  # av <= bo entrywise
        hchain = harmonic_operator_chain(a, bo, nu, depth)
        kchain = kantorovich_operator_chain(a, bo, nu)
        for i in range(n):
            svals = harmonic_reverse_chain(av[i], float(bo.a[i, i].real), nu, depth).values
            mvals = [float(m.a[i, i].real) for m in hchain.matrices]
            scale = max(1.0, max(abs(v) for v in svals))
            worst = max(worst, max(abs(x - y) for x, y in zip(mvals, svals)) / scale)
            ksc = kantorovich_chain(av[i], float(bo.a[i, i].real), nu).values
            kmv = [float(m.a[i, i].real) for m in kchain.matrices]
            scale = max(1.0, max(abs(v) for v in ksc))
            worst = max(worst, max(abs(x - y) for x, y in zip(kmv, ksc)) / scale)
        # squared chain at size 1: end-to-end gap equals the scalar gap
        y1 = float(np.exp(rng.uniform(-2, 2)))
        sq = operator_squared_chain(_diag_spd([1.0]), _diag_spd([y1]), nu, depth)
        sgap = young_squared_chain(1.0, y1, nu, depth)
        got = float((sq.matrices[-1].a - sq.matrices[1].a)[0, 0].real)
        want = sgap.values[1] - sgap.values[0]
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    ok = ok and worst <= 1e-10
    _announce(
        3,
        f"operator chains, 200 instances each at rel_tol 1e-8; commuting-diagonal "
        f"oracle deviation {worst:.2e} <= 1e-10",
        ok,
    )


def test_criterion_4_trace_suite(suite):
    by_name, _ = suite
    names = ("trace_additive", "trace_multiplicative", "trace_depth1")
    ok = _all_pass(by_name, names)
    ok = ok and all(by_name[n].instances == 200 for n in names)
    _announce(
        4,
        "trace chains plus depth-1 specializations and the Schatten-1 comparison, "
        "200 instances, slack >= -1e-9*scale",
        ok,
    )


def test_criterion_5_norm_suite(suite):
    by_name, _ = suite
    names = ("norm_reverse_pos", "norm_reverse_neg", "norm_heinz_power", "norm_combined")
    ok = _all_pass(by_name, names)
    ok = ok and all(by_name[n].instances == 500 for n in names)
    ok = ok and by_name["norm_logconvexity"].failures == 0
    ok = ok and by_name["norm_logconvexity"].instances == 500
    ok = ok and by_name["norm_collapse_depth1"].failures == 0
    _announce(
        5,
        "norm chains across five norm kinds, 500 instances each, slack >= -1e-8*scale; "
        "log-convexity on 500 random combinations",
        ok,
    )


def test_criterion_6_heinz_suite(suite):
    by_name, _ = suite
    ok = by_name["heinz_symmetry"].failures == 0  # |f(nu)-f(1-nu)| <= 1e-10 max(1, f)
    ok = ok and by_name["heinz_midpoint_convexity"].failures == 0
    ok = ok and by_name["heinz_midpoint_convexity"].instances == 500
    ok = ok and by_name["heinz_monotonicity"].failures == 0  # 81-point grid, 1e-8
    for name in ("heinz_reverse", "heinz_pq", "heinz_interpolated", "heinz_interpolated_grid"):
        ok = ok and by_name[name].failures == 0 and by_name[name].instances == 200
    _announce(
        6,
        "Heinz symmetry to 1e-10, midpoint convexity (500 pairs) and 81-point grid "
        "monotonicity at 1e-8, reverse/pq/interpolated chains on 200 instances each",
        ok,
    )


# Every nu >= 0 refinement case whose refined value must be nondecreasing in
# the dyadic depth at each fixed instance (added terms are nonnegative).
_MONOTONE_CASES = (
    "convex_refined_a",
    "logconvex_refined_a",
    "young_reverse_pos",
    "young_squared",
    "young_refined_t",
    "harmonic_reverse",
    "harmonic_geometric",
    "trace_additive",
    "trace_multiplicative",
    "norm_reverse_pos",
    "norm_heinz_power",
    "norm_combined",
    "heinz_reverse",
    "operator_reverse_pos",
    "operator_squared_pos",
    "harmonic_operator",
)


def test_criterion_7_refinement_monotone_in_depth():
    ok = True
    worst = 0.0
    for name in _MONOTONE_CASES:
        for index in range(10):
            probe = harness.build_instance(name, index, forced={"depth": 1})
            forced = {}
            nu = probe.payload.get("nu")
            if nu is not None:
                forced["nu"] = abs(float(nu))  # stay on the nu >= 0 branch
            prev = None
            for depth in range(1, 9):
                built = harness.build_instance(
                    name, index, forced={**forced, "depth": depth}
                )
                chain = built.chain
                cur = (
                    chain.matrix("refined")
                    if isinstance(chain, OperatorChain)
                    else built.refined
                )
                if prev is not None:
                    if isinstance(cur, HermitianMatrix):
                        diff = HermitianMatrix(cur.a - prev.a)
                        scale = max(1.0, cur.spectral_norm)
                        slack = float(diff.eig.eigenvalues[0]) / scale
                    else:
                        scale = max(1.0, abs(cur))
                        slack = (cur - prev) / scale
                    worst = min(worst, slack)
                    if slack < -1e-12:
                        ok = False
                prev = cur
    _announce(
        7,
        f"refined value nondecreasing in depth 1..8 for {len(_MONOTONE_CASES)} cases, "
        f"10 instances each, tol 1e-12*scale (worst {worst:.2e})",
        ok,
    )


def test_criterion_8_infrastructure(suite):
    by_name, elapsed = suite
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = HermitianMatrix((g + g.conj().T) / 2)
        rec = h.eig.reconstruct()
        worst = max(
            worst, np.linalg.norm(rec - h.a) / max(1.0, np.linalg.norm(h.a))
        )
    ok = worst <= 1e-10
    total_failures = sum(r.failures for r in by_name.values())
    ok = ok and total_failures == 0
    ok = ok and len(by_name) >= 30
    ok = ok and elapsed < 60.0
    # repeated runs produce byte-identical CSV
    csv1 = reports_to_csv(list(by_name.values()))
    csv2 = reports_to_csv(harness.run_suite())
    ok = ok and csv1 == csv2
    _announce(
        8,
        f"eigendecomposition reconstruction {worst:.2e} <= 1e-10 on 500 matrices; "
        f"default suite: {len(by_name)} cases, {total_failures} failures, "
        f"{elapsed:.1f}s < 60s, deterministic CSV",
        ok,
    )
