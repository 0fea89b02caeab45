"""Tests for scalar means, refinement chains, and the reverse-inequality family.

Expected values tagged "hand" were computed by direct evaluation of the
defining formulas (independent of the implementation) and frozen here.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matmeans import (
    CONVEX_CATALOG,
    DomainError,
    LOGCONVEX_CATALOG,
    ScalarChain,
    arith_mean,
    convex_refined_chain,
    geom_mean,
    harm_mean,
    harmonic_geometric_chain,
    harmonic_reverse_chain,
    kantorovich_chain,
    kantorovich_constant,
    logconvex_refined_chain,
    weight_branch,
    young_refinement_chain,
    young_reverse_chain,
    young_squared_chain,
)
from matmeans import means, norms
from matmeans.linalg import SpdMatrix, random_spd
from matmeans.scalar import _convex_refinement, _ladder

SQ = lambda t: t * t


def ascending(chain: ScalarChain, rel_tol: float = 1e-9) -> bool:
    scale = max(1.0, max(abs(v) for v in chain.values))
    return all(b - a >= -rel_tol * scale for a, b in zip(chain.values, chain.values[1:]))


class TestWeightBranch:
    def test_branches(self):
        assert weight_branch(0.0) == 1
        assert weight_branch(3.7) == 1
        assert weight_branch(-1.0) == -1
        assert weight_branch(-5.0) == -1

    def test_gap_rejected(self):
        for nu in (-0.5, math.nan):
            with pytest.raises(DomainError, match="^weight_branch requires nu >= 0 or nu <= -1"):
                weight_branch(nu)


class TestConvexRefinedChain:
    def test_zero_weight_collapses(self):
        chain = convex_refined_chain(SQ, 1.0, 2.0, 0.0, 4)
        assert chain.values[0] == chain.values[1] == chain.values[2] == 1.0

    def test_square_hand_value(self):
        # f=t^2, a=0, b=1, nu=1, depth=1: secant -1, one midpoint gap of 1/4
        # weighted by 2*1, target f(-1)=1.
        chain = convex_refined_chain(SQ, 0.0, 1.0, 1.0, 1)
        assert chain.labels == ("secant", "refined", "target")
        np.testing.assert_allclose(chain.values, (-1.0, -0.5, 1.0), rtol=1e-14)

    def test_affine_function_degenerates(self):
        chain = convex_refined_chain(lambda t: 2 * t + 3, -1.0, 2.0, 2.5, 6)
        np.testing.assert_allclose(chain.values, chain.values[0], rtol=1e-12)

    def test_anchor_b_hand_value(self):
        # f=t^2, a=0, b=1, nu=-2, depth=1: secant 2, midpoint gap 1/4 weighted
        # by -2(1+nu)=2, target f(2)=4.
        chain = convex_refined_chain(SQ, 0.0, 1.0, -2.0, 1, anchor="b")
        assert chain.labels == ("secant", "refined", "target")
        np.testing.assert_allclose(chain.values, (2.0, 2.5, 4.0), rtol=1e-14)

    def test_anchor_b_collapses_at_minus_one(self):
        chain = convex_refined_chain(SQ, 0.0, 1.0, -1.0, 5, anchor="b")
        assert chain.values[0] == chain.values[1]

    def test_negative_branch_orders_refined_first_at_anchor_a(self):
        chain = convex_refined_chain(SQ, 0.0, 1.0, -2.0, 2, anchor="a")
        assert chain.labels[0] == "refined"
        assert ascending(chain)

    def test_ascending_across_catalog(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            _, f = CONVEX_CATALOG[int(rng.integers(len(CONVEX_CATALOG)))]
            a, b = sorted(rng.uniform(-5, 5, size=2))
            if b - a < 1e-3:
                continue
            nu = rng.uniform(0, 8) if rng.integers(2) else -1 - rng.uniform(0, 8)
            depth = int(rng.integers(1, 9))
            for anchor in ("a", "b"):
                assert ascending(convex_refined_chain(f, a, b, nu, depth, anchor))

    def test_refined_value_monotone_in_depth(self):
        for depth in range(1, 8):
            lo = convex_refined_chain(SQ, -2.0, 3.0, 1.5, depth).value("refined")
            hi = convex_refined_chain(SQ, -2.0, 3.0, 1.5, depth + 1).value("refined")
            assert hi >= lo - 1e-12 * max(1.0, abs(hi))

    def test_depth_validation(self):
        with pytest.raises(DomainError):
            convex_refined_chain(SQ, 0.0, 1.0, 1.0, 0)
        with pytest.raises(DomainError):
            convex_refined_chain(SQ, 0.0, 1.0, 1.0, 33)


class TestRefinementKernels:
    def test_array_values_refine_entry_by_entry(self):
        # The operator chains refine a whole spectrum at once; each entry must
        # be what the same functional gives as a float.
        c = np.array([-2.5, 0.0, 0.3, 1.0, 7.25])
        for anchor, nus in (("a", (0.0, 0.6, 4.0)), ("b", (-1.0, -2.2, -9.0))):
            for nu in nus:
                for depth in (1, 5, 32):
                    points = _ladder(-1.5, 2.0, nu, depth, anchor)
                    stacked = _convex_refinement(
                        [(v - c) * (v - c) for v in points], -1.5, 2.0, nu, depth, anchor
                    )
                    for i, ci in enumerate(c.tolist()):
                        single = _convex_refinement(
                            [(v - ci) * (v - ci) for v in points], -1.5, 2.0, nu, depth, anchor
                        )
                        assert [float(s[i]).hex() for s in stacked] == [
                            float(s).hex() for s in single
                        ], (anchor, nu, depth, ci)

    def test_ladder_points(self):
        # [a, b, (1+nu) a - nu b, m_N], with m_N 2^-N of the way from the
        # anchor towards the other end; any other anchor raises.
        assert _ladder(0.0, 1.0, 2.0, 3, "a") == [0.0, 1.0, -2.0, 0.125]
        assert _ladder(0.0, 1.0, -3.0, 3, "b") == [0.0, 1.0, 3.0, 0.875]
        assert _ladder(-2.0, 6.0, 0.5, 32, "a")[3] == -2.0 + 8.0 / 2.0 ** 32
        with pytest.raises(DomainError, match="anchor must be 'a' or 'b'"):
            _ladder(0.0, 1.0, 1.0, 1, "c")


_A = random_spd(3, 100.0, 5)
_B = random_spd(3, 100.0, 6)
_ORDERED = SpdMatrix(_A.a + _B.a)
_X = np.random.default_rng(7).standard_normal((3, 3))
_KIND = norms.NormKind.frobenius()
_EITHER, _POS = "nu >= 0 or nu <= -1", "nu >= 0"

#: The 16 public chains that the refinement kernels serve: name -> (the
#: chain at (weight, depth), a weight on its branch, one off it, and what
#: the branch requires). Every chain of a weight nu names itself in the one
#: message of ``scalar._check_weight``; ``young_refinement_chain`` takes a
#: t in (0, 1] instead (``None``).
REFINEMENT_CHAINS = {
    "convex_refined_chain": (
        lambda nu, d: convex_refined_chain(SQ, 0.0, 1.0, nu, d), 1.0, -0.5, _EITHER),
    "logconvex_refined_chain": (
        lambda nu, d: logconvex_refined_chain(math.exp, 0.0, 1.0, nu, d), 1.0, -0.5, _POS),
    "young_reverse_chain": (
        lambda nu, d: young_reverse_chain(0.5, 2.0, nu, d), 1.0, -0.5, _EITHER),
    "young_squared_chain": (
        lambda nu, d: young_squared_chain(0.5, 2.0, nu, d), 1.0, -0.5, _EITHER),
    "young_refinement_chain": (
        lambda t, d: young_refinement_chain(0.5, 2.0, t, d), 0.5, 1.5, None),
    "harmonic_reverse_chain": (
        lambda nu, d: harmonic_reverse_chain(0.5, 2.0, nu, d), 1.0, -1.0, _POS),
    "harmonic_geometric_chain": (
        lambda nu, d: harmonic_geometric_chain(0.5, 2.0, nu, d), 1.0, -1.0, _POS),
    "operator_reverse_chain": (
        lambda nu, d: means.operator_reverse_chain(_A, _B, nu, d), 1.0, -0.5, _EITHER),
    "operator_squared_chain": (
        lambda nu, d: means.operator_squared_chain(_A, _B, nu, d), 1.0, -0.5, _EITHER),
    "harmonic_operator_chain": (
        lambda nu, d: means.harmonic_operator_chain(_A, _ORDERED, nu, d), 1.0, -1.0, _POS),
    "trace_additive_chain": (
        lambda nu, d: means.trace_additive_chain(_A, _B, nu, d), 1.0, -1.0, _POS),
    "trace_multiplicative_chain": (
        lambda nu, d: means.trace_multiplicative_chain(_A, _B, nu, d), 1.0, -1.0, _POS),
    "norm_reverse_chain": (
        lambda nu, d: norms.norm_reverse_chain(_A, _B, _X, nu, d, _KIND), 1.0, -0.5, _EITHER),
    "norm_heinz_chain": (
        lambda nu, d: norms.norm_heinz_chain(_A, _B, _X, nu, d, _KIND), 1.0, -1.0, _POS),
    "combined_norm_chain": (
        lambda nu, d: norms.combined_norm_chain(_A, _B, _X, nu, d, _KIND), 1.0, -1.0, _POS),
    "heinz_reverse_chain": (
        lambda nu, d: norms.heinz_reverse_chain(_A, _B, _X, nu, d, _KIND), 1.0, -1.0, _POS),
}

#: The public chains of a weight and no depth, in the same form; the depth
#: is ignored.
DEPTHLESS_CHAINS = {
    "kantorovich_chain": (
        lambda nu, d: kantorovich_chain(0.5, 2.0, nu), 1.0, -0.5, _POS),
    "kantorovich_operator_chain": (
        lambda nu, d: means.kantorovich_operator_chain(_A, _ORDERED, nu), 1.0, -0.5, _POS),
    "trace_depth1_chain": (
        lambda nu, d: means.trace_depth1_chain(_A, _B, nu), 1.0, -0.5, _POS),
}


@pytest.mark.parametrize("name", sorted(REFINEMENT_CHAINS) + sorted(DEPTHLESS_CHAINS))
def test_refinement_chain_rejects_a_bad_depth_or_weight(name):
    # A depth of 0, 33, 2.5 or NaN raises the depth message; a weight off
    # the chain's branch, or NaN, the weight rule's branch message, and an
    # infinite weight its finiteness message.
    chain, on_branch, off_branch, requires = {**REFINEMENT_CHAINS, **DEPTHLESS_CHAINS}[name]
    chain(on_branch, 32)
    for depth in (0, 33, 2.5, math.nan) if name in REFINEMENT_CHAINS else ():
        with pytest.raises(DomainError, match=r"depth must be an integer in 1\.\.32"):
            chain(on_branch, depth)
    for weight in (off_branch, math.nan, math.inf, -math.inf):
        if requires is None:
            message = f"need 0 < t <= 1, got t={weight}"
        elif math.isinf(weight):
            message = f"{name} requires a finite nu, got nu = {weight}"
        else:
            message = f"{name} requires {requires}, got nu = {weight}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            chain(weight, 1)


class TestLogConvexChain:
    def test_zero_weight_collapses(self):
        f = lambda t: math.exp(t * t)
        chain = logconvex_refined_chain(f, 0.0, 1.0, 0.0, 3)
        np.testing.assert_allclose(chain.values, f(0.0), rtol=1e-14)

    def test_log_affine_gives_equal_ends(self):
        chain = logconvex_refined_chain(math.exp, -1.0, 2.0, 3.0, 4)
        np.testing.assert_allclose(chain.values, chain.values[0], rtol=1e-12)

    def test_exp_square_hand_value(self):
        # f=e^{t^2}, a=0, b=1, nu=1, depth=1: (e^{-1}, e^{-1/2}, e).
        chain = logconvex_refined_chain(lambda t: math.exp(t * t), 0.0, 1.0, 1.0, 1)
        np.testing.assert_allclose(
            chain.values, (math.exp(-1), math.exp(-0.5), math.e), rtol=1e-12
        )

    def test_exp_square_anchor_b_hand_value(self):
        # f=e^{t^2}, a=0, b=1, nu=-2, depth=1: (e^2, e^{5/2}, e^4).
        chain = logconvex_refined_chain(
            lambda t: math.exp(t * t), 0.0, 1.0, -2.0, 1, anchor="b"
        )
        np.testing.assert_allclose(
            chain.values, (math.exp(2), math.exp(2.5), math.exp(4)), rtol=1e-12
        )

    def test_branch_preconditions(self):
        f = math.exp
        with pytest.raises(DomainError):
            logconvex_refined_chain(f, 0.0, 1.0, -2.0, 1, anchor="a")
        with pytest.raises(DomainError):
            logconvex_refined_chain(f, 0.0, 1.0, 2.0, 1, anchor="b")

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(DomainError):
            logconvex_refined_chain(lambda t: t, -1.0, 1.0, 1.0, 1)

    def test_ascending_across_catalog(self):
        rng = np.random.default_rng(78)
        for _ in range(200):
            _, f = LOGCONVEX_CATALOG[int(rng.integers(len(LOGCONVEX_CATALOG)))]
            a, b = sorted(rng.uniform(-5, 5, size=2))
            if b - a < 1e-3:
                continue
            depth = int(rng.integers(1, 9))
            assert ascending(logconvex_refined_chain(f, a, b, rng.uniform(0, 8), depth))
            assert ascending(
                logconvex_refined_chain(f, a, b, -1 - rng.uniform(0, 8), depth, anchor="b")
            )


class TestScalarMeans:
    def test_equal_arguments(self):
        for nu in (-3.0, 0.0, 0.5, 4.0):
            assert arith_mean(2.5, 2.5, nu) == pytest.approx(2.5)
            assert geom_mean(2.5, 2.5, nu) == pytest.approx(2.5)
            assert harm_mean(2.5, 2.5, nu) == pytest.approx(2.5)

    def test_hand_values(self):
        assert geom_mean(1.0, 4.0, 0.5) == pytest.approx(2.0)
        assert harm_mean(1.0, 3.0, 0.5) == pytest.approx(1.5)

    def test_zero_weight_returns_first(self):
        assert arith_mean(3.0, 7.0, 0.0) == 3.0
        assert geom_mean(3.0, 7.0, 0.0) == pytest.approx(3.0)
        assert harm_mean(3.0, 7.0, 0.0) == pytest.approx(3.0)

    def test_harmonic_resolvent_failure(self):
        with pytest.raises(DomainError):
            harm_mean(3.0, 1.0, -5.0)

    @given(
        x=st.floats(min_value=0.5, max_value=2.0),
        y=st.floats(min_value=0.5, max_value=2.0),
        nu=st.floats(min_value=-4.0, max_value=4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_log_domain_matches_naive_powers(self, x, y, nu):
        naive = x ** (1 - nu) * y ** nu
        assert geom_mean(x, y, nu) == pytest.approx(naive, rel=1e-12)


class TestYoungReverse:
    def test_hand_value_positive_branch(self):
        chain = young_reverse_chain(4.0, 1.0, 1.0, 1)
        np.testing.assert_allclose(chain.values, (7.0, 8.0, 16.0), rtol=1e-13)

    def test_hand_value_negative_branch(self):
        chain = young_reverse_chain(1.0, 4.0, -2.0, 1)
        np.testing.assert_allclose(chain.values, (7.0, 8.0, 16.0), rtol=1e-13)

    def test_equal_arguments_collapse(self):
        chain = young_reverse_chain(2.7, 2.7, 3.0, 5)
        np.testing.assert_allclose(chain.values, 2.7, rtol=1e-12)

    def test_zero_weight(self):
        chain = young_reverse_chain(5.0, 0.1, 0.0, 3)
        np.testing.assert_allclose(chain.values, 5.0, rtol=1e-13)

    def test_deep_ladder_keeps_near_equal_arguments_ascending(self):
        # Deep levels add terms near 2^-j x; a second difference of values
        # would lose 2^j eps x to cancellation there and break the order.
        for x, y, nu in ((1.0, 1.0005, 1.0), (1.0005, 1.0, -2.0)):
            prev = -math.inf
            for depth in (16, 24, 32):
                chain = young_reverse_chain(x, y, nu, depth)
                assert ascending(chain, rel_tol=1e-12), (x, y, nu, depth)
                assert chain.value("refined") >= prev
                prev = chain.value("refined")

    def test_depth1_matches_two_term_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            x, y = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=2))
            if rng.integers(2):
                nu = rng.uniform(0, 8)
                closed = (1 + nu) * x - nu * y + nu * (math.sqrt(x) - math.sqrt(y)) ** 2
            else:
                nu = -1 - rng.uniform(0, 8)
                closed = (1 + nu) * x - nu * y - (1 + nu) * (math.sqrt(y) - math.sqrt(x)) ** 2
            chain = young_reverse_chain(x, y, nu, 1)
            scale = max(1.0, abs(closed))
            assert abs(chain.value("refined") - closed) <= 1e-12 * scale

    def test_ascending_on_wide_range(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            x, y = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=2))
            nu = rng.uniform(0, 8) if rng.integers(2) else -1 - rng.uniform(0, 8)
            assert ascending(young_reverse_chain(x, y, nu, int(rng.integers(1, 9))), 1e-10)


class TestYoungSquared:
    def test_hand_value(self):
        chain = young_squared_chain(4.0, 1.0, 1.0, 1)
        np.testing.assert_allclose(chain.values, (57.0, 265.0), rtol=1e-13)

    def test_zero_weight(self):
        chain = young_squared_chain(3.0, 9.9, 0.0, 2)
        np.testing.assert_allclose(chain.values, 9.0, rtol=1e-13)

    def test_equal_arguments_collapse(self):
        chain = young_squared_chain(1.3, 1.3, -4.0, 3)
        np.testing.assert_allclose(chain.values, 1.3 ** 2, rtol=1e-12)

    def test_negative_branch_hand_value(self):
        chain = young_squared_chain(1.0, 4.0, -2.0, 1)
        np.testing.assert_allclose(chain.values, (57.0, 265.0), rtol=1e-13)


class TestYoungRefinementT:
    def test_t_one_collapses(self):
        chain = young_refinement_chain(5.0, 2.0, 1.0, 4)
        np.testing.assert_allclose(chain.values, 5.0, rtol=1e-13)

    def test_equal_arguments_collapse(self):
        chain = young_refinement_chain(2.0, 2.0, 0.3, 4)
        np.testing.assert_allclose(chain.values, 2.0, rtol=1e-13)

    def test_hand_values(self):
        chain = young_refinement_chain(4.0, 1.0, 0.5, 2)
        np.testing.assert_allclose(chain.values, (2.136414338985142, 2.5), rtol=1e-13)
        chain = young_refinement_chain(4.0, 1.0, 0.5, 1)
        np.testing.assert_allclose(chain.values, (2.085786437626905, 2.5), rtol=1e-13)

    def test_rejects_t_outside_range(self):
        with pytest.raises(DomainError):
            young_refinement_chain(1.0, 2.0, 0.0, 1)
        with pytest.raises(DomainError):
            young_refinement_chain(1.0, 2.0, 1.5, 1)

    def test_ascending_random(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            x, y = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=2))
            t = 1.0 - rng.uniform(0.0, 1.0)
            assert ascending(young_refinement_chain(x, y, t, int(rng.integers(1, 9))), 1e-10)


class TestHarmonicFamily:
    def test_reverse_hand_value(self):
        # x=1, y=2, nu=1, depth=1: arithmetic end 0, one gap
        # (x nabla y) - (x ! y) = 3/2 - 4/3 = 1/6 weighted by 2, target 2/3.
        chain = harmonic_reverse_chain(1.0, 2.0, 1.0, 1)
        np.testing.assert_allclose(chain.values, (0.0, 1 / 3, 2 / 3), atol=1e-14)

    def test_zero_weight_collapses(self):
        chain = harmonic_reverse_chain(1.0, 2.0, 0.0, 3)
        np.testing.assert_allclose(chain.values, 1.0, rtol=1e-14)

    def test_near_equal_limit(self):
        chain = harmonic_reverse_chain(1.0, 1.0 + 1e-9, 4.0, 2)
        np.testing.assert_allclose(chain.values, 1.0, rtol=1e-7)

    def test_requires_ordered_positive(self):
        with pytest.raises(DomainError):
            harmonic_reverse_chain(2.0, 1.0, 1.0, 1)
        with pytest.raises(DomainError):
            harmonic_reverse_chain(1.0, 2.0, -0.5, 1)

    def test_geometric_hand_value_and_kantorovich_identity(self):
        # x=1, y=4, nu=1, depth=1: the product factor squared equals the
        # Kantorovich constant form, middle = (x #_{-1} y) K(4) = 25/64.
        chain = harmonic_geometric_chain(1.0, 4.0, 1.0, 1)
        np.testing.assert_allclose(chain.values, (0.25, 25 / 64, 4 / 7), rtol=1e-12)
        kchain = kantorovich_chain(1.0, 4.0, 1.0)
        np.testing.assert_allclose(kchain.values[0], chain.values[1], rtol=1e-12)
        np.testing.assert_allclose(kchain.values[1], chain.values[2], rtol=1e-14)

    def test_depth1_equivalence_random(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            x, y = sorted(np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=2)))
            if y <= x:
                continue
            nu = rng.uniform(0, 8)
            mid = harmonic_geometric_chain(x, y, nu, 1).value("refined")
            kan = kantorovich_chain(x, y, nu).values[0]
            assert mid == pytest.approx(kan, rel=1e-11)

    def test_chains_ascending_random(self):
        rng = np.random.default_rng(35)
        for _ in range(500):
            x, y = sorted(np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=2)))
            if y <= x:
                continue
            nu = rng.uniform(0, 8)
            depth = int(rng.integers(1, 9))
            assert ascending(harmonic_reverse_chain(x, y, nu, depth))
            assert ascending(harmonic_geometric_chain(x, y, nu, depth))
            assert ascending(kantorovich_chain(x, y, nu))

    def test_second_derivative_formula(self):
        # Central second difference of v -> x !_v y against the closed form
        # 2 x y (x-y)^2 / (v(x-y)+y)^3.
        rng = np.random.default_rng(36)
        h = 1e-3
        for _ in range(100):
            x = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
            y = x * rng.uniform(1.5, 4.0)
            nu = rng.uniform(-2.9, 0.9)
            f = lambda v: harm_mean(x, y, v)
            fd = (f(nu + h) - 2 * f(nu) + f(nu - h)) / h ** 2
            exact = 2 * x * (x - y) ** 2 * y / (nu * (x - y) + y) ** 3
            assert fd == pytest.approx(exact, rel=1e-4)


class TestKantorovich:
    def test_unit_value(self):
        assert kantorovich_constant(1.0) == 1.0

    def test_hand_value(self):
        assert kantorovich_constant(4.0) == pytest.approx(25 / 16)

    @given(t=st.floats(min_value=1e-2, max_value=1e2))
    @settings(max_examples=100, deadline=None)
    def test_inversion_symmetry(self, t):
        assert kantorovich_constant(t) == pytest.approx(
            kantorovich_constant(1 / t), rel=1e-12
        )

    def test_requires_positive(self):
        with pytest.raises(DomainError):
            kantorovich_constant(0.0)

    def test_chain_zero_weight(self):
        chain = kantorovich_chain(1.0, 4.0, 0.0)
        np.testing.assert_allclose(chain.values, 1.0, rtol=1e-14)
