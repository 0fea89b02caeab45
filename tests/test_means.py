"""Tests for operator means, the operator/trace chains, and cross-route checks.

The operator chains are built by transferring a scalar inequality through the
spectrum of A^{-1/2} B A^{-1/2}; these tests independently recompose the same
matrices from the public mean operations and compare, and reduce commuting
(diagonal) instances to the scalar chains entrywise.
"""

import gc
import math
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

from matmeans import (
    DomainError,
    SpdMatrix,
    arithmetic_mean,
    geometric_mean,
    harmonic_mean,
    harmonic_operator_chain,
    harmonic_reverse_chain,
    kantorovich_chain,
    kantorovich_operator_chain,
    loewner_leq,
    operator_reverse_chain,
    operator_squared_chain,
    random_spd,
    singular_values,
    trace_additive_chain,
    trace_depth1_chain,
    trace_multiplicative_chain,
    young_reverse_chain,
    young_squared_chain,
)
from matmeans import harness, linalg, means, norms
from matmeans.means import OperatorChain
from matmeans.reporting import chain_gap, chain_slacks
from matmeans.scalar import _convex_refinement, _ladder, _logconvex_refinement

from jacobi_oracle import eigh_power


def _pair(seed, n=4, cond=100.0):
    return random_spd(n, cond, seed), random_spd(n, cond, seed + 1000)


def _ordered_pair(seed, n=4, cond=50.0):
    a = random_spd(n, cond, seed)
    s = random_spd(n, cond, seed + 2000)
    return a, SpdMatrix(a.a + s.a)


def _diag(*vals):
    return SpdMatrix(np.diag([float(v) for v in vals]))


def kantorovich_operator_product(a, b, nu):
    """The literal product (A #_{-nu} B) ((B^{-1}A + 2I + A^{-1}B)/4)^{nu}.

    With X = A^{-1/2} B A^{-1/2}, the middle factor is A^{-1/2} ((X + X^{-1}
    + 2I)/4) A^{1/2}, similar to a positive definite matrix, so its real
    power is defined by that similarity. Returns the (generally
    non-Hermitian) array.
    """
    root, inv_root = eigh_power(a, 0.5), eigh_power(a, -0.5)
    w, q = np.linalg.eigh(inv_root @ b.a @ inv_root)
    inner = (q * ((w + 1.0 / w + 2.0) / 4.0) ** nu) @ q.conj().T
    return geometric_mean(a, b, -nu).a @ inv_root @ inner @ root


class TestMeans:
    def test_equal_arguments_fixed_point(self):
        a = random_spd(4, 50, 5)
        for nu in (-2.0, 0.0, 0.5, 3.0):
            for fn in (arithmetic_mean, geometric_mean, harmonic_mean):
                np.testing.assert_allclose(fn(a, a, nu).a, a.a, atol=1e-11)

    def test_zero_weight_returns_first(self):
        a, b = _pair(1)
        for fn in (arithmetic_mean, geometric_mean, harmonic_mean):
            np.testing.assert_allclose(fn(a, b, 0.0).a, a.a, atol=1e-11)

    def test_commuting_diagonal_geometric(self):
        g = geometric_mean(_diag(1, 4), _diag(9, 16), 0.5)
        np.testing.assert_allclose(g.a, np.diag([3.0, 8.0]), atol=1e-12)

    def test_diagonal_reduces_to_scalar_means(self):
        from matmeans import arith_mean, geom_mean, harm_mean

        a, b = _diag(1, 2, 5), _diag(3, 0.5, 4)
        for nu in (0.25, 0.9, 2.0):
            np.testing.assert_allclose(
                np.diag(geometric_mean(a, b, nu).a).real,
                [geom_mean(x, y, nu) for x, y in zip([1, 2, 5], [3, 0.5, 4])],
                rtol=1e-12,
            )
            np.testing.assert_allclose(
                np.diag(arithmetic_mean(a, b, nu).a).real,
                [arith_mean(x, y, nu) for x, y in zip([1, 2, 5], [3, 0.5, 4])],
                rtol=1e-12,
            )
            if nu <= 1.0:  # resolvent positive entrywise only for these weights
                np.testing.assert_allclose(
                    np.diag(harmonic_mean(a, b, nu).a).real,
                    [harm_mean(x, y, nu) for x, y in zip([1, 2, 5], [3, 0.5, 4])],
                    rtol=1e-12,
                )

    def test_geometric_weight_reversal(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            a, b = _pair(seed, n=int(rng.integers(2, 6)))
            nu = float(rng.uniform(0, 1))
            left = geometric_mean(a, b, nu).a
            right = geometric_mean(b, a, 1 - nu).a
            assert np.linalg.norm(left - right) <= 1e-9 * max(1, np.linalg.norm(left))

    def test_congruence_covariance(self):
        rng = np.random.default_rng(9)
        for seed in range(10):
            n = int(rng.integers(2, 7))
            a, b = _pair(seed, n=n)
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            nu = float(rng.uniform(0, 1))
            for fn in (arithmetic_mean, geometric_mean, harmonic_mean):
                lhs = m.conj().T @ fn(a, b, nu).a @ m
                rhs = fn(
                    SpdMatrix(m.conj().T @ a.a @ m), SpdMatrix(m.conj().T @ b.a @ m), nu
                ).a
                assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1, np.linalg.norm(rhs))

    def test_harmonic_resolvent_failure(self):
        with pytest.raises(DomainError):
            harmonic_mean(_diag(2.0), _diag(1.0), -1.0)

    def test_harmonic_extreme_weights_name_their_failure(self):
        # At |nu| = 1e308, nu / w leaves the float range on both pairs: each
        # raises a DomainError that names the overflow, and nothing warns.
        pairs = ((_diag(9, 16), _diag(1, 4)), (random_spd(3, 1e12, 1), random_spd(3, 1e12, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in pairs:
                for nu in (1e308, -1e308):
                    with pytest.raises(DomainError, match="harmonic resolvent overflows"):
                        harmonic_mean(a, b, nu)

    @pytest.mark.parametrize("mean", [arithmetic_mean, geometric_mean, harmonic_mean])
    def test_non_finite_weight_is_named(self, mean):
        # The means take every real weight; a NaN or infinite one is named
        # as such, not as an overflow downstream of it, and nothing warns.
        pairs = ((_diag(9, 16), _diag(1, 4)), _pair(3), (_diag(2.0), _diag(1.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in pairs:
                for nu in (math.nan, math.inf, -math.inf):
                    want = f"{mean.__name__} requires a finite nu, got nu = {nu}"
                    with pytest.raises(DomainError, match=f"^{want}$"):
                        mean(a, b, nu)

    def test_geometric_power_out_of_range_says_which(self):
        # w ** 2 of diag(1, 1e200) overflows and of diag(1e-200, 1) underflows;
        # either raises a DomainError that names it, and numpy warns of neither.
        eye = _diag(1, 1)
        with np.errstate(all="raise"):
            with pytest.raises(DomainError, match="overflows"):
                geometric_mean(eye, _diag(1, 1e200), 2.0)
            with pytest.raises(DomainError, match="strictly positive.*underflows"):
                geometric_mean(eye, _diag(1e-200, 1), 2.0)

    def test_spectrum_of_x_out_of_range_says_which(self):
        # X = A^-1/2 B A^-1/2 is 1e400 for (1e-200, 1e200) and 1e-400 the
        # other way round: the squared singular value overflows or underflows
        # to 0. Each call raises a DomainError that names which, and numpy
        # warns of neither.
        tiny, huge = _diag(1e-200), _diag(1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b, word in ((tiny, huge, "overflows"), (huge, tiny, "underflows")):
                for call in (lambda: geometric_mean(a, b, 0.5),
                             lambda: operator_reverse_chain(a, b, 1.0, 2)):
                    with pytest.raises(DomainError, match=f"eigenvalue of X {word}"):
                        call()


class TestAssembly:
    """Every spectral matrix is assembled, and checked finite, in one place."""

    def test_overflowing_assembly_raises(self):
        eye = _diag(1.0, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            for build in (
                lambda: geometric_mean(eye, _diag(1e200, 1.0), 2.0),
                # r = 0.005 on the spectrum w = 2 of X: H = A / 0.005.
                lambda: harmonic_mean(_diag(1e307, 1.0), _diag(2e307, 2.0), 1.99),
            ):
                with pytest.raises(DomainError, match="matrix entries must be finite"):
                    build()

    def test_assembled_arrays_are_read_only(self):
        a, b = _pair(3)
        chain = operator_reverse_chain(a, b, 1.5, 3)
        for m in (a, geometric_mean(a, b, 0.3), harmonic_mean(a, b, 0.3),
                  *chain.matrices):
            assert not m.a.flags.writeable
            assert m.a.base is None or not m.a.base.flags.writeable
            with pytest.raises(ValueError):
                m.a[0, 0] = 0.0


class TestOperatorReverseChain:
    def test_equal_matrices_collapse(self):
        a = random_spd(3, 20, 2)
        chain = operator_reverse_chain(a, a, 2.0, 3)
        for m in chain.matrices:
            np.testing.assert_allclose(m.a, a.a, atol=1e-10)

    def test_commuting_reduces_to_scalar_chain(self):
        a, b = _diag(1, 2, 0.5), _diag(3, 1, 2)
        for nu in (0.7, 2.5, -1.5, -4.0):
            chain = operator_reverse_chain(a, b, nu, 3)
            for i, (x, y) in enumerate(zip([1, 2, 0.5], [3, 1, 2])):
                svals = young_reverse_chain(x, y, nu, 3).values
                mvals = [np.real(m.a[i, i]) for m in chain.matrices]
                np.testing.assert_allclose(mvals, svals, atol=1e-10, rtol=1e-10)

    def test_depth1_collapse_identity(self):
        # depth-1 refined term is 2 nu (A nabla B - A # B).
        a, b = _pair(3)
        nu = 1.7
        chain = operator_reverse_chain(a, b, nu, 1)
        expected = (
            arithmetic_mean(a, b, -nu).a
            + 2 * nu * (arithmetic_mean(a, b, 0.5).a - geometric_mean(a, b, 0.5).a)
        )
        assert np.linalg.norm(chain.matrix("refined").a - expected) <= 1e-10 * max(
            1, np.linalg.norm(expected)
        )

    def test_transfer_route_matches_mean_composition(self):
        rng = np.random.default_rng(12)
        for seed in range(8):
            n = int(rng.integers(2, 7))
            a, b = _pair(seed, n=n)
            nu = float(rng.uniform(0, 6))
            depth = int(rng.integers(1, 7))
            chain = operator_reverse_chain(a, b, nu, depth)
            composed = arithmetic_mean(a, b, -nu).a.copy()
            for j in range(1, depth + 1):
                composed += (
                    2.0 ** (j - 1)
                    * nu
                    * (
                        a.a
                        - 2 * geometric_mean(a, b, 2.0 ** -j).a
                        + geometric_mean(a, b, 2.0 ** (1 - j)).a
                    )
                )
            scale = max(1.0, np.linalg.norm(composed))
            assert np.linalg.norm(chain.matrix("refined").a - composed) <= 1e-9 * scale
            target = geometric_mean(a, b, -nu).a
            assert np.linalg.norm(chain.matrix("geom").a - target) <= 1e-9 * max(
                1.0, np.linalg.norm(target)
            )

    def test_loewner_ascending_random(self):
        rng = np.random.default_rng(13)
        for seed in range(40):
            n = int(rng.integers(2, 9))
            a, b = _pair(seed, n=n)
            nu = rng.uniform(0, 8) if seed % 2 else -1 - rng.uniform(0, 8)
            chain = operator_reverse_chain(a, b, float(nu), int(rng.integers(1, 9)))
            assert (chain_slacks(chain) >= -1e-8).all()

    def test_scalar_dimension_one_matches(self):
        chain = operator_reverse_chain(_diag(2.0), _diag(5.0), 1.5, 2)
        svals = young_reverse_chain(2.0, 5.0, 1.5, 2).values
        np.testing.assert_allclose(
            [float(m.a[0, 0].real) for m in chain.matrices], svals, rtol=1e-12
        )


class TestOperatorSquaredChain:
    def test_equal_matrices_collapse(self):
        a = random_spd(3, 20, 4)
        chain = operator_squared_chain(a, a, 1.5, 2)
        for m in chain.matrices:
            np.testing.assert_allclose(m.a, 2.5 * a.a, atol=1e-9)

    def test_zero_weight(self):
        a, b = _pair(5)
        chain = operator_squared_chain(a, b, 0.0, 2)
        np.testing.assert_allclose(chain.matrices[0].a, a.a, atol=1e-10)
        np.testing.assert_allclose(chain.matrices[-1].a, a.a, atol=1e-10)

    def test_dimension_one_gap_matches_scalar_rearrangement(self):
        # At size 1 with A=1 the chain is an affine rearrangement of the
        # squared scalar refinement: the end-to-end gaps agree.
        for y, nu, depth in ((3.0, 1.4, 2), (0.2, 4.0, 3), (7.0, 0.3, 1)):
            chain = operator_squared_chain(_diag(1.0), _diag(y), nu, depth)
            c = young_squared_chain(1.0, y, nu, depth)
            op_gap = float((chain.matrices[-1].a - chain.matrices[1].a)[0, 0].real)
            sc_gap = c.values[1] - c.values[0]
            assert op_gap == pytest.approx(sc_gap, rel=1e-10, abs=1e-12)

    def test_loewner_ascending_both_branches(self):
        rng = np.random.default_rng(14)
        for seed in range(30):
            n = int(rng.integers(2, 8))
            a, b = _pair(seed, n=n)
            nu = rng.uniform(0, 8) if seed % 2 else -1 - rng.uniform(0, 8)
            chain = operator_squared_chain(a, b, float(nu), int(rng.integers(1, 9)))
            assert (chain_slacks(chain) >= -1e-8).all()

    def test_grid_takes_one_weight_branch(self):
        # The grid refines one power functional: w^v for nu >= 0, or
        # w^{1+v} for nu <= -1. A grid that mixes the branches is refused.
        a, b = _pair(5)
        for grid in ([(1.5, 2), (-1.5, 2)], [(-1.0, 3), (0.0, 3)]):
            with pytest.raises(DomainError, match="mixes the branches"):
                means._operator_squared_grid(a, b, grid)

    def test_overflowing_square_is_a_domain_error_without_warning(self):
        # On A = B = I the spectrum w is exactly 1, so every power of w is 1
        # and nu^2 = inf reaches the target's arithmetic: the chain names
        # its non-finite value, with no OverflowError and no numpy warning.
        eye = _diag(1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for nu in (1e200, 1e308):
                with pytest.raises(DomainError, match="chain values must be finite"):
                    operator_squared_chain(eye, eye, nu, 1)


class TestHarmonicOperatorChain:
    def test_requires_loewner_order(self):
        a = _diag(2.0, 1.0)
        b = _diag(1.0, 2.0)
        with pytest.raises(DomainError):
            harmonic_operator_chain(a, b, 1.0, 1)

    def test_equal_matrices_collapse(self):
        a = random_spd(3, 30, 6)
        chain = harmonic_operator_chain(a, a, 3.0, 2)
        for m in chain.matrices:
            np.testing.assert_allclose(m.a, a.a, atol=1e-9)

    def test_zero_weight_collapse(self):
        a, b = _ordered_pair(7)
        chain = harmonic_operator_chain(a, b, 0.0, 2)
        for m in chain.matrices:
            np.testing.assert_allclose(m.a, a.a, atol=1e-9)

    def test_commuting_reduces_to_scalar_chain(self):
        a, b = _diag(1, 2), _diag(2, 3)
        for nu in (0.5, 2.0, 6.0):
            chain = harmonic_operator_chain(a, b, nu, 2)
            for i, (x, y) in enumerate(zip([1, 2], [2, 3])):
                svals = harmonic_reverse_chain(x, y, nu, 2).values
                mvals = [np.real(m.a[i, i]) for m in chain.matrices]
                np.testing.assert_allclose(mvals, svals, atol=1e-10)

    def test_loewner_ascending_random(self):
        rng = np.random.default_rng(15)
        for seed in range(30):
            n = int(rng.integers(2, 9))
            a, b = _ordered_pair(seed, n=n)
            chain = harmonic_operator_chain(
                a, b, float(rng.uniform(0, 8)), int(rng.integers(1, 9))
            )
            assert (chain_slacks(chain) >= -1e-8).all()


class TestKantorovichOperator:
    def test_equal_matrices_collapse(self):
        a = random_spd(3, 30, 8)
        chain = kantorovich_operator_chain(a, a, 2.0)
        for m in chain.matrices:
            np.testing.assert_allclose(m.a, a.a, atol=1e-9)

    def test_zero_weight(self):
        a, b = _ordered_pair(9)
        chain = kantorovich_operator_chain(a, b, 0.0)
        for m in chain.matrices:
            np.testing.assert_allclose(m.a, a.a, atol=1e-9)

    def test_commuting_matches_scalar_bound(self):
        a, b = _diag(1, 2), _diag(4, 3)
        for nu in (0.5, 1.0, 3.0):
            chain = kantorovich_operator_chain(a, b, nu)
            for i, (x, y) in enumerate(zip([1, 2], [4, 3])):
                svals = kantorovich_chain(x, y, nu).values
                mvals = [np.real(m.a[i, i]) for m in chain.matrices]
                np.testing.assert_allclose(mvals, svals, rtol=1e-10)

    def test_product_form_matches_congruence_form(self):
        rng = np.random.default_rng(16)
        for seed in range(10):
            n = int(rng.integers(2, 7))
            a, b = _ordered_pair(seed, n=n)
            nu = float(rng.uniform(0, 4))
            chain = kantorovich_operator_chain(a, b, nu)
            product = kantorovich_operator_product(a, b, nu)
            scale = max(1.0, np.linalg.norm(chain.matrices[0].a))
            assert np.linalg.norm(product - chain.matrices[0].a) <= 1e-8 * scale

    def test_loewner_ascending_random(self):
        rng = np.random.default_rng(17)
        for seed in range(30):
            n = int(rng.integers(2, 9))
            a, b = _ordered_pair(seed, n=n)
            chain = kantorovich_operator_chain(a, b, float(rng.uniform(0, 8)))
            assert (chain_slacks(chain) >= -1e-8).all()


class TestTraceChains:
    def test_equal_matrices_collapse(self):
        a = random_spd(4, 40, 10)
        add = trace_additive_chain(a, a, 2.0, 3)
        np.testing.assert_allclose(add.values, np.trace(a.a).real, rtol=1e-11)
        mult = trace_multiplicative_chain(a, a, 2.0, 3)
        np.testing.assert_allclose(mult.values, np.trace(a.a).real, rtol=1e-11)

    def test_zero_weight_collapse(self):
        a, b = _pair(11)
        add = trace_additive_chain(a, b, 0.0, 2)
        np.testing.assert_allclose(add.values, np.trace(a.a).real, rtol=1e-12)

    def test_hand_values_diagonal(self):
        # A=diag(1,2), B=diag(3,1), nu=1, depth=1, by direct arithmetic:
        # additive [2, 9 - 2 sqrt(3) - 2 sqrt(2), 13/3],
        # multiplicative [9/4, 27/(5 + 2 sqrt(6)), 13/3].
        a, b = _diag(1, 2), _diag(3, 1)
        add = trace_additive_chain(a, b, 1.0, 1)
        np.testing.assert_allclose(
            add.values,
            (2.0, 9 - 2 * math.sqrt(3) - 2 * math.sqrt(2), 13 / 3),
            rtol=1e-12,
        )
        mult = trace_multiplicative_chain(a, b, 1.0, 1)
        np.testing.assert_allclose(
            mult.values, (2.25, 27 / (5 + 2 * math.sqrt(6)), 13 / 3), rtol=1e-12
        )

    def test_depth1_chain_ascending_and_consistent(self):
        rng = np.random.default_rng(18)
        for seed in range(40):
            n = int(rng.integers(2, 9))
            a, b = _pair(seed, n=n)
            nu = float(rng.uniform(0, 8))
            chain = trace_depth1_chain(a, b, nu)
            scale = max(1.0, max(abs(v) for v in chain.values))
            diffs = np.diff(chain.values)
            assert np.all(diffs >= -1e-9 * scale)
            # second element equals the depth-1 additive refined value
            add = trace_additive_chain(a, b, nu, 1)
            assert chain.values[1] == pytest.approx(add.value("refined"), rel=1e-12)

    def test_refined_monotone_in_depth(self):
        a, b = _pair(12)
        prev = -np.inf
        for depth in range(1, 9):
            val = trace_additive_chain(a, b, 2.0, depth).value("refined")
            assert val >= prev - 1e-12 * max(1, abs(val))
            prev = val

    def test_requires_nonnegative_weight(self):
        a, b = _pair(13)
        with pytest.raises(DomainError):
            trace_additive_chain(a, b, -1.0, 1)

    def test_abs_trace_power_from_svd(self):
        # The Schatten-1 term sums LAPACK's singular values (not square roots
        # of the spectrum of P*P, which squares P's condition number) of
        # diag(wa^{1+nu}) Qa* Qb diag(wb^{-nu}), which is unitarily
        # equivalent to P = A^{1+nu} B^{-nu}. The literal product agrees.
        a, b = _pair(15)
        nu = 2.3
        c = a.eig.eigenvectors.conj().T @ b.eig.eigenvectors
        wa, wb = a.eig.eigenvalues, b.eig.eigenvalues
        graded = c * (wa ** (1.0 + nu))[:, None] * wb ** -nu
        chain = trace_depth1_chain(a, b, nu)
        sigma = np.linalg.svd(graded, compute_uv=False)
        assert np.array_equal(singular_values(graded), sigma)
        assert chain.value("abs_trace_power") == float(np.sum(sigma))
        prod = eigh_power(a, 1.0 + nu) @ eigh_power(b, -nu)
        literal = np.linalg.svd(prod, compute_uv=False)
        assert chain.value("abs_trace_power") == pytest.approx(np.sum(literal), rel=1e-12)
        assert chain.value("trace_power") == pytest.approx(np.trace(prod).real, rel=1e-12)

    def test_each_weight_powered_once(self, monkeypatch):
        # The refinement telescopes to four weights: 0, 1, the target and
        # 2^-depth. The chain powers the spectra of A and B in one call,
        # A's rows first, at each of them once a side. Its target is the
        # kernel's value at -nu, and agrees with the trace of the literal
        # product.
        a, b = _pair(14)
        nu = 1.7
        target = means._traces(means._pair(a, b))([-nu])[0]
        literal = float(np.trace(eigh_power(a, 1.0 + nu) @ eigh_power(b, -nu)).real)
        assert target == pytest.approx(literal, rel=1e-12)
        spectrum_powers = linalg._spectrum_powers
        powered = []

        def counted(m, ts):
            powered.append(list(ts))
            return spectrum_powers(m, ts)

        monkeypatch.setattr(linalg, "_spectrum_powers", counted)
        for chain_fn in (trace_additive_chain, trace_multiplicative_chain):
            for depth in (1, 4, 16):
                powered.clear()
                chain = chain_fn(a, b, nu, depth)
                (ts,) = powered
                assert len(set(ts[:4])) == len(set(ts[4:])) == 4, (chain_fn.__name__, depth)
                assert len(ts) == 8, (chain_fn.__name__, depth)
                assert chain.value("target") == target


class TestGeneralRefinement:
    """Each chain is one of the two general refinements of its functional."""

    def test_operator_chains(self):
        for seed in range(4):
            a, b = _ordered_pair(30 + seed, n=2 + seed)
            t = means._pair(a, b)
            power = lambda vs: [t.w ** v for v in vs]
            harm = lambda vs: [1.0 / ((1.0 - v) + v / t.w) for v in vs]
            # Each chain passes its functional's closed-form drop f(e) - f(m_N),
            # with h = 2^-depth: 1 - w^h, w - w^{1-h} and 1 - 1/(1 - h + h/w).
            log_w = np.log(t.w)
            drops = {
                "power_a": lambda h: -np.expm1(log_w * h),
                "power_b": lambda h: -t.w * np.expm1(-log_w * h),
                "harm": lambda h: (1.0 - t.w) / t.w * h / (1.0 + (1.0 - t.w) / t.w * h),
            }
            cases = [
                (operator_reverse_chain, power, 1.3, "a", "power_a"),
                (operator_reverse_chain, power, -2.4, "b", "power_b"),
                (harmonic_operator_chain, harm, 1.3, "a", "harm"),
            ]
            for chain_fn, values, nu, anchor, drop in cases:
                for depth in (1, 4, 16):
                    chain = chain_fn(a, b, nu, depth)
                    fs = values(_ladder(0.0, 1.0, nu, depth, anchor))
                    expected = _convex_refinement(
                        fs, 0.0, 1.0, nu, depth, anchor, drops[drop](2.0 ** -depth)
                    )
                    assert chain.m.tobytes() == t.m.tobytes()
                    for row, v in zip(chain.values, expected):
                        assert row.tobytes() == v.tobytes(), (chain_fn.__name__, nu, depth)

    def test_trace_chains(self):
        # Bit for bit the refinement of the trace kernel on a stack of one,
        # whose values agree with the traces of the literal products.
        for seed in range(4):
            a, b = _pair(40 + seed, n=2 + seed)

            def traces(vs):
                return [means._traces(means._pair(a, b))([v])[0] for v in vs]

            for v in (-5.5, -0.8, 0.0, 0.5, 1.0):
                literal = float(np.trace(eigh_power(a, 1.0 - v) @ eigh_power(b, v)).real)
                assert traces([v])[0] == pytest.approx(literal, rel=1e-12), (seed, v)
            for chain_fn, kernel in (
                (trace_additive_chain, _convex_refinement),
                (trace_multiplicative_chain, _logconvex_refinement),
            ):
                for nu, depth in ((0.0, 1), (0.8, 4), (5.5, 16)):
                    chain = chain_fn(a, b, nu, depth)
                    points = _ladder(0.0, 1.0, nu, depth, "a")
                    expected = kernel(traces(points), 0.0, 1.0, nu, depth, "a")
                    assert [v.hex() for v in chain.values] == [v.hex() for v in expected], (
                        chain_fn.__name__, nu, depth
                    )


class TestPairContext:
    """Each call computes its pair's spectral context once, for its whole
    grid, and keeps nothing on the matrices."""

    def test_sweep_transfers_each_pair_once(self, monkeypatch):
        # One SVD per drawn pair across the whole grid, as in one run_case.
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for param, grid in (("depth", range(1, 9)), ("nu", (0.0, 0.5, 2.0, 7.5))):
            calls.clear()
            rows = harness.sweep("operator_reverse_pos", param, grid, instances=5)
            assert len(rows) == len(grid)
            assert calls == [True] * 5, (param, calls)
        calls.clear()
        harness.run_case("operator_reverse_pos", instances=5)
        assert calls == [True] * 5

    def test_sweep_checks_each_ordered_pair_once(self, monkeypatch):
        leq, checks = means.loewner_leq, []

        def counted(*args, **kwargs):
            checks.append(args)
            return leq(*args, **kwargs)

        monkeypatch.setattr(means, "loewner_leq", counted)
        harness.sweep("harmonic_operator", "nu", (0.0, 1.0, 4.0), instances=4)
        assert len(checks) == 4

    def test_new_partner_gives_a_fresh_pairs_chain(self):
        for seed, nu in ((3, 1.3), (4, -2.4)):
            a, b1 = _pair(seed)
            b2 = random_spd(4, 100.0, seed + 3000)
            operator_reverse_chain(a, b1, nu, 5)
            for chain_fn in (operator_reverse_chain, operator_squared_chain):
                got = chain_fn(a, b2, nu, 5)
                fresh = chain_fn(random_spd(4, 100.0, seed), b2, nu, 5)
                for m, f in zip(got.matrices, fresh.matrices):
                    assert m.a.tobytes() == f.a.tobytes(), (seed, chain_fn.__name__)
            assert means._pair(a, b2).b is b2
            got = trace_depth1_chain(a, b1, abs(nu)).values
            fresh = trace_depth1_chain(random_spd(4, 100.0, seed), b1, abs(nu)).values
            assert [v.hex() for v in got] == [v.hex() for v in fresh]

    def test_depth_repeat_powers_only_the_new_point(self, monkeypatch):
        # A chain powers each distinct exponent of its ladder on the pair's
        # spectrum once, in one call, and the squared chain its target in a
        # second. Its grid form over depths 1, 4 and 16 makes those calls
        # for the whole grid, where each repeat adds only its new m_N to the
        # ladder and no target, and the three gaps, which share one
        # v_k - v_0, run one eigh. Its rows, gaps and traces are those of
        # the chains built one at a time, bit for bit.
        powered, eighs = [], []
        spectrum_powers, eigh = means._spectrum_powers, linalg._eigh_array
        monkeypatch.setattr(
            means, "_spectrum_powers", lambda w, ts: powered.append(len(ts)) or spectrum_powers(w, ts)
        )
        monkeypatch.setattr(linalg, "_eigh_array", lambda h: eighs.append(1) or eigh(h))
        depths = (1, 4, 16)
        for chain_fn, grid_form, nu, targets in (
            (operator_reverse_chain, means._operator_reverse_grid, 1.3, []),
            (operator_reverse_chain, means._operator_reverse_grid, -2.4, []),
            (operator_squared_chain, means._operator_squared_grid, 0.6, [1]),
            (operator_squared_chain, means._operator_squared_grid, -1.7, [1]),
        ):
            a, b = _pair(7)
            a.eig, b.eig  # the pairs' own eigendecompositions are not counted
            singles = []
            for depth in depths:
                powered.clear()
                eighs.clear()
                chain = chain_fn(a, b, nu, depth)
                singles.append((chain, chain_gap(chain)))
                # The pair's one call (A's two powers and B's), then the
                # chain's calls.
                assert powered == [3, 4, *targets], (chain_fn.__name__, nu, depth)
                assert eighs == [1], (chain_fn.__name__, nu, depth)
            powered.clear()
            eighs.clear()
            chains = grid_form(a, b, [(nu, depth) for depth in depths])
            gaps = [chain_gap(chain) for chain in chains]
            assert powered == [3, 6, *targets], (chain_fn.__name__, nu)
            assert eighs == [1], (chain_fn.__name__, nu)
            for chain, gap, (single, single_gap) in zip(chains, gaps, singles):
                where = (chain_fn.__name__, nu)
                assert chain.transfer is chains[0].transfer, where
                assert chain.values.tobytes() == single.values.tobytes(), where
                assert chain.m.tobytes() == single.m.tobytes(), where
                assert gap.hex() == single_gap.hex(), where
                trace = chain.trace(chain.values[1] - chain.values[0])
                assert trace.hex() == single.trace(single.values[1] - single.values[0]).hex()

    def test_unordered_pair_raises_on_every_call(self):
        a, b = _diag(2.0, 1.0), _diag(1.0, 2.0)
        operator_reverse_chain(a, b, 1.0, 3)
        for _ in range(3):
            with pytest.raises(DomainError, match="precondition A <= B"):
                harmonic_operator_chain(a, b, 1.0, 3)
            with pytest.raises(DomainError, match="precondition A <= B"):
                kantorovich_operator_chain(a, b, 1.0)

    def test_context_dies_with_its_matrix(self):
        # No reference cycle: A is freed by its reference count alone, also
        # after a pair used both ways round and a pair of A with itself.
        gc.disable()
        try:
            a, b = _ordered_pair(5)
            harmonic_operator_chain(a, b, 1.0, 4)
            trace_depth1_chain(a, b, 1.0)
            operator_reverse_chain(b, a, 1.0, 4)
            geometric_mean(a, a, 0.3)
            refs = weakref.ref(a), weakref.ref(b)
            del a
            assert refs[0]() is None
            del b
            assert refs[1]() is None
        finally:
            gc.enable()


class TestOperatorChainType:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DomainError):
            OperatorChain(("one",), np.eye(2), [[1.0, 2.0]])
        with pytest.raises(DomainError):
            OperatorChain(("x", "y", "z"), np.eye(2), [[1.0, 2.0], [2.0, 3.0]])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DomainError):
            OperatorChain(("x", "y"), np.eye(2), [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
        with pytest.raises(DomainError):
            OperatorChain(("x", "y"), np.eye(2), [[1.0, 2.0], [2.0, 3.0, 4.0]])
        with pytest.raises(DomainError):
            OperatorChain(("x", "y"), np.ones((2, 3)), [[1.0, 2.0], [2.0, 3.0]])

    def test_rejects_non_finite_values(self):
        with pytest.raises(DomainError, match="finite"):
            OperatorChain(("x", "y"), np.eye(2), [[1.0, 2.0], [np.inf, 3.0]])
        with pytest.raises(DomainError, match="finite"):
            OperatorChain(("x", "y"), np.eye(2), [[1.0, 2.0], [np.nan, 3.0]])

    def test_slacks_sign(self):
        a = random_spd(3, 10, 2)
        low, high = [1.0, -2.0, 0.5], [1.5, -1.0, 0.5]
        up = OperatorChain(("lo", "hi"), a.a, [low, high])
        assert chain_slacks(up)[0] == 0.0  # the third eigenvalue does not move
        assert loewner_leq(up.matrices[0], up.matrices[1]).holds
        down = OperatorChain(("hi", "lo"), a.a, [high, low])
        assert chain_slacks(down)[0] == -0.5
        assert not loewner_leq(down.matrices[0], down.matrices[1]).holds

    def test_matrices_assembled_on_first_read(self, monkeypatch):
        a = random_spd(3, 10, 2)
        congruence, assembled = linalg._congruence, []

        def counted(m, v):
            assembled.append(v.shape)
            return congruence(m, v)

        monkeypatch.setattr(linalg, "_congruence", counted)
        chain = OperatorChain(("lo", "hi"), a.a, [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
        assert chain_slacks(chain).tolist() == [0.25]
        assert assembled == []
        first = chain.matrices
        assert assembled == [(3,), (3,)]
        assert chain.matrices is first and chain.matrix("hi") is first[1]
        assert assembled == [(3,), (3,)]
        np.testing.assert_allclose(first[1].a, (a.a * [2.0, 3.0, 4.0]) @ a.a, rtol=1e-14)
        assert not chain.values.flags.writeable

    def test_transfer_from_an_array_is_a_copy(self):
        # A chain keeps what it reads of M (the gap, the trace's column
        # norms), so it holds its own read-only copy of an array M: a later
        # change to the caller's array moves none of its values.
        m = random_spd(3, 10, 4).a.copy()
        rows = [[1.0, 2.0, 3.0], [2.0, 3.5, 4.0]]
        chain = OperatorChain(("lo", "hi"), m, rows)
        gap, trace = chain_gap(chain), chain.trace(np.ones(3))
        m *= 2.0
        fresh = OperatorChain(("lo", "hi"), m / 2.0, rows)
        assert not chain.m.flags.writeable and chain.m is not m
        assert chain_gap(chain) == gap == chain_gap(fresh)
        assert chain.trace(np.ones(3)) == trace == fresh.trace(np.ones(3))


class TestImportOrder:
    @staticmethod
    def _run_bare(body: str) -> None:
        """Run ``body`` with the package loaded without its __init__, so the
        modules it imports are the only matmeans modules loaded."""
        code = (
            "import importlib, sys, types\n"
            "pkg = types.ModuleType('matmeans')\n"
            f"pkg.__path__ = [{os.path.dirname(means.__file__)!r}]\n"
            "sys.modules['matmeans'] = pkg\n" + body
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("first", ["means", "norms"])
    def test_module_imports_without_a_cycle(self, first):
        # ``first`` really is the first matmeans module imported; both take
        # the spectral kernels from linalg at module level.
        self._run_bare(
            f"importlib.import_module('matmeans.{first}')\n"
            "import matmeans.linalg, matmeans.means, matmeans.norms\n"
            "for module in (matmeans.means, matmeans.norms):\n"
            "    assert module._graded is matmeans.linalg._graded\n"
            "    assert module._singular_values is matmeans.linalg._singular_values\n"
        )

    def test_numerics_import_no_reporting_or_harness(self):
        # The numerics layer computes; reporting and the harness verify it.
        self._run_bare(
            "for name in ('scalar', 'linalg', 'norms', 'means'):\n"
            "    importlib.import_module('matmeans.' + name)\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('matmeans.'))\n"
            "assert 'matmeans.reporting' not in loaded, loaded\n"
            "assert 'matmeans.harness' not in loaded, loaded\n"
        )
