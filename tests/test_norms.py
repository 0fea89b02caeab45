"""Tests for singular values, unitarily invariant norms, and the Heinz family."""

import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from matmeans import (
    DEFAULT_NORM_KINDS,
    ComplexMatrix,
    ConvergenceError,
    DomainError,
    NormKind,
    SpdMatrix,
    combined_norm_chain,
    heinz_interpolated_chain,
    heinz_interpolation_values,
    heinz_norm,
    heinz_pq_chain,
    heinz_reverse_chain,
    linalg,
    norm_heinz_chain,
    norm_reverse_chain,
    norms,
    operator_reverse_chain,
    random_spd,
    singular_values,
    ui_norm,
    young_reverse_chain,
)

from matmeans.linalg import _haar
from matmeans.scalar import _convex_refinement, _ladder, _logconvex_refinement

from jacobi_oracle import eigh_power

ALL_KINDS = DEFAULT_NORM_KINDS


def _functional(a, b, x, v, kind):
    """f(v) = ||A^{1-v} X B^v||: the kernel on a stack of one."""
    return float(norms._functional_values(a, b, x, [v], kind)[0])


def _per_row_norms(a, b, x, left, right, kind, paired):
    """A kernel request's values computed one graded matrix at a time, each
    power a plain ``w ** t`` and each norm from its own SVD."""
    y = a.eig.eigenvectors.conj().T @ x @ b.eig.eigenvectors
    wa, wb = a.eig.eigenvalues, b.eig.eigenvalues
    s = [y * (wa ** l)[:, None] * (wb ** r)[None, :] for l, r in zip(left, right)]
    if paired:
        k = len(s) // 2
        s = [s[i] + s[k + i] for i in range(k)]
    return np.array([kind.of_sigma(np.linalg.svd(m, compute_uv=False)) for m in s])


def _unitary(n, rng):
    return _haar(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _instance(seed, n=3, cond=50.0):
    rng = np.random.default_rng(seed)
    a = random_spd(n, cond, rng)
    b = random_spd(n, cond, rng)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a, b, x


def _ascending(values, rel_tol=1e-8):
    scale = max(1.0, max(abs(v) for v in values))
    return all(w - v >= -rel_tol * scale for v, w in zip(values, values[1:]))


class TestSingularValues:
    def test_identity(self):
        np.testing.assert_allclose(singular_values(np.eye(3)), np.ones(3))

    def test_diagonal_with_signs(self):
        np.testing.assert_allclose(
            singular_values(np.diag([3.0, -4.0])), [4.0, 3.0], atol=1e-12
        )

    def test_frobenius_identity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        s = singular_values(x)
        assert np.sum(s ** 2) == pytest.approx(np.linalg.norm(x) ** 2, rel=1e-10)

    def test_matches_numpy_svd(self):
        # Independent oracle: LAPACK SVD.
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            ref = np.linalg.svd(x, compute_uv=False)
            np.testing.assert_allclose(
                singular_values(x), ref, atol=1e-10 * max(1.0, ref[0])
            )


    def test_small_singular_value_keeps_relative_accuracy(self):
        # X = U diag(1, 1e-10) V* with seeded unitaries. Through the spectrum
        # of X*X the small value is lost below sqrt(eps); the SVD keeps it to
        # the rounding of X's entries (about 1e-16 absolute).
        for seed in range(5):
            u = _unitary(2, np.random.default_rng(seed))
            v = _unitary(2, np.random.default_rng(seed + 100))
            s = singular_values(u @ np.diag([1.0, 1e-10]) @ v.conj().T)
            assert s[0] == pytest.approx(1.0, rel=1e-15, abs=0.0), seed
            assert s[1] == pytest.approx(1e-10, rel=1e-5, abs=0.0), seed

    def test_lapack_failure_raises_convergence_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(ConvergenceError):
            singular_values(np.eye(2))
        with pytest.raises(ConvergenceError):
            heinz_norm(np.eye(2), np.eye(2), np.eye(2), 0.3, NormKind.spectral())

    def test_non_finite_entries_rejected(self):
        with pytest.raises(DomainError):
            singular_values(np.array([[1.0, np.inf], [0.0, 1.0]]))
        with pytest.raises(DomainError):
            singular_values(np.ones(3))


class TestUiNorm:
    def test_trace_norm_of_identity(self):
        assert ui_norm(np.eye(3), NormKind.trace_norm()) == pytest.approx(3.0)

    def test_frobenius_hand_value(self):
        assert ui_norm(np.diag([3.0, 4.0]), NormKind.frobenius()) == pytest.approx(5.0)

    def test_aliases_coincide(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 4))
        assert ui_norm(x, NormKind.spectral()) == ui_norm(x, NormKind.ky_fan(1))
        assert ui_norm(x, NormKind.trace_norm()) == ui_norm(x, NormKind.schatten(1))
        assert ui_norm(x, NormKind.frobenius()) == ui_norm(x, NormKind.schatten(2))

    def test_ky_fan_clamps_large_k(self):
        x = np.diag([3.0, 2.0, 1.0])
        assert ui_norm(x, NormKind.ky_fan(10)) == pytest.approx(6.0)

    def test_kind_validation(self):
        with pytest.raises(DomainError):
            NormKind.schatten(0.5)
        for p in (np.inf, np.nan):  # the spectral norm is ky_fan(1)
            with pytest.raises(DomainError, match="finite p"):
                NormKind.schatten(p)
        with pytest.raises(DomainError):
            NormKind.ky_fan(0)
        with pytest.raises(DomainError):
            NormKind("kyfan", 1.5)

    def test_ky_fan_k_passes_the_integer_rule(self):
        # k is checked by ``scalar._check_int`` before any truncation, and
        # kept as an int: 2.5 and NaN are errors, not the Ky Fan 2 norm or
        # numpy's bare ValueError.
        for bad in (2.5, np.nan):
            for make in (NormKind.ky_fan, lambda k: NormKind("kyfan", k)):
                with pytest.raises(DomainError, match=f"^Ky Fan k must be an integer, got {bad}$"):
                    make(bad)
        kind = NormKind("kyfan", 2.0)
        assert type(kind.param) is int and kind == NormKind.ky_fan(2)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            n = int(rng.integers(2, 6))
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            u = _unitary(n, rng)
            v = _unitary(n, rng)
            for kind in ALL_KINDS:
                base = ui_norm(x, kind)
                assert abs(ui_norm(u @ x @ v, kind) - base) <= 1e-9 * base

    def test_triangle_inequality_and_homogeneity(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            c = float(rng.uniform(-3, 3))
            for kind in ALL_KINDS:
                assert ui_norm(x + y, kind) <= ui_norm(x, kind) + ui_norm(y, kind) + 1e-9
                assert ui_norm(c * x, kind) == pytest.approx(
                    abs(c) * ui_norm(x, kind), rel=1e-11, abs=1e-12
                )

    def test_schatten_rows_are_their_own_sums(self):
        # A Schatten p not in {1, 2} powers and sums the whole stack at once
        # and takes each row's 1/p root alone: every row has the bits of the
        # numpy float64 computation on that row by itself.
        rng = np.random.default_rng(8)
        for p in (1.5, 3.0, 4.0):
            kind = NormKind.schatten(p)
            for n in range(1, 9):
                sigma = -np.sort(-np.exp(rng.uniform(-20.0, 20.0, (200, n))), axis=1)
                rows = kind.of_sigma(sigma)
                want = [np.add.reduce(r ** p) ** (1.0 / p) for r in sigma]
                assert rows.tobytes() == np.array(want).tobytes(), (p, n)
                assert kind.of_sigma(sigma[0]) == want[0]

    def test_five_default_kinds(self):
        assert len(DEFAULT_NORM_KINDS) == 5
        assert str(NormKind.schatten(3)) == "schatten(3)"
        assert str(NormKind.ky_fan(2)) == "kyfan(2)"


class TestNormFunctional:
    def test_zero_weight(self):
        a, b, x = _instance(7)
        k = NormKind.trace_norm()
        assert _functional(a, b, x, 0.0, k) == pytest.approx(
            ui_norm(a.a @ x, k), rel=1e-12
        )

    def test_identity_matrices_constant(self):
        i3 = SpdMatrix(np.eye(3))
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 3))
        k = NormKind.frobenius()
        for nu in (-2.0, 0.0, 0.7, 3.0):
            assert _functional(i3, i3, x, nu, k) == pytest.approx(
                ui_norm(x, k), rel=1e-12
            )

    def test_midpoint_log_convexity(self):
        rng = np.random.default_rng(9)
        for seed in range(60):
            a, b, x = _instance(seed, n=int(rng.integers(2, 6)))
            for kind in ALL_KINDS:
                f0 = _functional(a, b, x, 0.0, kind)
                f1 = _functional(a, b, x, 1.0, kind)
                fm = _functional(a, b, x, 0.5, kind)
                assert fm ** 2 <= f0 * f1 * (1 + 1e-9)


class TestNormChains:
    def test_zero_weight_collapse(self):
        a, b, x = _instance(10)
        chain = norm_reverse_chain(a, b, x, 0.0, 2, NormKind.spectral())
        np.testing.assert_allclose(chain.values, chain.values[0], rtol=1e-12)

    def test_identity_matrices_collapse(self):
        i3 = SpdMatrix(np.eye(3))
        x = np.random.default_rng(11).standard_normal((3, 3))
        for kind in ALL_KINDS:
            chain = norm_reverse_chain(i3, i3, x, 2.0, 3, kind)
            np.testing.assert_allclose(chain.values, ui_norm(x, kind), rtol=1e-12)

    def test_depth1_collapse_identity(self):
        # The depth-1 middle term equals ||AX||^{1+2nu} / ||sqrt(A) X sqrt(B)||^{2nu},
        # so middle <= target rearranges into the two-norm product bound.
        rng = np.random.default_rng(12)
        for seed in range(30):
            a, b, x = _instance(seed, n=2)
            nu = float(rng.uniform(0, 3))
            for kind in ALL_KINDS:
                chain = norm_reverse_chain(a, b, x, nu, 1, kind)
                fa = ui_norm(a.a @ x, kind)
                cross = _functional(a, b, x, 0.5, kind)
                expected_mid = math.exp(
                    (1 + 2 * nu) * math.log(fa) - 2 * nu * math.log(cross)
                )
                assert chain.value("refined") == pytest.approx(expected_mid, rel=1e-10)
                assert fa ** (1 + 2 * nu) <= (
                    _functional(a, b, x, -nu, kind) * cross ** (2 * nu)
                ) * (1 + 1e-8)

    def test_ascending_all_kinds_both_branches(self):
        rng = np.random.default_rng(13)
        for seed in range(60):
            a, b, x = _instance(seed, n=int(rng.integers(2, 7)))
            depth = int(rng.integers(1, 7))
            for kind in ALL_KINDS:
                c1 = norm_reverse_chain(a, b, x, float(rng.uniform(0, 6)), depth, kind)
                assert _ascending(c1.values)
                c2 = norm_reverse_chain(a, b, x, -1 - float(rng.uniform(0, 5)), depth, kind)
                assert _ascending(c2.values)
                c3 = norm_heinz_chain(a, b, x, float(rng.uniform(0, 6)), depth, kind)
                assert _ascending(c3.values)

    def test_each_weight_evaluated_once(self, monkeypatch):
        # The refinement telescopes to four weights: 0, 1, the target weight
        # and 2^-depth (1 - 2^-depth on the nu <= -1 branch). Each chain hands
        # its kernel each of them once. The kernel stacks each distinct
        # weight once (the Heinz kernel's 0 and 1 are one canonical pair, so
        # 3 there), powers the spectra of A and B in one call each (the Heinz
        # kernel at the two exponents of each weight), and takes the norms of
        # that stack with one SVD. The chain's grid form over depths 1, 4 and
        # 16 makes one kernel call for the whole grid, where each repeat adds
        # only its new m_N. Every target equals the single-value function.
        a, b, x = _instance(15)
        kind = NormKind.schatten(3.0)
        nu = 0.7
        two_sided = norms._two_sided_values(a, b, x, [-nu], kind)[0]
        literal = ui_norm(eigh_power(a, 1.0 + nu) @ x @ eigh_power(b, 1.0 + nu), kind)
        assert two_sided == pytest.approx(literal, rel=1e-12)
        cases = (
            ("_functional_values", norm_reverse_chain, norms._norm_reverse_grid, nu,
             _functional(a, b, x, -nu, kind)),
            ("_functional_values", norm_reverse_chain, norms._norm_reverse_grid, -1.6,
             _functional(a, b, x, 1.6, kind)),
            ("_two_sided_values", norm_heinz_chain, norms._norm_heinz_grid, nu, two_sided),
            ("_heinz_values", heinz_reverse_chain, norms._heinz_reverse_grid, nu,
             heinz_norm(a, b, x, -nu, kind)),
        )
        stacks, powered = [], []
        svd, spectrum_powers = norms._singular_values, linalg._spectrum_powers
        monkeypatch.setattr(
            norms, "_singular_values", lambda s: stacks.append(s.shape[0]) or svd(s)
        )
        monkeypatch.setattr(
            linalg,
            "_spectrum_powers",
            lambda m, ts: powered.append(len(ts)) or spectrum_powers(m, ts),
        )
        depths = (1, 4, 16)
        for name, chain_fn, grid_form, weight, target in cases:
            weights = []
            fn = getattr(norms, name)

            @norms._batchable
            def recording(a, b, x, vs, k, fn=fn):
                weights.append(list(vs))
                return (yield from fn.steps(a, b, x, vs, k))

            monkeypatch.setattr(norms, name, recording)
            heinz = name == "_heinz_values"
            singles = []
            for depth in depths:
                weights.clear()
                stacks.clear()
                powered.clear()
                chain = chain_fn(a, b, x, weight, depth, kind)
                singles.append(chain.values)
                where = (chain_fn.__name__, weight, depth)
                assert len(weights) == 1, where
                assert len(set(weights[0])) == len(weights[0]) == 4, where
                assert stacks == [3 if heinz else 4], where
                rows = 2 * stacks[0] if heinz else stacks[0]
                assert powered == [2 * rows], where  # A's rows, then B's
                assert chain.value("target") == target, where
            weights.clear()
            stacks.clear()
            chains = grid_form(a, b, x, [(weight, depth) for depth in depths], kind)
            assert len(weights) == 1 and len(set(weights[0])) == len(weights[0]) == 6
            assert stacks == [5 if heinz else 6], (chain_fn.__name__, weight)
            assert [c.values for c in chains] == singles, (chain_fn.__name__, weight)
            monkeypatch.setattr(norms, name, fn)

    def test_chains_are_the_refinements_of_their_functionals(self):
        # Each chain equals the general refinement applied to the
        # single-weight value of its functional, bit for bit: the public
        # function, or the kernel on a stack of one. That value agrees with
        # the norm of the literal product.
        for seed in range(3):
            a, b, x = _instance(50 + seed, n=2 + seed)
            for kind in ALL_KINDS:
                f = lambda vs: [_functional(a, b, x, v, kind) for v in vs]
                g = lambda vs: [norms._two_sided_values(a, b, x, [v], kind)[0] for v in vs]
                h = lambda vs: [heinz_norm(a, b, x, v, kind) for v in vs]
                for v in (-2.1, 0.3, 1.0):
                    p, q = eigh_power(a, 1.0 - v), eigh_power(b, v)
                    literal = (
                        (f, ui_norm(p @ x @ q, kind)),
                        (g, ui_norm(p @ x @ eigh_power(b, 1.0 - v), kind)),
                        (h, ui_norm(eigh_power(a, v) @ x @ eigh_power(b, 1.0 - v) + p @ x @ q, kind)),
                    )
                    for values, want in literal:
                        assert values([v])[0] == pytest.approx(want, rel=1e-12), (str(kind), v)
                cases = (
                    (norm_reverse_chain, _logconvex_refinement, f, 1.2, "a"),
                    (norm_reverse_chain, _logconvex_refinement, f, -2.1, "b"),
                    (norm_heinz_chain, _logconvex_refinement, g, 1.2, "a"),
                    (heinz_reverse_chain, _convex_refinement, h, 1.2, "a"),
                )
                for chain_fn, kernel, values, nu, anchor in cases:
                    for depth in (1, 4, 16):
                        chain = chain_fn(a, b, x, nu, depth, kind)
                        points = _ladder(0.0, 1.0, nu, depth, anchor)
                        expected = kernel(values(points), 0.0, 1.0, nu, depth, anchor)
                        assert [v.hex() for v in chain.values] == [
                            v.hex() for v in expected
                        ], (chain_fn.__name__, str(kind), nu, depth)

    def test_combined_chain_structure(self):
        a, b, x = _instance(14)
        kind = NormKind.trace_norm()
        nu, depth = 1.3, 3
        chain = combined_norm_chain(a, b, x, nu, depth, kind)
        assert len(chain.values) == 5
        young = young_reverse_chain(
            ui_norm(a.a @ x, kind), ui_norm(x @ b.a, kind), nu, depth
        )
        np.testing.assert_allclose(chain.values[:3], young.values, rtol=1e-12)
        norm_part = norm_reverse_chain(a, b, x, nu, depth, kind)
        np.testing.assert_allclose(chain.values[2:], norm_part.values, rtol=1e-12)
        assert _ascending(chain.values)


class TestHeinzFamily:
    def test_half_weight_value(self):
        a, b, x = _instance(15)
        k = NormKind.trace_norm()
        two_cross = 2 * ui_norm(eigh_power(a, 0.5) @ x @ eigh_power(b, 0.5), k)
        assert heinz_norm(a, b, x, 0.5, k) == pytest.approx(two_cross, rel=1e-12)

    def test_identity_matrices_constant(self):
        i3 = SpdMatrix(np.eye(3))
        x = np.random.default_rng(16).standard_normal((3, 3))
        k = NormKind.frobenius()
        for nu in (-3.0, 0.0, 0.25, 1.0, 4.0):
            assert heinz_norm(i3, i3, x, nu, k) == pytest.approx(
                2 * ui_norm(x, k), rel=1e-12
            )

    def test_symmetry_within_guarantee(self):
        rng = np.random.default_rng(17)
        for seed in range(40):
            a, b, x = _instance(seed, n=int(rng.integers(2, 6)))
            nu = float(rng.uniform(-3, 4))
            for kind in ALL_KINDS:
                d = abs(heinz_norm(a, b, x, nu, kind) - heinz_norm(a, b, x, 1 - nu, kind))
                assert d <= 1e-10

    def test_endpoints_agree(self):
        a, b, x = _instance(18)
        k = NormKind.spectral()
        assert heinz_norm(a, b, x, 0.0, k) == heinz_norm(a, b, x, 1.0, k)
        assert heinz_norm(a, b, x, 0.0, k) == pytest.approx(
            ui_norm(a.a @ x + x @ b.a, k), rel=1e-12
        )

    def test_reverse_chain_zero_weight(self):
        a, b, x = _instance(19)
        chain = heinz_reverse_chain(a, b, x, 0.0, 2, NormKind.trace_norm())
        np.testing.assert_allclose(chain.values, chain.values[0], rtol=1e-12)

    def test_reverse_chain_identity_matrices(self):
        i2 = SpdMatrix(np.eye(2))
        x = np.random.default_rng(20).standard_normal((2, 2))
        chain = heinz_reverse_chain(i2, i2, x, 3.0, 2, NormKind.frobenius())
        np.testing.assert_allclose(chain.values, 2 * ui_norm(x, NormKind.frobenius()), rtol=1e-12)

    def test_reverse_chain_ascending_random(self):
        rng = np.random.default_rng(21)
        for seed in range(40):
            a, b, x = _instance(seed, n=int(rng.integers(2, 6)))
            chain = heinz_reverse_chain(
                a, b, x, float(rng.uniform(0, 4)), int(rng.integers(1, 7)),
                ALL_KINDS[seed % 5],
            )
            assert _ascending(chain.values)

    def test_reversed_regime_outside_unit_interval(self):
        rng = np.random.default_rng(22)
        for seed in range(40):
            a, b, x = _instance(seed, n=int(rng.integers(2, 6)))
            kind = ALL_KINDS[seed % 5]
            nu = -rng.uniform(0.01, 3) if seed % 2 else 1 + rng.uniform(0.01, 3)
            f0 = heinz_norm(a, b, x, 0.0, kind)
            fv = heinz_norm(a, b, x, float(nu), kind)
            assert fv >= f0 * (1 - 1e-8)

    def test_pq_chain(self):
        a, b, x = _instance(23, n=2)
        chain = heinz_pq_chain(a, b, x, 2.0, 1.0, NormKind.trace_norm())
        assert _ascending(chain.values)
        with pytest.raises(DomainError):
            heinz_pq_chain(a, b, x, 1.0, 2.0, NormKind.trace_norm())

    def test_pq_identity_matrices_equal_ends(self):
        i2 = SpdMatrix(np.eye(2))
        x = np.random.default_rng(24).standard_normal((2, 2))
        chain = heinz_pq_chain(i2, i2, x, 2.0, 1.0, NormKind.frobenius())
        assert chain.values[0] == pytest.approx(chain.values[1], rel=1e-12)

    def test_interpolated_chain_and_grid(self):
        a, b, x = _instance(25, n=2)
        kind = NormKind.trace_norm()
        chain = heinz_interpolated_chain(a, b, x, 3.0, 2.0, 1.0, kind)
        assert _ascending(chain.values)
        # r = 0 recovers the full expression
        vals = heinz_interpolation_values(a, b, x, 3.0, 2.0, [0.0], kind)
        assert vals[0] == pytest.approx(chain.values[1], rel=1e-12)
        # decreasing along the grid
        rs = np.linspace(0.0, 2.0, 9)
        grid_vals = heinz_interpolation_values(a, b, x, 3.0, 2.0, rs, kind)
        scale = max(1.0, grid_vals.max())
        assert np.all(np.diff(grid_vals) <= 1e-8 * scale)

    def test_interpolated_identity_matrices_flat(self):
        i2 = SpdMatrix(np.eye(2))
        x = np.random.default_rng(26).standard_normal((2, 2))
        kind = NormKind.spectral()
        vals = heinz_interpolation_values(i2, i2, x, 2.0, 1.0, np.linspace(0, 1, 5), kind)
        np.testing.assert_allclose(vals, 2 * ui_norm(x, kind), rtol=1e-12)

    def test_value_independent_of_its_stack(self):
        # The grid's 81 weights share one stack; each value is the one
        # heinz_norm computes on a stack of one, bit for bit.
        rng = np.random.default_rng(31)
        kinds = (*ALL_KINDS, NormKind.schatten(1.5), NormKind.ky_fan(4))
        for i, kind in enumerate(kinds):
            a, b, x = _instance(100 + i, n=1 + i % 6, cond=float(rng.choice([10.0, 1e4])))
            _, vals = norms.heinz_grid_margins(a, b, x, kind)
            grid = np.linspace(-3.0, 4.0, 81)
            for v, val in zip(grid, vals):
                assert val == heinz_norm(a, b, x, float(v), kind), (str(kind), v)

    def test_stacked_kernel_matches_each_request_alone(self):
        # Shuffled stacks that mix n = 1..6, the five default kinds, paired
        # and unpaired requests, and exponents at numpy's scalar-power fast
        # paths (-1, 0, 0.5, 1, 2) and at random, at cond 1e2 and 1e12: each
        # request's values from one kernel call equal the values it gets
        # alone, and those of its graded matrices taken one at a time, bit
        # for bit.
        rng = np.random.default_rng(35)
        special = [-1.0, 0.0, 0.5, 1.0, 2.0]
        for cond in (1e2, 1e12):
            requests = []
            for i in range(120):
                n = 1 + i % 6
                a, b = random_spd(n, cond, rng), random_spd(n, cond, rng)
                x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                k = int(rng.integers(1, 6))
                paired = bool(rng.integers(2))
                exponents = [
                    float(rng.choice(special)) if rng.random() < 0.5 else float(rng.uniform(-2.0, 3.0))
                    for _ in range(4 * k if paired else 2 * k)
                ]
                half = len(exponents) // 2
                kind = ALL_KINDS[int(rng.integers(len(ALL_KINDS)))]
                requests.append((a, b, x, exponents[:half], exponents[half:], kind, paired))
            order = rng.permutation(len(requests))
            stacked = norms._stacked_norms([requests[i] for i in order])
            assert len({len(r[2]) for r in requests}) == 6
            assert {r[6] for r in requests} == {False, True}
            for values, i in zip(stacked, order):
                alone = norms._product_norms(*requests[i])
                assert values.tobytes() == alone.tobytes(), (cond, i)
                assert alone.tobytes() == _per_row_norms(*requests[i]).tobytes(), (cond, i)
                assert len(values) == len(requests[i][3]) // (2 if requests[i][6] else 1)

    def test_kernel_request_order_keeps_each_error(self):
        # A stack whose request powers past the float range raises the
        # error that request raises alone.
        a, b, x = _instance(36)
        kind = NormKind.frobenius()
        good = (a, b, x, [0.5, 1.0], [0.5, 0.0], kind, False)
        bad = (a, b, x, [1.0, 1000.0], [0.0, 0.0], kind, False)
        with pytest.raises(DomainError, match="overflows at t = 1000") as alone:
            norms._product_norms(*bad)
        with pytest.raises(DomainError) as stacked:
            norms._stacked_norms([good, bad])
        assert str(stacked.value) == str(alone.value)

    def test_request_with_no_exponents_is_empty_in_any_stack(self):
        # A request with no exponent pairs gives no values: alone, beside
        # another request in one kernel call, and in a call of only such
        # requests.
        a, b, x = _instance(37)
        kind = NormKind.frobenius()
        steps = heinz_interpolation_values.steps
        alone = heinz_interpolation_values(a, b, x, 2.0, 1.0, [], kind)
        assert alone.shape == (0,) and alone.dtype == np.float64
        empty, full = norms._run_all(
            [steps(a, b, x, 2.0, 1.0, [], kind), steps(a, b, x, 2.0, 1.0, [0.1, 0.5], kind)]
        )
        assert empty.shape == (0,)
        assert full.tobytes() == heinz_interpolation_values(a, b, x, 2.0, 1.0, [0.1, 0.5], kind).tobytes()
        both = norms._run_all([steps(a, b, x, 2.0, 1.0, [], kind) for _ in range(2)])
        assert [v.shape for v in both] == [(0,), (0,)]

    def test_row_cap_splits_a_run(self, monkeypatch):
        # The requests of one n go in runs of at most _MAX_ROWS graded
        # matrices, a longer request alone; the values stay those of each
        # request alone.
        rng = np.random.default_rng(38)
        requests = []
        for i in range(12):
            a, b, x = _instance(200 + i, n=2 + i % 2)
            k = int(rng.integers(1, 5))
            ts = rng.uniform(-1.0, 2.0, 2 * k).tolist()
            requests.append((a, b, x, ts[:k], ts[k:], ALL_KINDS[i % 5], False))
        alone = [norms._product_norms(*r) for r in requests]
        stacks = []
        svd = norms._singular_values
        monkeypatch.setattr(norms, "_singular_values", lambda s: stacks.append(len(s)) or svd(s))
        monkeypatch.setattr(norms, "_MAX_ROWS", 5)
        stacked = norms._stacked_norms(requests)
        assert max(stacks) <= 5 and len(stacks) > 2
        assert sum(stacks) == sum(len(r[3]) for r in requests)
        for values, want in zip(stacked, alone):
            assert values.tobytes() == want.tobytes()
        stacks.clear()
        long = (*requests[0][:3], [0.5] * 7, [0.25] * 7, requests[0][5], False)
        norms._stacked_norms([requests[1], long, requests[2]])
        assert 7 in stacks

    @staticmethod
    def _shape_margins(a, b, x, kind, pairs, seed):
        """Midpoint margins on seeded weight pairs in [-3, 4], then the grid's."""
        v = np.random.default_rng(seed).uniform(-3.0, 4.0, size=(pairs, 2)).tolist()
        mids = [norms.heinz_midpoint_margin(a, b, x, v1, v2, kind) for v1, v2 in v]
        grid, _ = norms.heinz_grid_margins(a, b, x, kind)
        return mids, grid

    def test_shape_margins_identity_trivial(self):
        i3 = SpdMatrix(np.eye(3))
        x = np.random.default_rng(27).standard_normal((3, 3))
        mids, grid = self._shape_margins(i3, i3, x, NormKind.trace_norm(), 25, seed=1)
        assert len(mids) == 25 and len(grid) == 80
        assert min(mids) >= -1e-8 and grid.min() >= -1e-8

    def test_shape_margins_random(self):
        a, b, x = _instance(28, n=3)
        mids, grid = self._shape_margins(a, b, x, NormKind.ky_fan(2), 50, seed=2)
        assert len(mids) == 50 and len(grid) == 80
        assert min(mids) >= -1e-8 and grid.min() >= -1e-8

    def test_commuting_diagonal_matches_scalar_heinz(self):
        # For diagonal A, B and X = I the trace-norm Heinz functional is the
        # sum of the scalar combinations a_i^v b_i^{1-v} + a_i^{1-v} b_i^v.
        a = SpdMatrix(np.diag([1.0, 2.0, 5.0]))
        b = SpdMatrix(np.diag([3.0, 0.5, 4.0]))
        x = np.eye(3)
        for nu in (-1.5, 0.3, 2.0):
            expected = sum(
                ai ** nu * bi ** (1 - nu) + ai ** (1 - nu) * bi ** nu
                for ai, bi in zip([1, 2, 5], [3, 0.5, 4])
            )
            got = heinz_norm(a, b, x, nu, NormKind.trace_norm())
            assert got == pytest.approx(expected, rel=1e-10)


class TestEvaluationContext:
    """Each call evaluates (A, B, X, kind) afresh and keeps nothing on the
    matrices: a value never depends on an earlier call or another thread."""

    CHAINS = (norm_reverse_chain, norm_heinz_chain, heinz_reverse_chain, combined_norm_chain)

    @staticmethod
    def _frozen(x):
        x = np.array(x)
        x.setflags(write=False)
        return x

    def _values(self, a, b, x, kind):
        # Every public chain at two depths, then the two single values.
        out = []
        for chain_fn in self.CHAINS:
            for depth in (2, 5):
                out.extend(chain_fn(a, b, x, 0.8, depth, kind).values)
        out.append(_functional(a, b, x, 0.3, kind))
        out.append(heinz_norm(a, b, x, -0.4, kind))
        return [v.hex() for v in out]

    def test_writable_x_changed_in_place_gives_the_fresh_value(self):
        a, b, x = _instance(40)
        kind = NormKind.frobenius()
        base = x.copy()
        view = base[:]  # read-only, but it does not own its data
        view.setflags(write=False)
        for arg, source in ((x, x), (view, base)):
            before = self._values(a, b, arg, kind)
            source[0, 1] += 0.5
            after = self._values(a, b, arg, kind)
            # A fresh copy of the changed X: nothing kept.
            fresh = self._values(a, b, np.array(arg), kind)
            assert after == fresh
            assert after != before

    def test_context_dies_with_its_matrix(self):
        # No reference cycle through the contexts of norms and means: A and
        # B are freed by their reference counts alone, also where X is A or
        # the pair is used both ways round.
        gc.disable()
        try:
            a, b, x = _instance(46)
            x = self._frozen(x)
            norm_reverse_chain(a, b, x, 1.0, 3, NormKind.spectral())
            heinz_reverse_chain(b, a, x, 1.0, 3, NormKind.spectral())
            heinz_norm(a, b, a, 0.3, NormKind.spectral())
            operator_reverse_chain(b, a, 1.0, 4)
            norm_heinz_chain(a, b, x, 1.0, 3, NormKind.spectral())
            refs = weakref.ref(a), weakref.ref(b)
            del a
            assert refs[0]() is None
            del b
            assert refs[1]() is None
        finally:
            gc.enable()

    def test_threads_sharing_contexts_get_the_fresh_values(self):
        # Threads that share matrices (and race on their cached ``eig``),
        # through chains at different depths, weights and kinds, each get
        # exactly the values of an evaluation on a copy of X.
        a, b, x = _instance(47, n=4)
        x = self._frozen(x)
        jobs = [
            (chain_fn, kind, nu, depth)
            for chain_fn in (norm_reverse_chain, norm_heinz_chain, heinz_reverse_chain)
            for kind in (NormKind.spectral(), NormKind.frobenius())
            for nu in (0.4, 2.5)
            for depth in (1, 3, 9)
        ]
        want = {job: job[0](a, b, np.array(x), job[2], job[3], job[1]).values for job in jobs}
        errors = []

        def work(seed):
            order = np.random.default_rng(seed).permutation(len(jobs))
            try:
                for _ in range(3):
                    for i in order:
                        chain_fn, kind, nu, depth = job = jobs[i]
                        got = chain_fn(a, b, x, nu, depth, kind).values
                        if [v.hex() for v in got] != [v.hex() for v in want[job]]:
                            errors.append(job)
                            return
                        operator_reverse_chain(a, b, nu, depth)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
