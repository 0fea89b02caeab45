"""Tests for the matrix types, eigensolver, spectral calculus, and generators."""

import inspect
import json
import math
import warnings

import numpy as np
import pytest

from matmeans import (
    ComplexMatrix,
    ConvergenceError,
    DomainError,
    HermitianMatrix,
    SpdMatrix,
    geometric_mean,
    harmonic_mean,
    loewner_leq,
    matrix_from_json,
    matrix_to_json,
    random_spd,
)

from matmeans import cli, harness, linalg, means, norms
from matmeans.linalg import (
    EigenDecomposition,
    _assemble_spds,
    _draw_spds,
    _haar,
    _random_spds,
    _spectrum_powers,
)

from jacobi_oracle import jacobi_eigenvalues


def _rand_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMatrix((g + g.conj().T) / 2)


class TestConstruction:
    def test_rejects_non_square(self):
        # Non-square, empty, ragged or non-numeric input is a DomainError
        # from every constructor, never numpy's bare ValueError.
        for bad in (np.zeros((2, 3)), np.zeros((0, 0)), [[1.0, 2.0], [3.0]], "ab"):
            for cls in (ComplexMatrix, HermitianMatrix, SpdMatrix):
                with pytest.raises(DomainError, match="expected a square matrix"):
                    cls(bad)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            ComplexMatrix([[np.inf, 0], [0, 1]])

    def test_hermitian_symmetrizes_small_defect(self):
        a = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]])
        h = HermitianMatrix(a)
        np.testing.assert_array_equal(h.a, h.a.conj().T)

    def test_hermitian_rejects_large_defect(self):
        with pytest.raises(DomainError):
            HermitianMatrix([[1.0, 0.5], [0.7, 2.0]])

    def test_hermitian_rejects_non_finite(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(DomainError, match="finite"):
                HermitianMatrix([[bad, 0], [0, 1]])

    def test_hermitian_entry_modulus_above_the_largest_double(self):
        # |1.5e308 (1 + i)| overflows; the check reads the scale and the defect
        # off H/2, so an exactly Hermitian matrix passes and keeps its bits.
        c = 1.5e308 + 1.5e308j
        a = np.array([[1, c], [np.conj(c), 1]])
        np.testing.assert_array_equal(HermitianMatrix(a).a, a)

    def test_hermitian_rejects_anti_hermitian_at_the_largest_doubles(self):
        c = 1.5e308 + 1.5e308j
        with pytest.raises(DomainError, match="not Hermitian"):
            HermitianMatrix([[0, c], [-c, 0]])

    def test_entries_above_half_the_largest_double(self):
        # (H + H*)/2 would overflow here; H/2 + H*/2 does not.
        big = 1e308 * np.eye(2)
        np.testing.assert_array_equal(HermitianMatrix(big).a, big)
        s = SpdMatrix(big)
        np.testing.assert_array_equal(s.eig.eigenvalues, [1e308, 1e308])
        stack = SpdMatrix._assemble_stack(np.array([[1e308, 1e308]]), np.eye(2)[None])
        np.testing.assert_array_equal(stack[0].a, big)

    def test_symmetrization_bits_unchanged_for_normal_numbers(self):
        rng = np.random.default_rng(11)
        for scale in 10.0 ** np.arange(-300, 301, 25):
            h = _rand_hermitian(rng, 4).a
            noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = scale * (h + 1e-14 * noise)
            expected = (a + a.conj().T) / 2.0
            got = HermitianMatrix(a).a
            assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_spd_rejects_indefinite(self):
        with pytest.raises(DomainError):
            SpdMatrix(np.diag([1.0, -1.0]))

    def test_entries_are_read_only(self):
        h = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            h.a[0, 0] = 5.0


class TestEigh:
    def test_identity(self):
        dec = HermitianMatrix(np.eye(2)).eig
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0])
        np.testing.assert_allclose(
            dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(2), atol=1e-12
        )
        np.testing.assert_allclose(dec.reconstruct(), np.eye(2), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        dec = HermitianMatrix(np.diag([3.0, 1.0])).eig
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0])

    def test_two_by_two_hand_solved(self):
        # [[2,1],[1,2]] has eigenpairs (1, (1,-1)/sqrt(2)) and (3, (1,1)/sqrt(2)),
        # from the characteristic polynomial (2-t)^2 - 1.
        dec = HermitianMatrix([[2.0, 1.0], [1.0, 2.0]]).eig
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], rtol=1e-14)
        v_low = dec.eigenvectors[:, 0]
        v_high = dec.eigenvectors[:, 1]
        assert abs(abs(v_low @ np.array([1, -1]) / np.sqrt(2)) - 1) < 1e-12
        assert abs(abs(v_high @ np.array([1, 1]) / np.sqrt(2)) - 1) < 1e-12

    def test_reconstruction_500_random(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            h = _rand_hermitian(rng, n)
            dec = h.eig
            assert np.all(np.diff(dec.eigenvalues) >= 0)
            scale = max(1.0, np.linalg.norm(h.a))
            assert np.linalg.norm(dec.reconstruct() - h.a) <= 1e-10 * scale
            q = dec.eigenvectors
            assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 1e-10 * np.sqrt(n)

    def test_matches_lapack_eigenvalues(self):
        # The package's eigensolver is LAPACK via numpy; the independent
        # oracle is a pure-Python cyclic Jacobi kept under tests/.
        rng = np.random.default_rng(55)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            h = _rand_hermitian(rng, n)
            w_ref = jacobi_eigenvalues(h.a)
            np.testing.assert_allclose(
                h.eig.eigenvalues,
                w_ref,
                rtol=0,
                atol=1e-11 * max(1.0, np.abs(w_ref).max()),
            )

    def test_deterministic(self):
        h = _rand_hermitian(np.random.default_rng(7), 5)
        d1 = HermitianMatrix(h.a).eig
        d2 = HermitianMatrix(h.a).eig
        np.testing.assert_array_equal(d1.eigenvalues, d2.eigenvalues)
        np.testing.assert_array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_lapack_failure_raises_convergence_error(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(ConvergenceError):
            HermitianMatrix(np.diag([1.0, 2.0])).eig


def _spectral(h, phi):
    """phi(H) = Q diag(phi(w)) Q* from H's recorded factorization."""
    dec = HermitianMatrix(h).eig
    return EigenDecomposition(phi(dec.eigenvalues), dec.eigenvectors).reconstruct()


class TestApplySpectral:
    """A spectral function is assembled as every chain matrix is: one
    ``_congruence`` of the eigenvectors with the function's values."""

    def test_identity_square(self):
        np.testing.assert_allclose(_spectral(np.eye(2), np.square), np.eye(2), atol=1e-14)

    def test_diagonal_sqrt(self):
        out = _spectral(np.diag([1.0, 4.0]), np.sqrt)
        np.testing.assert_allclose(out, np.diag([1.0, 2.0]), atol=1e-14)

    def test_square_matches_matrix_product(self):
        h = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(_spectral(h, np.square), h @ h, atol=1e-12)

    def test_rejects_non_finite_values(self):
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="finite"):
            _spectral(np.diag([1.0, -1.0]), np.sqrt)  # sqrt(-1) -> nan

    def test_pointwise_dominance_transfers_to_loewner_order(self):
        # If f >= g on the spectrum then f(H) >= g(H) in the semidefinite
        # order; this is the bridge every operator chain is built on.
        rng = np.random.default_rng(61)
        for _ in range(50):
            h = _rand_hermitian(rng, int(rng.integers(2, 7))).a
            f = _spectral(h, lambda t: t * t + 1.0)
            g = _spectral(h, lambda t: 2.0 * np.abs(t))  # t^2 + 1 >= 2|t| everywhere
            assert loewner_leq(g, f).holds


class TestSpectrumPowers:
    def test_rows_are_each_power_alone(self):
        # Each row has the bits of w ** t, on ascending and descending
        # spectra; numpy takes its fast paths (t = 0, 0.5, 2, ...) as a
        # plain power of the array does.
        rng = np.random.default_rng(5)
        ts = [0.0, 0.5, 1.0, 2.0, -1.0, -0.5, 3.7, -8.25]
        for _ in range(50):
            w = np.sort(np.exp(rng.uniform(-14.0, 14.0, int(rng.integers(1, 9)))))
            for spectrum in (w, w[::-1]):
                rows = _spectrum_powers(spectrum, ts)
                assert rows.shape == (len(ts), len(w))
                for row, t in zip(rows, ts):
                    assert row.tobytes() == (spectrum ** t).tobytes(), t
        assert _spectrum_powers(w, [0.0]).tolist() == [[1.0] * len(w)]

    def test_stacked_rows_are_each_power_alone(self):
        # A (k, n) stack of ascending or descending spectra, row i powered
        # by ts[i], has in each row the bits of that spectrum's own w ** t,
        # at numpy's fast-path exponents and at random ones; each row of a
        # stack of reversed views is that view's own power, as a 1-D
        # view's rows are.
        rng = np.random.default_rng(6)
        for _ in range(40):
            n, k = int(rng.integers(1, 9)), int(rng.integers(1, 40))
            w = np.sort(np.exp(rng.uniform(-14.0, 14.0, (k, n))), axis=1)
            fast = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], k)
            ts = np.where(rng.random(k) < 0.5, fast, rng.uniform(-9.0, 9.0, k)).tolist()
            for stack in (w, w[:, ::-1], w[:, ::-1].copy()):
                rows = _spectrum_powers(stack, ts)
                for row, spectrum, t in zip(rows, stack, ts):
                    assert row.tobytes() == (spectrum ** t).tobytes(), t

    def test_range_is_decided_on_the_computed_rows(self):
        # Python's pow and numpy's array power can differ in the last bit,
        # so near the float range's edges they could disagree on whether
        # x ** t overflows or underflows to 0. The error follows the row
        # numpy computes: an overflow exactly when the row holds inf, an
        # underflow exactly when it holds 0, else the row comes back. The
        # search runs seeded pairs at and around both edges (x a few ulps,
        # or up to 1.5 in log(x ** t), away from the edge), at generic t and
        # at numpy's fast-path exponents 2 and -1. A pair where Python's pow
        # and numpy's row disagree would be among them; on numpy 2.4.6
        # (x86-64) the search meets none, so no test can pin that case.
        rng = np.random.default_rng(64)
        edges = (np.log(np.finfo(float).max), np.log(5e-324), np.log(2.5e-324))
        seen = {"inf": 0, "zero": 0, "finite": 0}
        for _ in range(300):
            t = float(rng.choice([2.0, -1.0, float(rng.uniform(1.5, 30.0))]))
            t *= 1.0 if rng.random() < 0.5 else -1.0
            log_x = float(rng.choice(edges)) / t
            if not -700.0 < log_x < 700.0:
                continue
            ulps = math.exp(log_x) * (1.0 + np.arange(-6, 7) * 2.0**-52)
            steps = np.exp(log_x + np.linspace(-1.5, 1.5, 7) / abs(t))
            for x in [*ulps.tolist(), *steps.tolist()]:
                with np.errstate(all="ignore"):
                    row = np.array([x]) ** t
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    if row[0] == math.inf:
                        seen["inf"] += 1
                        with pytest.raises(DomainError, match=f"overflows at t = {t:g}:"):
                            _spectrum_powers(np.array([x]), [t])
                    elif row[0] == 0.0:
                        seen["zero"] += 1
                        with pytest.raises(DomainError, match=f"underflows at t = {t:g}$"):
                            _spectrum_powers(np.array([x]), [t])
                    else:
                        seen["finite"] += 1
                        assert _spectrum_powers(np.array([x]), [t])[0, 0] == row[0]
        assert min(seen.values()) > 200, seen

    def test_every_entry_of_a_row_decides(self):
        # Not only the ends: an unsorted spectrum whose middle entry leaves
        # the float range raises, where its ends stay in range.
        w = np.array([1.0, 1e200, 2.0])
        with pytest.raises(DomainError, match="overflows at t = 2"):
            _spectrum_powers(w, [1.0, 2.0])
        with pytest.raises(DomainError, match="underflows at t = -2"):
            _spectrum_powers(w, [-2.0])

    def test_first_weight_out_of_range_is_named(self):
        # The first weight whose row leaves the float range raises, at either
        # end of an ascending or a descending spectrum; an overflow is named
        # before an underflow; numpy raises no floating-point error (so it
        # would not warn).
        big, small = np.array([0.5, 1.0, 1e2]), np.array([1e-2, 1.0, 2.0])
        cases = [
            (big, [1.0, 400.0, -200.0], r"overflows at t = 400: matrix entries must be finite"),
            (small, [1.0, -400.0, 200.0], r"overflows at t = -400"),
            (small, [2.0, 200.0], r"strictly positive: w \*\* t underflows at t = 200"),
            (big, [-200.0, 400.0], r"strictly positive: w \*\* t underflows at t = -200"),
            (np.array([1e-2, 1e2]), [200.0], r"overflows at t = 200"),
        ]
        with np.errstate(all="raise"):
            for w, ts, message in cases:
                for spectrum in (w, w[::-1]):
                    with pytest.raises(DomainError, match=message):
                        _spectrum_powers(spectrum, ts)
        # A subnormal end is positive, so it passes; numpy ignores the
        # underflow of a subnormal result by default, so nothing warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _spectrum_powers(np.array([1e-160, 1.0]), [2.0])[0, 0] > 0.0

    def test_every_caller_passes_a_monotone_spectrum(self, monkeypatch):
        # Every spectrum the package powers, in every registered case and in
        # the means, is sorted one way or the other, row by row for a
        # stack. The range check no longer rests on it (every entry of a
        # row decides). The norms power theirs through ``linalg._graded``.
        seen = []

        def checked(w, ts):
            d = np.diff(w)
            assert (d >= 0.0).all() or (d <= 0.0).all(), w
            seen.extend([w.shape[-1]] * (len(w) if w.ndim > 1 else 1))  # one per spectrum
            return _spectrum_powers(w, ts)

        for module in (linalg, means):
            monkeypatch.setattr(module, "_spectrum_powers", checked)
        for name in harness.case_names():
            harness.run_case(name, instances=3, cond_max=1e8)
        a, b = random_spd(4, 100.0, 1), random_spd(4, 100.0, 2)
        geometric_mean(a, b, 0.3)
        harmonic_mean(a, b, 0.3)
        assert len(seen) > 100 and max(seen) > 1


class TestLoewner:
    def test_reflexive(self):
        a = random_spd(3, 10, 1)
        v = loewner_leq(a, a)
        assert v.holds and abs(v.witness_eigenvalue) <= v.tolerance_used

    def test_zero_below_positive_diagonal(self):
        v = loewner_leq(np.zeros((2, 2)), np.diag([1.0, 2.0]))
        assert v.holds

    def test_detects_violation_with_witness(self):
        v = loewner_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))
        assert not v.holds
        np.testing.assert_allclose(v.witness_eigenvalue, -1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            loewner_leq(np.eye(2), np.eye(3))

    def test_witness_is_the_least_eigenvalue_of_the_difference(self):
        # The bits of HermitianMatrix(Y - X).eig; a difference that
        # overflows is rejected as that constructor rejects it.
        rng = np.random.default_rng(8)
        for n in range(1, 7):
            x, y = _rand_hermitian(rng, n), _rand_hermitian(rng, n)
            expected = HermitianMatrix(y.a - x.a).eig.eigenvalues[0]
            assert loewner_leq(x, y).witness_eigenvalue == expected
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="finite"):
            loewner_leq(np.diag([1e308, 1.0]), np.diag([-1e308, 1.0]))

    def test_congruence_preserves_order(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            x = _rand_hermitian(rng, n)
            y = HermitianMatrix(x.a + random_spd(n, 50, rng).a)
            assert loewner_leq(x, y).holds
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            xt = HermitianMatrix(m.conj().T @ x.a @ m)
            yt = HermitianMatrix(m.conj().T @ y.a @ m)
            assert loewner_leq(xt, yt).holds


class TestRandomGeneration:
    def test_dimension_one_cond_one(self):
        m = random_spd(1, 1.0, 123)
        np.testing.assert_allclose(m.a, [[1.0]], atol=1e-15)

    def test_deterministic_per_seed(self):
        m1 = random_spd(3, 100, 42)
        m2 = random_spd(3, 100, 42)
        np.testing.assert_array_equal(m1.a, m2.a)

    def test_condition_number_bound(self):
        for seed in range(25):
            m = random_spd(4, 100, seed)
            w = m.eig.eigenvalues
            assert w[-1] / w[0] <= 100.0 * (1 + 1e-12)

    def test_validates_arguments(self):
        with pytest.raises(DomainError):
            random_spd(0, 10, 1)
        with pytest.raises(DomainError):
            random_spd(3, 0.5, 1)
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match="finite"):
                random_spd(3, bad, 1)

    def test_stacked_draw_equals_sequential_draws(self):
        # Each slice of a stacked draw has the bits of one random_spd call,
        # and of the sequential construction (Haar Q, then its spectrum),
        # and the stream ends where sequential calls leave it.
        def sequential(n, cond, rng):
            q = _haar(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            half = 0.5 * np.log(cond)
            lam = np.exp(rng.uniform(-half, half, size=n))
            return SpdMatrix._assemble_stack(lam[None], q[None])[0]

        for n in range(1, 9):
            for cond in (1.0, 1e3, 1e8, 1e12):
                for seed in range(3):
                    rngs = [np.random.default_rng(seed) for _ in range(3)]
                    stacked = _random_spds(n, cond, rngs[0], 2)
                    for draw, rng in ((random_spd, rngs[1]), (sequential, rngs[2])):
                        for m, ref in zip(stacked, [draw(n, cond, rng) for _ in range(2)]):
                            np.testing.assert_array_equal(m.a, ref.a)
                            np.testing.assert_array_equal(m.eig.eigenvalues, ref.eig.eigenvalues)
                            np.testing.assert_array_equal(
                                m.eig.eigenvectors, ref.eig.eigenvectors
                            )
                        assert rng.bit_generator.state == rngs[0].bit_generator.state

    def test_draw_matches_per_matrix_loop(self):
        # The stacked draw (one standard_normal and one random call per
        # matrix, then G and the spectra over the stack) against the loop
        # it replaced, bit for bit and to the same stream position.
        def per_matrix(n, cond_max, rng, count):
            half = 0.5 * np.log(cond_max)
            g = np.empty((count, n, n), dtype=np.complex128)
            lam = np.empty((count, n))
            for i in range(count):
                g[i] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                lam[i] = np.exp(rng.uniform(-half, half, size=n))
            return g, lam

        def bits(a):
            return np.ascontiguousarray(a).view(np.int64).tolist()

        for n in range(1, 9):
            for cond in (1.0, 100.0, 1e12):
                for count in range(1, 6):
                    seed = 100 * n + count
                    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    ref_rng.integers(2)  # a buffered 32-bit half must survive
                    rng.integers(2)
                    g, lam = _draw_spds(n, cond, rng, count)
                    want_g, want_lam = per_matrix(n, cond, ref_rng, count)
                    assert g.shape == want_g.shape and lam.shape == want_lam.shape
                    assert bits(g) == bits(want_g), (n, cond, count)
                    assert bits(lam) == bits(want_lam), (n, cond, count)
                    assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_stacks_of_several_draws_equal_random_spd(self):
        # Pairs drawn at mixed n, concatenated per n and assembled in one
        # stack each, give the bits of random_spd slice by slice; each
        # draw leaves its stream where two random_spd calls leave it.
        dims = [3, 1, 5, 3, 8, 1, 5, 5]
        for cond in (1.0, 1e3, 1e12):
            draws, refs = [], []
            for seed, n in enumerate(dims):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                draws.append(_draw_spds(n, cond, rng, 2))
                refs.append([random_spd(n, cond, ref_rng) for _ in range(2)])
                assert rng.bit_generator.state == ref_rng.bit_generator.state
            for n in dict.fromkeys(dims):
                group = [k for k, m in enumerate(dims) if m == n]
                stack = _assemble_spds(
                    np.concatenate([draws[k][0] for k in group]),
                    np.concatenate([draws[k][1] for k in group]),
                )
                want = [ref for k in group for ref in refs[k]]
                for m, ref in zip(stack, want, strict=True):
                    np.testing.assert_array_equal(m.a, ref.a)
                    np.testing.assert_array_equal(m.eig.eigenvalues, ref.eig.eigenvalues)
                    np.testing.assert_array_equal(m.eig.eigenvectors, ref.eig.eigenvectors)

    def test_random_unitary_is_unitary(self):
        # The Q of every random_spd draw, and a stack of _haar unitaries.
        q = random_spd(5, 100, 9).eig.eigenvectors
        np.testing.assert_allclose(q.conj().T @ q, np.eye(5), atol=1e-12)
        rng = np.random.default_rng(9)
        for q in _haar(rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))):
            np.testing.assert_allclose(q.conj().T @ q, np.eye(5), atol=1e-12)

    def test_random_unitary_is_the_qr_factor_with_positive_diagonal(self):
        # Q* G is the R of G = QR with a positive real diagonal: the one QR
        # factor that makes Q Haar-distributed (Mezzadri 2007).
        for n in range(1, 9):
            for seed in range(5):
                rng = np.random.default_rng(seed)
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                r = _haar(g).conj().T @ g
                tol = 1e-12 * np.linalg.norm(g)
                assert np.max(np.abs(np.tril(r, -1)), initial=0.0) <= tol, (n, seed)
                d = np.diagonal(r)
                assert np.all(d.real > 0) and np.max(np.abs(d.imag)) <= tol, (n, seed)


class TestJsonFormat:
    def test_round_trip_complex(self):
        m = random_spd(3, 100, 17)
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
        np.testing.assert_array_equal(back.a, m.a)

    def test_real_matrix_omits_imaginary_part(self):
        obj = matrix_to_json(np.eye(2))
        assert "im" not in obj
        back = matrix_from_json(obj)
        np.testing.assert_array_equal(back.a, np.eye(2))

    def test_rejects_malformed(self):
        with pytest.raises(DomainError):
            matrix_from_json({"n": 2})
        with pytest.raises(DomainError):
            matrix_from_json({"n": 2, "re": [[1.0]]})
        with pytest.raises(DomainError):
            matrix_from_json({"n": 1, "re": [[1.0]], "im": [[0.0], [0.0]]})


# ---------------------------------------------------------------------------
# One rule per input: the condition bound and the matrix pair.

#: Every entry point that takes a condition bound: the call, and the name
#: of the bound in its message.
COND_ENTRIES = {
    "CaseConfig": (lambda c: harness.CaseConfig(cond_max=c), "cond_max"),
    "sweep_values": (lambda c: harness.sweep_values("cond", [c]), "cond"),
    "random_spd": (lambda c: random_spd(2, c, 0), "cond_max"),
}


@pytest.mark.parametrize("value", [float("nan"), 0.5, float("inf")])
@pytest.mark.parametrize("entry", [*COND_ENTRIES, "matmeans gen --cond"])
def test_cond_rule_is_one_rule_at_every_entry(entry, value, capsys):
    # ``linalg._check_cond``: finite and >= 1, NaN failing; one message. The
    # CLI reports it as a usage error (exit 64).
    if entry == "matmeans gen --cond":
        assert cli.main(["gen", "--n", "2", "--seed", "1", "--cond", repr(value)]) == 64
        message = f"usage error: cond_max must be finite and >= 1, got {value}\n"
        assert capsys.readouterr() == ("", message)
        return
    call, name = COND_ENTRIES[entry]
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == f"{name} must be finite and >= 1, got {value}"


def _pair_functions() -> dict:
    """``loewner_leq`` and every public function of ``means`` and ``norms``
    whose first two parameters are a matrix pair (A, B), by name."""
    fns = {"loewner_leq": loewner_leq}
    for module in (means, norms):
        for name, fn in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and list(inspect.signature(fn).parameters)[:2] == ["a", "b"]):
                fns[name] = fn
    return fns


_PAIR_FUNCTIONS = _pair_functions()
#: Valid values of the parameters that follow (A, B) and X.
_PAIR_ARGS = {
    "nu": 0.5, "depth": 2, "kind": norms.NormKind.frobenius(), "p": 2.0, "q": 1.0,
    "r": 0.5, "rs": [0.0, 0.5], "v1": 0.2, "v2": 0.8,
}


@pytest.mark.parametrize("name", sorted(_PAIR_FUNCTIONS))
def test_pair_rule_at_every_public_function(name):
    # ``linalg._check_dims``: A and B of one n, and X, where a functional
    # takes one, an n x n matrix. A mismatch or a ragged X raises
    # DomainError, never numpy's bare ValueError, and never gives a value.
    fn = _PAIR_FUNCTIONS[name]
    params = list(inspect.signature(fn).parameters)[2:]
    kwargs = {p: _PAIR_ARGS[p] for p in params if p in _PAIR_ARGS}
    takes_x = params[:1] == ["x"]
    a = random_spd(3, 100.0, 1)
    ordered = SpdMatrix(a.a + random_spd(3, 100.0, 2).a)  # A <= B for every chain
    x = np.random.default_rng(3).standard_normal((3, 3))

    def call(b, x):
        return fn(a, b, x, **kwargs) if takes_x else fn(a, b, **kwargs)

    assert call(ordered, x) is not None
    bad = [(random_spd(4, 100.0, 4), x)]
    if takes_x:
        bad += [(ordered, x[0]), (ordered, np.eye(4)), (ordered, [[0.0] * 3, [0.0] * 2, [0.0] * 3])]
    for b, bad_x in bad:
        with pytest.raises(DomainError):
            call(b, bad_x)
