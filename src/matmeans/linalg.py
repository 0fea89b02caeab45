"""Complex Hermitian and positive definite matrix types with spectral calculus.

Everything downstream (operator means, unitarily invariant norms, the
verification harness) is built on the small toolkit in this module:

* value types ``ComplexMatrix`` -> ``HermitianMatrix`` -> ``SpdMatrix`` that
  validate their defining property when built from outside input, each
  first reading it as a square array of numbers (``_square``), and
  ``OperatorChain``, the Loewner-ordered chain that ``means`` builds and
  ``reporting`` checks: one congruence M and a row of values per matrix
  M diag(v) M*, so ``reporting`` decides each link by a per-eigenvalue
  slack on the rows, and the chain matrices are assembled on first read,
* one assembly, ``_congruence``, of every matrix built from a spectrum:
  Hermitian by construction, and the one place that checks such a matrix is
  finite; ``_exact`` then wraps it without the validating constructors,
* a Hermitian eigensolver (LAPACK through ``numpy.linalg.eigh``), kept on
  each matrix as ``HermitianMatrix.eig``,
* the spectral kernels that ``means`` and ``norms`` share: the powers
  w ** t of a positive spectrum or of a stack of them, ``_spectrum_powers``,
  which name an overflow or an underflow; the graded stack
  diag(wa^l) Y diag(wb^r), one per weight, of matrices Y in the
  eigenbases of their A and B, ``_graded``; and the one LAPACK SVD
  wrapper, ``_singular_values``. No power of a matrix is assembled,
* the semidefinite (Loewner) order check ``loewner_leq``,
* seeded random SPD generation on Haar unitaries (``_haar``); an SPD draw
  (``_draw_spds``) and its assembly (``_assemble_spds``) are separate
  steps, so the draws of many instances share one QR and one assembly,
* the one rule of a condition bound, ``_check_cond`` (finite and >= 1,
  which NaN fails), for ``random_spd``, a harness config's ``cond_max`` and
  a sweep's cond, and the one dimension rule, ``_check_dims`` (A and B of
  one n, and an X, where one is taken, an n x n matrix), for
  ``loewner_leq``, every function of ``means`` and every functional of
  ``norms`` on a pair. Each raises DomainError.

All value types are immutable after construction and the only randomness is
explicit (seed in, value out). What a matrix keeps besides its entries is
derived from its entries alone: its ``eig`` and its ``spectral_norm``. The
evaluation contexts of ``means`` and ``norms`` live only as long as the
call that builds them, so a matrix can be shared across threads, and a
value never depends on an earlier call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError
from .scalar import _check_int

# Construction tolerances.
HERMITIAN_DEFECT_TOL = 1e-12
# Default relative tolerance for the Loewner order check.
LOEWNER_REL_TOL = 1e-9


def _eigh_array(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and unitary eigenvector columns of Hermitian
    ``h``, or of every matrix of a stack of them."""
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"LAPACK Hermitian eigensolver did not converge (n={h.shape[-1]}): {exc}"
        ) from exc


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _hermitian_part(h: np.ndarray) -> np.ndarray:
    """H/2 + (H/2)* for a matrix or a stack: exactly Hermitian, and finite for
    every finite H. For normal numbers it has the bits of (H + H*)/2."""
    h = h / 2.0
    return h + h.conj().swapaxes(-1, -2)


def _finite(a: np.ndarray):
    """Whether every entry of ``a`` is finite: ``np.isfinite(a).all()``
    without the method's dispatch, which costs more than the test itself on
    the small arrays of this package."""
    return np.logical_and.reduce(np.isfinite(a), axis=None)


def _square(entries) -> np.ndarray:
    """``entries`` as a square complex128 array of size n >= 1. Input that
    is not one, a ragged list or a string too, raises DomainError."""
    try:
        a = np.asarray(entries, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"expected a square matrix: {exc}") from exc
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    return a


def _congruence(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M diag(v) M* for a matrix M and real vector v, or for a stack of each,
    made exactly Hermitian by ``_hermitian_part``. Every spectral matrix of
    the package is assembled here, and checked here, once, to be finite: a
    non-finite entry raises DomainError."""
    s = _hermitian_part((m * v[..., None, :]) @ m.conj().swapaxes(-1, -2))
    if not _finite(s):
        raise DomainError("matrix entries must be finite")
    return s


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization H = Q diag(w) Q* with ``eigenvalues`` ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return _congruence(self.eigenvectors, self.eigenvalues)


class ComplexMatrix:
    """Immutable square complex matrix with finite entries."""

    def __init__(self, entries):
        a = _square(entries)
        if not _finite(a):
            raise DomainError("matrix entries must be finite")
        self._a = _freeze(a.copy())

    @property
    def a(self) -> np.ndarray:
        """The underlying (read-only) complex128 array."""
        return self._a

    @property
    def n(self) -> int:
        return self._a.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


class HermitianMatrix(ComplexMatrix):
    """A matrix with H = H* up to round-off; symmetrized at construction.

    Construction fails on a non-finite entry, and if the Hermitian defect
    exceeds ``HERMITIAN_DEFECT_TOL * (1 + max |entry|)``; below that the
    entries are replaced by H/2 + (H/2)* so round-off never accumulates
    across operations. Halving before the sum keeps every finite H finite;
    for normal numbers it gives the same bits as (H + H*)/2.
    """

    def __init__(self, entries):
        a = _square(entries)
        # Scale and defect of H/2 (half of 1 + max|H| and of max|H - H*|):
        # |H/2| stays finite for every finite H, where |H| can overflow.
        with np.errstate(invalid="ignore"):  # an inf entry is rejected below
            h = a / 2.0
        scale = 0.5 + float(np.max(np.abs(h), initial=0.0))
        if not np.isfinite(scale):
            raise DomainError("matrix entries must be finite")
        defect = float(np.max(np.abs(h - h.conj().T), initial=0.0))
        if defect > HERMITIAN_DEFECT_TOL * scale:
            raise DomainError(
                f"matrix is not Hermitian: defect {2.0 * defect:.3e} exceeds tolerance"
            )
        super().__init__(h + h.conj().T)

    @classmethod
    def _exact(cls, a: np.ndarray):
        """Wrap and freeze a fresh complex128 array from ``_congruence``
        (exactly Hermitian and finite) without copying or re-checking it."""
        obj = cls.__new__(cls)
        obj._a = _freeze(a)
        return obj

    @classmethod
    def _assemble_stack(cls, w: np.ndarray, q: np.ndarray) -> list:
        """Q_i diag(w_i) Q_i* for a (k, n) stack of spectra and a (k, n, n)
        stack of unitaries, each matrix with its factorization recorded, so
        the solver never runs on it. Each spectrum is sorted stably
        ascending; one ``_congruence`` assembles the stack. Every array is
        frozen before it is sliced, so no writable base stays behind a
        matrix. For an ``SpdMatrix`` the caller passes a strictly positive
        ``w``."""
        order = np.argsort(w, axis=-1, kind="stable")
        rows = np.arange(len(order))[:, None]
        w = _freeze(np.asarray(w, dtype=np.float64)[rows, order])
        q = np.asarray(q, dtype=np.complex128).swapaxes(-1, -2)[rows, order]
        q = _freeze(np.ascontiguousarray(q.swapaxes(-1, -2)))
        s = _freeze(_congruence(q, w))
        out = []
        for i in range(len(s)):
            obj = cls._exact(s[i])
            obj.__dict__["eig"] = EigenDecomposition(w[i], q[i])
            out.append(obj)
        return out

    @cached_property
    def eig(self) -> EigenDecomposition:
        """Eigendecomposition, computed once and cached (the type is immutable)."""
        w, q = _eigh_array(self._a)
        return EigenDecomposition(_freeze(w), _freeze(q))

    @cached_property
    def spectral_norm(self) -> float:
        w = self.eig.eigenvalues
        return float(max(abs(w[0]), abs(w[-1])))


class SpdMatrix(HermitianMatrix):
    """Hermitian matrix with strictly positive spectrum."""

    def __init__(self, entries):
        super().__init__(entries)
        if self.eig.eigenvalues[0] <= 0.0:
            raise DomainError(
                f"matrix is not positive definite: lambda_min = {self.eig.eigenvalues[0]:.6e}"
            )


class _Transfer:
    """A square transfer M shared by operator chains, with what their
    checks read of it kept: the column norms (M* M)_jj of
    ``OperatorChain.trace``, and lambda_max(M diag(d) M*) for the last d
    asked (``max_eig``; d is compared bit for bit). ``means._Pair`` makes
    one for every chain of its call, a grid form's whole grid; a chain built
    from an array gets its own."""

    def __init__(self, m: np.ndarray):
        self.m = m
        self._last_max = None

    @cached_property
    def col_norms(self) -> np.ndarray:
        return (np.abs(self.m) ** 2).sum(axis=0)

    def max_eig(self, d: np.ndarray) -> float:
        """The largest eigenvalue of M diag(d) M*: one congruence and one
        ``eigh``, unless the last call asked for the same d."""
        last = self._last_max
        if last is not None and last[0].tobytes() == d.tobytes():
            return last[1]
        value = float(_eigh_array(_congruence(self.m, d))[0][-1])
        self._last_max = d, value
        return value


@dataclass(frozen=True, eq=False)
class OperatorChain:
    """Labeled Hermitian matrices X_i = M diag(v_i) M*, claimed ascending in
    the Loewner order.

    The chain holds one read-only square transfer ``m`` and the read-only
    (k, n) block ``values`` of real rows v_i. ``m`` is given as an array,
    which the chain copies, or as the ``_Transfer`` of the chains of one
    pair: the operator chains of ``means`` pass their pair's, for
    M = A^{1/2} Q, with a scalar refinement on the spectrum of X. For
    an invertible M, X_i <= X_{i+1} holds exactly when v_i <= v_{i+1}
    entrywise (Sylvester's law of inertia), so ``reporting`` decides each
    link on the rows. ``matrices`` assembles every X_i (``_congruence``)
    when first read, and raises DomainError if one leaves the float range.
    """

    labels: tuple[str, ...]
    m: np.ndarray
    values: np.ndarray
    transfer: _Transfer = field(init=False, repr=False)

    def __post_init__(self):
        try:
            values = np.array(self.values, dtype=np.float64)
        except ValueError as exc:  # rows of unequal length
            raise DomainError(f"chain value rows must share one length: {exc}") from exc
        if values.ndim != 2 or len(self.labels) != len(values) or len(values) < 2:
            raise DomainError("chain needs matching labels/value rows, length >= 2")
        transfer = self.m
        if not isinstance(transfer, _Transfer):
            transfer = _Transfer(_freeze(np.array(transfer, dtype=np.complex128)))
        m = transfer.m
        if m.shape != (values.shape[1],) * 2:
            raise DomainError(
                f"chain value rows of length {values.shape[1]} need a square transfer of "
                f"that size, got shape {m.shape}"
            )
        if not _finite(values):
            raise DomainError("chain values must be finite")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "transfer", transfer)
        object.__setattr__(self, "values", _freeze(values))

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def value(self, label: str) -> np.ndarray:
        return self.values[self.labels.index(label)]

    @cached_property
    def matrices(self) -> tuple[HermitianMatrix, ...]:
        return tuple(HermitianMatrix._exact(_congruence(self.m, v)) for v in self.values)

    def matrix(self, label: str) -> HermitianMatrix:
        return self.matrices[self.labels.index(label)]

    def trace(self, v: np.ndarray) -> float:
        """tr(M diag(v) M*) = sum_j (M* M)_jj v_j, with no matrix assembled."""
        return float(self.transfer.col_norms @ v)


#: numpy's ufunc for ``w ** t`` at a scalar t of 0.5, 2 or -1, correctly
#: rounded where a general power can miss in the last bit. At t = 0 and 1
#: any faithful power is exact, as numpy's ``ones_like`` and ``positive``.
_SCALAR_EXPONENTS = {0.5: np.sqrt, 2.0: np.square, -1.0: np.reciprocal}


def _spectrum_powers(w: np.ndarray, ts) -> np.ndarray:
    """Rows w ** t of a positive spectrum w, one per weight t of the
    sequence ``ts``, or of a (k, n) stack of spectra, row i powered by
    ts[i]: one array power of w's contiguous copy, each row bit for bit the
    ``w ** t`` of its contiguous spectrum alone (``_SCALAR_EXPONENTS``
    keeps numpy's scalar-exponent path).

    The rows decide, and numpy does not warn: the first row that holds an
    inf raises a DomainError that names an overflow at its t, and one that
    holds a 0, an underflow."""
    w = np.ascontiguousarray(w, dtype=np.float64)
    t = np.array(ts, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):
        out = np.power(w, t[:, None])
        for s in _SCALAR_EXPONENTS.keys() & ts:
            _SCALAR_EXPONENTS[s](w, out=out, where=(t == s)[:, None])
    if out.size and not 0.0 < np.minimum.reduce(out, axis=None) <= np.maximum.reduce(out, axis=None) < np.inf:
        over, zero = np.isinf(out).any(axis=1), (out == 0.0).any(axis=1)
        bad = np.flatnonzero(over | zero)
        if bad.size:  # else a NaN weight: its NaN row is returned as it is
            i = bad[0]
            if over[i]:
                raise DomainError(
                    f"w ** t overflows at t = {t[i]:g}: matrix entries must be finite"
                )
            raise DomainError(
                "assembled spectrum must be strictly positive: "
                f"w ** t underflows at t = {t[i]:g}"
            )
    return out


def _graded(wa, wb, y, left, right) -> np.ndarray:
    """The stack of diag(wa_i^{left_i}) Y_i diag(wb_i^{right_i}) for
    matrices Y_i in the eigenbases of A_i and B_i, whose spectra are wa_i
    and wb_i: each entry is Y_jk wa_j^l wb_k^r. wa, wb and Y are stacks
    aligned with the weights row for row, or one spectrum or matrix that
    broadcasts over them. The powers of both sides come from one
    ``_spectrum_powers`` call, A's rows first, and each graded matrix has
    the bits of its own call."""
    k = len(left)
    spectra = np.empty((2 * k, wa.shape[-1]))
    spectra[:k], spectra[k:] = wa, wb
    powers = _spectrum_powers(spectra, [*left, *right])
    graded = y * powers[:k, :, None]
    graded *= powers[k:, None, :]
    return graded


def _singular_values(stack: np.ndarray, compute_uv: bool = False):
    """Singular values of a matrix or a stack of them, descending along the
    last axis, by LAPACK's SVD (``numpy.linalg.svd``); with ``compute_uv``,
    its triple (U, s, V*)."""
    if not _finite(stack):
        raise DomainError("matrix entries must be finite")
    try:
        return np.linalg.svd(stack, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK SVD did not converge: {exc}") from exc


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a semidefinite order comparison X <= Y.

    ``witness_eigenvalue`` is the smallest eigenvalue of Y - X; the verdict
    holds exactly when it is >= -tolerance_used.
    """

    holds: bool
    witness_eigenvalue: float
    tolerance_used: float


def loewner_leq(x, y, rel_tol: float = LOEWNER_REL_TOL) -> LoewnerVerdict:
    """Decide X <= Y in the semidefinite order, with a relative tolerance.

    The comparison is ``lambda_min(Y - X) >= -rel_tol * max(1, ||X||_2, ||Y||_2)``.
    The scale-relative tolerance absorbs the round-off that inequality chains
    accumulate through repeated spectral function evaluations.
    """
    if not isinstance(x, HermitianMatrix):
        x = HermitianMatrix(x)
    if not isinstance(y, HermitianMatrix):
        y = HermitianMatrix(y)
    _check_dims(x, y)
    # Y - X of two exactly Hermitian matrices is exactly Hermitian: its
    # spectrum is the one HermitianMatrix(Y - X).eig gives, without the copy.
    diff = y.a - x.a
    if not _finite(diff):
        raise DomainError("matrix entries must be finite")
    witness = float(_eigh_array(diff)[0][0])
    tol = rel_tol * max(1.0, x.spectral_norm, y.spectral_norm)
    return LoewnerVerdict(holds=witness >= -tol, witness_eigenvalue=witness, tolerance_used=tol)


def _haar(g: np.ndarray) -> np.ndarray:
    """The Q factor of G = QR, for a complex Gaussian matrix G or a stack of
    them, with its phases chosen so that R has a positive real diagonal:
    a Haar unitary (Mezzadri, *Notices AMS* 54, 2007)."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _draw_spds(n: int, cond_max: float, rng: np.random.Generator, count: int):
    """The inputs of ``count`` random SPD matrices, drawn from ``rng`` as
    ``count`` sequential ``random_spd`` calls would draw them, bit for bit
    and to the same stream position: each matrix's complex Gaussian G and
    then its log-uniform spectrum. Returns the ``(count, n, n)`` stack of G
    and the ``(count, n)`` stack of spectra, for ``_assemble_spds``.

    Each matrix reads its real and imaginary Gaussians with one
    ``standard_normal`` call and its spectrum's uniforms with one ``random``
    call, in that order; G and the spectra are then formed over the whole
    stack. numpy's ``uniform(-half, half)`` is ``-half + (half - -half) * u``
    of the same uniforms u (its C code does not fuse the multiply and add),
    and forming G with ``1j *`` rounds nothing, so every value is the one a
    per-matrix draw gives."""
    if n < 1:
        raise DomainError("dimension must be >= 1")
    _check_cond("cond_max", cond_max)
    half = 0.5 * np.log(cond_max)
    z = np.empty((count, 2, n, n))
    u = np.empty((count, n))
    for i in range(count):
        rng.standard_normal(out=z[i])
        rng.random(out=u[i])
    return z[:, 0] + 1j * z[:, 1], np.exp(-half + (half - -half) * u)


def _assemble_spds(g: np.ndarray, lam: np.ndarray) -> list[SpdMatrix]:
    """The SPD matrices of stacked draws (``_draw_spds``, or several of them
    of one n, concatenated): one QR of the whole stack (``_haar``) and one
    ``_assemble_stack``. Each matrix does not depend on what else is in the
    stack."""
    return SpdMatrix._assemble_stack(lam, _haar(g))


def _random_spds(n: int, cond_max: float, seed, count: int) -> list[SpdMatrix]:
    """``count`` matrices as ``count`` sequential ``random_spd`` calls would
    give them: ``_draw_spds``, then ``_assemble_spds``."""
    return _assemble_spds(*_draw_spds(n, cond_max, np.random.default_rng(seed), count))


def random_spd(n: int, cond_max: float, seed) -> SpdMatrix:
    """Seeded random positive definite matrix with bounded condition number.

    Draws a Haar unitary Q (``_haar``) and eigenvalues
    log-uniform in [1/sqrt(cond_max), sqrt(cond_max)], so the spectral
    condition number never exceeds ``cond_max``. Deterministic per seed;
    ``seed`` may be an integer or a ``numpy.random.Generator``. The stack of
    one of ``_random_spds``.
    """
    return _random_spds(n, cond_max, seed, 1)[0]


# ---------------------------------------------------------------------------
# Argument coercion and rules shared by the other modules.

def _arr(x) -> np.ndarray:
    return x.a if isinstance(x, ComplexMatrix) else np.asarray(x, dtype=np.complex128)


def _as_spd(m) -> SpdMatrix:
    return m if isinstance(m, SpdMatrix) else SpdMatrix(m)


def _check_dims(a: ComplexMatrix, b: ComplexMatrix, x=None):
    """The one dimension rule: A and B of one n and, when given, an X that
    is an n x n matrix, returned as an array (None without one)."""
    if a.n != b.n:
        raise DomainError(f"dimension mismatch: {a.n} vs {b.n}")
    if x is not None:
        x = x.a if isinstance(x, ComplexMatrix) else _square(x)
        if x.shape != (a.n, a.n):
            raise DomainError(f"X must be {a.n} x {a.n}, got shape {x.shape}")
    return x


def _check_cond(name: str, cond: float) -> None:
    """The one rule of a condition bound ``name``: finite and >= 1, which
    NaN fails."""
    if not 1.0 <= cond < np.inf:
        raise DomainError(f"{name} must be finite and >= 1, got {cond}")


# ---------------------------------------------------------------------------
# JSON wire format: {"n": int, "re": [[...]], "im": [[...]]}, row-major;
# "im" may be omitted for real matrices.

def matrix_to_json(m) -> dict:
    """Serialize a matrix to the JSON wire format used by the CLI."""
    a = _arr(m)
    out = {"n": int(a.shape[0]), "re": a.real.tolist()}
    if np.any(a.imag != 0.0):
        out["im"] = a.imag.tolist()
    return out


def matrix_from_json(obj: dict) -> ComplexMatrix:
    """Parse the JSON wire format; raises DomainError on malformed input."""
    if not isinstance(obj, dict) or "n" not in obj or "re" not in obj:
        raise DomainError('matrix JSON must contain "n" and "re"')
    try:
        n = _check_int(obj["n"], '"n"')
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64) if "im" in obj else None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != (n, n):
        raise DomainError(f'"re" must be {n}x{n}, got shape {re.shape}')
    if im is not None:
        if im.shape != (n, n):
            raise DomainError(f'"im" must be {n}x{n}, got shape {im.shape}')
        return ComplexMatrix(re + 1j * im)
    return ComplexMatrix(re.astype(np.complex128))
