"""Complex Hermitian and positive definite matrix types with spectral calculus.

Everything downstream (operator means, unitarily invariant norms, the
verification harness) is built on the small toolkit in this module:

* value types ``ComplexMatrix`` -> ``HermitianMatrix`` -> ``SpdMatrix`` that
  validate their defining property when built from outside input, and
  ``OperatorChain``, the Loewner-ordered chain that ``means`` builds and
  ``reporting`` checks,
* one assembly, ``_congruence``, of every matrix built from a spectrum:
  Hermitian by construction, and the one place that checks such a matrix is
  finite; ``_exact`` then wraps it without the validating constructors,
* a Hermitian eigensolver (LAPACK through ``numpy.linalg.eigh``),
* spectral functions ``apply_spectral`` / ``spd_pow``,
* the semidefinite (Loewner) order check ``loewner_leq``,
* seeded random SPD and unitary generation; an SPD draw (``_draw_spds``)
  and its assembly (``_assemble_spds``) are separate steps, so the draws of
  many instances share one QR and one assembly.

All types are immutable after construction, all functions are pure, and the
only randomness is explicit (seed in, value out), so everything here is safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError

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


def _congruence(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M diag(v) M* for a matrix M and real vector v, or for a stack of each,
    made exactly Hermitian by ``_hermitian_part``. Every spectral matrix of
    the package is assembled here, and checked here, once, to be finite: a
    non-finite entry raises DomainError."""
    s = _hermitian_part((m * v[..., None, :]) @ m.conj().swapaxes(-1, -2))
    if not np.isfinite(s).all():
        raise DomainError("matrix entries must be finite")
    return s


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization H = Q diag(w) Q* with ``eigenvalues`` ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        return _congruence(self.eigenvectors, self.eigenvalues)


class ComplexMatrix:
    """Immutable square complex matrix with finite entries."""

    def __init__(self, entries):
        a = np.asarray(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DomainError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
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
        a = np.asarray(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {a.shape}")
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
    def _assemble(cls, w: np.ndarray, q: np.ndarray):
        """Q diag(w) Q* from a known factorization (Q unitary): the stack of
        one of ``_assemble_stack``."""
        return cls._assemble_stack(np.asarray(w)[None], np.asarray(q)[None])[0]

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

    def power(self, t: float) -> "SpdMatrix":
        """Q diag(w ** t) Q* (``_spectrum_powers``), assembled by ``_assemble``
        with that factorization recorded; m^0 is exactly I."""
        wt = _spectrum_powers(self.eig.eigenvalues, [t])[0]
        return SpdMatrix._assemble(wt, self.eig.eigenvectors if float(t) else np.eye(self.n))


@dataclass(frozen=True)
class OperatorChain:
    """Labeled Hermitian matrices claimed ascending in the Loewner order."""

    labels: tuple[str, ...]
    matrices: tuple[HermitianMatrix, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.matrices) or len(self.matrices) < 2:
            raise DomainError("chain needs matching labels/matrices, length >= 2")
        dims = {m.n for m in self.matrices}
        if len(dims) != 1:
            raise DomainError(f"chain matrices must share a dimension, got {dims}")

    @property
    def n(self) -> int:
        return self.matrices[0].n

    def matrix(self, label: str) -> HermitianMatrix:
        return self.matrices[self.labels.index(label)]


def _spectrum_powers(w: np.ndarray, ts) -> np.ndarray:
    """Rows w ** t of a positive spectrum w, one per weight t, each computed
    alone (a broadcast power can differ in the last bit); w ** 0 is exactly 1.
    Overflow or underflow raises a DomainError that says which; numpy does
    not warn."""
    ts = [float(t) for t in ts]
    out = np.ones((len(ts), len(w)))
    with np.errstate(over="ignore", under="ignore"):
        for i, t in enumerate(ts):
            if t:
                out[i] = w ** t
    if not (out.min(initial=1.0) > 0.0 and out.max(initial=1.0) < np.inf):
        i = int(np.argmin(((out > 0.0) & (out < np.inf)).all(axis=1)))
        if np.isinf(out[i]).any():
            raise DomainError(f"w ** t overflows at t = {ts[i]:g}: matrix entries must be finite")
        raise DomainError(
            f"assembled spectrum must be strictly positive: w ** t underflows at t = {ts[i]:g}"
        )
    return out


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a semidefinite order comparison X <= Y.

    ``witness_eigenvalue`` is the smallest eigenvalue of Y - X; the verdict
    holds exactly when it is >= -tolerance_used.
    """

    holds: bool
    witness_eigenvalue: float
    tolerance_used: float


def jacobi_eigh(h) -> EigenDecomposition:
    """Eigendecomposition of a complex Hermitian matrix.

    The name is historical: the factorization is computed by LAPACK's
    Hermitian eigensolver through ``numpy.linalg.eigh``.

    Parameters
    ----------
    h : HermitianMatrix or array_like
        The matrix to factor. Arrays are validated/symmetrized first.

    Returns
    -------
    EigenDecomposition
        Eigenvalues ascending, eigenvector columns unitary. Deterministic
        for identical input.

    Raises
    ------
    ConvergenceError
        If LAPACK reports that the eigensolver did not converge
        (``numpy.linalg.LinAlgError``).
    """
    if not isinstance(h, HermitianMatrix):
        h = HermitianMatrix(h)
    return h.eig


def apply_spectral(h, phi) -> HermitianMatrix:
    """Apply a real scalar function to a Hermitian matrix through its spectrum.

    Returns Q diag(phi(w_i)) Q*. This is the bridge by which a scalar
    inequality that holds on the spectrum of ``h`` transfers to the
    semidefinite order: if f >= g pointwise on the eigenvalues then
    ``apply_spectral(h, f) >= apply_spectral(h, g)``.

    ``phi`` is called once per eigenvalue and must return a finite float.
    """
    if not isinstance(h, HermitianMatrix):
        h = HermitianMatrix(h)
    dec = h.eig
    try:
        vals = np.array([float(phi(w)) for w in dec.eigenvalues])
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"spectral function undefined on the spectrum: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise DomainError("spectral function returned a non-finite value")
    return HermitianMatrix._assemble(vals, dec.eigenvectors)


def spd_pow(a: SpdMatrix, t: float) -> SpdMatrix:
    """A**t for positive definite ``a`` and real ``t`` (A**0 = I, A**1 = A)."""
    if not isinstance(a, SpdMatrix):
        a = SpdMatrix(a)
    return a.power(float(t))


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
    if x.n != y.n:
        raise DomainError(f"dimension mismatch: {x.n} vs {y.n}")
    # Y - X of two exactly Hermitian matrices is exactly Hermitian: its
    # spectrum is the one HermitianMatrix(Y - X).eig gives, without the copy.
    diff = y.a - x.a
    if not np.isfinite(diff).all():
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


def random_unitary(n: int, seed) -> np.ndarray:
    """Seeded Haar unitary (``_haar`` of an n x n complex Gaussian matrix)."""
    rng = np.random.default_rng(seed)
    return _haar(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _draw_spds(n: int, cond_max: float, rng: np.random.Generator, count: int):
    """The inputs of ``count`` random SPD matrices, drawn from ``rng`` as
    ``count`` sequential ``random_spd`` calls would draw them, bit for bit
    and to the same stream position: each matrix's complex Gaussian G and
    then its log-uniform spectrum. Returns the ``(count, n, n)`` stack of G
    and the ``(count, n)`` stack of spectra, for ``_assemble_spds``."""
    if n < 1:
        raise DomainError("dimension must be >= 1")
    if not np.isfinite(cond_max):
        raise DomainError("cond_max must be finite")
    if cond_max < 1.0:
        raise DomainError("cond_max must be >= 1")
    half = 0.5 * np.log(cond_max)
    g = np.empty((count, n, n), dtype=np.complex128)
    lam = np.empty((count, n))
    for i in range(count):
        g[i] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lam[i] = np.exp(rng.uniform(-half, half, size=n))
    return g, lam


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

    Draws a Haar unitary Q as ``random_unitary`` does and eigenvalues
    log-uniform in [1/sqrt(cond_max), sqrt(cond_max)], so the spectral
    condition number never exceeds ``cond_max``. Deterministic per seed;
    ``seed`` may be an integer or a ``numpy.random.Generator``. The stack of
    one of ``_random_spds``.
    """
    return _random_spds(n, cond_max, seed, 1)[0]


# ---------------------------------------------------------------------------
# Argument coercion shared by the other modules.

def _arr(x) -> np.ndarray:
    return x.a if isinstance(x, ComplexMatrix) else np.asarray(x, dtype=np.complex128)


def _as_spd(m) -> SpdMatrix:
    return m if isinstance(m, SpdMatrix) else SpdMatrix(m)


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
    n = int(obj["n"])
    re = np.asarray(obj["re"], dtype=np.float64)
    if re.shape != (n, n):
        raise DomainError(f'"re" must be {n}x{n}, got shape {re.shape}')
    if "im" in obj:
        im = np.asarray(obj["im"], dtype=np.float64)
        if im.shape != (n, n):
            raise DomainError(f'"im" must be {n}x{n}, got shape {im.shape}')
        return ComplexMatrix(re + 1j * im)
    return ComplexMatrix(re.astype(np.complex128))
