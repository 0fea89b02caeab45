"""Singular values, unitarily invariant norms, and the Heinz norm family.

A unitarily invariant norm is determined by the singular value vector, so
every norm here is a symmetric gauge applied to singular values: Schatten-p
norms (sum sigma_i^p)^{1/p} and Ky Fan-k norms (sum of the k largest).
Spectral, trace, and Frobenius norms are aliases for Ky Fan-1, Schatten-1,
and Schatten-2.

The chain operations refine reversed Young-type inequalities for the
functional ||A^{1-v} X B^v|| (log-convex in v) and describe the Heinz family
f(v) = ||A^v X B^{1-v} + A^{1-v} X B^v||, which is symmetric about v = 1/2,
convex on the whole line, decreasing left of 1/2 and increasing right of it.

Singular values come from LAPACK's SVD, never from the spectrum of X*X,
which would square the condition number. Every functional of the weight is
evaluated on its whole set of weights at once, in the recorded eigenbases
of A and B: ||A^l X B^r|| = ||diag(wa^l) Qa* X Qb diag(wb^r)|| by unitary
invariance, so no power of A or B is assembled, and one SVD takes every
norm of the stack (``_norms_of``). The graded stack and the SVD are the
spectral kernels of ``linalg`` (``_graded``, ``_singular_values``), which
``means`` shares. A single value (``heinz_norm``) is the
same kernel on a stack of one, and a value does not depend on the stack it
is computed in. Every public functional of (A, B, X) checks its operands
once, on entry (``_operands``): A and B positive definite of one n, and
X an n x n matrix (``linalg._check_dims``); the kernels below it do not
check them again.

A chain that a sweep varies in nu or depth is the grid of one of a private
grid form (``_norm_reverse_grid`` and so on). It hands its functional to the
grid driver ``scalar._refinements``, which checks the grid, evaluates the
distinct weights of the whole grid (0, 1, each target and each m_N) in one
kernel call, and passes each grid value's four values to the refinement
kernel. Nothing is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import _arr, _as_spd, _check_dims, _graded, _singular_values
from .scalar import (
    ScalarChain,
    _check_int,
    _convex_refinement,
    _logconvex_refinement,
    _refinements,
    young_reverse_chain,
)


@dataclass(frozen=True)
class NormKind:
    """A unitarily invariant norm: family 'schatten' (finite p >= 1) or 'kyfan'
    (an integer k >= 1 by ``scalar._check_int``, kept as an int). The
    spectral norm is ``spectral()``, Ky Fan 1."""

    family: str
    param: float

    def __post_init__(self):
        if self.family == "schatten":
            if not 1.0 <= self.param < np.inf:
                raise DomainError(f"Schatten norm needs finite p >= 1, got {self.param}")
        elif self.family == "kyfan":
            object.__setattr__(self, "param", _check_int(self.param, "Ky Fan k"))
            if self.param < 1:
                raise DomainError(f"Ky Fan norm needs integer k >= 1, got {self.param}")
        else:
            raise DomainError(f"unknown norm family {self.family!r}")

    @classmethod
    def schatten(cls, p: float) -> "NormKind":
        return cls("schatten", float(p))

    @classmethod
    def ky_fan(cls, k: int) -> "NormKind":
        return cls("kyfan", k)

    @classmethod
    def spectral(cls) -> "NormKind":
        return cls.ky_fan(1)

    @classmethod
    def trace_norm(cls) -> "NormKind":
        return cls.schatten(1.0)

    @classmethod
    def frobenius(cls) -> "NormKind":
        return cls.schatten(2.0)

    def of_sigma(self, sigma: np.ndarray):
        """The norm of descending singular values along the last axis.

        A float for one vector, an array for a stack of them; each row's
        value is the one its vector alone would give. Sums are
        ``np.add.reduce``: ``np.sum``'s bits without its dispatch. A
        Schatten row whose n sigma_max^p would leave the normal float range
        is scaled by 1/sigma_max for the powers, any other by 1 (no bit
        changes), so no power overflows or underflows where the norm does
        not.
        """
        total = np.add.reduce
        if self.family == "kyfan":
            out = total(sigma[..., : self.param], axis=-1)  # k > n clamps to n
        elif self.param == 1.0:
            out = total(sigma, axis=-1)
        else:
            p = self.param
            top = sigma[..., :1]
            hi = (np.finfo(float).max / sigma.shape[-1]) ** (1.0 / p)
            lo = np.finfo(float).tiny ** (1.0 / p)
            scale = np.where((top > hi) | ((top < lo) & (top > 0.0)), top, 1.0)
            sigma = sigma / scale
            if p == 2.0:
                out = np.sqrt(total(sigma * sigma, axis=-1))
            else:
                # Row by row: a broadcast power can differ in the last bit.
                rows = sigma.reshape(-1, sigma.shape[-1])
                out = np.array([total(r ** p) ** (1.0 / p) for r in rows])
                out = out.reshape(sigma.shape[:-1])
            out = out * scale[..., 0]
        return float(out) if out.ndim == 0 else out

    def __str__(self) -> str:
        if self.family == "kyfan":
            return f"kyfan({self.param})"
        return f"schatten({self.param:g})"


#: The five kinds exercised by the verification suite.
DEFAULT_NORM_KINDS: tuple[NormKind, ...] = (
    NormKind.spectral(),
    NormKind.trace_norm(),
    NormKind.frobenius(),
    NormKind.schatten(3.0),
    NormKind.ky_fan(2),
)


def _norms_of(stack: np.ndarray, kind: NormKind) -> np.ndarray:
    """``kind`` of every matrix of a (k, n, n) stack, from one SVD."""
    return kind.of_sigma(_singular_values(stack))


def singular_values(x) -> np.ndarray:
    """Singular values, descending, by LAPACK's SVD."""
    a = _arr(x)
    if a.ndim != 2:
        raise DomainError(f"expected a matrix, got shape {a.shape}")
    return _singular_values(a)


def ui_norm(x, kind: NormKind) -> float:
    """Evaluate a unitarily invariant norm on a square complex matrix."""
    return kind.of_sigma(singular_values(x))


# Batched kernels: each evaluates a functional of the weight on a whole list
# of weights, in the eigenbases of A and B, with one SVD.

def _operands(a, b, x) -> tuple:
    """(A, B, X) of a public functional, checked once: A and B positive
    definite, X an n x n array (``linalg._check_dims``)."""
    a, b = _as_spd(a), _as_spd(b)
    return a, b, _check_dims(a, b, x)


def _product_norms(a, b, x, left, right, kind: NormKind, paired: bool = False) -> np.ndarray:
    """||A^{l_i} X B^{r_i}|| for each exponent pair (l_i, r_i), or, ``paired``,
    ||A^{l_i} X B^{r_i} + A^{l_{k+i}} X B^{r_{k+i}}|| for 2k pairs: graded
    slices of Y = Qa* X Qb in the eigenbases of A and B, which are unitarily
    equivalent to A^l X B^r, and one SVD of their stack."""
    y = a.eig.eigenvectors.conj().T @ x @ b.eig.eigenvectors
    s = _graded(a.eig.eigenvalues, b.eig.eigenvalues, y, left, right)
    if paired:
        k = len(s) // 2
        s = s[:k] + s[k:]
    return _norms_of(s, kind)


def _functional_values(a, b, x, vs, kind: NormKind) -> np.ndarray:
    """f(v) = ||A^{1-v} X B^v|| at every weight in ``vs``."""
    return _product_norms(a, b, x, [1.0 - v for v in vs], list(vs), kind)


def _two_sided_values(a, b, x, vs, kind: NormKind) -> np.ndarray:
    """g(v) = ||A^{1-v} X B^{1-v}|| at every weight in ``vs``."""
    ws = [1.0 - v for v in vs]
    return _product_norms(a, b, x, ws, ws, kind)


def _heinz_values(a, b, x, vs, kind: NormKind) -> np.ndarray:
    """The Heinz functional at every weight in ``vs`` (see ``heinz_norm``),
    at each distinct |v - 1/2| once: v and 1 - v share their exponents."""
    ts = [abs(float(v) - 0.5) for v in vs]
    index = {t: i for i, t in enumerate(dict.fromkeys(ts))}
    lo = [0.5 - t for t in index]
    hi = [0.5 + t for t in index]
    return _product_norms(a, b, x, lo + hi, hi + lo, kind, paired=True)[[index[t] for t in ts]]


def _interpolated_values(a, b, x, p, q, rs, kind: NormKind) -> np.ndarray:
    """||A^{p-r} X B^{-q+r} + A^{-q+r} X B^{p-r}|| at every r in ``rs``."""
    rs = [float(r) for r in rs]
    left = [p - r for r in rs]
    right = [-q + r for r in rs]
    return _product_norms(a, b, x, left + right, right + left, kind, paired=True)


def _functional_grid(name, labels, refine, functional, a, b, x, grid, kind, anchor=None):
    """The chain ``name`` at each (nu, depth) of ``grid``: ``refine`` of
    ``functional``, read from one kernel call on the distinct weights of the
    whole grid. With an ``anchor``, the chain needs nu >= 0; without one it
    takes both weight branches (``scalar._refinements`` checks the grid)."""
    a, b, x = _operands(a, b, x)
    values = lambda vs: functional(a, b, x, vs, kind).tolist()
    return [ScalarChain(labels, v) for v in _refinements(name, refine, values, grid, anchor)]


def norm_reverse_chain(a, b, x, nu: float, depth: int, kind: NormKind) -> ScalarChain:
    """Refined reversal for the norm functional f(v) = ||A^{1-v} X B^v||.

    Ascending chain [f(0)^{1+nu} f(1)^{-nu}, same * product, ||A^{1+nu} X B^{-nu}||]:
    the log-convex refinement of f on [0, 1], anchored at 0 for nu >= 0 and
    at 1 for nu <= -1. The nu >= 0 branch multiplies factors
    (sqrt(f(0) f(2^{1-j})) / f(2^-j))^{2^j nu} and the nu <= -1 branch uses
    the mirrored factors with exponents -2^j (nu + 1). Products are
    accumulated in the log domain.
    """
    return _norm_reverse_grid(a, b, x, [(nu, depth)], kind)[0]


def _norm_reverse_grid(a, b, x, grid, kind: NormKind) -> list[ScalarChain]:
    """``norm_reverse_chain`` at each (nu, depth) of ``grid``."""
    return _functional_grid(
        "norm_reverse_chain", ("power", "refined", "target"), _logconvex_refinement,
        _functional_values, a, b, x, grid, kind,
    )


def norm_heinz_chain(a, b, x, nu: float, depth: int, kind: NormKind) -> ScalarChain:
    """Refined reversal for g(v) = ||A^{1-v} X B^{1-v}|| at weight nu >= 0.

    Ascending chain [||AXB||^{1+nu} ||X||^{-nu}, same * product,
    ||A^{1+nu} X B^{1+nu}||]: the log-convex refinement of g on [0, 1],
    anchored at 0, with factors
    (sqrt(||AXB|| ||A^{1-2^{1-j}} X B^{1-2^{1-j}}||) / ||A^{1-2^-j} X B^{1-2^-j}||)^{2^j nu}.
    """
    return _norm_heinz_grid(a, b, x, [(nu, depth)], kind)[0]


def _norm_heinz_grid(a, b, x, grid, kind: NormKind) -> list[ScalarChain]:
    """``norm_heinz_chain`` at each (nu, depth) of ``grid``."""
    return _functional_grid(
        "norm_heinz_chain", ("power", "refined", "target"), _logconvex_refinement,
        _two_sided_values, a, b, x, grid, kind, "a",
    )


def combined_norm_chain(a, b, x, nu: float, depth: int, kind: NormKind) -> ScalarChain:
    """Five-term chain joining the scalar reverse-Young refinement in the
    scalars ||AX||, ||XB|| to the norm-functional refinement; nu >= 0.

    [ (1+nu)||AX|| - nu||XB||, scalar refined, ||AX||^{1+nu}||XB||^{-nu},
      product refined, ||A^{1+nu} X B^{-nu}|| ].

    One kernel call: ||AX|| and ||XB|| are f(0) and f(1) of the norm
    functional's own refinement (``norm_reverse_chain``, anchored at 0).
    """
    return _combined_norm_grid(a, b, x, [(nu, depth)], kind)[0]


def _combined_norm_grid(a, b, x, grid, kind: NormKind) -> list[ScalarChain]:
    """``combined_norm_chain`` at each (nu, depth) of ``grid``."""
    return _functional_grid(
        "combined_norm_chain", ("arith", "scalar_refined", "power", "refined", "target"),
        _combined_refinement, _functional_values, a, b, x, grid, kind, "a",
    )


def _combined_refinement(fs, lo, hi, nu, depth, anchor) -> tuple:
    """The five values of ``combined_norm_chain`` from f at [0, 1, -nu, m_N]:
    the scalar reverse Young chain of f(0) = ||AX|| and f(1) = ||XB||, then
    the log-convex refinement of f, checked as the chain
    ``norm_reverse_chain`` returns."""
    scalar_part = young_reverse_chain(fs[0], fs[1], nu, depth).values[:2]
    norm_part = ScalarChain(
        ("power", "refined", "target"), _logconvex_refinement(fs, lo, hi, nu, depth, anchor)
    )
    return (*scalar_part, *norm_part.values)


# ---------------------------------------------------------------------------
# Heinz family.

def heinz_norm(a, b, x, nu: float, kind: NormKind) -> float:
    """f(nu) = ||A^nu X B^{1-nu} + A^{1-nu} X B^nu||; satisfies f(nu) = f(1-nu).

    The exponent pair is canonicalized around 1/2 (via |nu - 1/2|), so
    evaluating at nu and at the float 1-nu runs the same computation up to
    the rounding of 1-nu itself. This pins the symmetry defect at the
    last-bit level; naive evaluation lets near-zero singular values amplify
    the exponent rounding far above the 1e-10 guarantee.
    """
    a, b, x = _operands(a, b, x)
    return float(_heinz_values(a, b, x, [nu], kind)[0])


def heinz_reverse_chain(a, b, x, nu: float, depth: int, kind: NormKind) -> ScalarChain:
    """Reversed Heinz inequality with dyadic refinement, for nu >= 0.

    With f the Heinz functional, the chain is
    [||AX + XB||, same + sum_j 2^j nu ((f(0) + f(2^{1-j}))/2 - f(2^-j)), f(-nu)],
    ascending because f is convex on the whole line and f(0) = f(1). It is
    the convex refinement of f on [0, 1], anchored at 0; its secant
    (1+nu) f(0) - nu f(1) is ||AX + XB||.
    """
    return _heinz_reverse_grid(a, b, x, [(nu, depth)], kind)[0]


def _heinz_reverse_grid(a, b, x, grid, kind: NormKind) -> list[ScalarChain]:
    """``heinz_reverse_chain`` at each (nu, depth) of ``grid``."""
    return _functional_grid(
        "heinz_reverse_chain", ("sum_norm", "refined", "target"), _convex_refinement,
        _heinz_values, a, b, x, grid, kind, "a",
    )


def heinz_pq_chain(a, b, x, p: float, q: float, kind: NormKind) -> ScalarChain:
    """||A^{p-q} X + X B^{p-q}|| <= ||A^p X B^{-q} + A^{-q} X B^p|| for 0 < q < p."""
    a, b, x = _operands(a, b, x)
    if not (0.0 < q < p):
        raise DomainError(f"need 0 < q < p, got p={p}, q={q}")
    # The interpolated values at r = q (-q + q is +0.0) and r = 0.
    values = _interpolated_values(a, b, x, p, q, [q, 0.0], kind)
    return ScalarChain(("split", "full"), tuple(values.tolist()))


def heinz_interpolated_chain(a, b, x, p: float, q: float, r: float, kind: NormKind) -> ScalarChain:
    """Interpolated comparison for 0 < r < q < p (ascending two-term chain)."""
    if not (0.0 < r < q < p):
        raise DomainError(f"need 0 < r < q < p, got p={p}, q={q}, r={r}")
    a, b, x = _operands(a, b, x)
    values = _interpolated_values(a, b, x, p, q, [r, 0.0], kind)
    return ScalarChain(("interpolated", "full"), tuple(values.tolist()))


def heinz_interpolation_values(a, b, x, p: float, q: float, rs, kind: NormKind) -> np.ndarray:
    """Evaluate r |-> ||A^{p-r} X B^{-q+r} + A^{-q+r} X B^{p-r}|| on a grid.

    For 0 < q < p and 0 <= r <= q the sequence is nonincreasing in r.
    """
    if not (0.0 < q < p):
        raise DomainError(f"need 0 < q < p, got p={p}, q={q}")
    a, b, x = _operands(a, b, x)
    return _interpolated_values(a, b, x, p, q, rs, kind)


def heinz_midpoint_margin(a, b, x, v1: float, v2: float, kind: NormKind) -> float:
    """Normalized midpoint-convexity margin of the Heinz functional f.

    ((f(v1) + f(v2))/2 - f((v1+v2)/2)) / max(1, both sides); nonnegative
    because f is convex on the whole line.
    """
    a, b, x = _operands(a, b, x)
    mid, f1, f2 = _heinz_values(a, b, x, [(v1 + v2) / 2.0, v1, v2], kind).tolist()
    avg = (f1 + f2) / 2.0
    return (avg - mid) / max(1.0, avg, mid)


def heinz_grid_margins(a, b, x, kind: NormKind, grid_points: int = 81):
    """Monotonicity margins of the Heinz functional f on an even grid over [-3, 4].

    Returns ``(margins, vals)``: ``vals`` is f on the grid, and ``margins``
    holds the steps f(v_i) - f(v_{i+1}) left of 1/2 (f nonincreasing) then
    f(v_{i+1}) - f(v_i) right of it (f nondecreasing), divided by
    max(1, max f). Every margin is nonnegative.
    """
    a, b, x = _operands(a, b, x)
    grid = np.linspace(-3.0, 4.0, grid_points)
    vals = _heinz_values(a, b, x, grid, kind)
    scale = max(1.0, float(vals.max()))
    split = int(np.argmin(np.abs(grid - 0.5)))
    down = (vals[:split] - vals[1 : split + 1]) / scale
    up = (vals[split + 1 :] - vals[split:-1]) / scale
    return np.concatenate([down, up]), vals
