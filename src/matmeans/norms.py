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
norm of the stack (``_norms_of``). A single value (``heinz_norm``) is the
same kernel on a stack of one, and a value does not depend on the stack it
is computed in.

So a kernel call need not compute what it already knows. Each (A, B, X,
kind) has an evaluation context (``_context``) that holds Y = Qa* X Qb and
the norm at each exponent pair of its last kernel call, and a call powers
and takes the SVD of only the pairs that call did not have, each pair once
(the Heinz kernel's are canonical: weights 0 and 1 are one pair). The
context is kept on A for its last (B, X, kind), and only the last call's
values are kept, so a sweep of any length holds one call's worth per
instance; a refinement chain reads four weights, and a depth sweep moves
only one of them. Only an X that cannot change gets a kept context: a
``ComplexMatrix``, or a read-only ndarray that owns its data (an array
made writable again and changed in place is not seen). Any other X is
evaluated afresh at every call, as the miss path of the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .linalg import (
    ComplexMatrix,
    _arr,
    _as_spd,
    _finite,
    _freeze,
    _keep,
    _recall,
    _spectrum_powers,
)
from .scalar import (
    ScalarChain,
    _check_depth,
    _convex_refinement,
    _logconvex_refinement,
    weight_branch,
    young_reverse_chain,
)


@dataclass(frozen=True)
class NormKind:
    """A unitarily invariant norm: family 'schatten' (finite p >= 1) or 'kyfan'
    (k >= 1). The spectral norm is ``spectral()``, Ky Fan 1."""

    family: str
    param: float

    def __post_init__(self):
        if self.family == "schatten":
            if not 1.0 <= self.param < np.inf:
                raise DomainError(f"Schatten norm needs finite p >= 1, got {self.param}")
        elif self.family == "kyfan":
            if int(self.param) != self.param or self.param < 1:
                raise DomainError(f"Ky Fan norm needs integer k >= 1, got {self.param}")
        else:
            raise DomainError(f"unknown norm family {self.family!r}")

    @classmethod
    def schatten(cls, p: float) -> "NormKind":
        return cls("schatten", float(p))

    @classmethod
    def ky_fan(cls, k: int) -> "NormKind":
        return cls("kyfan", int(k))

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
        ``np.add.reduce``: ``np.sum``'s bits without its dispatch.
        """
        total = np.add.reduce
        if self.family == "kyfan":
            out = total(sigma[..., : int(self.param)], axis=-1)  # k > n clamps to n
        elif self.param == 1.0:
            out = total(sigma, axis=-1)
        elif self.param == 2.0:
            out = np.sqrt(total(sigma * sigma, axis=-1))
        else:
            # Row by row: a broadcast power can differ in the last bit.
            p = self.param
            rows = sigma.reshape(-1, sigma.shape[-1])
            out = np.array([total(r ** p) ** (1.0 / p) for r in rows])
            out = out.reshape(sigma.shape[:-1])
        return float(out) if out.ndim == 0 else out

    def __str__(self) -> str:
        if self.family == "kyfan":
            return f"kyfan({int(self.param)})"
        return f"schatten({self.param:g})"


#: The five kinds exercised by the verification suite.
DEFAULT_NORM_KINDS: tuple[NormKind, ...] = (
    NormKind.spectral(),
    NormKind.trace_norm(),
    NormKind.frobenius(),
    NormKind.schatten(3.0),
    NormKind.ky_fan(2),
)


def _singular_values(stack: np.ndarray) -> np.ndarray:
    """Singular values of a matrix or a stack of them, descending along the
    last axis, by LAPACK's SVD (``numpy.linalg.svd``)."""
    if not _finite(stack):
        raise DomainError("matrix entries must be finite")
    try:
        return np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK SVD did not converge: {exc}") from exc


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
# of weights, in the eigenbases of A and B, with one SVD, through the
# context of (A, B, X, kind).

def _graded(wa, wb, y, left, right) -> np.ndarray:
    """The stack of diag(wa^{left_i}) Y diag(wb^{right_i}) for a matrix Y in
    the eigenbases of A and B, whose spectra are wa and wb: each entry is
    Y_jk wa_j^l wb_k^r."""
    pa = _spectrum_powers(wa, left)
    pb = _spectrum_powers(wb, right)
    return y * pa[:, :, None] * pb[:, None, :]


class _Context:
    """The evaluation context of (A, B, X, kind): Y = Qa* X Qb in the
    eigenbases of A and B, whose graded slices are unitarily equivalent to
    A^l X B^r, and the exponents and norms of the last ``norms`` call."""

    __slots__ = ("b", "x", "kind", "held", "wa", "wb", "y", "last")

    def __init__(self, a, b, x, kind: NormKind):
        self.b, self.x, self.kind, self.held = b, x, kind, (b, x)
        self.wa, self.wb = a.eig.eigenvalues, b.eig.eigenvalues
        self.y = a.eig.eigenvectors.conj().T @ _arr(x) @ b.eig.eigenvectors
        self.last = None

    def _stack(self, left, right, paired: bool) -> np.ndarray:
        s = _graded(self.wa, self.wb, self.y, left, right)
        if paired:
            k = len(s) // 2
            s = s[:k] + s[k:]
        return s

    def norms(self, left, right, paired: bool) -> np.ndarray:
        """The norm of slice i of the exponent pairs (left_i, right_i), or,
        ``paired``, of the sum of slices i and k + i of 2k pairs; one SVD.

        A call stacks each distinct key (its exponents) once, and only the
        keys that the last call lacked (``_recall``). A first call whose
        left exponents are distinct has distinct keys: it stacks them as
        given, and its exponents are kept as they are, to be made keys only
        if another call comes. So callers pass exponent lists that they do
        not change afterwards, and read the values without writing them.
        """
        last = self.last
        if last is None and len(set(left)) == len(left):
            values = _norms_of(self._stack(left, right, paired), self.kind)
        else:
            def compute(todo):
                return _norms_of(self._stack(*_exponents(todo, paired), paired), self.kind)

            if last is not None:
                last = _keys(*last[:3]), last[3]
            values = _recall(last, _keys(left, right, paired), compute)
        self.last = left, right, paired, _freeze(values)
        return values


def _keys(left, right, paired: bool) -> list:
    """The key of each norm: its exponent pair, or its two pairs."""
    if paired:
        k = len(left) // 2
        return list(zip(left[:k], right[:k], left[k:], right[k:]))
    return list(zip(left, right))


def _exponents(keys, paired: bool) -> tuple[list, list]:
    """The left and right exponent lists of ``keys`` (``_keys`` inverted)."""
    if paired:
        return ([q[0] for q in keys] + [q[2] for q in keys],
                [q[1] for q in keys] + [q[3] for q in keys])
    return [l for l, _ in keys], [r for _, r in keys]


def _context(a, b, x, kind: NormKind) -> _Context:
    """The context kept on A if it is for this (B, X, kind), else a new one.
    A new one replaces the kept one only for an X that cannot change (see
    the module docstring), and only where it closes no reference cycle
    (``_keep``)."""
    ctx = a.__dict__.get("_norms")
    if ctx is not None and ctx.b is b and ctx.x is x and ctx.kind == kind:
        return ctx
    ctx = _Context(a, b, x, kind)
    if isinstance(x, ComplexMatrix) or (
        isinstance(x, np.ndarray) and x.base is None and not x.flags.writeable
    ):
        _keep(a, "_norms", ctx)
    return ctx


def _product_norms(a, b, x, left, right, kind: NormKind) -> np.ndarray:
    """||A^{l_i} X B^{r_i}|| for each exponent pair (l_i, r_i)."""
    return _context(a, b, x, kind).norms(left, right, False)


def _paired_norms(a, b, x, left, right, kind: NormKind) -> np.ndarray:
    """||A^{l_i} X B^{r_i} + A^{l_{k+i}} X B^{r_{k+i}}|| for 2k exponent pairs."""
    return _context(a, b, x, kind).norms(left, right, True)


def _functional_values(a, b, x, vs, kind: NormKind) -> np.ndarray:
    """f(v) = ||A^{1-v} X B^v|| at every weight in ``vs``."""
    return _product_norms(a, b, x, [1.0 - v for v in vs], list(vs), kind)


def _two_sided_values(a, b, x, vs, kind: NormKind) -> np.ndarray:
    """g(v) = ||A^{1-v} X B^{1-v}|| at every weight in ``vs``."""
    ws = [1.0 - v for v in vs]
    return _product_norms(a, b, x, ws, ws, kind)


def _heinz_values(a, b, x, vs, kind: NormKind) -> np.ndarray:
    """The Heinz functional at every weight in ``vs`` (see ``heinz_norm``)."""
    lo, hi = [], []
    for v in vs:
        t = abs(float(v) - 0.5)
        lo.append(0.5 - t)
        hi.append(0.5 + t)
    return _paired_norms(a, b, x, lo + hi, hi + lo, kind)


def _interpolated_values(a, b, x, p, q, rs, kind: NormKind) -> np.ndarray:
    """||A^{p-r} X B^{-q+r} + A^{-q+r} X B^{p-r}|| at every r in ``rs``."""
    rs = [float(r) for r in rs]
    left = [p - r for r in rs]
    right = [-q + r for r in rs]
    return _paired_norms(a, b, x, left + right, right + left, kind)


def norm_reverse_chain(a, b, x, nu: float, depth: int, kind: NormKind) -> ScalarChain:
    """Refined reversal for the norm functional f(v) = ||A^{1-v} X B^v||.

    Ascending chain [f(0)^{1+nu} f(1)^{-nu}, same * product, ||A^{1+nu} X B^{-nu}||]:
    the log-convex refinement of f on [0, 1], anchored at 0 for nu >= 0 and
    at 1 for nu <= -1. The nu >= 0 branch multiplies factors
    (sqrt(f(0) f(2^{1-j})) / f(2^-j))^{2^j nu} and the nu <= -1 branch uses
    the mirrored factors with exponents -2^j (nu + 1). Products are
    accumulated in the log domain.
    """
    a, b = _as_spd(a), _as_spd(b)
    depth = _check_depth(depth)
    anchor = "a" if weight_branch(nu) > 0 else "b"
    values = _logconvex_refinement(
        lambda vs: _functional_values(a, b, x, vs, kind).tolist(), 0.0, 1.0, nu, depth, anchor
    )
    return ScalarChain(("power", "refined", "target"), values)


def norm_heinz_chain(a, b, x, nu: float, depth: int, kind: NormKind) -> ScalarChain:
    """Refined reversal for g(v) = ||A^{1-v} X B^{1-v}|| at weight nu >= 0.

    Ascending chain [||AXB||^{1+nu} ||X||^{-nu}, same * product,
    ||A^{1+nu} X B^{1+nu}||]: the log-convex refinement of g on [0, 1],
    anchored at 0, with factors
    (sqrt(||AXB|| ||A^{1-2^{1-j}} X B^{1-2^{1-j}}||) / ||A^{1-2^-j} X B^{1-2^-j}||)^{2^j nu}.
    """
    a, b = _as_spd(a), _as_spd(b)
    if nu < 0.0:
        raise DomainError("norm_heinz_chain requires nu >= 0")
    depth = _check_depth(depth)
    values = _logconvex_refinement(
        lambda vs: _two_sided_values(a, b, x, vs, kind).tolist(), 0.0, 1.0, nu, depth, "a"
    )
    return ScalarChain(("power", "refined", "target"), values)


def combined_norm_chain(a, b, x, nu: float, depth: int, kind: NormKind) -> ScalarChain:
    """Five-term chain joining the scalar reverse-Young refinement in the
    scalars ||AX||, ||XB|| to the norm-functional refinement; nu >= 0.

    [ (1+nu)||AX|| - nu||XB||, scalar refined, ||AX||^{1+nu}||XB||^{-nu},
      product refined, ||A^{1+nu} X B^{-nu}|| ].

    One kernel call: ||AX|| and ||XB|| are f(0) and f(1) of the norm
    functional's own refinement (``norm_reverse_chain``, anchored at 0).
    """
    a, b = _as_spd(a), _as_spd(b)
    if nu < 0.0:
        raise DomainError("combined_norm_chain requires nu >= 0")
    depth = _check_depth(depth)
    scalar_part = []

    def values(vs):
        # vs = [0, 1, -nu, m_N]. The scalar chain is built before the
        # refinement checks the values it is given back.
        fs = _functional_values(a, b, x, vs, kind).tolist()
        scalar_part.extend(young_reverse_chain(fs[0], fs[1], nu, depth).values[:2])
        return fs

    # The norm part is the chain norm_reverse_chain returns, checked as it is.
    norm_part = ScalarChain(
        ("power", "refined", "target"), _logconvex_refinement(values, 0.0, 1.0, nu, depth, "a")
    )
    return ScalarChain(
        ("arith", "scalar_refined", "power", "refined", "target"),
        (*scalar_part, *norm_part.values),
    )


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
    a, b = _as_spd(a), _as_spd(b)
    return float(_heinz_values(a, b, x, [nu], kind)[0])


def heinz_reverse_chain(a, b, x, nu: float, depth: int, kind: NormKind) -> ScalarChain:
    """Reversed Heinz inequality with dyadic refinement, for nu >= 0.

    With f the Heinz functional, the chain is
    [||AX + XB||, same + sum_j 2^j nu ((f(0) + f(2^{1-j}))/2 - f(2^-j)), f(-nu)],
    ascending because f is convex on the whole line and f(0) = f(1). It is
    the convex refinement of f on [0, 1], anchored at 0; its secant
    (1+nu) f(0) - nu f(1) is ||AX + XB||.
    """
    a, b = _as_spd(a), _as_spd(b)
    if nu < 0.0:
        raise DomainError("heinz_reverse_chain requires nu >= 0")
    depth = _check_depth(depth)
    values = _convex_refinement(
        lambda vs: _heinz_values(a, b, x, vs, kind).tolist(), 0.0, 1.0, nu, depth, "a"
    )
    return ScalarChain(("sum_norm", "refined", "target"), values)


def heinz_pq_chain(a, b, x, p: float, q: float, kind: NormKind) -> ScalarChain:
    """||A^{p-q} X + X B^{p-q}|| <= ||A^p X B^{-q} + A^{-q} X B^p|| for 0 < q < p."""
    a, b = _as_spd(a), _as_spd(b)
    if not (0.0 < q < p):
        raise DomainError(f"need 0 < q < p, got p={p}, q={q}")
    # split = A^{p-q} X B^0 + A^0 X B^{p-q}; full = A^p X B^{-q} + A^{-q} X B^p.
    split, full = _paired_norms(
        a, b, x, [p - q, p, 0.0, -q], [0.0, -q, p - q, p], kind
    ).tolist()
    return ScalarChain(("split", "full"), (split, full))


def heinz_interpolated_chain(a, b, x, p: float, q: float, r: float, kind: NormKind) -> ScalarChain:
    """Interpolated comparison for 0 < r < q < p (ascending two-term chain)."""
    if not (0.0 < r < q < p):
        raise DomainError(f"need 0 < r < q < p, got p={p}, q={q}, r={r}")
    a, b = _as_spd(a), _as_spd(b)
    values = _interpolated_values(a, b, x, p, q, [r, 0.0], kind)
    return ScalarChain(("interpolated", "full"), tuple(values.tolist()))


def heinz_interpolation_values(a, b, x, p: float, q: float, rs, kind: NormKind) -> np.ndarray:
    """Evaluate r |-> ||A^{p-r} X B^{-q+r} + A^{-q+r} X B^{p-r}|| on a grid.

    For 0 < q < p and 0 <= r <= q the sequence is nonincreasing in r.
    """
    if not (0.0 < q < p):
        raise DomainError(f"need 0 < q < p, got p={p}, q={q}")
    a, b = _as_spd(a), _as_spd(b)
    return _interpolated_values(a, b, x, p, q, rs, kind).copy()  # the context keeps the original


def heinz_midpoint_margin(a, b, x, v1: float, v2: float, kind: NormKind) -> float:
    """Normalized midpoint-convexity margin of the Heinz functional f.

    ((f(v1) + f(v2))/2 - f((v1+v2)/2)) / max(1, both sides); nonnegative
    because f is convex on the whole line.
    """
    a, b = _as_spd(a), _as_spd(b)
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
    a, b = _as_spd(a), _as_spd(b)
    grid = np.linspace(-3.0, 4.0, grid_points)
    vals = _heinz_values(a, b, x, grid, kind)
    scale = max(1.0, float(vals.max()))
    split = int(np.argmin(np.abs(grid - 0.5)))
    down = (vals[:split] - vals[1 : split + 1]) / scale
    up = (vals[split + 1 :] - vals[split:-1]) / scale
    return np.concatenate([down, up]), vals.copy()  # the context keeps the original
