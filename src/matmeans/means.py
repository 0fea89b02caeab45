"""Weighted operator means on positive definite matrices and their chains.

The three classical means extend to matrices through congruence and spectral
calculus:

    A nabla_v B = (1-v) A + v B
    A #_v B     = A^{1/2} (A^{-1/2} B A^{-1/2})^v A^{1/2}
    A !_v B     = ((1-v) A^{-1} + v B^{-1})^{-1}

with extended weights (v outside [0, 1]) permitted whenever the expressions
stay positive definite. Every chain below is constructed through the scalar
transfer route: the underlying scalar inequality holds on the spectrum of
X = A^{-1/2} B A^{-1/2}, is applied spectrally to X, and is transported back
by congruence with A^{1/2}. Composing the public mean functions directly
gives the same matrices up to round-off; the tests cross-check both routes.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DomainError
from .linalg import (
    HermitianMatrix,
    LOEWNER_REL_TOL,
    OperatorChain,
    SpdMatrix,
    _as_spd,
    _congruence,
    _eigh_array,
    _spectrum_powers,
    loewner_leq,
)
from .norms import _graded, singular_values
from .scalar import (
    ScalarChain,
    _check_depth,
    _convex_refinement,
    _logconvex_refinement,
    _power_drop,
    weight_branch,
)


def _overlap(a: SpdMatrix, b: SpdMatrix) -> np.ndarray:
    """C = Qa* Qb, the eigenbasis of B seen from that of A."""
    return a.eig.eigenvectors.conj().T @ b.eig.eigenvectors


class _Transfer:
    """Spectral transfer context for a positive definite pair (A, B).

    Holds X = A^{-1/2} B A^{-1/2} = Q diag(w) Q* and pushes scalar functions
    of X back: push(f(w)) = A^{1/2} f(X) A^{1/2} = M diag(f(w)) M* with
    M = A^{1/2} Q, Hermitian by construction and not re-validated. In the
    recorded eigenbases of A and B, X = Qa G G* Qa* with the graded
    G = diag(wa^{-1/2}) Qa* Qb diag(wb^{1/2}) = P diag(s) V*, so w = s^2 and
    M = Qa diag(wa^{1/2}) P: no power of A or B is assembled, and the SVD of
    the graded G keeps the small end of the spectrum accurate relative to
    itself (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13(4), 1992).
    """

    def __init__(self, a: SpdMatrix, b: SpdMatrix):
        if a.n != b.n:
            raise DomainError(f"dimension mismatch: {a.n} vs {b.n}")
        try:
            p, s, _ = np.linalg.svd(_graded(a, b, _overlap(a, b), [-0.5], [0.5])[0])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"LAPACK SVD did not converge: {exc}") from exc
        self.w = s[::-1] ** 2
        if self.w[0] <= 0.0:
            raise DomainError(
                f"matrix is not positive definite: lambda_min = {self.w[0]:.6e}"
            )
        self.m = (a.eig.eigenvectors * _spectrum_powers(a.eig.eigenvalues, [0.5])[0]) @ p[:, ::-1]

    def push(self, vals) -> HermitianMatrix:
        return HermitianMatrix._exact(_congruence(self.m, np.asarray(vals, dtype=np.float64)))


def arithmetic_mean(a, b, nu: float) -> HermitianMatrix:
    """(1 - nu) A + nu B; may be indefinite for extended weights."""
    a, b = _as_spd(a), _as_spd(b)
    return HermitianMatrix((1.0 - nu) * a.a + nu * b.a)


def geometric_mean(a, b, nu: float) -> SpdMatrix:
    """A #_nu B for any real nu; always positive definite on SPD input."""
    t = _Transfer(_as_spd(a), _as_spd(b))
    return SpdMatrix._exact(_congruence(t.m, _spectrum_powers(t.w, [nu])[0]))


def harmonic_mean(a, b, nu: float) -> SpdMatrix:
    """A !_nu B; raises DomainError when the resolvent is not positive definite."""
    a, b = _as_spd(a), _as_spd(b)
    w, q = _eigh_array((1.0 - nu) * a.power(-1.0).a + nu * b.power(-1.0).a)
    if w[0] <= 0.0:
        raise DomainError(
            f"harmonic resolvent not positive definite (lambda_min = {w[0]:.6e})"
        )
    return SpdMatrix._assemble(w ** -1.0, q)


def _require_loewner_leq(a: SpdMatrix, b: SpdMatrix) -> None:
    verdict = loewner_leq(a, b, LOEWNER_REL_TOL)
    if not verdict.holds:
        raise DomainError(
            f"precondition A <= B fails (witness {verdict.witness_eigenvalue:.3e})"
        )


def _power_refinement(t: _Transfer, nu: float, depth: int, shift: float = 0.0):
    """The convex refinement of v |-> w^{shift+v} over the spectrum w of X,
    anchored at 0 for nu >= 0 and at 1 for nu <= -1, with its closed-form
    drop. Every power of w is checked by ``_spectrum_powers``."""
    log_w, anchor = np.log(t.w), "a" if weight_branch(nu) > 0 else "b"
    e, log_r = (0.0, log_w) if anchor == "a" else (1.0, -log_w)
    fe = _spectrum_powers(t.w, [shift + e])[0]
    return _convex_refinement(
        lambda vs: list(_spectrum_powers(t.w, [shift + v for v in vs])), 0.0, 1.0, nu, depth,
        anchor, _power_drop(fe, log_r, depth, np.expm1),
    )


def operator_reverse_chain(a, b, nu: float, depth: int) -> OperatorChain:
    """Operator version of the reverse Young refinement.

    Ascending (Loewner) chain [A nabla_{-nu} B, refined, A #_{-nu} B]: the
    convex refinement of v |-> w^v on the spectrum w of A^{-1/2} B A^{-1/2},
    anchored at 0 for nu >= 0 and at 1 for nu <= -1, pushed back by
    congruence. For nu >= 0 the refinement adds
    sum_j 2^{j-1} nu (A - 2 A#_{2^-j}B + A#_{2^{1-j}}B); for nu <= -1 it adds
    -sum_j 2^{j-1}(1+nu) (B - 2 A#_{1-2^-j}B + A#_{1-2^{1-j}}B).
    """
    depth = _check_depth(depth)
    t = _Transfer(_as_spd(a), _as_spd(b))
    values = _power_refinement(t, nu, depth)
    return OperatorChain(("arith", "refined", "geom"), tuple(map(t.push, values)))


def operator_squared_chain(a, b, nu: float, depth: int) -> OperatorChain:
    """Operator version of the squared reverse Young refinement.

    nu >= 0 branch (ascending):

        (1+nu)(A nabla_{-nu} B)
        <= same + sum_j 2^j nu (A + A#_{2^{1-j}}B - 2 A#_{2^-j}B)
        <= A#_{-2nu}B + nu^2 (A - B) + nu B

    nu <= -1 branch (ascending): with S_j = B A^{-1} B - 2 A#_{2-2^-j}B
    + A#_{2-2^{1-j}}B,

        2(1+nu) B <= 2(1+nu) (B - sum_j 2^{j-1} S_j)
                  <= A#_{-2nu}B + (1+2nu) B A^{-1} B.

    Each sum is twice the refinement term of a power functional of the
    spectrum w of X: of w^v anchored at 0, or of w^{1+v} anchored at 1.
    """
    branch = weight_branch(nu)
    depth = _check_depth(depth)
    t = _Transfer(_as_spd(a), _as_spd(b))
    w = t.w
    secant, refined, _ = _power_refinement(t, nu, depth, 0.0 if branch > 0 else 1.0)
    if branch > 0:
        label, base, extra = "scaled_arith", (1.0 + nu) * secant, nu ** 2 * (1.0 - w) + nu * w
    else:
        label, base, extra = "scaled_b", 2.0 * (1.0 + nu) * w, (1.0 + 2.0 * nu) * w ** 2
    target = _spectrum_powers(w, [-2.0 * nu])[0] + extra
    values = (base, base + 2.0 * (refined - secant), target)
    return OperatorChain((label, "refined", "target"), tuple(map(t.push, values)))


def harmonic_operator_chain(a, b, nu: float, depth: int) -> OperatorChain:
    """Refined reverse arithmetic-harmonic operator inequality; needs A <= B.

    Ascending chain [A nabla_{-nu} B, refined, A !_{-nu} B] for nu >= 0 with
    refinement sum_j 2^j nu (A nabla (A !_{2^{1-j}} B) - A !_{2^-j} B): the
    convex refinement, anchored at 0, of v |-> (1 - v + v/w)^{-1} on the
    spectrum w of A^{-1/2} B A^{-1/2}, pushed back by congruence. That is
    harm_mean(1, w, v), with the drop of ``scalar.harmonic_reverse_chain``.
    """
    a, b = _as_spd(a), _as_spd(b)
    if nu < 0.0:
        raise DomainError("harmonic_operator_chain requires nu >= 0")
    depth = _check_depth(depth)
    _require_loewner_leq(a, b)
    t = _Transfer(a, b)

    def h(v):
        d = (1.0 - v) + v / t.w
        if np.min(d) <= 0.0:
            raise DomainError("harmonic resolvent not positive on the spectrum")
        return 1.0 / d

    ch = (1.0 - t.w) / t.w / 2.0 ** depth
    values = _convex_refinement(
        lambda vs: [h(v) for v in vs], 0.0, 1.0, nu, depth, "a", ch / (1.0 + ch)
    )
    return OperatorChain(("arith", "refined", "harm"), tuple(map(t.push, values)))


def kantorovich_operator_chain(a, b, nu: float) -> OperatorChain:
    """Kantorovich-weighted reverse geometric-harmonic operator bound; A <= B.

    Two-element ascending chain [L, A !_{-nu} B] where L is the Hermitian
    congruence form of (A #_{-nu} B) ((B^{-1}A + 2I + A^{-1}B)/4)^{nu}:
    with X = A^{-1/2} B A^{-1/2},

        L = A^{1/2} ((I + X^{-1})/2)^{2 nu} A^{1/2}.

    B^{-1}A + A^{-1}B is similar to X + X^{-1}, which is positive definite,
    so the chain needs no hypothesis beyond A <= B.
    """
    a, b = _as_spd(a), _as_spd(b)
    if nu < 0.0:
        raise DomainError("kantorovich_operator_chain requires nu >= 0")
    _require_loewner_leq(a, b)
    t = _Transfer(a, b)
    w = t.w
    lo = ((1.0 + 1.0 / w) / 2.0) ** (2.0 * nu)
    d = (1.0 + nu) - nu / w
    if np.min(d) <= 0.0:
        raise DomainError("harmonic resolvent not positive on the spectrum")
    return OperatorChain(
        ("geom_kantorovich", "harm"), (t.push(lo), t.push(1.0 / d))
    )


# ---------------------------------------------------------------------------
# Trace chains.

def _tr(m: np.ndarray) -> float:
    return float(np.trace(m).real)


def _traces(a: SpdMatrix, b: SpdMatrix):
    """v |-> tr(A^{1-v} B^v) = sum_jk wa_j^{1-v} |C_jk|^2 wb_k^v on a list of
    weights, with C = Qa* Qb: a sum of nonnegative terms, free of
    cancellation, and each value independent of the other weights."""
    c2 = np.abs(_overlap(a, b)) ** 2
    return lambda vs: _graded(a, b, c2, [1.0 - v for v in vs], vs).sum(axis=(1, 2)).tolist()


def trace_additive_chain(a, b, nu: float, depth: int) -> ScalarChain:
    """Additive trace refinement chain for nu >= 0.

    [tr((1+nu)A - nu B),
     same + sum_j 2^{j-1} nu tr(A + A^{1-2^{1-j}} B^{2^{1-j}} - 2 A^{1-2^-j} B^{2^-j}),
     tr(A^{1+nu} B^{-nu})]: the convex refinement, anchored at 0, of
    v |-> tr(A^{1-v} B^v).
    """
    a, b = _as_spd(a), _as_spd(b)
    if nu < 0.0:
        raise DomainError("trace_additive_chain requires nu >= 0")
    depth = _check_depth(depth)
    values = _convex_refinement(_traces(a, b), 0.0, 1.0, nu, depth, "a")
    return ScalarChain(("arith", "refined", "target"), values)


def trace_multiplicative_chain(a, b, nu: float, depth: int) -> ScalarChain:
    """Multiplicative trace refinement chain for nu >= 0.

    [tr(A)^{1+nu} tr(B)^{-nu}, same * product, tr(A^{1+nu} B^{-nu})]: the
    log-convex refinement, anchored at 0, of v |-> tr(A^{1-v} B^v). Its
    factors sqrt(tr(A) tr(A^{1-2^{1-j}} B^{2^{1-j}})) / tr(A^{1-2^-j} B^{2^-j})
    are all >= 1 and are accumulated in the log domain.
    """
    a, b = _as_spd(a), _as_spd(b)
    if nu < 0.0:
        raise DomainError("trace_multiplicative_chain requires nu >= 0")
    depth = _check_depth(depth)
    values = _logconvex_refinement(_traces(a, b), 0.0, 1.0, nu, depth, "a")
    return ScalarChain(("power", "refined", "target"), values)


def trace_depth1_chain(a, b, nu: float) -> ScalarChain:
    """Depth-1 trace specializations, merged into one ascending chain.

    [tr((1+nu)A - nu B) + nu (sqrt(tr A) - sqrt(tr B))^2,
     tr((1+nu)A - nu B) + nu tr(A + B - 2 sqrt(A) sqrt(B)),
     tr(A^{1+nu} B^{-nu}),
     tr|A^{1+nu} B^{-nu}|]

    The first step holds because tr(sqrt(A) sqrt(B)) <= sqrt(tr A tr B), the
    second is the depth-1 additive chain, and the last is the triangle
    inequality for the trace against the Schatten-1 norm of the product.
    """
    a, b = _as_spd(a), _as_spd(b)
    if nu < 0.0:
        raise DomainError("trace_depth1_chain requires nu >= 0")
    base = (1.0 + nu) * _tr(a.a) - nu * _tr(b.a)
    v0 = base + nu * (np.sqrt(_tr(a.a)) - np.sqrt(_tr(b.a))) ** 2
    roots, v2 = _traces(a, b)([0.5, -nu])
    v1 = base + nu * (_tr(a.a) + _tr(b.a) - 2.0 * roots)
    # The singular values of the unitarily equivalent diag(wa^{1+nu}) C diag(wb^{-nu}).
    v3 = float(np.sum(singular_values(_graded(a, b, _overlap(a, b), [1.0 + nu], [-nu])[0])))
    return ScalarChain(
        ("trace_split", "sqrt_cross", "trace_power", "abs_trace_power"),
        (float(v0), float(v1), v2, v3),
    )
