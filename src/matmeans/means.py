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
by congruence with A^{1/2}. A chain is returned as that congruence and the
rows of values on the spectrum of X (``OperatorChain``); its matrices are
assembled only when read. Composing the public mean functions directly
gives the same matrices up to round-off; the tests cross-check both routes.

The geometric and harmonic means and every chain of a pair (A, B) here
read one spectral context of the pair (``_pair``): C = Qa* Qb and the
spectrum w of X with the transfer M = A^{1/2} Q, each computed on first
use. A context lives only as long as its call.

Each chain that a sweep varies in nu or depth is the grid of one of a
private grid form (``_operator_reverse_grid`` and so on). It builds one
context for the whole grid and hands its functional to the one grid driver,
``scalar._refinements``, which checks the grid's depths and weights, reads
the functional at the grid's distinct weights in one call (the refinement
telescopes to four: 0, 1, the target and m_N, from ``scalar._ladder``) and
passes each grid value's four values to the refinement kernel. Powers of
w come from ``linalg._spectrum_powers``, the resolvent's 1/r from
``_harmonic``. No overflow warns: the chain's finiteness check names it,
and an eigenvalue of X out of the float range is named where w is formed.
The chains share one ``linalg._Transfer``, so the gaps of a depth grid,
whose ends do not move, run one ``eigh``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DomainError
from .linalg import (
    HermitianMatrix,
    LOEWNER_REL_TOL,
    OperatorChain,
    SpdMatrix,
    _as_spd,
    _check_dims,
    _Transfer,
    _congruence,
    _finite,
    _freeze,
    _graded,
    _singular_values,
    _spectrum_powers,
    loewner_leq,
)
from .scalar import (
    ScalarChain,
    _check_weight,
    _convex_refinement,
    _logconvex_refinement,
    _power_drop,
    _refinements,
)


class _Pair:
    """Spectral context of a positive definite pair (A, B) for one call
    (``_pair``). Each field is computed on first use:

    * ``c`` = Qa* Qb, the eigenbasis of B seen from that of A;
    * ``w`` and ``m``: X = A^{-1/2} B A^{-1/2} = Q diag(w) Q*, pushed back as
      A^{1/2} f(X) A^{1/2} = M diag(f(w)) M* with the read-only
      M = A^{1/2} Q; an ``OperatorChain`` holds M's ``transfer`` and the
      rows f(w). In the recorded eigenbases of A and B, X = Qa G G* Qa*
      with the graded G = diag(wa^{-1/2}) C diag(wb^{1/2}) = P diag(s) V*,
      so w = s^2 and M = Qa diag(wa^{1/2}) P: no power of A or B is
      assembled, and the SVD of the graded G keeps the small end of the
      spectrum accurate relative to itself (Demmel & Veselic, SIAM J.
      Matrix Anal. Appl. 13(4), 1992).
    """

    def __init__(self, a: SpdMatrix, b: SpdMatrix):
        self.b, self.wa, self.qa = b, a.eig.eigenvalues, a.eig.eigenvectors

    @cached_property
    def c(self) -> np.ndarray:
        return self.qa.conj().T @ self.b.eig.eigenvectors

    def graded(self, y: np.ndarray, left, right) -> np.ndarray:
        """``linalg._graded`` of Y in the eigenbases of A and B."""
        return _graded(self.wa, self.b.eig.eigenvalues, y, left, right)

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, _Transfer]:
        # wa^{-1/2} and wb^{1/2} of G, then wa^{1/2} of M, from one call.
        left, right, root = _spectrum_powers(
            np.array([self.wa, self.b.eig.eigenvalues, self.wa]), [-0.5, 0.5, 0.5]
        )
        p, s, _ = _singular_values(self.c * left[:, None] * right, compute_uv=True)
        # The ends of s, squared in Python floats, name a w = s^2 out of the
        # float range before numpy squares (and warns).
        top, low = float(s[0]), float(s[-1])
        if top * top == np.inf:
            raise DomainError(f"eigenvalue of X overflows: lambda_max = {top:.6e}^2")
        if low * low == 0.0 < low:
            raise DomainError(f"eigenvalue of X underflows to 0: lambda_min = {low:.6e}^2")
        w = s[::-1] ** 2
        if w[0] <= 0.0:
            raise DomainError(f"matrix is not positive definite: lambda_min = {w[0]:.6e}")
        m = (self.qa * root) @ p[:, ::-1]
        return w, _Transfer(_freeze(m))

    @property
    def w(self) -> np.ndarray:
        return self._spectrum[0]

    @property
    def transfer(self) -> _Transfer:
        return self._spectrum[1]

    @property
    def m(self) -> np.ndarray:
        return self.transfer.m


def _pair(a: SpdMatrix, b: SpdMatrix) -> _Pair:
    """A new context of (A, B), once their dimensions match (``_check_dims``)."""
    _check_dims(a, b)
    return _Pair(a, b)


def _check_mean_weight(name: str, nu: float) -> None:
    """A mean's weight rule: any finite real nu, else a DomainError naming
    the mean ``name`` and nu. The means take every real weight, so the
    branch rule (``_check_weight``) does not apply."""
    if not math.isfinite(nu):
        raise DomainError(f"{name} requires a finite nu, got nu = {nu}")


def arithmetic_mean(a, b, nu: float) -> HermitianMatrix:
    """(1 - nu) A + nu B; may be indefinite for extended weights. Raises
    DomainError, with no numpy warning, for a NaN or infinite nu and where
    an entry leaves the float range."""
    _check_mean_weight("arithmetic_mean", nu)
    a, b = _as_spd(a), _as_spd(b)
    _check_dims(a, b)
    with np.errstate(over="ignore", invalid="ignore"):  # named below
        h = (1.0 - nu) * a.a + nu * b.a
    if not _finite(h):
        raise DomainError(f"arithmetic mean overflows at nu = {nu:g}: an entry is out of range")
    return HermitianMatrix(h)


def geometric_mean(a, b, nu: float) -> SpdMatrix:
    """A #_nu B for any finite real nu; always positive definite on SPD
    input. Raises DomainError for a NaN or infinite nu."""
    _check_mean_weight("geometric_mean", nu)
    t = _pair(_as_spd(a), _as_spd(b))
    return SpdMatrix._exact(_congruence(t.m, _spectrum_powers(t.w, [nu])[0]))


def _harmonic(w: np.ndarray, nu: float) -> np.ndarray:
    """1/r for r = (1 - nu) + nu/w on the spectrum w of X (``_pair``), the
    spectrum of A^{1/2} R A^{1/2} for the resolvent R = (1 - nu) A^{-1} +
    nu B^{-1}. Raises DomainError, with no numpy warning, when nu/w leaves
    the float range, and when r is not above a few rounding errors of its
    two terms (w carries one): there R is not positive definite, or neither
    the sign of r nor 1/r has a correct digit. For 0 <= nu <= 1 it always
    passes. Each term is scaled by 4 eps, a power of two, before the sum,
    so the bound is finite wherever r is."""
    with np.errstate(over="ignore"):  # named below
        ratio = nu / w
    r = (1.0 - nu) + ratio
    if not _finite(r):
        raise DomainError(f"harmonic resolvent overflows at nu = {nu:g}: nu / w is out of range")
    eps4 = 4.0 * np.finfo(float).eps
    if not (r > eps4 * abs(1.0 - nu) + eps4 * np.abs(ratio)).all():
        raise DomainError(f"harmonic resolvent not positive definite (min r = {r.min():.6e})")
    return 1.0 / r


def harmonic_mean(a, b, nu: float) -> SpdMatrix:
    """A !_nu B = M diag(1/r) M* with r = (1 - nu) + nu/w; raises
    DomainError, with no numpy warning, for a NaN or infinite nu, and
    where r overflows or R is not positive definite (``_harmonic``)."""
    _check_mean_weight("harmonic_mean", nu)
    t = _pair(_as_spd(a), _as_spd(b))
    return SpdMatrix._exact(_congruence(t.m, _harmonic(t.w, nu)))


def _require_loewner_leq(a: SpdMatrix, b: SpdMatrix) -> _Pair:
    """The context of (A, B), once A <= B holds."""
    pair = _pair(a, b)
    verdict = loewner_leq(a, b, LOEWNER_REL_TOL)
    if not verdict.holds:
        raise DomainError(f"precondition A <= B fails (witness {verdict.witness_eigenvalue:.3e})")
    return pair


def _power_refinements(name: str, t: _Pair, grid, shift: float = 0.0) -> list:
    """The convex refinement of v |-> w^{shift+v} over the spectrum w of X
    at each (nu, depth) of ``grid``, anchored at 0 for nu >= 0 and at 1 for
    nu <= -1, with its closed-form drop from f(e), the value at the anchor
    (``scalar._refinements``, which checks the grid for the chain ``name``).
    Every power of w comes from one ``_spectrum_powers`` call, which checks
    each."""
    log_w = np.log(t.w)

    def refine(fs, lo, hi, nu, depth, anchor):
        fe, log_r = (fs[0], log_w) if anchor == "a" else (fs[1], -log_w)
        with np.errstate(over="ignore", invalid="ignore"):  # the chain names an overflow
            drop = _power_drop(fe, log_r, depth, np.expm1)
            return _convex_refinement(fs, lo, hi, nu, depth, anchor, drop)

    powers = lambda vs: _spectrum_powers(t.w, [shift + v for v in vs])
    return _refinements(name, refine, powers, grid)


def operator_reverse_chain(a, b, nu: float, depth: int) -> OperatorChain:
    """Operator version of the reverse Young refinement.

    Ascending (Loewner) chain [A nabla_{-nu} B, refined, A #_{-nu} B]: the
    convex refinement of v |-> w^v on the spectrum w of A^{-1/2} B A^{-1/2},
    anchored at 0 for nu >= 0 and at 1 for nu <= -1, pushed back by
    congruence. For nu >= 0 the refinement adds
    sum_j 2^{j-1} nu (A - 2 A#_{2^-j}B + A#_{2^{1-j}}B); for nu <= -1 it adds
    -sum_j 2^{j-1}(1+nu) (B - 2 A#_{1-2^-j}B + A#_{1-2^{1-j}}B).
    """
    return _operator_reverse_grid(a, b, [(nu, depth)])[0]


def _operator_reverse_grid(a, b, grid) -> list[OperatorChain]:
    """``operator_reverse_chain`` at each (nu, depth) of ``grid``."""
    t = _pair(_as_spd(a), _as_spd(b))
    return [
        OperatorChain(("arith", "refined", "geom"), t.transfer, values)
        for values in _power_refinements("operator_reverse_chain", t, grid)
    ]


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
    return _operator_squared_grid(a, b, [(nu, depth)])[0]


def _operator_squared_grid(a, b, grid) -> list[OperatorChain]:
    """``operator_squared_chain`` at each (nu, depth) of ``grid``, on one
    weight branch: the refinement of w^v (of w^{1+v} for nu <= -1), then
    the targets' w^{-2 nu} in one more call, with no overflow warning."""
    branches = {_check_weight("operator_squared_chain", nu) for nu, _ in grid}
    if len(branches) > 1:
        raise DomainError("operator_squared_chain grid mixes the branches nu >= 0 and nu <= -1")
    t = _pair(_as_spd(a), _as_spd(b))
    w = t.w
    shift = 1.0 if -1 in branches else 0.0
    refinements = _power_refinements("operator_squared_chain", t, grid, shift)
    nus = list(dict.fromkeys(nu for nu, _ in grid))
    powers = dict(zip(nus, _spectrum_powers(w, [-2.0 * nu for nu in nus])))
    chains = []
    with np.errstate(over="ignore", invalid="ignore"):
        for (nu, _), (secant, refined, _) in zip(grid, refinements):
            if nu >= 0.0:
                # np.float64 powers with libm's bits of nu ** 2, but gives inf, not OverflowError.
                label, base = "scaled_arith", (1.0 + nu) * secant
                extra = np.float64(nu) ** 2 * (1.0 - w) + nu * w
            else:
                label, base, extra = "scaled_b", 2.0 * (1.0 + nu) * w, (1.0 + 2.0 * nu) * w ** 2
            values = (base, base + 2.0 * (refined - secant), powers[nu] + extra)
            chains.append(OperatorChain((label, "refined", "target"), t.transfer, values))
    return chains


def harmonic_operator_chain(a, b, nu: float, depth: int) -> OperatorChain:
    """Refined reverse arithmetic-harmonic operator inequality; needs A <= B.

    Ascending chain [A nabla_{-nu} B, refined, A !_{-nu} B] for nu >= 0 with
    refinement sum_j 2^j nu (A nabla (A !_{2^{1-j}} B) - A !_{2^-j} B): the
    convex refinement, anchored at 0, of v |-> (1 - v + v/w)^{-1} on the
    spectrum w of A^{-1/2} B A^{-1/2}, pushed back by congruence. That is
    harm_mean(1, w, v), with the drop of ``scalar.harmonic_reverse_chain``.
    """
    return _harmonic_operator_grid(a, b, [(nu, depth)])[0]


def _harmonic_operator_grid(a, b, grid) -> list[OperatorChain]:
    """``harmonic_operator_chain`` at each (nu, depth) of ``grid``."""
    t = _require_loewner_leq(_as_spd(a), _as_spd(b))

    def refine(fs, lo, hi, nu, depth, anchor):
        with np.errstate(over="ignore", invalid="ignore"):  # the chain names an overflow
            ch = (1.0 - t.w) / t.w / 2.0 ** depth
            return _convex_refinement(fs, lo, hi, nu, depth, anchor, ch / (1.0 + ch))

    harmonics = lambda vs: [_harmonic(t.w, v) for v in vs]
    return [
        OperatorChain(("arith", "refined", "harm"), t.transfer, values)
        for values in _refinements("harmonic_operator_chain", refine, harmonics, grid, "a")
    ]


def kantorovich_operator_chain(a, b, nu: float) -> OperatorChain:
    """Kantorovich-weighted reverse geometric-harmonic operator bound; A <= B.

    Two-element ascending chain [L, A !_{-nu} B] where L is the Hermitian
    congruence form of (A #_{-nu} B) ((B^{-1}A + 2I + A^{-1}B)/4)^{nu}:
    with X = A^{-1/2} B A^{-1/2},

        L = A^{1/2} ((I + X^{-1})/2)^{2 nu} A^{1/2}.

    B^{-1}A + A^{-1}B is similar to X + X^{-1}, which is positive definite,
    so the chain needs no hypothesis beyond A <= B. The base (1 + 1/w)/2
    is at most 1, so at a large nu its power underflows: that raises a
    DomainError (``_spectrum_powers``) rather than give a vacuous bound 0.
    """
    return _kantorovich_operator_grid(a, b, [nu])[0]


def _kantorovich_operator_grid(a, b, grid) -> list[OperatorChain]:
    """``kantorovich_operator_chain`` at each nu of ``grid``."""
    for nu in grid:
        _check_weight("kantorovich_operator_chain", nu, 1)
    t = _require_loewner_leq(_as_spd(a), _as_spd(b))
    w = t.w
    lows = _spectrum_powers((1.0 + 1.0 / w) / 2.0, [2.0 * nu for nu in grid])
    return [
        OperatorChain(("geom_kantorovich", "harm"), t.transfer, (lo, _harmonic(w, -nu)))
        for nu, lo in zip(grid, lows)
    ]


# ---------------------------------------------------------------------------
# Trace chains.

def _tr(m: np.ndarray) -> float:
    return float(np.trace(m).real)


def _traces(pair: _Pair):
    """v |-> tr(A^{1-v} B^v) = sum_jk wa_j^{1-v} |C_jk|^2 wb_k^v on a list of
    weights, with C = Qa* Qb: a sum of nonnegative terms, free of
    cancellation, and each value independent of the other weights."""
    c2 = np.abs(pair.c) ** 2
    return lambda vs: pair.graded(c2, [1.0 - v for v in vs], vs).sum(axis=(1, 2)).tolist()


def _trace_grid(name: str, labels, refine, a, b, grid) -> list[ScalarChain]:
    """The chain ``name`` at each (nu, depth) of ``grid``, nu >= 0:
    ``refine`` of v |-> tr(A^{1-v} B^v), anchored at 0, from one
    ``_traces`` call on the distinct weights of the whole grid."""
    traces = _traces(_pair(_as_spd(a), _as_spd(b)))
    return [ScalarChain(labels, v) for v in _refinements(name, refine, traces, grid, "a")]


def trace_additive_chain(a, b, nu: float, depth: int) -> ScalarChain:
    """Additive trace refinement chain for nu >= 0.

    [tr((1+nu)A - nu B),
     same + sum_j 2^{j-1} nu tr(A + A^{1-2^{1-j}} B^{2^{1-j}} - 2 A^{1-2^-j} B^{2^-j}),
     tr(A^{1+nu} B^{-nu})]: the convex refinement, anchored at 0, of
    v |-> tr(A^{1-v} B^v).
    """
    return _trace_additive_grid(a, b, [(nu, depth)])[0]


def _trace_additive_grid(a, b, grid) -> list[ScalarChain]:
    """``trace_additive_chain`` at each (nu, depth) of ``grid``."""
    return _trace_grid(
        "trace_additive_chain", ("arith", "refined", "target"), _convex_refinement, a, b, grid
    )


def trace_multiplicative_chain(a, b, nu: float, depth: int) -> ScalarChain:
    """Multiplicative trace refinement chain for nu >= 0.

    [tr(A)^{1+nu} tr(B)^{-nu}, same * product, tr(A^{1+nu} B^{-nu})]: the
    log-convex refinement, anchored at 0, of v |-> tr(A^{1-v} B^v). Its
    factors sqrt(tr(A) tr(A^{1-2^{1-j}} B^{2^{1-j}})) / tr(A^{1-2^-j} B^{2^-j})
    are all >= 1 and are accumulated in the log domain.
    """
    return _trace_multiplicative_grid(a, b, [(nu, depth)])[0]


def _trace_multiplicative_grid(a, b, grid) -> list[ScalarChain]:
    """``trace_multiplicative_chain`` at each (nu, depth) of ``grid``."""
    return _trace_grid(
        "trace_multiplicative_chain", ("power", "refined", "target"), _logconvex_refinement,
        a, b, grid,
    )


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
    return _trace_depth1_grid(a, b, [nu])[0]


def _trace_depth1_grid(a, b, grid) -> list[ScalarChain]:
    """``trace_depth1_chain`` at each nu of ``grid``: one ``_traces`` call
    and one SVD stack for the whole grid."""
    for nu in grid:
        _check_weight("trace_depth1_chain", nu, 1)
    a, b = _as_spd(a), _as_spd(b)
    pair = _pair(a, b)
    tr_a, tr_b = _tr(a.a), _tr(b.a)
    roots, *targets = _traces(pair)([0.5] + [-nu for nu in grid])
    # The singular values of the unitarily equivalent diag(wa^{1+nu}) C diag(wb^{-nu}).
    sigma = _singular_values(pair.graded(pair.c, [1.0 + nu for nu in grid], [-nu for nu in grid]))
    chains = []
    for nu, v2, s in zip(grid, targets, sigma):
        base = (1.0 + nu) * tr_a - nu * tr_b
        v0 = base + nu * (np.sqrt(tr_a) - np.sqrt(tr_b)) ** 2
        v1 = base + nu * (tr_a + tr_b - 2.0 * roots)
        chains.append(ScalarChain(
            ("trace_split", "sqrt_cross", "trace_power", "abs_trace_power"),
            (float(v0), float(v1), v2, float(np.sum(s))),
        ))
    return chains
