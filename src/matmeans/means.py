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

The geometric mean and every chain of a pair (A, B) here read one spectral
context of the pair (``_pair``): C = Qa* Qb and |C|^2, the spectrum w of X
with the transfer M = A^{1/2} Q, and, for the chains that need A <= B, the
verdict of that check. Each field is computed on first use and kept on A
for its last partner B, as ``eig`` is kept on a matrix; a call with another
B replaces the context. So a sweep, which rebuilds the chains of one drawn
pair at every grid value, pays the SVD and the Loewner check once per pair.

The context also keeps, for its last call only, what a sweep asks again at
the next grid value: the rows w^t of that call's exponents (``powers``:
the refinement's four weights, with the squared chain's target), and,
through M's ``linalg._Transfer``, the column norms of M that the sweep
gain reads and the last v_k - v_0 -> lambda_max of the gap. A depth sweep
moves only the refinement's last point, so it powers one new row per grid
value, and the gap's congruence and ``eigh`` run once per pair. A kept
value has the bits a fresh evaluation gives, and a context is stored only
once it is fully built. It holds B and arrays, never A: it makes no
reference cycle, and it dies with A.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError
from .linalg import (
    HermitianMatrix,
    LOEWNER_REL_TOL,
    OperatorChain,
    SpdMatrix,
    _as_spd,
    _Transfer,
    _congruence,
    _eigh_array,
    _freeze,
    _keep,
    _recall,
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


class _Pair:
    """Spectral context of a positive definite pair (A, B), kept on A for
    its last partner B (``_pair``). Each field is computed on first use; a
    field whose computation raises is not kept, so it raises again.

    * ``c`` = Qa* Qb, the eigenbasis of B seen from that of A, and
      ``c2`` = |C|^2 entrywise;
    * ``w`` and ``m``: X = A^{-1/2} B A^{-1/2} = Q diag(w) Q*, pushed back as
      A^{1/2} f(X) A^{1/2} = M diag(f(w)) M* with the read-only
      M = A^{1/2} Q; an ``OperatorChain`` holds M's ``transfer`` and the
      rows f(w). In the recorded eigenbases of A and B, X = Qa G G* Qa*
      with the graded G = diag(wa^{-1/2}) C diag(wb^{1/2}) = P diag(s) V*,
      so w = s^2 and M = Qa diag(wa^{1/2}) P: no power of A or B is
      assembled, and the SVD of the graded G keeps the small end of the
      spectrum accurate relative to itself (Demmel & Veselic, SIAM J.
      Matrix Anal. Appl. 13(4), 1992);
    * ``leq``: the verdict of A <= B, set by ``_require_loewner_leq``;
    * the exponents and rows of the last ``powers`` call.
    """

    def __init__(self, a: SpdMatrix, b: SpdMatrix):
        self.b, self.wa, self.qa = b, a.eig.eigenvalues, a.eig.eigenvectors
        self.held = (b,)  # what the context refers to (``_keep``)
        self.leq = None
        self._powers = None

    @cached_property
    def c(self) -> np.ndarray:
        return self.qa.conj().T @ self.b.eig.eigenvectors

    @cached_property
    def c2(self) -> np.ndarray:
        return np.abs(self.c) ** 2

    def graded(self, y: np.ndarray, left, right) -> np.ndarray:
        """``norms._graded`` of Y in the eigenbases of A and B."""
        return _graded(self.wa, self.b.eig.eigenvalues, y, left, right)

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, _Transfer]:
        try:
            p, s, _ = np.linalg.svd(self.graded(self.c, [-0.5], [0.5])[0])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"LAPACK SVD did not converge: {exc}") from exc
        w = s[::-1] ** 2
        if w[0] <= 0.0:
            raise DomainError(f"matrix is not positive definite: lambda_min = {w[0]:.6e}")
        m = (self.qa * _spectrum_powers(self.wa, [0.5])[0]) @ p[:, ::-1]
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

    def powers(self, ts: list) -> np.ndarray:
        """The read-only rows ``_spectrum_powers(w, ts)``, computing only the
        exponents that the last call did not have (``_recall``); ``ts`` is
        kept as given, so callers pass a list they do not change."""
        rows = _freeze(_recall(self._powers, ts, lambda todo: _spectrum_powers(self.w, todo)))
        self._powers = ts, rows
        return rows


def _pair(a: SpdMatrix, b: SpdMatrix) -> _Pair:
    """The context of (A, B): the one kept on A if its partner is this B,
    else a new one, which replaces it. A new context is not kept where it
    would close a reference cycle (``_keep``): for B = A, or for a B that
    keeps a context holding A."""
    pair = a.__dict__.get("_pair")
    if pair is None or pair.b is not b:
        if a.n != b.n:
            raise DomainError(f"dimension mismatch: {a.n} vs {b.n}")
        pair = _Pair(a, b)
        _keep(a, "_pair", pair)
    return pair


def arithmetic_mean(a, b, nu: float) -> HermitianMatrix:
    """(1 - nu) A + nu B; may be indefinite for extended weights."""
    a, b = _as_spd(a), _as_spd(b)
    return HermitianMatrix((1.0 - nu) * a.a + nu * b.a)


def geometric_mean(a, b, nu: float) -> SpdMatrix:
    """A #_nu B for any real nu; always positive definite on SPD input."""
    t = _pair(_as_spd(a), _as_spd(b))
    return SpdMatrix._exact(_congruence(t.m, t.powers([nu])[0]))


def harmonic_mean(a, b, nu: float) -> SpdMatrix:
    """A !_nu B; raises DomainError when the resolvent is not positive definite."""
    a, b = _as_spd(a), _as_spd(b)
    w, q = _eigh_array((1.0 - nu) * a.power(-1.0).a + nu * b.power(-1.0).a)
    if w[0] <= 0.0:
        raise DomainError(
            f"harmonic resolvent not positive definite (lambda_min = {w[0]:.6e})"
        )
    return SpdMatrix._assemble(w ** -1.0, q)


def _require_loewner_leq(a: SpdMatrix, b: SpdMatrix) -> _Pair:
    """The context of (A, B), once A <= B holds; its verdict is kept there."""
    pair = _pair(a, b)
    if pair.leq is None:
        pair.leq = loewner_leq(a, b, LOEWNER_REL_TOL)
    if not pair.leq.holds:
        raise DomainError(
            f"precondition A <= B fails (witness {pair.leq.witness_eigenvalue:.3e})"
        )
    return pair


def _power_refinement(t: _Pair, nu: float, depth: int, shift: float = 0.0, more=()):
    """The convex refinement of v |-> w^{shift+v} over the spectrum w of X,
    anchored at 0 for nu >= 0 and at 1 for nu <= -1, with its closed-form
    drop from the f(e) of its one ``powers`` call, which checks every power
    of w. The rows w^t at the exponents ``more`` come from the same call,
    after the chain's three values."""
    log_w = np.log(t.w)
    anchor, log_r = ("a", log_w) if weight_branch(nu) > 0 else ("b", -log_w)
    rows = []

    def values(vs):
        rows.extend(t.powers([shift + v for v in vs] + list(more)))
        return rows[:len(vs)]

    chain = _convex_refinement(
        values, 0.0, 1.0, nu, depth, anchor, lambda fe: _power_drop(fe, log_r, depth, np.expm1)
    )
    return (*chain, *rows[4:])


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
    t = _pair(_as_spd(a), _as_spd(b))
    return OperatorChain(("arith", "refined", "geom"), t.transfer, _power_refinement(t, nu, depth))


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
    t = _pair(_as_spd(a), _as_spd(b))
    w = t.w
    secant, refined, _, power = _power_refinement(
        t, nu, depth, 0.0 if branch > 0 else 1.0, [-2.0 * nu]
    )
    if branch > 0:
        label, base, extra = "scaled_arith", (1.0 + nu) * secant, nu ** 2 * (1.0 - w) + nu * w
    else:
        label, base, extra = "scaled_b", 2.0 * (1.0 + nu) * w, (1.0 + 2.0 * nu) * w ** 2
    values = (base, base + 2.0 * (refined - secant), power + extra)
    return OperatorChain((label, "refined", "target"), t.transfer, values)


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
    t = _require_loewner_leq(a, b)

    def h(v):
        d = (1.0 - v) + v / t.w
        if np.min(d) <= 0.0:
            raise DomainError("harmonic resolvent not positive on the spectrum")
        return 1.0 / d

    ch = (1.0 - t.w) / t.w / 2.0 ** depth
    values = _convex_refinement(
        lambda vs: [h(v) for v in vs], 0.0, 1.0, nu, depth, "a", ch / (1.0 + ch)
    )
    return OperatorChain(("arith", "refined", "harm"), t.transfer, values)


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
    a, b = _as_spd(a), _as_spd(b)
    if nu < 0.0:
        raise DomainError("kantorovich_operator_chain requires nu >= 0")
    t = _require_loewner_leq(a, b)
    w = t.w
    lo = _spectrum_powers((1.0 + 1.0 / w) / 2.0, [2.0 * nu])[0]
    d = (1.0 + nu) - nu / w
    if np.min(d) <= 0.0:
        raise DomainError("harmonic resolvent not positive on the spectrum")
    return OperatorChain(("geom_kantorovich", "harm"), t.transfer, (lo, 1.0 / d))


# ---------------------------------------------------------------------------
# Trace chains.

def _tr(m: np.ndarray) -> float:
    return float(np.trace(m).real)


def _traces(a: SpdMatrix, b: SpdMatrix):
    """v |-> tr(A^{1-v} B^v) = sum_jk wa_j^{1-v} |C_jk|^2 wb_k^v on a list of
    weights, with C = Qa* Qb: a sum of nonnegative terms, free of
    cancellation, and each value independent of the other weights."""
    pair = _pair(a, b)
    return lambda vs: pair.graded(pair.c2, [1.0 - v for v in vs], vs).sum(axis=(1, 2)).tolist()


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
    pair = _pair(a, b)
    v3 = float(np.sum(singular_values(pair.graded(pair.c, [1.0 + nu], [-nu])[0])))
    return ScalarChain(
        ("trace_split", "sqrt_cross", "trace_power", "abs_trace_power"),
        (float(v0), float(v1), v2, v3),
    )
