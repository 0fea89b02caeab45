"""Scalar means, convexity refinements, and reverse-inequality chains.

The central objects are ascending chains of real numbers: each operation
returns a ``ScalarChain`` whose consecutive values realize a proved
inequality, with a dyadic refinement term sandwiched between a classical
bound and its target. Weights ``nu`` live in the two admissible branches
``nu >= 0`` and ``nu <= -1``. The refinement depth N counts dyadic levels,
but the sum over the levels telescopes, so every refinement is computed from
four values of its functional; N is capped at 32 so 2**N and the last dyadic
point stay exact.

Each input has one rule, here, and a public function checks it once: a
weight's branch (``_check_weight``, which NaN and +-inf fail and whose
message names the entry point, the branch and the weight), a depth
(``_check_depth``) and an integer parameter, such as a config's counts or
a Ky Fan k (``_check_int``). Each raises DomainError.

The two refinements of the paper, for a convex and for a log-convex f
(``_convex_refinement``, ``_logconvex_refinement``), are pure functions of
those four values: the caller evaluates f at the points of ``_ladder``, the
one place that computes them, and passes the values. Every chain here and
every chain of ``means`` and ``norms`` that refines a functional does so; a
grid of (nu, depth) values goes through ``_refinement_points`` (through
``_refinements``, for a functional given as a callback), which checks each
depth and weight once, gives the grid's distinct points to read in one call
and refines per grid value.

All powers x**p * y**q are evaluated as exp(p*log x + q*log y) to avoid
overflow at large weights. Where a value still leaves the float range (a
weight of 1e300, say), the public functions raise DomainError, as they do
for every other input they cannot evaluate; a log-domain value that
underflows to 0 raises too, since it would make its bound vacuous.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError

RealFunction = Callable[[float], float]

MAX_REFINE_DEPTH = 32

#: Fixed catalog of convex test functions f: R -> R used by the harness.
#: ``neg_log_shifted`` is convex on (-100, oo), which contains every point
#: the default generators can produce.
CONVEX_CATALOG: tuple[tuple[str, RealFunction], ...] = (
    ("square", lambda t: t * t),
    ("exp", math.exp),
    ("abs_cubed", lambda t: abs(t) ** 3),
    ("relu_squared", lambda t: max(t, 0.0) ** 2),
    ("neg_log_shifted", lambda t: -math.log(t + 100.0)),
)

#: Fixed catalog of positive log-convex test functions with values that stay
#: finite on |t| <= 85 (the widest range the default generators reach).
LOGCONVEX_CATALOG: tuple[tuple[str, RealFunction], ...] = (
    ("exp", math.exp),
    ("cosh", math.cosh),
    ("exp_square_64", lambda t: math.exp(t * t / 64.0)),
    ("exp_abs", lambda t: math.exp(abs(t))),
)


@dataclass(frozen=True)
class ScalarChain:
    """Labeled values whose claimed ordering is values[0] <= ... <= values[-1]."""

    labels: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.values) or len(self.values) < 2:
            raise DomainError("chain needs matching labels/values, length >= 2")
        if not all(math.isfinite(v) for v in self.values):
            raise DomainError(f"chain values must be finite: {self.values}")

    def value(self, label: str) -> float:
        return self.values[self.labels.index(label)]


def _overflow_is_domain_error(fn):
    """Raise DomainError where ``fn`` overflows: ``math.exp`` and float
    powers raise OverflowError there (sums and products give inf, which
    ``ScalarChain`` rejects)."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise DomainError(f"{fn.__name__}: a value overflows ({exc})") from exc

    return checked


def _feval(f: RealFunction, t: float) -> float:
    """f(t), which must be finite. A catalog function taken outside its
    domain (``math.log`` of a negative number) raises ValueError: that is a
    DomainError that names t."""
    try:
        v = float(f(t))
    except ValueError as exc:
        raise DomainError(f"function is undefined at t={t} ({exc})") from exc
    if not math.isfinite(v):
        raise DomainError(f"function evaluated to a non-finite value at t={t}")
    return v


def _positive(name: str, *vals: float) -> None:
    for v in vals:
        if not (v > 0.0 and math.isfinite(v)):
            raise DomainError(f"{name} requires strictly positive finite arguments")


#: What each weight branch of ``_check_weight`` requires.
_BRANCH_TEXT = {1: "nu >= 0", -1: "nu <= -1", 0: "nu >= 0 or nu <= -1"}


def _check_weight(name: str, nu: float, branch: int = 0) -> int:
    """The one weight rule: a finite nu on ``branch`` (+1: nu >= 0, -1: nu
    <= -1, 0: either), else a DomainError naming the entry point ``name``,
    the branch, or finiteness for an infinite nu, and nu. Returns the branch
    nu is on, +1 or -1. Each side is a test that must hold, so a NaN fails
    both."""
    if branch >= 0 and 0.0 <= nu < math.inf:
        return 1
    if branch <= 0 and -math.inf < nu <= -1.0:
        return -1
    need = "a finite nu" if abs(nu) == math.inf else _BRANCH_TEXT[branch]
    raise DomainError(f"{name} requires {need}, got nu = {nu}")


def weight_branch(nu: float) -> int:
    """Classify a weight: +1 for nu >= 0, -1 for nu <= -1.

    A weight in the open gap (-1, 0), an infinite one, or NaN, is outside
    every reversed inequality here and raises DomainError (``_check_weight``).
    """
    return _check_weight("weight_branch", nu)


def _check_depth(depth: int) -> int:
    """The one depth rule: an integer in 1..32, as an int. A NaN or an
    infinite depth fails the range test before ``int`` sees it."""
    if not (1 <= depth <= MAX_REFINE_DEPTH and depth == int(depth)):
        raise DomainError(f"depth must be an integer in 1..{MAX_REFINE_DEPTH}, got {depth}")
    return int(depth)


def _check_int(value, field: str) -> int:
    """The one rule of an integer parameter: a finite integral number, as
    an int. A NaN or an infinite value fails before ``int`` sees it."""
    if not (abs(value) < math.inf and value == int(value)):
        raise DomainError(f"{field} must be an integer, got {value}")
    return int(value)


@_overflow_is_domain_error
def _power_drop(fe, log_r, depth, expm1=math.expm1):
    """f(e) - f(m_N) of v |-> f(e) r^{|v - e|} on [0, 1], without cancellation;
    ``expm1=np.expm1`` for arrays."""
    return -fe * expm1(log_r / 2.0 ** depth)


def _ladder(a, b, nu, depth, anchor) -> list:
    """The four points at which a refinement reads its functional:
    [a, b, (1+nu) a - nu b, m_N], with m_N = ((2^N - 1) e + o) / 2^N for the
    anchor e = a, o = b (``anchor='a'``) or e = b, o = a (``anchor='b'``)."""
    if anchor == "a":
        e, o = a, b
    elif anchor == "b":
        e, o = b, a
    else:
        raise DomainError(f"anchor must be 'a' or 'b', got {anchor!r}")
    p = 2.0 ** depth
    return [a, b, (1.0 + nu) * a - nu * b, ((p - 1.0) * e + o) / p]


def _convex_refinement(fs, a, b, nu, depth, anchor, drop=None):
    """The paper's refinement for a convex f: ``(secant, refined, target)``.

    With the anchor e = a and weight w = nu, or e = b and w = -(1+nu), the
    points m_j = ((2^j - 1) e + o) / 2^j run from the other end m_0 = o
    towards e, and secant = (1+nu) f(a) - nu f(b) is refined by the sum

        sum_{j=1..N} 2^j w [(f(e) + f(m_{j-1}))/2 - f(m_j)]
            = w [(f(o) - f(e)) + 2^N (f(e) - f(m_N))],

    which telescopes. It is computed in that form, with 2^N = (o - e) /
    (m_N - e) from the point m_N of ``_ladder``. ``fs`` holds f at the four
    points of ``_ladder(a, b, nu, depth, anchor)``, and target = f((1+nu) a
    - nu b) is returned as given. A functional with a closed form passes
    ``drop`` = f(e) - f(m_N), which a difference of values loses to
    cancellation. Values may be floats or ndarrays of one shape.
    """
    m = _ladder(a, b, nu, depth, anchor)[3]
    fa, fb, target, fm = fs
    if anchor == "a":
        e, o, weight, fe, fo = a, b, nu, fa, fb
    else:
        e, o, weight, fe, fo = b, a, -(1.0 + nu), fb, fa
    if drop is None:
        drop = fe - fm
    secant = (1.0 + nu) * fa - nu * fb
    return secant, secant + weight * ((fo - fe) + (o - e) / (m - e) * drop), target


def _logconvex_refinement(fs, a, b, nu, depth, anchor, drop=None):
    """The paper's refinement for a positive log-convex f: ``(power, refined, target)``.

    The convex refinement of log f, exponentiated: power = f(a)^{1+nu}
    f(b)^{-nu} and refined = power * prod_j [sqrt(f(e) f(m_{j-1})) /
    f(m_j)]^{2^j w}; target = f((1+nu) a - nu b) as given. ``fs`` holds
    floats at the four points of ``_ladder``, as in ``_convex_refinement``;
    ``drop`` is log f(e) - log f(m_N).
    """
    fa, fb, target, fm = fs
    _positive("log-convex chain", fa, fb, fm)
    log_power, log_refined, target = _convex_refinement(
        [math.log(fa), math.log(fb), target, math.log(fm)], a, b, nu, depth, anchor, drop
    )
    return _exp_of_log(log_power), _exp_of_log(log_refined), target


def _refinement_points(name, grid, anchor=None) -> tuple:
    """``(points, refinements)`` of the chain ``name`` at each (nu, depth) of
    ``grid``: the distinct points of the grid's ladders (``_ladder``), in
    order of appearance, and ``refinements(refine, values)``, which gives
    ``refine(fs, 0, 1, nu, depth, anchor)`` at each grid value, ``fs`` read
    from the ``values`` at those points. The lookup is by the ladders' own
    point objects, so a NaN finds its value. Each grid value is checked
    here, once, for the chain ``name``: its weight (``_check_weight``: nu >=
    0 for a chain with an ``anchor``, else either branch, anchored at 0 for
    nu >= 0 and at 1 for nu <= -1), then its depth."""
    specs = []
    for nu, depth in grid:
        branch = _check_weight(name, nu, 1 if anchor else 0)
        specs.append((nu, _check_depth(depth), anchor or ("a" if branch > 0 else "b")))
    ladders = [_ladder(0.0, 1.0, *spec) for spec in specs]
    index: dict = {}
    for points in ladders:
        for p in points:
            index.setdefault(p, len(index))

    def refinements(refine, values) -> list:
        return [
            refine([values[index[p]] for p in points], 0.0, 1.0, *spec)
            for spec, points in zip(specs, ladders)
        ]

    return list(index), refinements


def _refinements(name, refine, values, grid, anchor=None) -> list:
    """``refine(fs, 0, 1, nu, depth, anchor)`` of a functional at each
    (nu, depth) of ``grid``, with ``fs`` its values at the four points of
    ``_ladder``, read from one ``values(points)`` call on the distinct points
    of the whole grid (``_refinement_points``, which checks the grid). A
    ``refine`` of array values ignores numpy's overflow warning itself,
    since the chain's finiteness check names one."""
    points, refinements = _refinement_points(name, grid, anchor)
    return refinements(refine, values(points))


def _exp_of_log(log_value: float) -> float:
    """exp of a value accumulated in the log domain. Where it leaves the
    float range it raises DomainError, naming an overflow or an underflow:
    a value that underflows to 0.0 would make its bound vacuous."""
    try:
        value = math.exp(log_value)
    except OverflowError as exc:
        raise DomainError(f"exp({log_value:g}) overflows") from exc
    if value == 0.0:
        raise DomainError(f"exp({log_value:g}) underflows to 0")
    return value


@_overflow_is_domain_error
def convex_refined_chain(
    f: RealFunction, a: float, b: float, nu: float, depth: int, anchor: str = "a"
) -> ScalarChain:
    """Refined secant bound for a convex function outside the chord interval.

    For convex f, a < b and admissible ``nu``, the secant extrapolation
    ``(1+nu) f(a) - nu f(b)`` bounds ``f((1+nu) a - nu b)`` from below. The
    refined bound adds the telescoping dyadic midpoint gaps

        sum_{j=1..depth} 2^j w [ (f(e) + f(m_{j-1}))/2 - f(m_j) ]

    with the midpoint ladder anchored at ``a`` (weight w = nu, sharper for
    nu >= 0) or at ``b`` (weight w = -(1+nu), sharper for nu <= -1). The
    returned chain is ascending in both branches: the weaker of
    {secant, refined} comes first, the extrapolated value f((1+nu)a - nu b)
    last.
    """
    if not a < b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    branch = _check_weight("convex_refined_chain", nu)
    depth = _check_depth(depth)
    fs = [_feval(f, p) for p in _ladder(a, b, nu, depth, anchor)]
    secant, refined, target = _convex_refinement(fs, a, b, nu, depth, anchor)
    refined_first = branch < 0 if anchor == "a" else branch > 0
    if refined_first:
        return ScalarChain(("refined", "secant", "target"), (refined, secant, target))
    return ScalarChain(("secant", "refined", "target"), (secant, refined, target))


@_overflow_is_domain_error
def logconvex_refined_chain(
    f: RealFunction, a: float, b: float, nu: float, depth: int, anchor: str = "a"
) -> ScalarChain:
    """Multiplicative refinement for positive log-convex functions.

    Chain: f(a)^{1+nu} f(b)^{-nu}  <=  same * prod_j factor_j  <=
    f((1+nu) a - nu b), where each factor
    sqrt(f(e) f(m_{j-1})) / f(m_j) >= 1 by log-convexity. ``anchor='a'``
    requires nu >= 0; ``anchor='b'`` requires nu <= -1 and uses exponents
    -2^j (1+nu). Products are accumulated in the log domain.
    """
    if not a < b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    depth = _check_depth(depth)
    _check_weight("logconvex_refined_chain", nu, {"a": 1, "b": -1}.get(anchor, 0))
    fs = [_feval(f, p) for p in _ladder(a, b, nu, depth, anchor)]
    return ScalarChain(
        ("power", "refined", "target"), _logconvex_refinement(fs, a, b, nu, depth, anchor)
    )


# ---------------------------------------------------------------------------
# Weighted scalar means.

def arith_mean(x: float, y: float, nu: float) -> float:
    """(1 - nu) x + nu y."""
    _positive("arith_mean", x, y)
    return (1.0 - nu) * x + nu * y


@_overflow_is_domain_error
def geom_mean(x: float, y: float, nu: float) -> float:
    """x^{1-nu} y^{nu}, evaluated as exp((1-nu) log x + nu log y)."""
    _positive("geom_mean", x, y)
    return math.exp((1.0 - nu) * math.log(x) + nu * math.log(y))


def harm_mean(x: float, y: float, nu: float) -> float:
    """((1-nu)/x + nu/y)^{-1}; requires a positive resolvent.

    The resolvent is automatically positive for 0 <= nu <= 1, and for
    nu <= 0 whenever x < y.
    """
    _positive("harm_mean", x, y)
    d = (1.0 - nu) / x + nu / y
    if d <= 0.0:
        raise DomainError(f"harmonic resolvent not positive: {d}")
    return 1.0 / d


# ---------------------------------------------------------------------------
# Reverse Young family.

@_overflow_is_domain_error
def young_reverse_chain(x: float, y: float, nu: float, depth: int) -> ScalarChain:
    """Refined reversal of the weighted arithmetic-geometric mean inequality.

    Ascending chain [(1+nu)x - nu y, refined, x^{1+nu} y^{-nu}]: the convex
    refinement of v |-> x^{1-v} y^v on [0, 1], anchored at 0 for nu >= 0
    and at 1 for nu <= -1. For nu >= 0 the refinement adds
    sum_j 2^{j-1} nu (sqrt(x) - (x^{2^{j-1}-1} y)^{1/2^j})^2; for nu <= -1 it
    adds -sum_j 2^{j-1}(1+nu) (sqrt(y) - (x y^{2^{j-1}-1})^{1/2^j})^2.
    """
    _positive("young_reverse_chain", x, y)
    depth = _check_depth(depth)
    lx, ly = math.log(x), math.log(y)
    branch = _check_weight("young_reverse_chain", nu)
    anchor, fe, log_r = ("a", x, ly - lx) if branch > 0 else ("b", y, lx - ly)
    drop = _power_drop(fe, log_r, depth)
    fs = [math.exp((1.0 - v) * lx + v * ly) for v in _ladder(0.0, 1.0, nu, depth, anchor)]
    values = _convex_refinement(fs, 0.0, 1.0, nu, depth, anchor, drop)
    return ScalarChain(("arith", "refined", "geom"), values)


@_overflow_is_domain_error
def young_squared_chain(x: float, y: float, nu: float, depth: int) -> ScalarChain:
    """Squared version of the reverse Young refinement (two-element chain).

    nu >= 0:  ((1+nu)x - nu y)^2 + sum_j 2^j nu (x - (x^{2^j-1} y)^{1/2^j})^2
              <= (x^{1+nu} y^{-nu})^2 + nu^2 (x-y)^2
    nu <= -1: mirrored with -2^j (1+nu) (y - (x y^{2^j-1})^{1/2^j})^2 on the
              left and (1+nu)^2 (x-y)^2 on the right.

    The sum is twice the refinement term of v |-> x x^{1-v} y^v (of
    y x^{1-v} y^v for nu <= -1): x (or y) times that of ``young_reverse_chain``.
    """
    _positive("young_squared_chain", x, y)
    branch = _check_weight("young_squared_chain", nu)
    arith, refined, geom = young_reverse_chain(x, y, nu, depth).values
    scale, coef = (x, nu) if branch > 0 else (y, 1.0 + nu)
    lhs = arith ** 2 + 2.0 * scale * (refined - arith)
    return ScalarChain(("refined", "target"), (lhs, geom ** 2 + coef ** 2 * (x - y) ** 2))


@_overflow_is_domain_error
def young_refinement_chain(x: float, y: float, t: float, depth: int) -> ScalarChain:
    """Refinement of the forward Young inequality x^t y^{1-t} <= t x + (1-t) y.

    Two-element ascending chain [refined left side, t x + (1-t) y] for
    0 < t <= 1. With g = x^t y^{1-t} the left side is g + (1-t) y (1 -
    (x/y)^{t/2})^2 + (1-t) g sum_{j=2..depth} 2^{j-1} (1 - (y/x)^{t/2^j})^2.
    Its middle term is the j = 1 term of the sum, so the left side is g plus
    the reverse Young refinement term of (g, y) at weight 1 - t.
    """
    _positive("young_refinement_chain", x, y)
    if not (0.0 < t <= 1.0):
        raise DomainError(f"need 0 < t <= 1, got t={t}")
    g = math.exp(t * math.log(x) + (1.0 - t) * math.log(y))
    arith, refined, _ = young_reverse_chain(g, y, 1.0 - t, depth).values
    return ScalarChain(("refined", "arith"), (g + (refined - arith), t * x + (1.0 - t) * y))


# ---------------------------------------------------------------------------
# Harmonic mean family (0 < x < y throughout).

def _check_ordered(x: float, y: float) -> None:
    _positive("harmonic family", x, y)
    if not x < y:
        raise DomainError(f"need 0 < x < y, got x={x}, y={y}")


def harmonic_reverse_chain(x: float, y: float, nu: float, depth: int) -> ScalarChain:
    """Refined reverse arithmetic-harmonic inequality for extended weights.

    Ascending chain [(1+nu)x - nu y, refined, harm_mean(x, y, -nu)] for
    0 < x < y and nu >= 0: the convex refinement, anchored at 0, of
    v |-> harm_mean(x, y, v), which is convex on (-oo, 1]. It adds

        sum_j 2^j nu [ (x + harm(2^{1-j}))/2 - harm(2^{-j}) ].

    With harm(v) = x / (1 + c v), c = (x - y)/y, the drop x - harm(h) at
    h = 2^-depth is x c h / (1 + c h).
    """
    _check_ordered(x, y)
    _check_weight("harmonic_reverse_chain", nu, 1)
    depth = _check_depth(depth)
    ch = (x - y) / y / 2.0 ** depth
    fs = [harm_mean(x, y, v) for v in _ladder(0.0, 1.0, nu, depth, "a")]
    values = _convex_refinement(fs, 0.0, 1.0, nu, depth, "a", x * ch / (1.0 + ch))
    return ScalarChain(("arith", "refined", "harm"), values)


@_overflow_is_domain_error
def harmonic_geometric_chain(x: float, y: float, nu: float, depth: int) -> ScalarChain:
    """Refined reverse geometric-harmonic inequality for extended weights.

    Ascending chain [x^{1+nu} y^{-nu}, same * prod_j factor_j^{2^j nu},
    harm_mean(x, y, -nu)] with factor_j = sqrt(x * harm(2^{1-j})) / harm(2^{-j}):
    the log-convex refinement, anchored at 0, of v |-> harm_mean(x, y, v),
    which is log-convex on (-oo, 1]; its log drop is log1p(c h).
    """
    _check_ordered(x, y)
    _check_weight("harmonic_geometric_chain", nu, 1)
    depth = _check_depth(depth)
    fs = [harm_mean(x, y, v) for v in _ladder(0.0, 1.0, nu, depth, "a")]
    values = _logconvex_refinement(
        fs, 0.0, 1.0, nu, depth, "a", math.log1p((x - y) / y / 2.0 ** depth)
    )
    return ScalarChain(("geom", "refined", "harm"), values)


@_overflow_is_domain_error
def kantorovich_constant(t: float) -> float:
    """K(t) = (t+1)^2 / (4t) for t > 0; K(1) = 1 and K(t) = K(1/t)."""
    if not t > 0.0:
        raise DomainError(f"Kantorovich constant needs t > 0, got {t}")
    return (t + 1.0) ** 2 / (4.0 * t)


@_overflow_is_domain_error
def kantorovich_chain(x: float, y: float, nu: float) -> ScalarChain:
    """Kantorovich-weighted reverse geometric-harmonic bound.

    Two-element ascending chain
    [x^{1+nu} y^{-nu} * K(y/x)^nu, harm_mean(x, y, -nu)] for 0 < x < y,
    nu >= 0. Equals the depth-1 harmonic_geometric_chain middle term because
    ((x + y) / (2 sqrt(x y)))^2 = K(y/x).
    """
    _check_ordered(x, y)
    _check_weight("kantorovich_chain", nu, 1)
    lx, ly = math.log(x), math.log(y)
    lhs = math.exp((1.0 + nu) * lx - nu * ly + nu * math.log(kantorovich_constant(y / x)))
    return ScalarChain(("geom_kantorovich", "harm"), (lhs, harm_mean(x, y, -nu)))
