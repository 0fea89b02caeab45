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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import HermitianMatrix, _arr, _as_spd
from .reporting import ChainReport, aggregate_report
from .scalar import ScalarChain, _check_depth, young_reverse_chain


@dataclass(frozen=True)
class NormKind:
    """A unitarily invariant norm: family 'schatten' (p >= 1) or 'kyfan' (k >= 1)."""

    family: str
    param: float

    def __post_init__(self):
        if self.family == "schatten":
            if not self.param >= 1.0:
                raise DomainError(f"Schatten norm needs p >= 1, got {self.param}")
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

    def of_sigma(self, sigma: np.ndarray) -> float:
        if self.family == "schatten":
            p = self.param
            if p == 1.0:
                return float(np.sum(sigma))
            if p == 2.0:
                return float(np.sqrt(np.sum(sigma * sigma)))
            return float(np.sum(sigma ** p) ** (1.0 / p))
        k = min(int(self.param), sigma.shape[0])  # k > n clamps to n
        return float(np.sum(sigma[:k]))

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


def singular_values(x) -> np.ndarray:
    """Singular values, descending: square roots of the spectrum of X*X."""
    a = _arr(x)
    gram = HermitianMatrix(a.conj().T @ a)
    w = np.maximum(gram.eig.eigenvalues, 0.0)
    return np.sqrt(w)[::-1]


def ui_norm(x, kind: NormKind) -> float:
    """Evaluate a unitarily invariant norm on a square complex matrix."""
    return kind.of_sigma(singular_values(x))


def norm_functional(a, b, x, nu: float, kind: NormKind) -> float:
    """||A^{1-nu} X B^{nu}||; log-convex as a function of nu."""
    a, b = _as_spd(a), _as_spd(b)
    return ui_norm(a.power(1.0 - nu).a @ _arr(x) @ b.power(nu).a, kind)


def norm_reverse_chain(a, b, x, nu: float, depth: int, kind: NormKind) -> ScalarChain:
    """Refined reversal for the norm functional f(v) = ||A^{1-v} X B^v||.

    Ascending chain [f(0)^{1+nu} f(1)^{-nu}, same * product, ||A^{1+nu} X B^{-nu}||]
    where the nu >= 0 branch multiplies factors
    (sqrt(f(0) f(2^{1-j})) / f(2^-j))^{2^j nu} and the nu <= -1 branch uses
    the mirrored factors with exponents -2^j (nu + 1). Products are
    accumulated in the log domain.
    """
    a, b = _as_spd(a), _as_spd(b)
    depth = _check_depth(depth)
    xa = _arr(x)

    @functools.cache
    def f(v: float) -> float:
        val = ui_norm(a.power(1.0 - v).a @ xa @ b.power(v).a, kind)
        if not val > 0.0:
            raise DomainError("norm functional vanished; X must be nonzero")
        return val

    if nu >= 0.0:
        anchor_log = math.log(f(0.0))
        points = [(2.0 ** (1 - j), 2.0 ** -j) for j in range(1, depth + 1)]
        exponents = [2.0 ** j * nu for j in range(1, depth + 1)]
    elif nu <= -1.0:
        anchor_log = math.log(f(1.0))
        points = [(1.0 - 2.0 ** (1 - j), 1.0 - 2.0 ** -j) for j in range(1, depth + 1)]
        exponents = [-(2.0 ** j) * (nu + 1.0) for j in range(1, depth + 1)]
    else:
        raise DomainError(f"weight nu={nu} must satisfy nu >= 0 or nu <= -1")
    log_power = (1.0 + nu) * math.log(f(0.0)) - nu * math.log(f(1.0))
    log_prod = 0.0
    for (prev, cur), e in zip(points, exponents):
        log_prod += e * (0.5 * (anchor_log + math.log(f(prev))) - math.log(f(cur)))
    return ScalarChain(
        ("power", "refined", "target"),
        (math.exp(log_power), math.exp(log_power + log_prod), f(-nu)),
    )


def norm_heinz_chain(a, b, x, nu: float, depth: int, kind: NormKind) -> ScalarChain:
    """Refined reversal for g(v) = ||A^{1-v} X B^{1-v}|| at weight nu >= 0.

    Ascending chain [||AXB||^{1+nu} ||X||^{-nu}, same * product,
    ||A^{1+nu} X B^{1+nu}||] with factors
    (sqrt(||AXB|| ||A^{1-2^{1-j}} X B^{1-2^{1-j}}||) / ||A^{1-2^-j} X B^{1-2^-j}||)^{2^j nu}.
    """
    a, b = _as_spd(a), _as_spd(b)
    if nu < 0.0:
        raise DomainError("norm_heinz_chain requires nu >= 0")
    depth = _check_depth(depth)
    xa = _arr(x)

    @functools.cache
    def g(v: float) -> float:
        val = ui_norm(a.power(1.0 - v).a @ xa @ b.power(1.0 - v).a, kind)
        if not val > 0.0:
            raise DomainError("norm functional vanished; X must be nonzero")
        return val

    log_power = (1.0 + nu) * math.log(g(0.0)) - nu * math.log(g(1.0))
    log_prod = 0.0
    for j in range(1, depth + 1):
        log_prod += 2.0 ** j * nu * (
            0.5 * (math.log(g(0.0)) + math.log(g(2.0 ** (1 - j)))) - math.log(g(2.0 ** -j))
        )
    return ScalarChain(
        ("power", "refined", "target"),
        (math.exp(log_power), math.exp(log_power + log_prod), g(-nu)),
    )


def combined_norm_chain(a, b, x, nu: float, depth: int, kind: NormKind) -> ScalarChain:
    """Five-term chain joining the scalar reverse-Young refinement in the
    scalars ||AX||, ||XB|| to the norm-functional refinement; nu >= 0.

    [ (1+nu)||AX|| - nu||XB||, scalar refined, ||AX||^{1+nu}||XB||^{-nu},
      product refined, ||A^{1+nu} X B^{-nu}|| ].
    """
    a, b = _as_spd(a), _as_spd(b)
    if nu < 0.0:
        raise DomainError("combined_norm_chain requires nu >= 0")
    xa = _arr(x)
    fa = ui_norm(a.a @ xa, kind)
    fb = ui_norm(xa @ b.a, kind)
    scalar_part = young_reverse_chain(fa, fb, nu, depth)
    norm_part = norm_reverse_chain(a, b, x, nu, depth, kind)
    return ScalarChain(
        ("arith", "scalar_refined", "power", "refined", "target"),
        (
            scalar_part.values[0],
            scalar_part.values[1],
            norm_part.values[0],
            norm_part.values[1],
            norm_part.values[2],
        ),
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
    xa = _arr(x)
    t = abs(nu - 0.5)
    lo, hi = 0.5 - t, 0.5 + t
    m = a.power(lo).a @ xa @ b.power(hi).a + a.power(hi).a @ xa @ b.power(lo).a
    return ui_norm(m, kind)


def heinz_reverse_chain(a, b, x, nu: float, depth: int, kind: NormKind) -> ScalarChain:
    """Reversed Heinz inequality with dyadic refinement, for nu >= 0.

    With f the Heinz functional, the chain is
    [||AX + XB||, same + sum_j 2^j nu ((f(0) + f(2^{1-j}))/2 - f(2^-j)), f(-nu)],
    ascending because f is convex on the whole line and f(0) = f(1).
    """
    a, b = _as_spd(a), _as_spd(b)
    if nu < 0.0:
        raise DomainError("heinz_reverse_chain requires nu >= 0")
    depth = _check_depth(depth)

    @functools.cache
    def f(v: float) -> float:
        return heinz_norm(a, b, x, v, kind)

    base = f(0.0)
    total = 0.0
    for j in range(1, depth + 1):
        total += 2.0 ** j * nu * ((base + f(2.0 ** (1 - j))) / 2.0 - f(2.0 ** -j))
    return ScalarChain(("sum_norm", "refined", "target"), (base, base + total, f(-nu)))


def heinz_pq_chain(a, b, x, p: float, q: float, kind: NormKind) -> ScalarChain:
    """||A^{p-q} X + X B^{p-q}|| <= ||A^p X B^{-q} + A^{-q} X B^p|| for 0 < q < p."""
    a, b = _as_spd(a), _as_spd(b)
    if not (0.0 < q < p):
        raise DomainError(f"need 0 < q < p, got p={p}, q={q}")
    xa = _arr(x)
    d = a.power(p - q).a @ xa + xa @ b.power(p - q).a
    full = a.power(p).a @ xa @ b.power(-q).a + a.power(-q).a @ xa @ b.power(p).a
    return ScalarChain(("split", "full"), (ui_norm(d, kind), ui_norm(full, kind)))


def heinz_interpolated_value(a, b, x, p: float, q: float, r: float, kind: NormKind) -> float:
    """||A^{p-r} X B^{-q+r} + A^{-q+r} X B^{p-r}||."""
    a, b = _as_spd(a), _as_spd(b)
    xa = _arr(x)
    m = (
        a.power(p - r).a @ xa @ b.power(-q + r).a
        + a.power(-q + r).a @ xa @ b.power(p - r).a
    )
    return ui_norm(m, kind)


def heinz_interpolated_chain(a, b, x, p: float, q: float, r: float, kind: NormKind) -> ScalarChain:
    """Interpolated comparison for 0 < r < q < p (ascending two-term chain)."""
    if not (0.0 < r < q < p):
        raise DomainError(f"need 0 < r < q < p, got p={p}, q={q}, r={r}")
    return ScalarChain(
        ("interpolated", "full"),
        (
            heinz_interpolated_value(a, b, x, p, q, r, kind),
            heinz_interpolated_value(a, b, x, p, q, 0.0, kind),
        ),
    )


def heinz_interpolation_values(a, b, x, p: float, q: float, rs, kind: NormKind) -> np.ndarray:
    """Evaluate r |-> ||A^{p-r} X B^{-q+r} + A^{-q+r} X B^{p-r}|| on a grid.

    For 0 < q < p and 0 <= r <= q the sequence is nonincreasing in r.
    """
    if not (0.0 < q < p):
        raise DomainError(f"need 0 < q < p, got p={p}, q={q}")
    return np.array([heinz_interpolated_value(a, b, x, p, q, float(r), kind) for r in rs])


def heinz_midpoint_margin(a, b, x, v1: float, v2: float, kind: NormKind) -> float:
    """Normalized midpoint-convexity margin of the Heinz functional f.

    ((f(v1) + f(v2))/2 - f((v1+v2)/2)) / max(1, both sides); nonnegative
    because f is convex on the whole line.
    """
    mid = heinz_norm(a, b, x, (v1 + v2) / 2.0, kind)
    avg = (heinz_norm(a, b, x, v1, kind) + heinz_norm(a, b, x, v2, kind)) / 2.0
    return (avg - mid) / max(1.0, avg, mid)


def heinz_grid_margins(a, b, x, kind: NormKind, grid_points: int = 81):
    """Monotonicity margins of the Heinz functional f on an even grid over [-3, 4].

    Returns ``(margins, vals)``: ``vals`` is f on the grid, and ``margins``
    holds the steps f(v_i) - f(v_{i+1}) left of 1/2 (f nonincreasing) then
    f(v_{i+1}) - f(v_i) right of it (f nondecreasing), divided by
    max(1, max f). Every margin is nonnegative.
    """
    grid = np.linspace(-3.0, 4.0, grid_points)
    vals = np.array([heinz_norm(a, b, x, float(v), kind) for v in grid])
    scale = max(1.0, float(vals.max()))
    split = int(np.argmin(np.abs(grid - 0.5)))
    down = (vals[:split] - vals[1 : split + 1]) / scale
    up = (vals[split + 1 :] - vals[split:-1]) / scale
    return np.concatenate([down, up]), vals


def heinz_shape_report(
    a,
    b,
    x,
    kind: NormKind,
    pairs: int = 100,
    seed: int = 0,
    grid_points: int = 81,
    rel_tol: float = 1e-8,
) -> ChainReport:
    """Sample-based convexity and monotonicity check of the Heinz functional.

    Verifies midpoint convexity f((v1+v2)/2) <= (f(v1)+f(v2))/2 on ``pairs``
    random weight pairs in [-3, 4], and that f is nonincreasing on [-3, 1/2]
    and nondecreasing on [1/2, 4] along a fixed grid. Each check contributes
    one normalized margin; the report counts margins below ``-rel_tol`` as
    failures.
    """
    a, b = _as_spd(a), _as_spd(b)
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(pairs):
        v1, v2 = rng.uniform(-3.0, 4.0, size=2)
        rows.append(np.array([heinz_midpoint_margin(a, b, x, float(v1), float(v2), kind)]))
    margins, vals = heinz_grid_margins(a, b, x, kind, grid_points)
    rows.append(margins)
    return aggregate_report(
        "heinz_shape", rows, gaps=[float(vals.max() - vals.min())], rel_tol=rel_tol
    )
