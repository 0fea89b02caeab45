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
invariance, so no power of A or B is assembled. A functional's weights
make one kernel request (a, b, x, left, right, kind, paired), and the
kernel, ``_stacked_norms``, evaluates a list of them: per n, pairing and
run of at most ``_MAX_ROWS`` graded matrices, one stacked Y = Qa* X Qb,
one stacked power of the spectra, one in-place add of a paired run's
second halves onto its first halves, one SVD and one
``NormKind.of_sigma`` call per kind. The graded stack and the SVD are the
spectral kernels of ``linalg`` (``_graded``, ``_singular_values``), which
``means`` shares. Every step works matrix by matrix or row by row, so a
value does not depend on the other weights or requests of its stack.

A function that needs norms yields its request and is sent the values
(``_batchable``). Every request goes through one runner, ``_run_all``:
called, such a function is the one run of a ``_run_all`` call, as
``heinz_norm`` is; its ``steps`` form lets the harness run the builds of
a part of a block in one ``_run_all`` call, whose kernel call per round
evaluates all their requests (a plain build's result is kept as it is).
Every public functional of (A, B, X) checks its operands once, on entry
(``_operands``): A and B positive definite of one n, and X an n x n
matrix (``linalg._check_dims``); the kernel does not check them again.

A chain that a sweep varies in nu or depth is the grid of one of a private
grid form (``_norm_reverse_grid`` and so on). It reads the grid's
distinct weights (0, 1, each target and each m_N) from
``scalar._refinement_points``, which checks the grid, makes one kernel
request for them, and passes each grid value's four values to the
refinement kernel. Nothing is kept between calls.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import GeneratorType

import numpy as np

from .errors import DomainError
from .linalg import _arr, _as_spd, _check_dims, _graded, _singular_values
from .scalar import (
    ScalarChain,
    _check_int,
    _convex_refinement,
    _logconvex_refinement,
    _refinement_points,
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
                # The power and the sums work element by element and row by
                # row, so they have each row's own bits. The 1/p roots are
                # taken per row in Python floats, by libm's pow, as numpy's
                # float64 scalar power takes them: numpy's array power can
                # differ from that in the last bit.
                sums = total(sigma ** p, axis=-1)
                root = 1.0 / p
                out = np.array([s ** root for s in sums.ravel().tolist()]).reshape(sums.shape)
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


def singular_values(x) -> np.ndarray:
    """Singular values, descending, by LAPACK's SVD."""
    a = _arr(x)
    if a.ndim != 2:
        raise DomainError(f"expected a matrix, got shape {a.shape}")
    return _singular_values(a)


def ui_norm(x, kind: NormKind) -> float:
    """Evaluate a unitarily invariant norm on a square complex matrix."""
    return kind.of_sigma(singular_values(x))


# The kernel. A request is a tuple (a, b, x, left, right, kind, paired): A
# and B positive definite and X an n x n array, checked once (``_operands``),
# two lists of exponents of one length, a norm kind, and whether the
# exponent pairs come in two halves to sum.

def _operands(a, b, x) -> tuple:
    """(A, B, X) of a public functional, checked once: A and B positive
    definite, X an n x n array (``linalg._check_dims``)."""
    a, b = _as_spd(a), _as_spd(b)
    return a, b, _check_dims(a, b, x)


#: The most graded matrices one kernel call stacks: the requests of one n
#: and one pairing go in runs of at most this many rows (a longer request
#: alone), so a call's memory stays bounded whatever its block and its grid.
_MAX_ROWS = 512


def _stacked_norms(requests) -> list[np.ndarray]:
    """The values of each request, in order: ||A^{l_i} X B^{r_i}|| for each
    exponent pair (l_i, r_i) or, ``paired``, ||A^{l_i} X B^{r_i} +
    A^{l_{k+i}} X B^{r_{k+i}}|| for 2k pairs.

    The requests of one n and one pairing go in runs of at most
    ``_MAX_ROWS`` rows, and those of a run share one stacked Y = Qa* X Qb in
    the eigenbases of their A and B, one graded stack (``linalg._graded``,
    whose slices are unitarily equivalent to the products A^l X B^r), one
    SVD and one ``NormKind.of_sigma`` call per kind. Every step works matrix
    by matrix or row by row, so a request's values are the ones it gets
    alone, bit for bit."""
    out = [None] * len(requests)
    runs: dict[tuple, tuple[int, list]] = {}  # (n, paired): (rows of its last run, its runs)
    for i, request in enumerate(requests):
        key, size = (len(request[2]), request[6]), len(request[3])
        rows, chunks = runs.get(key, (0, []))
        if not chunks or rows + size > _MAX_ROWS:
            chunks.append([])
            rows = 0
        chunks[-1].append(i)
        runs[key] = (rows + size, chunks)
    for _, chunks in runs.values():
        for chunk in chunks:
            for i, values in zip(chunk, _norms_of_run([requests[i] for i in chunk])):
                out[i] = values
    return out


def _norms_of_run(group) -> list[np.ndarray]:
    """``_stacked_norms`` of one run of requests of one n and one pairing,
    in order. The graded stack holds the slices of each request in turn;
    in a paired run, the first halves of every request, then their second
    halves, which one in-place add sums onto the first halves. Each row's
    norm is its own, so the rows of each distinct kind take one
    ``NormKind.of_sigma`` call, whatever the run."""
    a, b, x, left, right, kinds, paired = zip(*group)
    halves = 2 if paired[0] else 1
    sizes = [len(ts) // halves for ts in left]
    picks = [(i, h * k, (h + 1) * k) for h in range(halves) for i, k in enumerate(sizes)]
    rows = np.repeat([i for i, _, _ in picks], [hi - lo for _, lo, hi in picks])
    qa = np.array([m.eig.eigenvectors for m in a]).conj().swapaxes(-1, -2)
    y = qa @ np.array(x) @ np.array([m.eig.eigenvectors for m in b])
    s = _graded(
        np.array([m.eig.eigenvalues for m in a])[rows],
        np.array([m.eig.eigenvalues for m in b])[rows],
        y[rows],
        [t for i, lo, hi in picks for t in left[i][lo:hi]],
        [t for i, lo, hi in picks for t in right[i][lo:hi]],
    )
    ends = list(itertools.accumulate(sizes, initial=0))
    stack = s[: ends[-1]]
    if halves == 2:
        stack += s[ends[-1] :]
    sigma = _singular_values(stack)
    spans = [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]
    values = np.empty(len(stack))
    for kind in dict.fromkeys(kinds):
        at = np.r_[tuple(span for span, k in zip(spans, kinds) if k == kind)]
        values[at] = kind.of_sigma(sigma[at])
    return [values[span] for span in spans]


def _run_all(runs: list) -> list:
    """The result of each run in ``runs``, in order. A run is either a
    generator that yields kernel requests and returns its result, or a
    result already (a build that needs no norm, or an exception), kept as
    it is. Each round sends every pending generator the values of its
    last request (at first None) and evaluates the requests they yield in
    one ``_stacked_norms`` call; a generator that raises leaves its
    exception as its result. Where the kernel call raises, the error of a
    call of one request is that request's; in a call of several, each
    request is evaluated alone. A request's error is thrown into its
    generator."""
    results = list(runs)
    pending = [(at, run, None) for at, run in enumerate(runs) if type(run) is GeneratorType]
    while pending:
        asked = []
        for at, run, values in pending:
            try:
                request = run.throw(values) if isinstance(values, Exception) else run.send(values)
            except StopIteration as done:
                results[at] = done.value
            except Exception as exc:  # the caller raises it in its run's place
                results[at] = exc
            else:
                asked.append((at, run, request))
        if not asked:
            break
        requests = [request for _, _, request in asked]
        try:
            answers = _stacked_norms(requests)
        except Exception as exc:
            answers = [exc] if len(requests) == 1 else [_alone(request) for request in requests]
        pending = [(at, run, values) for (at, run, _), values in zip(asked, answers)]
    return results


def _alone(request):
    """The values of one kernel request, or the exception it raises."""
    try:
        return _stacked_norms([request])[0]
    except Exception as exc:
        return exc


def _batchable(steps):
    """The function that runs the generator function ``steps`` alone, as
    the one run of a ``_run_all`` call, and returns its result or raises
    its error. Its ``steps`` attribute is the generator form, which the
    harness runs with those of the other instances of a part in one
    ``_run_all`` call, to the same bits."""

    @functools.wraps(steps)
    def run(*args, **kwargs):
        (result,) = _run_all([steps(*args, **kwargs)])
        if isinstance(result, Exception):
            raise result
        return result

    run.steps = steps
    return run


@_batchable
def _product_norms(a, b, x, left, right, kind: NormKind, paired: bool = False) -> np.ndarray:
    """The values of the one request (a, b, x, left, right, kind, paired)."""
    return (yield (a, b, x, left, right, kind, paired))


@_batchable
def _functional_values(a, b, x, vs, kind: NormKind) -> np.ndarray:
    """f(v) = ||A^{1-v} X B^v|| at every weight in ``vs``."""
    return (yield (a, b, x, [1.0 - v for v in vs], list(vs), kind, False))


@_batchable
def _two_sided_values(a, b, x, vs, kind: NormKind) -> np.ndarray:
    """g(v) = ||A^{1-v} X B^{1-v}|| at every weight in ``vs``."""
    ws = [1.0 - v for v in vs]
    return (yield (a, b, x, ws, ws, kind, False))


@_batchable
def _heinz_values(a, b, x, vs, kind: NormKind) -> np.ndarray:
    """The Heinz functional at every weight in ``vs`` (see ``heinz_norm``),
    at each distinct |v - 1/2| once: v and 1 - v share their exponents."""
    ts = [abs(float(v) - 0.5) for v in vs]
    index = {t: i for i, t in enumerate(dict.fromkeys(ts))}
    lo = [0.5 - t for t in index]
    hi = [0.5 + t for t in index]
    values = yield (a, b, x, lo + hi, hi + lo, kind, True)
    return values[[index[t] for t in ts]]


@_batchable
def _interpolated_values(a, b, x, p, q, rs, kind: NormKind) -> np.ndarray:
    """||A^{p-r} X B^{-q+r} + A^{-q+r} X B^{p-r}|| at every r in ``rs``."""
    rs = [float(r) for r in rs]
    left = [p - r for r in rs]
    right = [-q + r for r in rs]
    return (yield (a, b, x, left + right, right + left, kind, True))


def _functional_grid(name, labels, refine, functional, a, b, x, grid, kind, anchor=None):
    """The chain ``name`` at each (nu, depth) of ``grid``: ``refine`` of the
    ``_batchable`` ``functional``, read from one kernel request on the
    distinct weights of the whole grid; a generator, as ``functional.steps``
    is. With an ``anchor``, the chain needs nu >= 0; without one it takes
    both weight branches (``scalar._refinement_points`` checks the grid)."""
    a, b, x = _operands(a, b, x)
    points, refinements = _refinement_points(name, grid, anchor)
    values = yield from functional.steps(a, b, x, points, kind)
    return [ScalarChain(labels, v) for v in refinements(refine, values.tolist())]


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


@_batchable
def _norm_reverse_grid(a, b, x, grid, kind: NormKind) -> list[ScalarChain]:
    """``norm_reverse_chain`` at each (nu, depth) of ``grid``."""
    return (yield from _functional_grid(
        "norm_reverse_chain", ("power", "refined", "target"), _logconvex_refinement,
        _functional_values, a, b, x, grid, kind,
    ))


def norm_heinz_chain(a, b, x, nu: float, depth: int, kind: NormKind) -> ScalarChain:
    """Refined reversal for g(v) = ||A^{1-v} X B^{1-v}|| at weight nu >= 0.

    Ascending chain [||AXB||^{1+nu} ||X||^{-nu}, same * product,
    ||A^{1+nu} X B^{1+nu}||]: the log-convex refinement of g on [0, 1],
    anchored at 0, with factors
    (sqrt(||AXB|| ||A^{1-2^{1-j}} X B^{1-2^{1-j}}||) / ||A^{1-2^-j} X B^{1-2^-j}||)^{2^j nu}.
    """
    return _norm_heinz_grid(a, b, x, [(nu, depth)], kind)[0]


@_batchable
def _norm_heinz_grid(a, b, x, grid, kind: NormKind) -> list[ScalarChain]:
    """``norm_heinz_chain`` at each (nu, depth) of ``grid``."""
    return (yield from _functional_grid(
        "norm_heinz_chain", ("power", "refined", "target"), _logconvex_refinement,
        _two_sided_values, a, b, x, grid, kind, "a",
    ))


def combined_norm_chain(a, b, x, nu: float, depth: int, kind: NormKind) -> ScalarChain:
    """Five-term chain joining the scalar reverse-Young refinement in the
    scalars ||AX||, ||XB|| to the norm-functional refinement; nu >= 0.

    [ (1+nu)||AX|| - nu||XB||, scalar refined, ||AX||^{1+nu}||XB||^{-nu},
      product refined, ||A^{1+nu} X B^{-nu}|| ].

    One kernel call: ||AX|| and ||XB|| are f(0) and f(1) of the norm
    functional's own refinement (``norm_reverse_chain``, anchored at 0).
    """
    return _combined_norm_grid(a, b, x, [(nu, depth)], kind)[0]


@_batchable
def _combined_norm_grid(a, b, x, grid, kind: NormKind) -> list[ScalarChain]:
    """``combined_norm_chain`` at each (nu, depth) of ``grid``."""
    return (yield from _functional_grid(
        "combined_norm_chain", ("arith", "scalar_refined", "power", "refined", "target"),
        _combined_refinement, _functional_values, a, b, x, grid, kind, "a",
    ))


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


@_batchable
def _heinz_reverse_grid(a, b, x, grid, kind: NormKind) -> list[ScalarChain]:
    """``heinz_reverse_chain`` at each (nu, depth) of ``grid``."""
    return (yield from _functional_grid(
        "heinz_reverse_chain", ("sum_norm", "refined", "target"), _convex_refinement,
        _heinz_values, a, b, x, grid, kind, "a",
    ))


@_batchable
def heinz_pq_chain(a, b, x, p: float, q: float, kind: NormKind) -> ScalarChain:
    """||A^{p-q} X + X B^{p-q}|| <= ||A^p X B^{-q} + A^{-q} X B^p|| for 0 < q < p."""
    a, b, x = _operands(a, b, x)
    if not (0.0 < q < p):
        raise DomainError(f"need 0 < q < p, got p={p}, q={q}")
    # The interpolated values at r = q (-q + q is +0.0) and r = 0.
    values = yield from _interpolated_values.steps(a, b, x, p, q, [q, 0.0], kind)
    return ScalarChain(("split", "full"), tuple(values.tolist()))


@_batchable
def heinz_interpolated_chain(a, b, x, p: float, q: float, r: float, kind: NormKind) -> ScalarChain:
    """Interpolated comparison for 0 < r < q < p (ascending two-term chain)."""
    if not (0.0 < r < q < p):
        raise DomainError(f"need 0 < r < q < p, got p={p}, q={q}, r={r}")
    a, b, x = _operands(a, b, x)
    values = yield from _interpolated_values.steps(a, b, x, p, q, [r, 0.0], kind)
    return ScalarChain(("interpolated", "full"), tuple(values.tolist()))


@_batchable
def heinz_interpolation_values(a, b, x, p: float, q: float, rs, kind: NormKind) -> np.ndarray:
    """Evaluate r |-> ||A^{p-r} X B^{-q+r} + A^{-q+r} X B^{p-r}|| on a grid.

    For 0 < q < p and 0 <= r <= q the sequence is nonincreasing in r.
    """
    if not (0.0 < q < p):
        raise DomainError(f"need 0 < q < p, got p={p}, q={q}")
    a, b, x = _operands(a, b, x)
    return (yield from _interpolated_values.steps(a, b, x, p, q, rs, kind))


@_batchable
def heinz_midpoint_margin(a, b, x, v1: float, v2: float, kind: NormKind) -> float:
    """Normalized midpoint-convexity margin of the Heinz functional f.

    ((f(v1) + f(v2))/2 - f((v1+v2)/2)) / max(1, both sides); nonnegative
    because f is convex on the whole line.
    """
    a, b, x = _operands(a, b, x)
    mid, f1, f2 = (yield from _heinz_values.steps(a, b, x, [(v1 + v2) / 2.0, v1, v2], kind)).tolist()
    avg = (f1 + f2) / 2.0
    return (avg - mid) / max(1.0, avg, mid)


#: The number of even weights over [-3, 4] of ``heinz_grid_margins``.
_HEINZ_GRID_POINTS = 81


@_batchable
def heinz_grid_margins(a, b, x, kind: NormKind):
    """Monotonicity margins of the Heinz functional f on the even grid of
    ``_HEINZ_GRID_POINTS`` weights over [-3, 4].

    Returns ``(margins, vals)``: ``vals`` is f on the grid, and ``margins``
    holds the steps f(v_i) - f(v_{i+1}) left of 1/2 (f nonincreasing) then
    f(v_{i+1}) - f(v_i) right of it (f nondecreasing), divided by
    max(1, max f). Every margin is nonnegative.
    """
    a, b, x = _operands(a, b, x)
    grid = np.linspace(-3.0, 4.0, _HEINZ_GRID_POINTS)
    vals = yield from _heinz_values.steps(a, b, x, grid, kind)
    scale = max(1.0, float(vals.max()))
    split = int(np.argmin(np.abs(grid - 0.5)))
    down = (vals[:split] - vals[1 : split + 1]) / scale
    up = (vals[split + 1 :] - vals[split:-1]) / scale
    return np.concatenate([down, up]), vals
