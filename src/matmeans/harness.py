"""Randomized verification harness for every inequality chain in the package.

Each registered case is a draw and a build. ``draw(rng, cfg, cond)`` reads
every random number of one instance (its inputs, then nu, the depth or its
other parameters) and returns the build's keyword arguments and a payload
that replays them. The pure ``build(**args)`` evaluates an inequality chain
(checked link by link) or a vector of normalized margins (checked against
``-rel_tol``). Instances draw from a stream keyed by ``hash(seed, case
name, instance index)``, so runs are deterministic, order-insensitive, and
individual instances can be replayed. Every drawn instance is checked: a
case of ``instances`` instances builds indices ``0 .. instances - 1``, and
none is skipped.

Most cases follow the paper's pattern of a classical bound, a dyadic
refinement of depth N, then the target. Each of them is one row: an input
draw, a chain function, a weight branch and a base label (``_refinement``).
Identities, shape checks and the other margin cases have a draw and a build
of their own.

``run_case``, ``sweep`` and ``build_instance`` share one path,
``_instances``: draw each instance, assemble the SPD pairs of a block with
one QR and one assembly per dimension n, then pin a swept parameter in
copies of the drawn dicts and build. A build reads no random number, so a
pin cannot move a stream, and no stream state is saved or restored.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import means, norms, scalar
from .errors import DomainError
from .linalg import (
    ComplexMatrix,
    SpdMatrix,
    _assemble_spds,
    _draw_spds,
    matrix_to_json,
)
from .reporting import (
    ChainReport,
    _chain_row,
    _margin_verdicts,
    case_report,
    chain_gap,
    reports_to_csv,
)

__all__ = [
    "CaseConfig",
    "Built",
    "case_names",
    "case_description",
    "build_instance",
    "run_case",
    "run_suite",
    "sweep",
    "sweep_values",
    "reports_to_csv",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 20240811
MAX_FAILURE_FILES_PER_CASE = 25


@dataclass(frozen=True)
class CaseConfig:
    """Knobs shared by every case; cases override defaults, callers override cases.

    ``nu_range`` is the magnitude range of the weight: the nonnegative branch
    draws nu in [lo, hi], the other branch draws nu in [-1-hi, -1-lo].
    """

    instances: int = 200
    seed: int = DEFAULT_SEED
    dim_min: int = 2
    dim_max: int = 8
    cond_max: float = 100.0
    nu_range: tuple[float, float] = (0.0, 8.0)
    depth_min: int = 1
    depth_max: int = 8
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.instances < 1:
            raise DomainError("instances must be >= 1")
        if not 0.0 <= self.rel_tol < math.inf:  # NaN compares false; inf passes any non-NaN slack
            raise DomainError("rel_tol must be finite and >= 0")
        if not (1 <= self.dim_min <= self.dim_max):
            raise DomainError(f"bad dimension range {self.dim_min}..{self.dim_max}")
        if not self.cond_max >= 1.0:  # NaN compares false
            raise DomainError("cond_max must be >= 1")
        if self.cond_max == math.inf:
            raise DomainError("cond_max must be finite")
        if not (0.0 <= self.nu_range[0] <= self.nu_range[1]):
            raise DomainError(f"bad weight magnitude range {self.nu_range}")
        if self.nu_range[1] == math.inf:
            raise DomainError(f"weight magnitude range must be finite, got {self.nu_range}")
        if not (1 <= self.depth_min <= self.depth_max <= scalar.MAX_REFINE_DEPTH):
            raise DomainError(f"bad depth range {self.depth_min}..{self.depth_max}")


class Built:
    """One evaluated instance: a chain or a margins vector, plus replay data.

    Margin-style cases report normalized margins directly (pass at
    ``>= -rel_tol``); their "gap" is the largest margin, standing in for the
    end-to-end chain gap as the tightness measure. ``refined`` and ``base``
    are floats, or value rows of an ``OperatorChain``.

    A case's build evaluates the instance; the harness then puts the drawn
    parameters in ``drawn``, its matrices as they are. Reading ``payload``
    serializes them with ``matrix_to_json``. Only failure files serialize a
    payload, so an instance that passes never serializes its inputs.
    """

    def __init__(self, chain=None, margins=None, refined=None, base=None):
        self.chain = chain
        self.margins = margins
        self.refined = refined
        self.base = base
        self.drawn: dict = {}

    @property
    def payload(self) -> dict:
        """The replay parameters in the JSON form failure files carry."""
        return _payload_json(self.drawn)

    def gap(self) -> float:
        if self.margins is not None:
            return float(np.max(self.margins))
        return chain_gap(self.chain)

    def value_row(self) -> tuple:
        """``(decide, row)``: the instance's value row, its margins or its
        chain's (``reporting._chain_row``), and the block verdict of
        ``reporting`` that decides it with the other rows of its case."""
        if self.margins is not None:
            return _margin_verdicts, np.ravel(self.margins).tolist()
        return _chain_row(self.chain)

    def verdict(self) -> tuple[list[float], float]:
        """The slack row and the gap: the block verdict of this row alone."""
        decide, row = self.value_row()
        slacks, gaps = decide(np.array([row], dtype=np.float64))
        return slacks[0].tolist(), float(gaps[0])


def _payload_json(drawn: dict) -> dict:
    """Drawn parameters with their matrices serialized by ``matrix_to_json``."""
    return {
        key: matrix_to_json(v) if isinstance(v, (ComplexMatrix, np.ndarray)) else v
        for key, v in drawn.items()
    }


@dataclass(frozen=True)
class CaseDef:
    """A registered case: ``draw(rng, cfg, cond) -> (args, payload)`` reads
    every random number of one instance, and the pure ``build(**args)``
    evaluates it (see ``_instances``)."""

    name: str
    draw: Callable[[np.random.Generator, CaseConfig, float], tuple[dict, dict]]
    build: Callable[..., Built]
    overrides: dict
    sweep_params: tuple[str, ...]
    description: str
    nu_branch: int = 0  # +1: nu >= 0, -1: nu <= -1, 0: either


REGISTRY: dict[str, CaseDef] = {}


def _register(name, *, draw, build, nu_branch=0, overrides=None, sweep=(), description=""):
    REGISTRY[name] = CaseDef(
        name, draw, build, dict(overrides or {}), tuple(sweep), description, nu_branch
    )


def case_names() -> tuple[str, ...]:
    return tuple(REGISTRY)


def case_description(name: str) -> str:
    return _case(name).description


def _case(name: str) -> CaseDef:
    try:
        return REGISTRY[name]
    except KeyError:
        raise DomainError(f"unknown case {name!r}; known: {', '.join(REGISTRY)}") from None


def _config_for(case: CaseDef, overrides: dict) -> CaseConfig:
    return replace(CaseConfig(), **{**case.overrides, **overrides})


# numpy's SeedSequence mixing constants and PCG64's 128-bit LCG multiplier.
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK_128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """The running hash constant before each of ``steps`` hashmix calls and
    after the last, as a column that broadcasts over a block."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)[:, None]


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # 4 pool words, 12 cross mixes
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # 8 output words


def _hashmix(value: np.ndarray, consts: np.ndarray, k: int, count: int) -> np.ndarray:
    """hashmix calls ``k .. k+count-1`` of one SeedSequence, one per row."""
    v = (value ^ consts[k : k + count]) * consts[k + 1 : k + count + 1]
    return v ^ (v >> _XSHIFT)


def _seed_words(entropy: bytes) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, uint64)`` for each little-endian
    64-bit entropy ``e`` in ``entropy``, one row each.

    Reproduces SeedSequence's pool mixing on ``uint32`` arrays across the
    whole block. An entropy below 2^32 is one word to numpy and two here;
    the pool is the same, since a missing word hashes as 0.
    """
    pool = np.zeros((4, len(entropy) // 8), dtype=np.uint32)
    pool[:2] = np.frombuffer(entropy, dtype="<u4").reshape(-1, 2).T
    pool = _hashmix(pool, _HASH_A, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        h = _hashmix(pool[src], _HASH_A, 4 + 3 * src, 3)
        r = pool[dst] * _MIX_L - h * _MIX_R
        pool[dst] = r ^ (r >> _XSHIFT)
    words = _hashmix(np.concatenate([pool, pool]), _HASH_B, 0, 8)
    return np.ascontiguousarray(words.T).view("<u8")


def _entropy(seed: int, case_name: str, indices) -> bytes:
    """Each index's entropy, concatenated: the 64-bit blake2b digest of
    ``"seed:case_name:index"``, read little-endian."""
    prefix = f"{seed}:{case_name}:"
    blake2b = hashlib.blake2b
    return b"".join(blake2b(f"{prefix}{i}".encode(), digest_size=8).digest() for i in indices)


def _stream_states(seed: int, case_name: str, indices) -> np.ndarray:
    """The PCG64 seed words of each instance's stream, one row per index:
    those of ``instance_rng``. ``_seat`` starts the stream from the row."""
    return _seed_words(_entropy(seed, case_name, indices))


def _new_generator() -> np.random.Generator:
    """A Generator for ``_seat`` to point at instance streams (fixed seed:
    no OS entropy is drawn)."""
    return np.random.Generator(np.random.PCG64(0))


def _seat(rng: np.random.Generator, s0: int, s1: int, i0: int, i1: int):
    """Point ``rng`` at the start of the PCG64 stream seeded by the four
    words of a ``_stream_states`` row, as Python ints.

    PCG64's seeding step: ``inc = (i0:i1) << 1 | 1`` and
    ``state = ((s0:s1) + inc) * MULT + inc`` mod 2^128.
    """
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK_128
    state = (((s0 << 64 | s1) + inc) * _PCG_MULT + inc) & _MASK_128
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def instance_rng(seed: int, case_name: str, index: int) -> np.random.Generator:
    """Independent, platform-stable stream for one instance of one case:
    ``np.random.default_rng`` of the instance's ``_entropy``. ``run_case``
    and ``sweep`` seed the same streams a block at a time (``_seated``)."""
    return np.random.default_rng(int.from_bytes(_entropy(seed, case_name, [index]), "little"))


# ---------------------------------------------------------------------------
# Draws. A case's ``draw(rng, cfg, cond)`` reads every random number of one
# instance and returns the build's keyword arguments and the payload that
# replays them; ``cond`` bounds the condition number of its SPD matrices.

def _uniform(rng, lo, hi):
    """``rng.uniform(lo, hi)`` for float bounds, bit for bit and to the same
    stream position, without ``uniform``'s argument handling.

    numpy computes ``low + (high - low) * next_double``, one uint64 per
    value, and so does this from ``rng.random()``. The identity holds where
    numpy's C code does not fuse that multiply and add (no FMA: the x86-64
    wheels' baseline has none); ``tests/test_harness.py`` checks it on every
    range the harness draws from. numpy also rejects a non-finite ``high -
    low``; here ``CaseConfig`` keeps the weight range finite, and every
    other range is a constant.
    """
    return lo + (hi - lo) * rng.random()


def _draw_nu(rng, cfg, branch) -> float:
    lo, hi = cfg.nu_range
    mag = _uniform(rng, lo, hi)
    if branch == 0:
        branch = 1 if rng.integers(2) == 0 else -1
    return mag if branch > 0 else -1.0 - mag


def _draw_depth(rng, cfg) -> int:
    return int(rng.integers(cfg.depth_min, cfg.depth_max + 1))


def _draw_dim(rng, cfg, cap=None) -> int:
    hi = cfg.dim_max if cap is None else min(cfg.dim_max, cap)
    return int(rng.integers(cfg.dim_min, hi + 1))


def _loguniform(rng, log_lo, log_hi) -> float:
    """Log-uniform between exp(log_lo) and exp(log_hi); the bounds' logs are
    taken once, where the range is named (``_LOG_XY``)."""
    return float(np.exp(_uniform(rng, log_lo, log_hi)))


_LOG_XY = float(np.log(1e-3)), float(np.log(1e3))
_LOG_CURVATURE = float(np.log(0.5)), float(np.log(2.0))


def _with(drawn, **params):
    """Drawn ``(args, payload)`` with ``params`` added to both dicts."""
    args, payload = drawn
    args.update(params)
    payload.update(params)
    return args, payload


# The key under which a draw leaves its SPD pair, drawn but not yet
# assembled, for ``_assemble_pairs``.
_PAIR = "_pair"


def _spd_pair(rng, cfg, cond, cap=None, ordered=False):
    """Draw the inputs of two random SPD matrices: n, then each matrix's
    Gaussian and spectrum. Returns the args and the payload, whose "a" and
    "b" ``_assemble_pairs`` fills (A <= B when ``ordered``)."""
    n = _draw_dim(rng, cfg, cap)
    g, lam = _draw_spds(n, cond, rng, 2)
    return {_PAIR: (g, lam, ordered)}, {"a": None, "b": None, "cond": cond, "n": n}


def _assemble_pairs(drawn) -> None:
    """Assemble the SPD pairs of drawn ``(args, payload)`` inputs: one
    ``_assemble_spds`` per n over all of them, then the ordered B = A + B'.
    Puts A and B in the "a" and "b" entries of both dicts; inputs without a
    pair are left as they are."""
    groups: dict[int, list] = {}
    for args, payload in drawn:
        pair = args.pop(_PAIR, None)
        if pair is not None:
            groups.setdefault(pair[1].shape[-1], []).append((args, payload, pair))
    for group in groups.values():
        spds = _assemble_spds(
            np.concatenate([g for _, _, (g, _, _) in group]),
            np.concatenate([lam for _, _, (_, lam, _) in group]),
        )
        for (args, payload, (_, _, ordered)), a, b in zip(group, spds[::2], spds[1::2]):
            if ordered:
                b = SpdMatrix(a.a + b.a)  # B = A + SPD
            args["a"] = payload["a"] = a
            args["b"] = payload["b"] = b


def _catalog_inputs(catalog):
    def draw(rng, cfg, cond):
        fname, f = catalog[int(rng.integers(len(catalog)))]
        a = _uniform(rng, -5.0, 5.0)
        b = _uniform(rng, -5.0, 5.0)
        while abs(b - a) < 1e-3:
            b = _uniform(rng, -5.0, 5.0)
        a, b = min(a, b), max(a, b)
        return {"f": f, "a": a, "b": b}, {"f": fname, "a": a, "b": b}

    return draw


_convex_inputs = _catalog_inputs(scalar.CONVEX_CATALOG)
_logconvex_inputs = _catalog_inputs(scalar.LOGCONVEX_CATALOG)


def _xy_inputs(rng, cfg, cond):
    x = _loguniform(rng, *_LOG_XY)
    y = _loguniform(rng, *_LOG_XY)
    return {"x": x, "y": y}, {"x": x, "y": y}


def _ordered_xy_inputs(rng, cfg, cond):
    """0 < x < y, both log-uniform in [1e-3, 1e3]."""
    x = _loguniform(rng, *_LOG_XY)
    y = _loguniform(rng, *_LOG_XY)
    while y == x:  # pragma: no cover - measure zero
        y = _loguniform(rng, *_LOG_XY)
    x, y = min(x, y), max(x, y)
    return {"x": x, "y": y}, {"x": x, "y": y}


_spd_inputs = _spd_pair
_ordered_spd_inputs = functools.partial(_spd_pair, ordered=True)


def _norm_inputs(rng, cfg, cond):
    """SPD A, B (n capped at 6), a complex Gaussian X and a rotating norm kind.
    X is read-only: the payload and a sweep's memo share it."""
    args, payload = _spd_pair(rng, cfg, cond, cap=6)
    n = payload["n"]
    z = rng.standard_normal((2, n, n))
    x = z[0] + 1j * z[1]
    x.setflags(write=False)
    kind = norms.DEFAULT_NORM_KINDS[int(rng.integers(len(norms.DEFAULT_NORM_KINDS)))]
    args.update(x=x, kind=kind)
    payload.update(x=x, kind=str(kind))
    return args, payload


def _weighted(inputs, branch, depth=True):
    """The draw of ``inputs``, then of nu on ``branch`` (+1: nu >= 0, -1:
    nu <= -1, 0: either), then of the depth unless ``depth`` is false."""

    def draw(rng, cfg, cond):
        args, payload = inputs(rng, cfg, cond)
        args["nu"] = payload["nu"] = _draw_nu(rng, cfg, branch)
        if depth:
            args["depth"] = payload["depth"] = _draw_depth(rng, cfg)
        return args, payload

    return draw


def _chain_build(chain_fn, base=None, **fixed):
    """The build that checks ``chain_fn(**args, **fixed)``. ``base`` names
    the chain's unrefined bound; with it the "refined" and ``base`` entries
    feed the sweep gain."""

    def build(**args):
        chain = chain_fn(**args, **fixed)
        if base is None:
            return Built(chain=chain)
        return Built(chain=chain, refined=chain.value("refined"), base=chain.value(base))

    return build


def _refinement(inputs, chain_fn, *, branch, base=None, depth=True, **fixed):
    """The ``draw``, ``build`` and ``nu_branch`` of a case that checks
    ``chain_fn``: classical bound, refinement, target (see ``_weighted`` and
    ``_chain_build``)."""
    return {
        "draw": _weighted(inputs, branch, depth),
        "build": _chain_build(chain_fn, base, **fixed),
        "nu_branch": branch,
    }


# ---------------------------------------------------------------------------
# Scalar cases.

_register(
    "convex_refined_a",
    overrides={"instances": 1000, "rel_tol": 1e-9},
    sweep=("nu", "depth"),
    description="refined secant bound, midpoint ladder anchored at a",
    **_refinement(
        _convex_inputs, scalar.convex_refined_chain, branch=0, base="secant", anchor="a"
    ),
)

_register(
    "convex_refined_b",
    overrides={"instances": 1000, "rel_tol": 1e-9},
    sweep=("nu", "depth"),
    description="refined secant bound, midpoint ladder anchored at b",
    **_refinement(
        _convex_inputs, scalar.convex_refined_chain, branch=0, base="secant", anchor="b"
    ),
)

_register(
    "logconvex_refined_a",
    overrides={"instances": 1000, "rel_tol": 1e-9},
    sweep=("nu", "depth"),
    description="multiplicative log-convex refinement, nonnegative weights",
    **_refinement(
        _logconvex_inputs, scalar.logconvex_refined_chain, branch=1, base="power", anchor="a"
    ),
)

_register(
    "logconvex_refined_b",
    overrides={"instances": 1000, "rel_tol": 1e-9},
    sweep=("nu", "depth"),
    description="multiplicative log-convex refinement, weights <= -1",
    **_refinement(
        _logconvex_inputs, scalar.logconvex_refined_chain, branch=-1, base="power", anchor="b"
    ),
)

_register(
    "young_reverse_pos",
    overrides={"instances": 1000, "rel_tol": 1e-10},
    sweep=("nu", "depth"),
    description="reverse Young refinement, nu >= 0",
    **_refinement(_xy_inputs, scalar.young_reverse_chain, branch=1, base="arith"),
)

_register(
    "young_reverse_neg",
    overrides={"instances": 1000, "rel_tol": 1e-10},
    sweep=("nu", "depth"),
    description="reverse Young refinement, nu <= -1",
    **_refinement(_xy_inputs, scalar.young_reverse_chain, branch=-1, base="arith"),
)


def _build_young_squared(x, y, nu, depth):
    chain = scalar.young_squared_chain(x, y, nu, depth)
    return Built(
        chain=chain, refined=chain.value("refined"), base=((1.0 + nu) * x - nu * y) ** 2
    )


_register(
    "young_squared",
    overrides={"instances": 1000, "rel_tol": 1e-10},
    sweep=("nu", "depth"),
    description="squared reverse Young refinement, both weight branches",
    draw=_weighted(_xy_inputs, branch=0),
    build=_build_young_squared,
)


def _draw_young_refined_t(rng, cfg, cond):
    return _with(
        _xy_inputs(rng, cfg, cond),
        t=1.0 - _uniform(rng, 0.0, 1.0),  # in (0, 1]
        depth=_draw_depth(rng, cfg),
    )


def _build_young_refined_t(x, y, t, depth):
    chain = scalar.young_refinement_chain(x, y, t, depth)
    return Built(chain=chain, refined=chain.value("refined"), base=scalar.geom_mean(x, y, 1.0 - t))


_register(
    "young_refined_t",
    overrides={"instances": 1000, "rel_tol": 1e-10},
    sweep=("depth",),
    description="forward Young refinement in the interpolation parameter t",
    draw=_draw_young_refined_t, build=_build_young_refined_t,
)


def _build_young_collapse(x, y, nu):
    chain = scalar.young_reverse_chain(x, y, nu, 1)
    base = (1.0 + nu) * x - nu * y
    if nu >= 0.0:
        closed = base + nu * (math.sqrt(x) - math.sqrt(y)) ** 2
    else:
        closed = base - (1.0 + nu) * (math.sqrt(y) - math.sqrt(x)) ** 2
    tol = 1e-12 * max(1.0, abs(closed), abs(chain.values[-1]))
    return Built(margins=np.array([(tol - abs(chain.value("refined") - closed)) / tol]))


_register(
    "young_collapse_depth1",
    overrides={"instances": 1000, "rel_tol": 0.0},
    description="depth-1 reverse Young equals its closed two-term form (1e-12)",
    draw=_weighted(_xy_inputs, branch=0, depth=False),
    build=_build_young_collapse,
)

_register(
    "harmonic_reverse",
    overrides={"instances": 1000, "rel_tol": 1e-9},
    sweep=("nu", "depth"),
    description="refined reverse arithmetic-harmonic inequality, 0 < x < y",
    **_refinement(_ordered_xy_inputs, scalar.harmonic_reverse_chain, branch=1, base="arith"),
)

_register(
    "harmonic_geometric",
    overrides={"instances": 1000, "rel_tol": 1e-9},
    sweep=("nu", "depth"),
    description="refined reverse geometric-harmonic inequality, 0 < x < y",
    **_refinement(_ordered_xy_inputs, scalar.harmonic_geometric_chain, branch=1, base="geom"),
)

_register(
    "kantorovich_scalar",
    overrides={"instances": 1000, "rel_tol": 1e-9},
    description="Kantorovich-weighted reverse geometric-harmonic bound",
    **_refinement(_ordered_xy_inputs, scalar.kantorovich_chain, branch=1, depth=False),
)


def _draw_harmonic_curvature(rng, cfg, cond):
    x = _loguniform(rng, *_LOG_CURVATURE)
    params = {"x": x, "y": x * _uniform(rng, 1.5, 4.0), "nu": _uniform(rng, -2.9, 0.9)}
    return params, dict(params)


def _build_harmonic_curvature(x, y, nu):
    h = 1e-3
    f = lambda v: scalar.harm_mean(x, y, v)
    fd = (f(nu + h) - 2.0 * f(nu) + f(nu - h)) / h ** 2
    exact = 2.0 * x * (x - y) ** 2 * y / (nu * (x - y) + y) ** 3
    rel_err = abs(fd - exact) / abs(exact)
    return Built(margins=np.array([(1e-4 - rel_err) / 1e-4]))


_register(
    "harmonic_curvature",
    overrides={"instances": 500, "rel_tol": 0.0},
    description="second derivative of v -> x !_v y matches 2xy(x-y)^2/(v(x-y)+y)^3",
    draw=_draw_harmonic_curvature, build=_build_harmonic_curvature,
)


# ---------------------------------------------------------------------------
# Operator and trace cases.

_register(
    "operator_reverse_pos",
    sweep=("nu", "depth", "cond"),
    description="operator reverse Young refinement, nu >= 0",
    **_refinement(_spd_inputs, means.operator_reverse_chain, branch=1, base="arith"),
)

_register(
    "operator_reverse_neg",
    sweep=("nu", "depth", "cond"),
    description="operator reverse Young refinement, nu <= -1",
    **_refinement(_spd_inputs, means.operator_reverse_chain, branch=-1, base="arith"),
)

_register(
    "operator_squared_pos",
    sweep=("nu", "depth", "cond"),
    description="squared operator reverse Young refinement, nu >= 0",
    **_refinement(_spd_inputs, means.operator_squared_chain, branch=1, base="scaled_arith"),
)

_register(
    "operator_squared_neg",
    sweep=("nu", "depth", "cond"),
    description="squared operator refinement, nu <= -1 (B A^{-1} B form)",
    **_refinement(_spd_inputs, means.operator_squared_chain, branch=-1, base="scaled_b"),
)

_register(
    "harmonic_operator",
    sweep=("nu", "depth", "cond"),
    description="refined reverse arithmetic-harmonic operator inequality, A <= B",
    **_refinement(
        _ordered_spd_inputs, means.harmonic_operator_chain, branch=1, base="arith"
    ),
)

_register(
    "kantorovich_operator",
    sweep=("nu",),
    description="Kantorovich-weighted reverse geometric-harmonic operator bound, A <= B",
    **_refinement(
        _ordered_spd_inputs, means.kantorovich_operator_chain, branch=1, depth=False
    ),
)

_register(
    "trace_additive",
    overrides={"rel_tol": 1e-9},
    sweep=("nu", "depth", "cond"),
    description="additive trace refinement chain",
    **_refinement(_spd_inputs, means.trace_additive_chain, branch=1, base="arith"),
)

_register(
    "trace_multiplicative",
    overrides={"rel_tol": 1e-9},
    sweep=("nu", "depth", "cond"),
    description="multiplicative trace refinement chain",
    **_refinement(_spd_inputs, means.trace_multiplicative_chain, branch=1, base="power"),
)

_register(
    "trace_depth1",
    overrides={"rel_tol": 1e-9},
    sweep=("nu",),
    description="depth-1 trace specializations and the Schatten-1 comparison",
    **_refinement(_spd_inputs, means.trace_depth1_chain, branch=1, depth=False),
)


# ---------------------------------------------------------------------------
# Norm and Heinz cases (dimension capped at 6, all five norm kinds in rotation).

_register(
    "norm_reverse_pos",
    overrides={"instances": 500},
    sweep=("nu", "depth", "cond"),
    description="norm-functional reverse refinement, nu >= 0",
    **_refinement(_norm_inputs, norms.norm_reverse_chain, branch=1, base="power"),
)

_register(
    "norm_reverse_neg",
    overrides={"instances": 500},
    sweep=("nu", "depth", "cond"),
    description="norm-functional reverse refinement, nu <= -1",
    **_refinement(_norm_inputs, norms.norm_reverse_chain, branch=-1, base="power"),
)

_register(
    "norm_heinz_power",
    overrides={"instances": 500},
    sweep=("nu", "depth", "cond"),
    description="two-sided power refinement ||A^{1+nu} X B^{1+nu}||",
    **_refinement(_norm_inputs, norms.norm_heinz_chain, branch=1, base="power"),
)

_register(
    "norm_combined",
    overrides={"instances": 500},
    sweep=("nu", "depth", "cond"),
    description="five-term chain joining scalar and norm-functional refinements",
    **_refinement(_norm_inputs, norms.combined_norm_chain, branch=1, base="power"),
)


def _build_norm_collapse(a, b, x, kind, nu):
    # f(1/2) = ||A^{1/2} X B^{1/2}||, f(-nu), ||AX||, ||AXB|| and
    # ||A^{1+nu} X B^{1+nu}||, from one SVD of the five products.
    half, f_end, f_ax, g0, g_end = norms._product_norms(
        a, b, x, [0.5, 1.0 + nu, 1.0, 1.0, 1.0 + nu], [0.5, -nu, 0.0, 1.0, 1.0 + nu], kind
    ).tolist()
    lhs1 = math.exp((1.0 + 2.0 * nu) * math.log(f_ax))
    rhs1 = math.exp(math.log(f_end) + 2.0 * nu * math.log(half))
    lhs2 = math.exp((1.0 + 2.0 * nu) * math.log(g0))
    rhs2 = math.exp(math.log(g_end) + 2.0 * nu * math.log(half))
    m1 = (rhs1 - lhs1) / max(1.0, lhs1, rhs1)
    m2 = (rhs2 - lhs2) / max(1.0, lhs2, rhs2)
    return Built(margins=np.array([m1, m2]))


_register(
    "norm_collapse_depth1",
    overrides={"instances": 500},
    description="depth-1 corollaries ||AX||^{1+2nu} and ||AXB||^{1+2nu}",
    draw=_weighted(_norm_inputs, branch=1, depth=False),
    build=_build_norm_collapse,
)


def _draw_norm_logconvexity(rng, cfg, cond):
    drawn = _norm_inputs(rng, cfg, cond)
    v1, v2 = _uniform(rng, -2.0, 3.0), _uniform(rng, -2.0, 3.0)
    return _with(drawn, v1=v1, v2=v2, alpha=_uniform(rng, 0.0, 1.0))


def _build_norm_logconvexity(a, b, x, kind, v1, v2, alpha):
    weights = [v1, v2, alpha * v1 + (1 - alpha) * v2]
    fa, fb, fm = norms._functional_values(a, b, x, weights, kind).tolist()
    bound = math.exp(alpha * math.log(fa) + (1 - alpha) * math.log(fb))
    return Built(margins=np.array([(bound - fm) / max(1.0, bound, fm)]))


_register(
    "norm_logconvexity",
    overrides={"instances": 500, "rel_tol": 1e-9},
    description="log-convexity of v -> ||A^{1-v} X B^v|| on random combinations",
    draw=_draw_norm_logconvexity, build=_build_norm_logconvexity,
)


def _draw_heinz_symmetry(rng, cfg, cond):
    return _with(_norm_inputs(rng, cfg, cond), nu=_uniform(rng, -3.0, 4.0))


def _build_heinz_symmetry(a, b, x, kind, nu):
    f_nu, f_mirror = norms._heinz_values(a, b, x, [nu, 1.0 - nu], kind).tolist()
    return Built(margins=np.array([(1e-10 - abs(f_nu - f_mirror)) / 1e-10]))


_register(
    "heinz_symmetry",
    overrides={"instances": 500, "rel_tol": 0.0},
    description="Heinz functional symmetry f(nu) = f(1-nu) to 1e-10",
    draw=_draw_heinz_symmetry, build=_build_heinz_symmetry,
)


def _draw_heinz_midpoint(rng, cfg, cond):
    drawn = _norm_inputs(rng, cfg, cond)
    v1, v2 = _uniform(rng, -3.0, 4.0), _uniform(rng, -3.0, 4.0)
    return _with(drawn, v1=v1, v2=v2)


def _build_heinz_midpoint(a, b, x, kind, v1, v2):
    return Built(margins=np.array([norms.heinz_midpoint_margin(a, b, x, v1, v2, kind)]))


_register(
    "heinz_midpoint_convexity",
    overrides={"instances": 500},
    description="midpoint convexity of the Heinz functional on [-3, 4]",
    draw=_draw_heinz_midpoint, build=_build_heinz_midpoint,
)


def _build_heinz_monotonicity(a, b, x, kind):
    margins, _ = norms.heinz_grid_margins(a, b, x, kind)
    return Built(margins=margins)


_register(
    "heinz_monotonicity",
    overrides={"instances": 50},
    description="Heinz functional nonincreasing on [-3, 1/2], nondecreasing on [1/2, 4]",
    draw=_norm_inputs, build=_build_heinz_monotonicity,
)

_register(
    "heinz_reverse",
    overrides={"nu_range": (0.0, 4.0)},
    sweep=("nu", "depth", "cond"),
    description="reversed Heinz inequality with dyadic refinement",
    **_refinement(_norm_inputs, norms.heinz_reverse_chain, branch=1, base="sum_norm"),
)


def _draw_heinz_outside(rng, cfg, cond):
    drawn = _norm_inputs(rng, cfg, cond)
    if rng.integers(2) == 0:
        return _with(drawn, nu=-_uniform(rng, 0.01, 3.0))
    return _with(drawn, nu=1.0 + _uniform(rng, 0.01, 3.0))


def _build_heinz_outside(a, b, x, kind, nu):
    f0, fv = norms._heinz_values(a, b, x, [0.0, nu], kind).tolist()
    return Built(margins=np.array([(fv - f0) / max(1.0, f0, fv)]))


_register(
    "heinz_reverse_outside",
    overrides={"instances": 200},
    description="||AX + XB|| <= f(nu) for weights outside [0, 1]",
    draw=_draw_heinz_outside, build=_build_heinz_outside,
)


def _draw_heinz_pq(rng, cfg, cond):
    """Norm inputs, then 0 < q < p < 3."""
    drawn = _norm_inputs(rng, cfg, cond)
    p = _uniform(rng, 0.2, 3.0)
    return _with(drawn, p=p, q=p * _uniform(rng, 0.05, 0.95))


def _build_heinz_pq(a, b, x, kind, p, q):
    return Built(chain=norms.heinz_pq_chain(a, b, x, p, q, kind))


_register(
    "heinz_pq",
    overrides={"instances": 200},
    description="power-difference comparison for 0 < q < p",
    draw=_draw_heinz_pq, build=_build_heinz_pq,
)


def _draw_heinz_interpolated(rng, cfg, cond):
    args, payload = _draw_heinz_pq(rng, cfg, cond)
    return _with((args, payload), r=args["q"] * _uniform(rng, 0.02, 0.98))


def _build_heinz_interpolated(a, b, x, kind, p, q, r):
    return Built(chain=norms.heinz_interpolated_chain(a, b, x, p, q, r, kind))


_register(
    "heinz_interpolated",
    overrides={"instances": 200},
    description="interpolated power-difference comparison for 0 < r < q < p",
    draw=_draw_heinz_interpolated, build=_build_heinz_interpolated,
)


def _build_heinz_interp_grid(a, b, x, kind, p, q):
    vals = norms.heinz_interpolation_values(a, b, x, p, q, np.linspace(0.0, q, 9), kind)
    scale = max(1.0, float(np.max(vals)))
    return Built(margins=(vals[:-1] - vals[1:]) / scale)


_register(
    "heinz_interpolated_grid",
    overrides={"instances": 200},
    description="interpolated Heinz value nonincreasing in r on [0, q]",
    draw=_draw_heinz_pq, build=_build_heinz_interp_grid,
)


# ---------------------------------------------------------------------------
# Execution.

_SEAT_CHUNK = 64


def _seated(seed: int, case_name: str, rng: np.random.Generator):
    """The ``streams`` of ``_instances`` for ``run_case`` and ``sweep``: seat
    ``rng`` at the start of each given index's stream in turn, from one
    ``_stream_states`` block (computed only once a stream is asked for).
    The block's words become Python ints ``_SEAT_CHUNK`` rows at a time:
    one ``tolist`` each, and never the ints of a whole block at once."""

    def streams(indices):
        block = _stream_states(seed, case_name, indices)
        for start in range(0, len(block), _SEAT_CHUNK):
            for words in block[start : start + _SEAT_CHUNK].tolist():
                yield _seat(rng, *words)

    return streams


def _built(case: CaseDef, args: dict, payload: dict, pins: dict) -> Built:
    """``case.build`` of drawn ``args``, with ``pins`` put in copies of both
    dicts, and the payload recorded in ``Built.drawn``."""
    if pins:
        args, payload = {**args, **pins}, {**payload, **pins}
    built = case.build(**args)
    built.drawn = payload
    return built


def _instances(case: CaseDef, cfg: CaseConfig, forced: dict, indices, streams, memo=None):
    """Yield (index, built) for each of ``indices``, in order.

    1. draw: ``streams(todo)`` gives a generator at the start of the stream
       of each index that ``memo`` lacks, and ``case.draw`` reads every
       random number of that instance from it, with the condition bound of
       a pinned cond (``forced["cond"]``) or of ``cfg``. Without a ``memo``
       (``run_case``, ``build_instance``), a draw without an SPD pair (a
       scalar case) is built at once and not kept, and when no draw is kept
       the memo is not read again;
    2. assemble: the SPD pairs of the new draws, one QR and one assembly per
       n (``_assemble_pairs``); the draws are kept in the memo under
       (index, cond);
    3. pin and build: the other parameters of ``forced`` replace the drawn
       ones in copies of the dicts (``_built``), so a pin cannot move the
       stream, and the case's pure ``build`` evaluates the instance.

    A case's draws either all hold an SPD pair or none does. A sweep passes
    one ``memo`` across its grid, scalar draws included, so a repeat draws
    and seeds nothing.
    """
    cond = float(forced.get("cond", cfg.cond_max))
    pins = {param: value for param, value in forced.items() if param != "cond"}
    keep = memo is not None
    memo = {} if memo is None else memo
    todo = [i for i in indices if (i, cond) not in memo] if memo else indices
    for i, rng in zip(todo, streams(todo)):
        args, payload = case.draw(rng, cfg, cond)
        if keep or _PAIR in args:
            memo[i, cond] = args, payload
        else:
            yield i, _built(case, args, payload, pins)
    if not memo:
        return
    _assemble_pairs(memo[i, cond] for i in todo if (i, cond) in memo)
    for i in indices:
        if (i, cond) in memo:
            yield i, _built(case, *memo[i, cond], pins)


def _payloads(case: CaseDef, cfg: CaseConfig, indices, streams) -> list[dict]:
    """The payloads of ``indices``, drawn again from their streams with their
    SPD pairs assembled as in ``_instances``; nothing is built. A pair
    assembled without its block has the bits it had in it."""
    cond = float(cfg.cond_max)
    drawn = [case.draw(rng, cfg, cond) for rng in streams(indices)]
    _assemble_pairs(drawn)
    return [payload for _, payload in drawn]


def _swept(case: CaseDef, param: str) -> str:
    """``param``, if ``case`` sweeps it."""
    if param not in case.sweep_params:
        raise DomainError(
            f"case {case.name!r} does not sweep {param!r}; supported: {case.sweep_params}"
        )
    return param


def build_instance(name: str, index: int, forced: dict | None = None, **overrides) -> Built:
    """Build one instance of a case alone: its stream is ``instance_rng``'s,
    and its SPD pair is assembled as a stack of one. ``forced`` pins sweep
    parameters of the case to values that ``sweep_values`` accepts."""
    case = _case(name)
    cfg = _config_for(case, overrides)
    forced = {
        param: sweep_values(_swept(case, param), [value], case.nu_branch)[0]
        for param, value in (forced or {}).items()
    }
    streams = lambda todo: (instance_rng(cfg.seed, name, i) for i in todo)
    ((_, built),) = _instances(case, cfg, forced, [index], streams)
    return built


def _write_failure(directory: Path, name: str, index: int, payload: dict, row, cfg) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    data = {
        "case": name,
        "instance": index,
        "seed": cfg.seed,
        "rel_tol": cfg.rel_tol,
        "slacks": row,
        "params": _payload_json(payload),
    }
    (directory / f"{name}-{index:05d}.json").write_text(json.dumps(data, indent=1))


def run_case(name: str, failures_dir: str | Path | None = None, **overrides) -> ChainReport:
    """Run one registered case and aggregate its slack statistics.

    Deterministic for a fixed config: every instance derives its own RNG
    stream from (seed, case, index), and every index ``0 .. instances - 1``
    is checked (the report's ``skipped`` is 0). Each instance is built once
    and leaves only its value row (``Built.value_row``); ``reporting``
    decides the rows of the whole case in one array pass. When
    ``failures_dir`` is given, the first failing instances in index order,
    capped per case, are drawn again from their streams for their payloads
    and serialized there.
    """
    case = _case(name)
    cfg = _config_for(case, overrides)
    streams = _seated(cfg.seed, name, _new_generator())
    verdicts, rows = set(), []
    for _, built in _instances(case, cfg, {}, range(cfg.instances), streams):
        decide, row = built.value_row()
        verdicts.add(decide)
        rows.append(row)
    if len(verdicts) > 1:
        raise DomainError(f"case {name} produced value rows of more than one kind")
    report, fails = case_report(name, verdicts.pop(), rows, cfg.rel_tol, notes=case.description)
    if failures_dir is not None and report.failures:
        failing = np.flatnonzero(fails)[:MAX_FAILURE_FILES_PER_CASE].tolist()
        for index, payload in zip(failing, _payloads(case, cfg, failing, streams)):
            row = report.slacks[index].tolist()
            _write_failure(Path(failures_dir), name, index, payload, row, cfg)
    return report


def run_suite(
    names=None,
    failures_dir: str | Path | None = None,
    progress: Callable[[ChainReport], None] | None = None,
    **overrides,
) -> list[ChainReport]:
    """Run every registered case (or the given subset) in registration order."""
    selected = case_names() if names is None else tuple(names)
    for name in selected:
        _case(name)  # validate before any work
    reports = []
    for name in selected:
        report = run_case(name, failures_dir=failures_dir, **overrides)
        if progress is not None:
            progress(report)
        reports.append(report)
    return reports


@dataclass(frozen=True)
class SweepRow:
    value: float
    mean_gap: float
    mean_gain: float


def _gain(built: Built) -> float:
    if built.refined is None or built.base is None:
        return 0.0
    if isinstance(built.chain, means.OperatorChain):
        return built.chain.trace(built.refined - built.base)
    return float(built.refined - built.base)


def _mean(xs: list) -> float:
    """``np.mean(xs)`` bit for bit (the same pairwise sum, then the same
    division), without its dispatch."""
    return float(np.add.reduce(np.array(xs)) / len(xs))


_BRANCH_TEXT = {1: "nu >= 0", -1: "nu <= -1", 0: "nu >= 0 or nu <= -1"}


def sweep_values(param: str, grid, nu_branch: int = 0) -> list:
    """The values ``sweep`` pins ``param`` to, one per grid value.

    Raises DomainError for a value no instance can take: a depth that is
    not an integer in 1..32, a cond that is not finite and >= 1, or a nu
    off the case's weight branch ``nu_branch`` (+1: nu >= 0, -1: nu <= -1,
    0: either; see ``CaseDef.nu_branch``).
    """
    values = []
    for value in grid:
        if param == "nu":
            value = float(value)
            if not ((nu_branch >= 0 and value >= 0.0) or (nu_branch <= 0 and value <= -1.0)):
                raise DomainError(
                    f"nu must satisfy {_BRANCH_TEXT[nu_branch]} for this case, got {value}"
                )
            values.append(value)
        elif param == "depth":
            if not (float(value).is_integer() and 1 <= value <= scalar.MAX_REFINE_DEPTH):
                raise DomainError(
                    f"depth must be an integer in 1..{scalar.MAX_REFINE_DEPTH}, got {value}"
                )
            values.append(int(value))
        else:
            value = float(value)
            if param == "cond" and not 1.0 <= value < math.inf:
                raise DomainError(f"cond must be finite and >= 1, got {value}")
            values.append(value)
    return values


def sweep(name: str, param: str, grid, **overrides) -> list[SweepRow]:
    """Re-evaluate a case while pinning one parameter to each grid value.

    Instances keep their identity across the grid (the same draws, with only
    ``param`` pinned), so columns are directly comparable. Each instance is
    drawn, and its SPD pair assembled, once per cond, and rebuilt at each
    grid value. A rebuild computes only what the pin moves: the evaluation
    contexts of ``means`` and ``norms`` keep the values of the instance's
    last build. Returns one row per grid value
    with the mean end-to-end gap and mean refinement gain (refined bound
    minus unrefined bound; trace difference for operator chains). Every grid
    value is checked by ``sweep_values`` before any instance is built.
    """
    case = _case(name)
    values = sweep_values(_swept(case, param), grid, case.nu_branch)
    cfg = _config_for(case, overrides)
    indices, memo = range(cfg.instances), {}
    streams = _seated(cfg.seed, name, _new_generator())
    out = []
    for value in values:
        gaps = []
        gains = []
        for _, built in _instances(case, cfg, {param: value}, indices, streams, memo):
            gaps.append(built.gap())
            gains.append(_gain(built))
        out.append(SweepRow(float(value), _mean(gaps), _mean(gains)))
    return out
