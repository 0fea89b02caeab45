"""Randomized verification harness for every inequality chain in the package.

Each registered case pairs a seeded instance generator with an evaluator
producing either an inequality chain (checked link by link) or a vector of
normalized margins (checked against ``-rel_tol``). Instances draw their
randomness from a stream keyed by ``hash(seed, case name, instance index)``,
so runs are deterministic, order-insensitive, and individual instances can
be replayed. Every drawn instance is checked: a case of ``instances``
instances builds indices ``0 .. instances - 1``, and none is skipped.

Most cases follow the paper's pattern of a classical bound, a dyadic
refinement of depth N, then the target. Each of them is one row: an input
draw, a chain function, a weight branch and a base label, made into a
builder by ``_refinement``. Identities, shape checks and the other margin
cases have builders of their own. Every builder records each drawn
parameter in its payload, which failure files carry for replay.

Every matrix case starts from a random SPD pair (A, B), and its builder
declares the draw of its inputs (``inputs``). Such a case builds its block
of instances, whose streams are seeded together, in three phases: draw (each
stream draws its inputs, and its state after the draw is recorded), then
assemble (one QR and one assembly per dimension n over the whole block),
then build (each stream resumes from its recorded state). The scalar cases
have nothing to stack and draw and build each instance in one pass.
"""

from __future__ import annotations

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
    HermitianMatrix,
    SpdMatrix,
    _assemble_spds,
    _draw_spds,
    matrix_to_json,
)
from .reporting import (
    ChainReport,
    _chain_verdict,
    _row_fails,
    aggregate_report,
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
        if not (1 <= self.depth_min <= self.depth_max <= scalar.MAX_REFINE_DEPTH):
            raise DomainError(f"bad depth range {self.depth_min}..{self.depth_max}")


class Built:
    """One evaluated instance: a chain or a margins vector, plus replay data.

    Margin-style cases report normalized margins directly (pass at
    ``>= -rel_tol``); their "gap" is the largest margin, standing in for the
    end-to-end chain gap as the tightness measure. ``refined`` is a float
    or a HermitianMatrix.

    A builder passes its drawn matrices in ``payload`` as they are; reading
    ``payload`` serializes them with ``matrix_to_json``. Only failure files
    read it, so an instance that passes never serializes its inputs.
    """

    def __init__(self, chain=None, margins=None, refined=None, base=None, payload=None):
        self.chain = chain
        self.margins = margins
        self.refined = refined
        self.base = base
        self._drawn = {} if payload is None else payload

    @property
    def payload(self) -> dict:
        """The replay parameters in the JSON form failure files carry."""
        return {
            key: matrix_to_json(v) if isinstance(v, (ComplexMatrix, np.ndarray)) else v
            for key, v in self._drawn.items()
        }

    def gap(self) -> float:
        if self.margins is not None:
            return float(np.max(self.margins))
        return chain_gap(self.chain)

    def verdict(self) -> tuple[list[float], float]:
        """The slack row and the gap, from one pass over the chain."""
        if self.margins is not None:
            return np.asarray(self.margins, dtype=np.float64).ravel().tolist(), self.gap()
        return _chain_verdict(self.chain)


@dataclass(frozen=True)
class CaseDef:
    name: str
    build: Callable[[np.random.Generator, CaseConfig, dict], Built]
    overrides: dict
    sweep_params: tuple[str, ...]
    description: str
    nu_branch: int = 0  # +1: nu >= 0, -1: nu <= -1, 0: either


REGISTRY: dict[str, CaseDef] = {}


def _register(name, *, overrides=None, sweep=(), description="", inputs=None):
    """Register a builder; a ``_refinement`` builder brings its own nu branch
    and input draw, and any other builder sweeps nu on either branch. A
    builder given ``inputs`` is called with ``drawn``, the instance's drawn
    and assembled inputs (see ``_instances``)."""

    def deco(fn):
        if inputs is not None:
            fn.inputs = inputs
        branch = getattr(fn, "nu_branch", 0)
        REGISTRY[name] = CaseDef(
            name, fn, dict(overrides or {}), tuple(sweep), description, branch
        )
        return fn

    return deco


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


def _entropy(seed: int, case_name: str, index: int) -> bytes:
    """Instance ``index``'s entropy: the 64-bit blake2b digest of
    ``"seed:case_name:index"``, read little-endian."""
    return hashlib.blake2b(f"{seed}:{case_name}:{index}".encode(), digest_size=8).digest()


def _stream_states(seed: int, case_name: str, indices) -> np.ndarray:
    """The PCG64 seed words of each instance's stream, one row per index:
    those of ``instance_rng``. ``_seat`` starts the stream from the row."""
    return _seed_words(b"".join(_entropy(seed, case_name, i) for i in indices))


def _new_generator() -> np.random.Generator:
    """A Generator for ``_seat`` to point at instance streams (fixed seed:
    no OS entropy is drawn)."""
    return np.random.Generator(np.random.PCG64(0))


def _seat(rng: np.random.Generator, words: np.ndarray) -> np.random.Generator:
    """Point ``rng`` at the start of the PCG64 stream seeded by ``words``.

    PCG64's seeding step, in Python ints: ``inc = (s2:s3) << 1 | 1`` and
    ``state = ((s0:s1) + inc) * MULT + inc`` mod 2^128.
    """
    s0, s1, i0, i1 = words.tolist()
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
    ``np.random.default_rng`` of the instance's ``_entropy``. ``_instances``
    seeds the same streams a block at a time with ``_stream_states``."""
    return np.random.default_rng(int.from_bytes(_entropy(seed, case_name, index), "little"))


# ---------------------------------------------------------------------------
# Draw helpers. Builders draw every parameter unconditionally and only then
# apply ``forced`` overrides, so the stream position is identical for a given
# (seed, case, index) no matter which parameter a sweep pins.

def _draw_nu(rng, cfg, forced, branch) -> float:
    lo, hi = cfg.nu_range
    mag = float(rng.uniform(lo, hi))
    if branch == 0:
        branch = 1 if rng.integers(2) == 0 else -1
    nu = mag if branch > 0 else -1.0 - mag
    return float(forced.get("nu", nu))


def _draw_depth(rng, cfg, forced) -> int:
    d = int(rng.integers(cfg.depth_min, cfg.depth_max + 1))
    return int(forced.get("depth", d))


def _draw_dim(rng, cfg, cap=None) -> int:
    hi = cfg.dim_max if cap is None else min(cfg.dim_max, cap)
    return int(rng.integers(cfg.dim_min, hi + 1))


def _loguniform(rng, lo, hi) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


# The key under which an input draw leaves its SPD pair, drawn but not yet
# assembled, for ``_assemble_pairs``.
_PAIR = "_pair"


def _spd_pair(rng, cfg, forced, cap=None, ordered=False):
    """Draw the inputs of two random SPD matrices: n, then each matrix's
    Gaussian and spectrum. Returns the args and the payload, whose "a" and
    "b" ``_assemble_pairs`` fills (A <= B when ``ordered``)."""
    n = _draw_dim(rng, cfg, cap)
    cond = float(forced.get("cond", cfg.cond_max))
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


def _norm_triple(drawn):
    """A, B, X, the norm kind and the payload of a norm case's ``drawn``
    inputs (``_norm_inputs``)."""
    args, payload = drawn
    return args["a"], args["b"], args["x"], args["kind"], payload


# Input draws of the refinement table: each returns the chain's keyword
# arguments and the payload that replays them.

def _catalog_inputs(catalog):
    def draw(rng, cfg, forced):
        fname, f = catalog[int(rng.integers(len(catalog)))]
        a = float(rng.uniform(-5.0, 5.0))
        b = float(rng.uniform(-5.0, 5.0))
        while abs(b - a) < 1e-3:
            b = float(rng.uniform(-5.0, 5.0))
        a, b = min(a, b), max(a, b)
        return {"f": f, "a": a, "b": b}, {"f": fname, "a": a, "b": b}

    return draw


_convex_inputs = _catalog_inputs(scalar.CONVEX_CATALOG)
_logconvex_inputs = _catalog_inputs(scalar.LOGCONVEX_CATALOG)


def _xy_inputs(rng, cfg, forced):
    x = _loguniform(rng, 1e-3, 1e3)
    y = _loguniform(rng, 1e-3, 1e3)
    return {"x": x, "y": y}, {"x": x, "y": y}


def _ordered_xy_inputs(rng, cfg, forced):
    """0 < x < y, both log-uniform in [1e-3, 1e3]."""
    x = _loguniform(rng, 1e-3, 1e3)
    y = _loguniform(rng, 1e-3, 1e3)
    while y == x:  # pragma: no cover - measure zero
        y = _loguniform(rng, 1e-3, 1e3)
    x, y = min(x, y), max(x, y)
    return {"x": x, "y": y}, {"x": x, "y": y}


def _spd_inputs(rng, cfg, forced):
    return _spd_pair(rng, cfg, forced)


def _ordered_spd_inputs(rng, cfg, forced):
    return _spd_pair(rng, cfg, forced, ordered=True)


def _norm_inputs(rng, cfg, forced):
    """SPD A, B (n capped at 6), a complex Gaussian X and a rotating norm kind.
    X is read-only: the payload and a sweep's table share it."""
    args, payload = _spd_pair(rng, cfg, forced, cap=6)
    n = payload["n"]
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x.setflags(write=False)
    kind = norms.DEFAULT_NORM_KINDS[int(rng.integers(len(norms.DEFAULT_NORM_KINDS)))]
    args.update(x=x, kind=kind)
    payload.update(x=x, kind=str(kind))
    return args, payload


# The draws that leave an SPD pair: their cases build from a table (see
# ``_instances``); the other cases draw and build in one pass.
_PAIR_INPUTS = (_spd_inputs, _ordered_spd_inputs, _norm_inputs)


def _refinement(inputs, chain_fn, *, branch, base=None, depth=True, **fixed):
    """Builder of a case that checks ``chain_fn``: classical bound, refinement, target.

    Draws the inputs, then nu on ``branch`` (+1: nu >= 0, -1: nu <= -1, 0:
    either), then the depth unless ``depth`` is false, and calls
    ``chain_fn(**inputs, nu=, depth=, **fixed)``. ``base`` names the chain's
    unrefined bound; with it the "refined" and ``base`` entries feed the
    sweep gain. A build from a table gets the inputs as ``drawn``, with
    ``rng`` already past their draw (see ``_build``); the builder extends
    their dicts. Only inputs without an SPD pair are drawn here.
    """

    def build(rng, cfg, forced, drawn=None):
        args, payload = inputs(rng, cfg, forced) if drawn is None else drawn
        args["nu"] = payload["nu"] = _draw_nu(rng, cfg, forced, branch)
        if depth:
            args["depth"] = payload["depth"] = _draw_depth(rng, cfg, forced)
        chain = chain_fn(**args, **fixed)
        if base is None:
            return Built(chain=chain, payload=payload)
        pick = chain.matrix if isinstance(chain, means.OperatorChain) else chain.value
        return Built(chain=chain, refined=pick("refined"), base=pick(base), payload=payload)

    build.nu_branch = branch
    build.inputs = inputs
    return build


# ---------------------------------------------------------------------------
# Scalar cases.

_register(
    "convex_refined_a",
    overrides={"instances": 1000, "rel_tol": 1e-9},
    sweep=("nu", "depth"),
    description="refined secant bound, midpoint ladder anchored at a",
)(_refinement(
    _convex_inputs, scalar.convex_refined_chain, branch=0, base="secant", anchor="a"
))

_register(
    "convex_refined_b",
    overrides={"instances": 1000, "rel_tol": 1e-9},
    sweep=("nu", "depth"),
    description="refined secant bound, midpoint ladder anchored at b",
)(_refinement(
    _convex_inputs, scalar.convex_refined_chain, branch=0, base="secant", anchor="b"
))

_register(
    "logconvex_refined_a",
    overrides={"instances": 1000, "rel_tol": 1e-9},
    sweep=("nu", "depth"),
    description="multiplicative log-convex refinement, nonnegative weights",
)(_refinement(
    _logconvex_inputs, scalar.logconvex_refined_chain, branch=1, base="power", anchor="a"
))

_register(
    "logconvex_refined_b",
    overrides={"instances": 1000, "rel_tol": 1e-9},
    sweep=("nu", "depth"),
    description="multiplicative log-convex refinement, weights <= -1",
)(_refinement(
    _logconvex_inputs, scalar.logconvex_refined_chain, branch=-1, base="power", anchor="b"
))

_register(
    "young_reverse_pos",
    overrides={"instances": 1000, "rel_tol": 1e-10},
    sweep=("nu", "depth"),
    description="reverse Young refinement, nu >= 0",
)(_refinement(_xy_inputs, scalar.young_reverse_chain, branch=1, base="arith"))

_register(
    "young_reverse_neg",
    overrides={"instances": 1000, "rel_tol": 1e-10},
    sweep=("nu", "depth"),
    description="reverse Young refinement, nu <= -1",
)(_refinement(_xy_inputs, scalar.young_reverse_chain, branch=-1, base="arith"))


@_register(
    "young_squared",
    overrides={"instances": 1000, "rel_tol": 1e-10},
    sweep=("nu", "depth"),
    description="squared reverse Young refinement, both weight branches",
)
def _build_young_squared(rng, cfg, forced):
    x = _loguniform(rng, 1e-3, 1e3)
    y = _loguniform(rng, 1e-3, 1e3)
    nu = _draw_nu(rng, cfg, forced, branch=0)
    depth = _draw_depth(rng, cfg, forced)
    chain = scalar.young_squared_chain(x, y, nu, depth)
    return Built(
        chain=chain,
        refined=chain.value("refined"),
        base=((1.0 + nu) * x - nu * y) ** 2,
        payload={"x": x, "y": y, "nu": nu, "depth": depth},
    )


@_register(
    "young_refined_t",
    overrides={"instances": 1000, "rel_tol": 1e-10},
    sweep=("depth",),
    description="forward Young refinement in the interpolation parameter t",
)
def _build_young_refined_t(rng, cfg, forced):
    x = _loguniform(rng, 1e-3, 1e3)
    y = _loguniform(rng, 1e-3, 1e3)
    t = 1.0 - float(rng.uniform(0.0, 1.0))  # in (0, 1]
    depth = _draw_depth(rng, cfg, forced)
    chain = scalar.young_refinement_chain(x, y, t, depth)
    return Built(
        chain=chain,
        refined=chain.value("refined"),
        base=scalar.geom_mean(x, y, 1.0 - t),
        payload={"x": x, "y": y, "t": t, "depth": depth},
    )


@_register(
    "young_collapse_depth1",
    overrides={"instances": 1000, "rel_tol": 0.0},
    description="depth-1 reverse Young equals its closed two-term form (1e-12)",
)
def _build_young_collapse(rng, cfg, forced):
    x = _loguniform(rng, 1e-3, 1e3)
    y = _loguniform(rng, 1e-3, 1e3)
    nu = _draw_nu(rng, cfg, forced, branch=0)
    chain = scalar.young_reverse_chain(x, y, nu, 1)
    base = (1.0 + nu) * x - nu * y
    if nu >= 0.0:
        closed = base + nu * (math.sqrt(x) - math.sqrt(y)) ** 2
    else:
        closed = base - (1.0 + nu) * (math.sqrt(y) - math.sqrt(x)) ** 2
    tol = 1e-12 * max(1.0, abs(closed), abs(chain.values[-1]))
    margin = (tol - abs(chain.value("refined") - closed)) / tol
    return Built(margins=np.array([margin]), payload={"x": x, "y": y, "nu": nu})


_register(
    "harmonic_reverse",
    overrides={"instances": 1000, "rel_tol": 1e-9},
    sweep=("nu", "depth"),
    description="refined reverse arithmetic-harmonic inequality, 0 < x < y",
)(_refinement(_ordered_xy_inputs, scalar.harmonic_reverse_chain, branch=1, base="arith"))

_register(
    "harmonic_geometric",
    overrides={"instances": 1000, "rel_tol": 1e-9},
    sweep=("nu", "depth"),
    description="refined reverse geometric-harmonic inequality, 0 < x < y",
)(_refinement(_ordered_xy_inputs, scalar.harmonic_geometric_chain, branch=1, base="geom"))

_register(
    "kantorovich_scalar",
    overrides={"instances": 1000, "rel_tol": 1e-9},
    description="Kantorovich-weighted reverse geometric-harmonic bound",
)(_refinement(_ordered_xy_inputs, scalar.kantorovich_chain, branch=1, depth=False))


@_register(
    "harmonic_curvature",
    overrides={"instances": 500, "rel_tol": 0.0},
    description="second derivative of v -> x !_v y matches 2xy(x-y)^2/(v(x-y)+y)^3",
)
def _build_harmonic_curvature(rng, cfg, forced):
    x = _loguniform(rng, 0.5, 2.0)
    y = x * float(rng.uniform(1.5, 4.0))
    nu = float(rng.uniform(-2.9, 0.9))
    h = 1e-3
    f = lambda v: scalar.harm_mean(x, y, v)
    fd = (f(nu + h) - 2.0 * f(nu) + f(nu - h)) / h ** 2
    exact = 2.0 * x * (x - y) ** 2 * y / (nu * (x - y) + y) ** 3
    rel_err = abs(fd - exact) / abs(exact)
    return Built(
        margins=np.array([(1e-4 - rel_err) / 1e-4]),
        payload={"x": x, "y": y, "nu": nu},
    )


# ---------------------------------------------------------------------------
# Operator and trace cases.

_register(
    "operator_reverse_pos",
    sweep=("nu", "depth", "cond"),
    description="operator reverse Young refinement, nu >= 0",
)(_refinement(_spd_inputs, means.operator_reverse_chain, branch=1, base="arith"))

_register(
    "operator_reverse_neg",
    sweep=("nu", "depth", "cond"),
    description="operator reverse Young refinement, nu <= -1",
)(_refinement(_spd_inputs, means.operator_reverse_chain, branch=-1, base="arith"))

_register(
    "operator_squared_pos",
    sweep=("nu", "depth", "cond"),
    description="squared operator reverse Young refinement, nu >= 0",
)(_refinement(_spd_inputs, means.operator_squared_chain, branch=1, base="scaled_arith"))

_register(
    "operator_squared_neg",
    sweep=("nu", "depth", "cond"),
    description="squared operator refinement, nu <= -1 (B A^{-1} B form)",
)(_refinement(_spd_inputs, means.operator_squared_chain, branch=-1, base="scaled_b"))

_register(
    "harmonic_operator",
    sweep=("nu", "depth", "cond"),
    description="refined reverse arithmetic-harmonic operator inequality, A <= B",
)(_refinement(_ordered_spd_inputs, means.harmonic_operator_chain, branch=1, base="arith"))


_register(
    "kantorovich_operator",
    sweep=("nu",),
    description="Kantorovich-weighted reverse geometric-harmonic operator bound, A <= B",
)(_refinement(
    _ordered_spd_inputs, means.kantorovich_operator_chain, branch=1, depth=False
))

_register(
    "trace_additive",
    overrides={"rel_tol": 1e-9},
    sweep=("nu", "depth", "cond"),
    description="additive trace refinement chain",
)(_refinement(_spd_inputs, means.trace_additive_chain, branch=1, base="arith"))

_register(
    "trace_multiplicative",
    overrides={"rel_tol": 1e-9},
    sweep=("nu", "depth", "cond"),
    description="multiplicative trace refinement chain",
)(_refinement(_spd_inputs, means.trace_multiplicative_chain, branch=1, base="power"))

_register(
    "trace_depth1",
    overrides={"rel_tol": 1e-9},
    sweep=("nu",),
    description="depth-1 trace specializations and the Schatten-1 comparison",
)(_refinement(_spd_inputs, means.trace_depth1_chain, branch=1, depth=False))


# ---------------------------------------------------------------------------
# Norm and Heinz cases (dimension capped at 6, all five norm kinds in rotation).

_register(
    "norm_reverse_pos",
    overrides={"instances": 500},
    sweep=("nu", "depth", "cond"),
    description="norm-functional reverse refinement, nu >= 0",
)(_refinement(_norm_inputs, norms.norm_reverse_chain, branch=1, base="power"))

_register(
    "norm_reverse_neg",
    overrides={"instances": 500},
    sweep=("nu", "depth", "cond"),
    description="norm-functional reverse refinement, nu <= -1",
)(_refinement(_norm_inputs, norms.norm_reverse_chain, branch=-1, base="power"))

_register(
    "norm_heinz_power",
    overrides={"instances": 500},
    sweep=("nu", "depth", "cond"),
    description="two-sided power refinement ||A^{1+nu} X B^{1+nu}||",
)(_refinement(_norm_inputs, norms.norm_heinz_chain, branch=1, base="power"))

_register(
    "norm_combined",
    overrides={"instances": 500},
    sweep=("nu", "depth", "cond"),
    description="five-term chain joining scalar and norm-functional refinements",
)(_refinement(_norm_inputs, norms.combined_norm_chain, branch=1, base="power"))


@_register(
    "norm_collapse_depth1",
    overrides={"instances": 500},
    description="depth-1 corollaries ||AX||^{1+2nu} and ||AXB||^{1+2nu}",
    inputs=_norm_inputs,
)
def _build_norm_collapse(rng, cfg, forced, drawn):
    a, b, x, kind, payload = _norm_triple(drawn)
    nu = _draw_nu(rng, cfg, forced, branch=1)
    # f(1/2) = ||A^{1/2} X B^{1/2}||, f(-nu), ||AX||, ||AXB|| and
    # ||A^{1+nu} X B^{1+nu}||, from one SVD of the five products.
    products = norms._products(
        a, b, x, [0.5, 1.0 + nu, 1.0, 1.0, 1.0 + nu], [0.5, -nu, 0.0, 1.0, 1.0 + nu]
    )
    half, f_end, f_ax, g0, g_end = norms._norms_of(products, kind).tolist()
    lhs1 = math.exp((1.0 + 2.0 * nu) * math.log(f_ax))
    rhs1 = math.exp(math.log(f_end) + 2.0 * nu * math.log(half))
    lhs2 = math.exp((1.0 + 2.0 * nu) * math.log(g0))
    rhs2 = math.exp(math.log(g_end) + 2.0 * nu * math.log(half))
    m1 = (rhs1 - lhs1) / max(1.0, lhs1, rhs1)
    m2 = (rhs2 - lhs2) / max(1.0, lhs2, rhs2)
    return Built(margins=np.array([m1, m2]), payload={**payload, "nu": nu})


@_register(
    "norm_logconvexity",
    overrides={"instances": 500, "rel_tol": 1e-9},
    description="log-convexity of v -> ||A^{1-v} X B^v|| on random combinations",
    inputs=_norm_inputs,
)
def _build_norm_logconvexity(rng, cfg, forced, drawn):
    a, b, x, kind, payload = _norm_triple(drawn)
    v1, v2 = rng.uniform(-2.0, 3.0, size=2)
    alpha = float(rng.uniform(0.0, 1.0))
    weights = [float(v1), float(v2), float(alpha * v1 + (1 - alpha) * v2)]
    fa, fb, fm = norms._functional_values(a, b, x, weights, kind).tolist()
    bound = math.exp(alpha * math.log(fa) + (1 - alpha) * math.log(fb))
    margin = (bound - fm) / max(1.0, bound, fm)
    return Built(
        margins=np.array([margin]),
        payload={**payload, "v1": float(v1), "v2": float(v2), "alpha": alpha},
    )


@_register(
    "heinz_symmetry",
    overrides={"instances": 500, "rel_tol": 0.0},
    description="Heinz functional symmetry f(nu) = f(1-nu) to 1e-10",
    inputs=_norm_inputs,
)
def _build_heinz_symmetry(rng, cfg, forced, drawn):
    a, b, x, kind, payload = _norm_triple(drawn)
    nu = float(rng.uniform(-3.0, 4.0))
    f_nu, f_mirror = norms._heinz_values(a, b, x, [nu, 1.0 - nu], kind).tolist()
    d = abs(f_nu - f_mirror)
    return Built(margins=np.array([(1e-10 - d) / 1e-10]), payload={**payload, "nu": nu})


@_register(
    "heinz_midpoint_convexity",
    overrides={"instances": 500},
    description="midpoint convexity of the Heinz functional on [-3, 4]",
    inputs=_norm_inputs,
)
def _build_heinz_midpoint(rng, cfg, forced, drawn):
    a, b, x, kind, payload = _norm_triple(drawn)
    v1, v2 = rng.uniform(-3.0, 4.0, size=2)
    margin = norms.heinz_midpoint_margin(a, b, x, float(v1), float(v2), kind)
    return Built(
        margins=np.array([margin]),
        payload={**payload, "v1": float(v1), "v2": float(v2)},
    )


@_register(
    "heinz_monotonicity",
    overrides={"instances": 50},
    description="Heinz functional nonincreasing on [-3, 1/2], nondecreasing on [1/2, 4]",
    inputs=_norm_inputs,
)
def _build_heinz_monotonicity(rng, cfg, forced, drawn):
    a, b, x, kind, payload = _norm_triple(drawn)
    margins, _ = norms.heinz_grid_margins(a, b, x, kind)
    return Built(margins=margins, payload=payload)


_register(
    "heinz_reverse",
    overrides={"nu_range": (0.0, 4.0)},
    sweep=("nu", "depth", "cond"),
    description="reversed Heinz inequality with dyadic refinement",
)(_refinement(_norm_inputs, norms.heinz_reverse_chain, branch=1, base="sum_norm"))


@_register(
    "heinz_reverse_outside",
    overrides={"instances": 200},
    description="||AX + XB|| <= f(nu) for weights outside [0, 1]",
    inputs=_norm_inputs,
)
def _build_heinz_outside(rng, cfg, forced, drawn):
    a, b, x, kind, payload = _norm_triple(drawn)
    if rng.integers(2) == 0:
        nu = -float(rng.uniform(0.01, 3.0))
    else:
        nu = 1.0 + float(rng.uniform(0.01, 3.0))
    f0, fv = norms._heinz_values(a, b, x, [0.0, nu], kind).tolist()
    return Built(
        margins=np.array([(fv - f0) / max(1.0, f0, fv)]),
        payload={**payload, "nu": nu},
    )


@_register(
    "heinz_pq",
    overrides={"instances": 200},
    description="power-difference comparison for 0 < q < p",
    inputs=_norm_inputs,
)
def _build_heinz_pq(rng, cfg, forced, drawn):
    a, b, x, kind, payload = _norm_triple(drawn)
    p = float(rng.uniform(0.2, 3.0))
    q = p * float(rng.uniform(0.05, 0.95))
    chain = norms.heinz_pq_chain(a, b, x, p, q, kind)
    return Built(chain=chain, payload={**payload, "p": p, "q": q})


@_register(
    "heinz_interpolated",
    overrides={"instances": 200},
    description="interpolated power-difference comparison for 0 < r < q < p",
    inputs=_norm_inputs,
)
def _build_heinz_interpolated(rng, cfg, forced, drawn):
    a, b, x, kind, payload = _norm_triple(drawn)
    p = float(rng.uniform(0.2, 3.0))
    q = p * float(rng.uniform(0.05, 0.95))
    r = q * float(rng.uniform(0.02, 0.98))
    chain = norms.heinz_interpolated_chain(a, b, x, p, q, r, kind)
    return Built(chain=chain, payload={**payload, "p": p, "q": q, "r": r})


@_register(
    "heinz_interpolated_grid",
    overrides={"instances": 200},
    description="interpolated Heinz value nonincreasing in r on [0, q]",
    inputs=_norm_inputs,
)
def _build_heinz_interp_grid(rng, cfg, forced, drawn):
    a, b, x, kind, payload = _norm_triple(drawn)
    p = float(rng.uniform(0.2, 3.0))
    q = p * float(rng.uniform(0.05, 0.95))
    rs = np.linspace(0.0, q, 9)
    vals = norms.heinz_interpolation_values(a, b, x, p, q, rs, kind)
    scale = max(1.0, float(np.max(vals)))
    margins = (vals[:-1] - vals[1:]) / scale
    return Built(margins=margins, payload={**payload, "p": p, "q": q})


# ---------------------------------------------------------------------------
# Execution.

def _draw_block(
    case: CaseDef,
    cfg: CaseConfig,
    forced: dict,
    indices: range,
    table: dict,
    rng: np.random.Generator,
) -> None:
    """Phases 1 and 2 for the instances of ``indices`` that ``table`` lacks,
    keyed by (index, forced cond): input draws read no other forced
    parameter.

    Each stream is seated on ``rng`` from one ``_stream_states`` block and
    draws its inputs; the table records the args, the payload and the
    stream state after the draw. Then ``_assemble_pairs`` assembles every
    SPD pair of the block, one stack per n.
    """
    cond = forced.get("cond")
    todo = [i for i in indices if (i, cond) not in table]
    if not todo:
        return
    drawn = []
    for i, words in zip(todo, _stream_states(cfg.seed, case.name, todo)):
        args, payload = case.build.inputs(_seat(rng, words), cfg, forced)
        table[i, cond] = args, payload, rng.bit_generator.state
        drawn.append((args, payload))
    _assemble_pairs(drawn)


def _build(
    case: CaseDef, cfg: CaseConfig, forced: dict, entry: tuple, rng: np.random.Generator
) -> Built:
    """Phase 3: build an instance from its table ``entry``, resuming its
    stream on ``rng`` from the state after its input draw, so the draws
    that follow read the same numbers as after a fresh draw. Each build
    gets its own copies of the args and payload dicts; the arrays they
    share are read-only."""
    args, payload, state = entry
    rng.bit_generator.state = state
    return case.build(rng, cfg, forced, drawn=(dict(args), dict(payload)))


def _instances(
    case: CaseDef,
    cfg: CaseConfig,
    forced: dict,
    table: dict | None = None,
    rng: np.random.Generator | None = None,
):
    """Yield (index, built) for every index ``0 .. cfg.instances - 1``.

    Instance ``index`` draws from ``instance_rng(seed, case, index)``'s
    stream, on one Generator (``rng``, or a new one). The streams are seeded
    in one block by ``_stream_states``.

    A case whose declared ``inputs`` draw an SPD pair (every matrix case),
    and in a sweep (``table`` given) every case with ``inputs``, builds the
    block in three phases:

    1. draw: seat each stream, draw its inputs and record them in the table
       with the stream state after the draw (``_draw_block``);
    2. assemble: one QR and one assembly per n over the whole block
       (``_assemble_pairs``), then the ordered B = A + B';
    3. build: resume each stream from its recorded state (``_build``).

    ``run_case`` passes no table and fills a fresh one. A sweep keeps its
    table across grid values, so a repeat draws and seeds nothing. The
    scalar cases draw and build each instance in one pass: they have
    nothing to stack, and no stream state to save.
    """
    rng = _new_generator() if rng is None else rng
    inputs = getattr(case.build, "inputs", None)
    indices = range(cfg.instances)
    if inputs is None or (table is None and inputs not in _PAIR_INPUTS):
        for i, words in zip(indices, _stream_states(cfg.seed, case.name, indices)):
            yield i, case.build(_seat(rng, words), cfg, forced)
        return
    table = {} if table is None else table
    _draw_block(case, cfg, forced, indices, table, rng)
    cond = forced.get("cond")
    for i in indices:
        yield i, _build(case, cfg, forced, table[i, cond], rng)


def build_instance(name: str, index: int, forced: dict | None = None, **overrides) -> Built:
    """Build one instance of a case alone, its inputs drawn and assembled as
    a stack of one."""
    case = _case(name)
    cfg = _config_for(case, overrides)
    forced = dict(forced or {})
    rng = instance_rng(cfg.seed, name, index)
    inputs = getattr(case.build, "inputs", None)
    if inputs is None:
        return case.build(rng, cfg, forced)
    drawn = inputs(rng, cfg, forced)
    _assemble_pairs([drawn])
    return case.build(rng, cfg, forced, drawn=drawn)


def _write_failure(directory: Path, name: str, index: int, built: Built, row, cfg) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    data = {
        "case": name,
        "instance": index,
        "seed": cfg.seed,
        "rel_tol": cfg.rel_tol,
        "slacks": row,
        "params": built.payload,
    }
    (directory / f"{name}-{index:05d}.json").write_text(json.dumps(data, indent=1))


def run_case(
    name: str,
    failures_dir: str | Path | None = None,
    **overrides,
) -> ChainReport:
    """Run one registered case and aggregate its slack statistics.

    Deterministic for a fixed config: every instance derives its own RNG
    stream from (seed, case, index), and every index ``0 .. instances - 1``
    is checked (the report's ``skipped`` is 0). Failing instances are
    serialized to ``failures_dir`` when given, capped per case.
    """
    case = _case(name)
    cfg = _config_for(case, overrides)
    rows: list[list[float]] = []
    gaps: list[float] = []
    written = 0
    for index, built in _instances(case, cfg, {}):
        row, gap = built.verdict()
        rows.append(row)
        gaps.append(gap)
        if (
            failures_dir is not None
            and written < MAX_FAILURE_FILES_PER_CASE
            and _row_fails(row, cfg.rel_tol)
        ):
            _write_failure(Path(failures_dir), name, index, built, row, cfg)
            written += 1
    return aggregate_report(name, rows, gaps, cfg.rel_tol, notes=case.description)


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
    if isinstance(built.refined, HermitianMatrix):
        return float(np.trace(built.refined.a - built.base.a).real)
    return float(built.refined - built.base)


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


def sweep(
    name: str,
    param: str,
    grid,
    **overrides,
) -> list[SweepRow]:
    """Re-evaluate a case while pinning one parameter to each grid value.

    Instances keep their identity across the grid (same per-index draws with
    only ``param`` overridden), so columns are directly comparable. A
    case with declared inputs draws and assembles each instance's inputs
    (A, B, X, ...) once per cond and re-evaluates only the rest at each grid
    value; the other cases redraw. Returns one row per grid value with the mean end-to-end
    gap and mean refinement gain (refined bound minus unrefined bound; trace
    difference for operator chains). Every grid value is checked by
    ``sweep_values`` before any instance is built.
    """
    case = _case(name)
    if param not in case.sweep_params:
        raise DomainError(
            f"case {name!r} does not sweep {param!r}; supported: {case.sweep_params}"
        )
    values = sweep_values(param, grid, case.nu_branch)
    cfg = _config_for(case, overrides)
    table: dict = {}
    rng = _new_generator()
    out = []
    for value in values:
        gaps = []
        gains = []
        for _, built in _instances(case, cfg, {param: value}, table, rng):
            gaps.append(built.gap())
            gains.append(_gain(built))
        out.append(
            SweepRow(float(value), float(np.mean(gaps)), float(np.mean(gains)))
        )
    return out
