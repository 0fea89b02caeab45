"""Randomized verification harness for every inequality chain in the package.

Each registered case is a draw and a build. ``draw(rng, cfg, cond)`` reads
every random number of one instance (its inputs, then nu, the depth or its
other parameters) and returns only the build's keyword arguments. The
payload that replays them is derived from them (``_replay``), only where a
failure file or ``build_instance`` needs it. The pure ``build(args,
grid)`` evaluates, at each grid value (a dict of pins), an inequality
chain (checked link by link) or a vector of normalized margins (checked
against ``-rel_tol``). Instances
draw from a stream keyed by ``hash(seed, case name, instance index)``, so
runs are deterministic, order-insensitive, and individual instances can be
replayed. Every drawn instance is checked: a case of ``instances``
instances builds indices ``0 .. instances - 1``, and none is skipped.

Most cases follow the paper's pattern of a classical bound, a dyadic
refinement of depth N, then the target. Each of them is one row: an input
draw, a chain function, a weight branch and a base label (``_refinement``).
A scalar row builds one chain per grid value; a matrix row builds its whole
grid in one call of the chain's grid form (``_grid_refinement``).
Identities, shape checks and the other margin cases have a one-value build
of their own (``_each``).

``run_suite``, ``sweep`` and ``build_instance`` share one loop,
``_evaluated``, over a list of (case, cfg, cond, indices) slices; ``run_case``
is ``run_suite`` of one name. The loop cuts a call's instances, in order,
into blocks of at most ``_BLOCK`` across case boundaries. Each block is
seeded with one ``_seed_words`` call (``_seated``), draws its instances,
and assembles their SPD pairs with one QR and one assembly per dimension
n across its cases. The drawn instances, in order, are built in parts of
at most ``_BLOCK`` grid values: ``_BLOCK`` // g instances (at least one)
at a grid of g values, ``_BLOCK`` at the grid of one that ``run_suite``
passes. Every build of a part, plain or not, goes through one
``norms._run_all`` call, whose kernel call per round takes the norm
requests of the part's norm and Heinz builds; an operator or trace grid
build runs its grid form in that call's first round. The loop then
yields the part's instances in draw order, each built at every grid
value in one call. No bit depends on the block or the part. A build
reads no random number, so a pin cannot move a stream, and no stream
state is saved or restored. ``run_suite`` decides each case as soon as
its last instance is built, before any later case is built.

An instance draws from a ``_Stream``: its PCG64 stream, stepped in Python
ints. ``random()`` and ``integers`` over fewer than 2^32 values, all that
a scalar case draws, are read there, bit for bit as numpy's ``Generator``
reads them. The first other call (a Gaussian, an ``out=`` fill, a wider
range) seats the call's one Generator at the stream's state and sends
that instance's later draws to numpy, so a matrix case is read in Python
up to its dimension. ``test_instance_stream_pinned`` records values of
numpy's own stream, so it fails if numpy changes PCG64's output or
``integers``' reduction.

Every request is checked once, by ``_request``, before any instance is
drawn: the case must exist, the config it runs (its own overrides, then
the caller's) must be valid, and a swept parameter must be one the case
sweeps, at values ``sweep_values`` accepts. ``run_suite``, ``sweep`` and
``build_instance`` call it; what it rejects raises ``RequestError``, which
the CLI reports as a usage error.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import GeneratorType
from typing import Callable

import numpy as np

from . import means, norms, scalar
from .errors import DomainError, RequestError
from .linalg import (
    ComplexMatrix,
    SpdMatrix,
    _assemble_spds,
    _check_cond,
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
    ``instances``, ``seed``, ``dim_min`` and ``dim_max`` pass
    ``scalar._check_int`` and are kept as ints; the depths pass
    ``scalar._check_depth`` and ``cond_max`` the cond rule,
    ``linalg._check_cond``.
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
        for field in ("instances", "seed", "dim_min", "dim_max"):
            object.__setattr__(self, field, scalar._check_int(getattr(self, field), field))
        if self.instances < 1:
            raise DomainError("instances must be >= 1")
        if not 0.0 <= self.rel_tol < math.inf:  # NaN compares false; inf passes any non-NaN slack
            raise DomainError("rel_tol must be finite and >= 0")
        if not (1 <= self.dim_min <= self.dim_max):
            raise DomainError(f"bad dimension range {self.dim_min}..{self.dim_max}")
        _check_cond("cond_max", self.cond_max)
        if not (0.0 <= self.nu_range[0] <= self.nu_range[1]):
            raise DomainError(f"bad weight magnitude range {self.nu_range}")
        if self.nu_range[1] == math.inf:
            raise DomainError(f"weight magnitude range must be finite, got {self.nu_range}")
        if not scalar._check_depth(self.depth_min) <= scalar._check_depth(self.depth_max):
            raise DomainError(f"bad depth range {self.depth_min}..{self.depth_max}")


class Built:
    """One evaluated instance: a chain or a margins vector, plus replay data.

    Margin-style cases report normalized margins directly (pass at
    ``>= -rel_tol``); their "gap" is the largest margin, standing in for the
    end-to-end chain gap as the tightness measure. ``refined`` and ``base``
    are floats, or value rows of an ``OperatorChain``.

    A case's build evaluates the instance; ``build_instance`` then puts the
    replay payload derived from its build arguments (``_replay``) in
    ``drawn``, its matrices as they are. Reading ``payload`` serializes
    them with ``matrix_to_json``. Only failure files serialize a payload,
    so an instance that passes never serializes its inputs.
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


#: Each catalog function's name, the one a payload gives it by.
_CATALOG_NAMES = {f: fname for fname, f in scalar.CONVEX_CATALOG + scalar.LOGCONVEX_CATALOG}


def _replay(args: dict, cond: float) -> dict:
    """The replay payload of an instance's build arguments ``args``, drawn
    at the condition bound ``cond``. An SPD pair comes first: "a", "b",
    then ``cond`` and "n". Every other argument follows in draw order, a
    catalog function by its catalog name and a norm kind by ``str``."""
    a = args.get("a")
    payload = {"a": a, "b": args["b"], "cond": cond, "n": a.n} if isinstance(a, SpdMatrix) else {}
    for key, v in args.items():
        payload.setdefault(key, _CATALOG_NAMES[v] if key == "f" else str(v) if key == "kind" else v)
    return payload


def _payload_json(drawn: dict) -> dict:
    """Drawn parameters with their matrices serialized by ``matrix_to_json``."""
    return {
        key: matrix_to_json(v) if isinstance(v, (ComplexMatrix, np.ndarray)) else v
        for key, v in drawn.items()
    }


@dataclass(frozen=True)
class CaseDef:
    """A registered case: ``draw(rng, cfg, cond) -> args`` reads every
    random number of one instance and returns the build's keyword
    arguments, from which ``_replay`` derives its payload, and the pure
    ``build(args, grid)`` gives its ``Built`` at each grid value (see
    ``_evaluated``)."""

    name: str
    draw: Callable[[np.random.Generator, CaseConfig, float], dict]
    build: Callable[[dict, list], list[Built]]
    overrides: dict
    sweep_params: tuple[str, ...]
    description: str
    nu_branch: int = 0  # +1: nu >= 0, -1: nu <= -1, 0: either


REGISTRY: dict[str, CaseDef] = {}


def _each(build):
    """The grid build of a one-value ``build(**args)``: one call per grid
    value, with its pins in a copy of the args. A norm build returns a
    generator run (``norms._batchable``), and the grid's run in turn
    (``_in_turn``)."""

    def grid_build(args, grid):
        runs = [build(**{**args, **pins}) for pins in grid]
        return _in_turn(runs) if runs and type(runs[0]) is GeneratorType else runs

    return grid_build


def _in_turn(runs: list):
    """A generator run (``norms._run_all``) of a list of generator runs:
    each in turn, then the list of their results."""
    results = []
    for run in runs:
        results.append((yield from run))
    return results


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


def _request(name: str, overrides: dict, param: str | None = None, grid=()) -> tuple:
    """The one check of a request: ``(case, cfg, values)``. It looks up the
    case ``name``, builds the config that case runs (its own overrides, then
    the caller's), and, for a swept ``param``, checks that the case sweeps
    it and gives ``sweep_values`` of ``grid``. Raises RequestError, a
    DomainError, for a bad request, before any instance is drawn."""
    try:
        case = _case(name)
        cfg = CaseConfig(**{**case.overrides, **overrides})
        if param is None:
            return case, cfg, []
        if param not in case.sweep_params:
            raise DomainError(
                f"case {name!r} does not sweep {param!r}; supported: {case.sweep_params}"
            )
        return case, cfg, sweep_values(param, grid, case.nu_branch)
    except DomainError as exc:
        raise RequestError(str(exc)) from exc


# numpy's SeedSequence mixing constants and PCG64's 128-bit LCG multiplier.
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK_32, _MASK_64, _MASK_128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_TWO_M53 = 2.0**-53
_INT64_MIN, _INT64_END = -(1 << 63), 1 << 63  # numpy's int64 bounds, high exclusive


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


def _entropy(seed: int, case_name: str, indices) -> list[bytes]:
    """Each index's entropy: the 64-bit blake2b digest of
    ``"seed:case_name:index"``, read little-endian."""
    prefix = f"{seed}:{case_name}:"
    blake2b = hashlib.blake2b
    return [blake2b(f"{prefix}{i}".encode(), digest_size=8).digest() for i in indices]


def _new_generator() -> np.random.Generator:
    """The Generator that instance streams hand off to (``_Stream``; fixed
    seed: no OS entropy is drawn)."""
    return np.random.Generator(np.random.PCG64(0))


class _Stream:
    """One instance's PCG64 stream, read in Python ints until a draw needs
    numpy: built from the four words of a ``_seed_words`` row and the call's
    one Generator.

    PCG64's seeding step is ``inc = (i0:i1) << 1 | 1`` and ``state =
    ((s0:s1) + inc) * MULT + inc`` mod 2^128. Each 64-bit output steps the
    state, then applies XSL-RR to it (O'Neill, "PCG", HMC-CS-2014-0905).
    ``random()`` is ``(next64 >> 11) * 2^-53``, and ``integers(low, high)``
    over fewer than 2^32 values is Lemire's method on PCG64's 32-bit halves,
    the upper half of a 64-bit output buffered for the next one ("Fast
    random integer generation in an interval", ACM TOMACS 29(1), 2019); a
    range of one value reads nothing. Both are numpy's ``Generator`` calls
    bit for bit and to the same stream position. Any other call (an
    ``out`` or ``size`` argument, a wider range, ``standard_normal``)
    first seats the Generator at the stream's current state, buffered half
    included (``_handoff``), and from then on every draw of the instance
    goes to numpy. A draw reads only these three methods.
    """

    def __init__(self, rng: np.random.Generator, s0: int, s1: int, i0: int, i1: int):
        self._rng = rng
        self._inc = inc = ((i0 << 64 | i1) << 1 | 1) & _MASK_128
        self._state = (((s0 << 64 | s1) + inc) * _PCG_MULT + inc) & _MASK_128
        # PCG64's buffer: the upper 32 bits of an output whose lower 32 bits
        # were read, and whether they are unread (numpy keeps them once read).
        self._half, self._has_half = 0, False

    def _next32(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half
        # One 64-bit output: step the LCG, then XSL-RR (xor the halves,
        # rotate right by the top 6 bits).
        self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK_128
        x = (state ^ state >> 64) & _MASK_64
        x = (x << 64 | x) >> (state >> 122) & _MASK_64
        self._half, self._has_half = x >> 32, True
        return x & _MASK_32

    def random(self, *args, **kwargs):
        if args or kwargs:
            return self._handoff().random(*args, **kwargs)
        # The 64-bit output of _next32, inlined: the hot path of a scalar draw.
        self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK_128
        x = (state ^ state >> 64) & _MASK_64
        return (((x << 64 | x) >> (state >> 122) & _MASK_64) >> 11) * _TWO_M53

    def integers(self, low, high=None, *args, **kwargs):
        if high is None:
            low, high = 0, low
        if (
            args or kwargs or type(low) is not int or type(high) is not int
            or not 0 < high - low < 1 << 32 or low < _INT64_MIN or high > _INT64_END
        ):
            return self._handoff().integers(low, high, *args, **kwargs)
        width = high - low
        if width == 1:
            return low
        m = self._next32() * width
        if m & _MASK_32 < width:
            threshold = (1 << 32) % width
            while m & _MASK_32 < threshold:
                m = self._next32() * width
        return low + (m >> 32)

    def standard_normal(self, *args, **kwargs):
        return self._handoff().standard_normal(*args, **kwargs)

    def _handoff(self) -> np.random.Generator:
        """Seat the shared Generator at this stream's current state and
        return it. The stream's ``random``, ``integers`` and
        ``standard_normal`` are the Generator's own from then on, so every
        later draw goes straight to numpy and this runs once."""
        rng = self._rng
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": self._state, "inc": self._inc},
            "has_uint32": int(self._has_half),
            "uinteger": self._half,
        }
        self.random, self.integers = rng.random, rng.integers
        self.standard_normal = rng.standard_normal
        return rng


def instance_rng(seed: int, case_name: str, index: int) -> np.random.Generator:
    """Independent, platform-stable stream for one instance of one case:
    ``np.random.default_rng`` of the instance's ``_entropy``. The harness
    seeds the same streams a block at a time (``_seated``)."""
    return np.random.default_rng(int.from_bytes(_entropy(seed, case_name, [index])[0], "little"))


# ---------------------------------------------------------------------------
# Draws. A case's ``draw(rng, cfg, cond)`` reads every random number of one
# instance and returns the build's keyword arguments, in one dict; ``cond``
# bounds the condition number of its SPD matrices.

def _uniform(rng, lo, hi):
    """``rng.uniform(lo, hi)`` for float bounds, bit for bit and to the same
    stream position, without ``uniform``'s argument handling.

    numpy computes ``low + (high - low) * next_double``, one uint64 per
    value, and so does this from ``rng.random()``, which a ``_Stream`` reads
    in Python (``(next64 >> 11) * 2^-53``, numpy's ``next_double``) until
    the instance hands off to numpy. The identity holds where
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


# The key under which a draw leaves its SPD pair, drawn but not yet
# assembled, for ``_assemble_pairs``.
_PAIR = "_pair"


def _spd_pair(rng, cfg, cond, cap=None, ordered=False):
    """Draw the inputs of two random SPD matrices: n, then each matrix's
    Gaussian and spectrum, left under ``_PAIR`` for ``_assemble_pairs``
    (A <= B when ``ordered``)."""
    n = _draw_dim(rng, cfg, cap)
    g, lam = _draw_spds(n, cond, rng, 2)
    return {_PAIR: (g, lam, ordered)}


def _assemble_pairs(drawn) -> None:
    """Assemble the SPD pairs of the drawn args of (k, index, args)
    records: one ``_assemble_spds`` per n over all of them, then the
    ordered B = A + B'. Each pair's ``_PAIR`` entry gives way to A and B
    under "a" and "b"; args without a pair are left as they are."""
    groups: dict[int, list] = {}
    for _, _, args in drawn:
        pair = args.pop(_PAIR, None)
        if pair is not None:
            groups.setdefault(pair[1].shape[-1], []).append((args, pair))
    for group in groups.values():
        spds = _assemble_spds(
            np.concatenate([g for _, (g, _, _) in group]),
            np.concatenate([lam for _, (_, lam, _) in group]),
        )
        for (args, (_, _, ordered)), a, b in zip(group, spds[::2], spds[1::2]):
            if ordered:
                b = SpdMatrix(a.a + b.a)  # B = A + SPD
            args["a"] = a
            args["b"] = b


def _catalog_inputs(catalog):
    def draw(rng, cfg, cond):
        _, f = catalog[int(rng.integers(len(catalog)))]
        a = _uniform(rng, -5.0, 5.0)
        b = _uniform(rng, -5.0, 5.0)
        while abs(b - a) < 1e-3:
            b = _uniform(rng, -5.0, 5.0)
        return {"f": f, "a": min(a, b), "b": max(a, b)}

    return draw


_convex_inputs = _catalog_inputs(scalar.CONVEX_CATALOG)
_logconvex_inputs = _catalog_inputs(scalar.LOGCONVEX_CATALOG)


def _xy_inputs(rng, cfg, cond):
    return {"x": _loguniform(rng, *_LOG_XY), "y": _loguniform(rng, *_LOG_XY)}


def _ordered_xy_inputs(rng, cfg, cond):
    """0 < x < y, both log-uniform in [1e-3, 1e3]."""
    x = _loguniform(rng, *_LOG_XY)
    y = _loguniform(rng, *_LOG_XY)
    while y == x:  # pragma: no cover - measure zero
        y = _loguniform(rng, *_LOG_XY)
    return {"x": min(x, y), "y": max(x, y)}


_spd_inputs = _spd_pair
_ordered_spd_inputs = functools.partial(_spd_pair, ordered=True)


def _norm_inputs(rng, cfg, cond):
    """SPD A, B (n capped at 6), a complex Gaussian X and a rotating norm kind.
    X is read-only: the payload and the build of every grid value share it."""
    args = _spd_pair(rng, cfg, cond, cap=6)
    n = args[_PAIR][1].shape[-1]
    z = rng.standard_normal((2, n, n))
    args["x"] = z[0] + 1j * z[1]
    args["x"].setflags(write=False)
    args["kind"] = norms.DEFAULT_NORM_KINDS[int(rng.integers(len(norms.DEFAULT_NORM_KINDS)))]
    return args


def _weighted(inputs, branch, depth=True):
    """The draw of ``inputs``, then of nu on ``branch`` (+1: nu >= 0, -1:
    nu <= -1, 0: either), then of the depth unless ``depth`` is false."""

    def draw(rng, cfg, cond):
        args = inputs(rng, cfg, cond)
        args["nu"] = _draw_nu(rng, cfg, branch)
        if depth:
            args["depth"] = _draw_depth(rng, cfg)
        return args

    return draw


def _built(chain, base=None) -> Built:
    """The ``Built`` of a chain. ``base`` names its unrefined bound; with it
    the "refined" and ``base`` entries feed the sweep gain."""
    if base is None:
        return Built(chain=chain)
    return Built(chain=chain, refined=chain.value("refined"), base=chain.value(base))


def _chain_build(chain_fn, base=None, **fixed):
    """The build that checks ``chain_fn(**args, **fixed)`` at each grid
    value, one call per value."""

    def build(args, grid):
        return [_built(chain_fn(**{**args, **pins}, **fixed), base) for pins in grid]

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


def _grid_refinement(inputs, grid_form, *, branch, base=None, depth=True):
    """``_refinement`` of a chain checked through its ``grid_form``: one
    call per instance, on the (nu, depth) pairs of the whole grid, or its
    nus for a chain without a depth. The build is a generator run
    (``norms._run_all``): a norm grid form's ``steps`` runs in it with
    ``yield from``, and a ``means`` grid form, which needs no kernel, in
    its first round."""

    def build(args, grid):
        kwargs = {k: v for k, v in args.items() if k not in ("nu", "depth")}
        weights = [args | pins for pins in grid]
        kwargs["grid"] = [(w["nu"], w["depth"]) if "depth" in w else w["nu"] for w in weights]
        chains = grid_form(**kwargs)
        if type(chains) is GeneratorType:
            chains = yield from chains
        return [_built(chain, base) for chain in chains]

    return {"draw": _weighted(inputs, branch, depth), "build": build, "nu_branch": branch}


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
    build=_each(_build_young_squared),
)


def _draw_young_refined_t(rng, cfg, cond):
    args = _xy_inputs(rng, cfg, cond)
    args["t"] = 1.0 - _uniform(rng, 0.0, 1.0)  # in (0, 1]
    args["depth"] = _draw_depth(rng, cfg)
    return args


def _build_young_refined_t(x, y, t, depth):
    chain = scalar.young_refinement_chain(x, y, t, depth)
    return Built(chain=chain, refined=chain.value("refined"), base=scalar.geom_mean(x, y, 1.0 - t))


_register(
    "young_refined_t",
    overrides={"instances": 1000, "rel_tol": 1e-10},
    sweep=("depth",),
    description="forward Young refinement in the interpolation parameter t",
    draw=_draw_young_refined_t, build=_each(_build_young_refined_t),
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
    build=_each(_build_young_collapse),
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
    return {"x": x, "y": x * _uniform(rng, 1.5, 4.0), "nu": _uniform(rng, -2.9, 0.9)}


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
    draw=_draw_harmonic_curvature, build=_each(_build_harmonic_curvature),
)


# ---------------------------------------------------------------------------
# Operator and trace cases.

_register(
    "operator_reverse_pos",
    sweep=("nu", "depth", "cond"),
    description="operator reverse Young refinement, nu >= 0",
    **_grid_refinement(_spd_inputs, means._operator_reverse_grid, branch=1, base="arith"),
)

_register(
    "operator_reverse_neg",
    sweep=("nu", "depth", "cond"),
    description="operator reverse Young refinement, nu <= -1",
    **_grid_refinement(_spd_inputs, means._operator_reverse_grid, branch=-1, base="arith"),
)

_register(
    "operator_squared_pos",
    sweep=("nu", "depth", "cond"),
    description="squared operator reverse Young refinement, nu >= 0",
    **_grid_refinement(_spd_inputs, means._operator_squared_grid, branch=1, base="scaled_arith"),
)

_register(
    "operator_squared_neg",
    sweep=("nu", "depth", "cond"),
    description="squared operator refinement, nu <= -1 (B A^{-1} B form)",
    **_grid_refinement(_spd_inputs, means._operator_squared_grid, branch=-1, base="scaled_b"),
)

_register(
    "harmonic_operator",
    sweep=("nu", "depth", "cond"),
    description="refined reverse arithmetic-harmonic operator inequality, A <= B",
    **_grid_refinement(_ordered_spd_inputs, means._harmonic_operator_grid, branch=1, base="arith"),
)

_register(
    "kantorovich_operator",
    sweep=("nu",),
    description="Kantorovich-weighted reverse geometric-harmonic operator bound, A <= B",
    **_grid_refinement(
        _ordered_spd_inputs, means._kantorovich_operator_grid, branch=1, depth=False
    ),
)

_register(
    "trace_additive",
    overrides={"rel_tol": 1e-9},
    sweep=("nu", "depth", "cond"),
    description="additive trace refinement chain",
    **_grid_refinement(_spd_inputs, means._trace_additive_grid, branch=1, base="arith"),
)

_register(
    "trace_multiplicative",
    overrides={"rel_tol": 1e-9},
    sweep=("nu", "depth", "cond"),
    description="multiplicative trace refinement chain",
    **_grid_refinement(_spd_inputs, means._trace_multiplicative_grid, branch=1, base="power"),
)

_register(
    "trace_depth1",
    overrides={"rel_tol": 1e-9},
    sweep=("nu",),
    description="depth-1 trace specializations and the Schatten-1 comparison",
    **_grid_refinement(_spd_inputs, means._trace_depth1_grid, branch=1, depth=False),
)


# ---------------------------------------------------------------------------
# Norm and Heinz cases (dimension capped at 6, all five norm kinds in rotation).

_register(
    "norm_reverse_pos",
    overrides={"instances": 500},
    sweep=("nu", "depth", "cond"),
    description="norm-functional reverse refinement, nu >= 0",
    **_grid_refinement(_norm_inputs, norms._norm_reverse_grid.steps, branch=1, base="power"),
)

_register(
    "norm_reverse_neg",
    overrides={"instances": 500},
    sweep=("nu", "depth", "cond"),
    description="norm-functional reverse refinement, nu <= -1",
    **_grid_refinement(_norm_inputs, norms._norm_reverse_grid.steps, branch=-1, base="power"),
)

_register(
    "norm_heinz_power",
    overrides={"instances": 500},
    sweep=("nu", "depth", "cond"),
    description="two-sided power refinement ||A^{1+nu} X B^{1+nu}||",
    **_grid_refinement(_norm_inputs, norms._norm_heinz_grid.steps, branch=1, base="power"),
)

_register(
    "norm_combined",
    overrides={"instances": 500},
    sweep=("nu", "depth", "cond"),
    description="five-term chain joining scalar and norm-functional refinements",
    **_grid_refinement(_norm_inputs, norms._combined_norm_grid.steps, branch=1, base="power"),
)


def _build_norm_collapse(a, b, x, kind, nu):
    # f(1/2) = ||A^{1/2} X B^{1/2}||, f(-nu), ||AX||, ||AXB|| and
    # ||A^{1+nu} X B^{1+nu}||, from one SVD of the five products.
    half, f_end, f_ax, g0, g_end = (yield from norms._product_norms.steps(
        a, b, x, [0.5, 1.0 + nu, 1.0, 1.0, 1.0 + nu], [0.5, -nu, 0.0, 1.0, 1.0 + nu], kind
    )).tolist()
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
    build=_each(_build_norm_collapse),
)


def _draw_norm_logconvexity(rng, cfg, cond):
    args = _norm_inputs(rng, cfg, cond)
    args["v1"], args["v2"] = _uniform(rng, -2.0, 3.0), _uniform(rng, -2.0, 3.0)
    args["alpha"] = _uniform(rng, 0.0, 1.0)
    return args


def _build_norm_logconvexity(a, b, x, kind, v1, v2, alpha):
    weights = [v1, v2, alpha * v1 + (1 - alpha) * v2]
    fa, fb, fm = (yield from norms._functional_values.steps(a, b, x, weights, kind)).tolist()
    bound = math.exp(alpha * math.log(fa) + (1 - alpha) * math.log(fb))
    return Built(margins=np.array([(bound - fm) / max(1.0, bound, fm)]))


_register(
    "norm_logconvexity",
    overrides={"instances": 500, "rel_tol": 1e-9},
    description="log-convexity of v -> ||A^{1-v} X B^v|| on random combinations",
    draw=_draw_norm_logconvexity, build=_each(_build_norm_logconvexity),
)


def _draw_heinz_symmetry(rng, cfg, cond):
    args = _norm_inputs(rng, cfg, cond)
    args["nu"] = _uniform(rng, -3.0, 4.0)
    return args


def _build_heinz_symmetry(a, b, x, kind, nu):
    # The kernel maps nu and 1 - nu to one canonical exponent pair, up to
    # the rounding of 1 - nu: this checks that form, relative to the value.
    f_nu, f_mirror = (yield from norms._heinz_values.steps(a, b, x, [nu, 1.0 - nu], kind)).tolist()
    defect = abs(f_nu - f_mirror) / max(1.0, f_nu, f_mirror)
    return Built(margins=np.array([(1e-10 - defect) / 1e-10]))


_register(
    "heinz_symmetry",
    overrides={"instances": 500, "rel_tol": 0.0},
    description="Heinz functional symmetry f(nu) = f(1-nu) to 1e-10 of max(1, f)",
    draw=_draw_heinz_symmetry, build=_each(_build_heinz_symmetry),
)


def _draw_heinz_midpoint(rng, cfg, cond):
    args = _norm_inputs(rng, cfg, cond)
    args["v1"], args["v2"] = _uniform(rng, -3.0, 4.0), _uniform(rng, -3.0, 4.0)
    return args


def _build_heinz_midpoint(a, b, x, kind, v1, v2):
    margin = yield from norms.heinz_midpoint_margin.steps(a, b, x, v1, v2, kind)
    return Built(margins=np.array([margin]))


_register(
    "heinz_midpoint_convexity",
    overrides={"instances": 500},
    description="midpoint convexity of the Heinz functional on [-3, 4]",
    draw=_draw_heinz_midpoint, build=_each(_build_heinz_midpoint),
)


def _build_heinz_monotonicity(a, b, x, kind):
    margins, _ = yield from norms.heinz_grid_margins.steps(a, b, x, kind)
    return Built(margins=margins)


_register(
    "heinz_monotonicity",
    overrides={"instances": 50},
    description="Heinz functional nonincreasing on [-3, 1/2], nondecreasing on [1/2, 4]",
    draw=_norm_inputs, build=_each(_build_heinz_monotonicity),
)

_register(
    "heinz_reverse",
    overrides={"nu_range": (0.0, 4.0)},
    sweep=("nu", "depth", "cond"),
    description="reversed Heinz inequality with dyadic refinement",
    **_grid_refinement(_norm_inputs, norms._heinz_reverse_grid.steps, branch=1, base="sum_norm"),
)


def _draw_heinz_outside(rng, cfg, cond):
    args = _norm_inputs(rng, cfg, cond)
    below = rng.integers(2) == 0
    args["nu"] = -_uniform(rng, 0.01, 3.0) if below else 1.0 + _uniform(rng, 0.01, 3.0)
    return args


def _build_heinz_outside(a, b, x, kind, nu):
    f0, fv = (yield from norms._heinz_values.steps(a, b, x, [0.0, nu], kind)).tolist()
    return Built(margins=np.array([(fv - f0) / max(1.0, f0, fv)]))


_register(
    "heinz_reverse_outside",
    overrides={"instances": 200},
    description="||AX + XB|| <= f(nu) for weights outside [0, 1]",
    draw=_draw_heinz_outside, build=_each(_build_heinz_outside),
)


def _draw_heinz_pq(rng, cfg, cond):
    """Norm inputs, then 0 < q < p < 3."""
    args = _norm_inputs(rng, cfg, cond)
    args["p"] = _uniform(rng, 0.2, 3.0)
    args["q"] = args["p"] * _uniform(rng, 0.05, 0.95)
    return args


def _build_heinz_pq(a, b, x, kind, p, q):
    return Built(chain=(yield from norms.heinz_pq_chain.steps(a, b, x, p, q, kind)))


_register(
    "heinz_pq",
    overrides={"instances": 200},
    description="power-difference comparison for 0 < q < p",
    draw=_draw_heinz_pq, build=_each(_build_heinz_pq),
)


def _draw_heinz_interpolated(rng, cfg, cond):
    args = _draw_heinz_pq(rng, cfg, cond)
    args["r"] = args["q"] * _uniform(rng, 0.02, 0.98)
    return args


def _build_heinz_interpolated(a, b, x, kind, p, q, r):
    return Built(chain=(yield from norms.heinz_interpolated_chain.steps(a, b, x, p, q, r, kind)))


_register(
    "heinz_interpolated",
    overrides={"instances": 200},
    description="interpolated power-difference comparison for 0 < r < q < p",
    draw=_draw_heinz_interpolated, build=_each(_build_heinz_interpolated),
)


def _build_heinz_interp_grid(a, b, x, kind, p, q):
    rs = np.linspace(0.0, q, 9)
    vals = yield from norms.heinz_interpolation_values.steps(a, b, x, p, q, rs, kind)
    scale = max(1.0, float(np.max(vals)))
    return Built(margins=(vals[:-1] - vals[1:]) / scale)


_register(
    "heinz_interpolated_grid",
    overrides={"instances": 200},
    description="interpolated Heinz value nonincreasing in r on [0, q]",
    draw=_draw_heinz_pq, build=_each(_build_heinz_interp_grid),
)


# ---------------------------------------------------------------------------
# Execution.

#: The most instances a block draws, assembles and builds at once. A call's
#: slices are cut into blocks across case boundaries (``_blocks``), so the
#: fixed cost of seeding and assembling is paid per block, not per case, and
#: what a block holds does not grow with the largest case.
_BLOCK = 256


def _blocks(slices):
    """Cut ``slices``, a list of (case, cfg, cond, indices), in order, into
    blocks of at most ``_BLOCK`` instances. A block is a list of (k,
    indices) pieces, each a run of the indices of slice k; a slice may span
    blocks."""
    block, room = [], _BLOCK
    for k, (_, _, _, indices) in enumerate(slices):
        start = 0
        while start < len(indices):
            piece = indices[start : start + room]
            block.append((k, piece))
            start += len(piece)
            room -= len(piece)
            if not room:
                yield block
                block, room = [], _BLOCK
    if block:
        yield block


def _seated(slices, block) -> list:
    """The PCG64 seed words of each instance of ``block`` (a block of
    ``slices``), in order, as rows of Python ints for ``_Stream``: those of
    ``instance_rng``'s stream, from one ``_seed_words`` call."""
    entropy = []
    for k, indices in block:
        case, cfg = slices[k][:2]
        entropy += _entropy(cfg.seed, case.name, indices)
    return _seed_words(b"".join(entropy)).tolist()


def _instances(slices, rng: np.random.Generator):
    """Yield, block by block, the list of (k, index, args) of each instance
    of ``slices``, a list of (case, cfg, cond, indices), in draw order: the
    slice k it belongs to, and its drawn build arguments. Each block of
    ``_blocks`` is

    1. seeded: each instance's stream is a ``_Stream`` of its ``_seated``
       row, which hands off to the one generator ``rng`` at its first
       draw that needs numpy;
    2. drawn: the slice's ``case.draw`` reads every random number of the
       instance, with the slice's condition bound ``cond``;
    3. assembled: the SPD pairs of the block's draws, across its cases,
       with one QR and one assembly per n (``_assemble_pairs``);

    and then yielded, in the order it was drawn. The seeding works row by
    row, and the QR and the assembly matrix by matrix, so a draw does not
    depend on its block."""
    for block in _blocks(slices):
        rows = iter(_seated(slices, block))
        drawn = []
        for k, indices in block:
            case, cfg, cond, _ = slices[k]
            draw = case.draw
            drawn += [(k, i, draw(_Stream(rng, *row), cfg, cond)) for i, row in zip(indices, rows)]
        _assemble_pairs(drawn)
        yield drawn


def _evaluated(slices, rng: np.random.Generator, pins: list):
    """Yield ((k, index, args), builts) for each record of ``_instances``:
    the ``Built`` at each grid value of ``pins``, from one ``case.build(args,
    pins)``, a value's pins in copies of the drawn dict. The records, in
    draw order across the blocks, are built in parts of ``_BLOCK //
    len(pins)`` instances, and at least one: at most ``_BLOCK`` grid values
    in all, unless one instance's grid is longer. A part may span two
    blocks, so a block is seeded, drawn and assembled at its full size
    whatever the grid. Each part builds every record, a build that raises
    leaving its error in the record's place, and makes one
    ``norms._run_all`` call of them: a norm or Heinz build, and any grid
    build of ``_grid_refinement``, is a generator run
    (``norms._batchable``), and each round's one kernel call takes the
    requests of the part's norm and Heinz builds; the runner keeps the
    error of a run that raises in its place, and any other build's result
    as it is. The part's records are then yielded in draw order; a build
    that raised raises as its instance is reached, after every earlier
    instance has been yielded."""
    step = max(1, _BLOCK // max(1, len(pins)))
    builds = [case.build for case, *_ in slices]
    records = itertools.chain.from_iterable(_instances(slices, rng))
    while part := list(itertools.islice(records, step)):
        runs = []
        for k, _, args in part:
            try:
                runs.append(builds[k](args, pins))
            except Exception as exc:  # raised in its instance's place
                runs.append(exc)
        for record, outcome in zip(part, norms._run_all(runs)):
            if isinstance(outcome, Exception):
                raise outcome
            yield record, outcome


def build_instance(name: str, index: int, forced: dict | None = None, **overrides) -> Built:
    """Build one instance of a case alone: a block of one, whose stream is
    ``instance_rng``'s and whose SPD pair is assembled as a stack of one.
    ``forced`` pins sweep parameters of the case to values that
    ``sweep_values`` accepts."""
    case, cfg, _ = _request(name, overrides)
    forced = {
        param: _request(name, overrides, param, [value])[2][0]
        for param, value in (forced or {}).items()
    }
    cond = float(forced.pop("cond", cfg.cond_max))
    (((_, _, args), (built,)),) = _evaluated([(case, cfg, cond, [index])], _new_generator(), [forced])
    built.drawn = _replay({**args, **forced}, cond)
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


def _decide(case_slice, kinds: set, rows: list, failures_dir, rng) -> ChainReport:
    """The report of the value rows of a ``run_suite`` slice, all of its
    instances in index order: ``reporting.case_report`` decides them in one
    array pass. When ``failures_dir`` is given, the first failing instances
    in index order, capped per case, are drawn again from their streams
    (``_instances``), and their payloads (``_replay``) serialized there."""
    case, cfg, cond, _ = case_slice
    if len(kinds) > 1:
        raise DomainError(f"case {case.name} produced value rows of more than one kind")
    report, fails = case_report(case.name, kinds.pop(), rows, cfg.rel_tol, notes=case.description)
    if failures_dir is not None and report.failures:
        failing = np.flatnonzero(fails)[:MAX_FAILURE_FILES_PER_CASE].tolist()
        for _, index, args in itertools.chain.from_iterable(
            _instances([(case, cfg, cond, failing)], rng)
        ):
            row = report.slacks[index].tolist()
            _write_failure(Path(failures_dir), case.name, index, _replay(args, cond), row, cfg)
    return report


def run_case(name: str, failures_dir: str | Path | None = None, **overrides) -> ChainReport:
    """Run one registered case and return its report: ``run_suite`` of the
    one name. Its instances have the streams, the bits and the verdict they
    have in any suite call, whatever cases share their blocks there."""
    return run_suite([name], failures_dir, **overrides)[0]


def run_suite(
    names=None, failures_dir: str | Path | None = None, **overrides
) -> list[ChainReport]:
    """Run every registered case (or the given subset), and return their
    reports in that order.

    Every name and its case's config pass ``_request`` once, before any
    instance is drawn. Each case checks its instances ``0 .. instances -
    1``, none skipped; their (case, index) instances run, in order, through
    one ``_evaluated`` loop on one generator, in blocks of at most
    ``_BLOCK`` instances across case boundaries. Deterministic for a fixed
    config: every instance derives its own stream from (seed, case, index),
    whatever its block. Each instance is built once and leaves only its
    value row (``Built.value_row``). A case is decided, and its failure
    files written to ``failures_dir``, as soon as its last instance is
    built (``_decide``); its rows are dropped then, so the call holds the
    rows of the cases it has not finished and the drawn inputs of at most
    one block. Instances are built in draw order, so every case is decided
    before any later instance raises.
    """
    selected = case_names() if names is None else tuple(names)
    slices = []
    for name in selected:
        case, cfg, _ = _request(name, overrides)
        slices.append((case, cfg, float(cfg.cond_max), range(cfg.instances)))
    rng = _new_generator()
    kinds = [set() for _ in slices]
    rows = [[] for _ in slices]
    counts = [len(indices) for *_, indices in slices]
    reports = [None] * len(slices)
    for (k, _, _), (built,) in _evaluated(slices, rng, [{}]):
        decide, row = built.value_row()
        kinds[k].add(decide)
        case_rows = rows[k]
        case_rows.append(row)
        if len(case_rows) == counts[k]:
            reports[k] = _decide(slices[k], kinds[k], case_rows, failures_dir, rng)
            rows[k] = None
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


def sweep_values(param: str, grid, nu_branch: int = 0) -> list:
    """The values ``sweep`` pins ``param`` to, one per grid value.

    Each value passes its parameter's one rule, which raises DomainError
    for a value no instance can take: a nu off the case's weight branch
    ``nu_branch`` (+1: nu >= 0, -1: nu <= -1, 0: either; see
    ``CaseDef.nu_branch``), an infinite nu, or NaN, fails
    ``scalar._check_weight``; a depth that is not an integer in 1..32 fails
    ``scalar._check_depth``; a cond that is not finite and >= 1 fails
    ``linalg._check_cond``.
    """
    if param == "depth":
        return [scalar._check_depth(value) for value in grid]
    values = [float(value) for value in grid]
    for value in values:
        if param == "nu":
            scalar._check_weight("sweep_values", value, nu_branch)
        elif param == "cond":
            _check_cond("cond", value)
    return values


def sweep(name: str, param: str, grid, **overrides) -> list[SweepRow]:
    """Re-evaluate a case while pinning one parameter to each grid value.

    Instances keep their identity across the grid (the same draws, with only
    ``param`` pinned), so columns are directly comparable. A nu or depth
    sweep draws each instance once and builds all its grid values in one
    call; a cond sweep draws it at each value, one slice per value, so a
    stream is seeded again for each value it is drawn at. Returns one row
    per grid value with the mean end-to-end gap and mean refinement gain
    (refined bound minus unrefined bound; trace difference for operator
    chains). The request, every grid value included, is checked by
    ``_request`` before any instance is drawn. Where several (instance,
    value) builds raise, the one met first, named in the message, may
    differ from a value-by-value order; each is a DomainError or
    ConvergenceError, so ``matmeans sweep`` exits 2 either way.
    """
    case, cfg, values = _request(name, overrides, param, grid)
    indices = range(cfg.instances)
    if param == "cond":
        slices, pins = [(case, cfg, value, indices) for value in values], [{}]
    else:
        slices = [(case, cfg, float(cfg.cond_max), indices)] if values else []
        pins = [{param: value} for value in values]
    columns = [([], []) for _ in values]
    for (k, _, _), builts in _evaluated(slices, _new_generator(), pins):
        # Slice k holds the value k of a cond sweep; its builts fill the columns from there.
        for (gaps, gains), built in zip(columns[k:], builts):
            gaps.append(built.gap())
            gains.append(_gain(built))
    return [
        SweepRow(float(value), _mean(gaps), _mean(gains))
        for value, (gaps, gains) in zip(values, columns)
    ]
