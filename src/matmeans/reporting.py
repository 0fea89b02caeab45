"""Slack accounting for inequality chains and per-case reports.

A chain passes when every consecutive link holds within a relative
tolerance. Scalar links report the normalized forward difference
``(v[i+1] - v[i]) / scale`` with ``scale = max(1, max |v|)``. An operator
chain holds one congruence M and a row of values per matrix
X_i = M diag(v_i) M*, and its matrices are assembled only on first read.
Link i holds exactly when v_{i+1} - v_i >= 0 on every eigenvalue
(Sylvester's law of inertia), so it reports the per-eigenvalue slack
``min_j (hi_j - lo_j) / max(|lo_j|, |hi_j|)`` of the rows lo = v_i and
hi = v_{i+1}, which no large eigenvalue can scale down. A pair of exact
zeros has slack 0. A link fails when its slack drops below ``-rel_tol`` or
is NaN. A difference that overflows raises DomainError.

The harness keeps one value row per instance (``_chain_row``, or a margins
vector) and ``case_report`` decides a whole case in one array pass over
their block: the slacks, the gaps, the failures and ``min_slack``. A
scalar chain's row is its values, decided by ``_scalar_verdicts``. An
operator chain's row is its slack row followed by its gap, decided when
the row is taken: the gap is one ``eigh`` of the end-to-end difference
(kept by the chain's transfer for its last difference, so the chains of
one pair that share their ends, as a depth sweep's do, pay it once).
``chain_slacks`` decides a block of one chain; ``chain_gap`` (the sweep's
path) returns the gap on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .linalg import OperatorChain, _finite
from .scalar import ScalarChain

CSV_HEADER = "case,instances,skipped,failures,min_slack,max_gap"


@dataclass(frozen=True)
class ChainReport:
    """Aggregated verification outcome for one registered case.

    ``min_slack`` is the most negative normalized margin seen over all links
    and instances; ``max_gap`` is the largest end-to-end gap (a tightness
    measure); ``slacks`` is the read-only (instances, links) block of
    normalized slacks, kept out of equality and ``repr``; ``link_quantiles``
    holds (q10, q50, q90) of it per link position, computed when first
    read. ``skipped`` is 0, since every drawn instance is checked; the CSV
    keeps its column.
    """

    name: str
    instances: int
    skipped: int
    failures: int
    min_slack: float
    max_gap: float
    slacks: np.ndarray = field(compare=False, repr=False)
    notes: str = ""

    @cached_property
    def link_quantiles(self) -> tuple[tuple[float, float, float], ...]:
        quantiles = np.quantile(self.slacks, [0.1, 0.5, 0.9], axis=0).T.tolist()
        return tuple(map(tuple, quantiles))

    def csv_row(self) -> str:
        return ",".join(
            [
                self.name,
                str(self.instances),
                str(self.skipped),
                str(self.failures),
                f"{self.min_slack:.17g}",
                f"{self.max_gap:.17g}",
            ]
        )

    def summary_line(self) -> str:
        status = "ok" if self.failures == 0 else "FAIL"
        line = (
            f"{self.name:<28s} {status:>4s}  instances={self.instances:<5d} "
            f"skipped={self.skipped:<4d} failures={self.failures:<4d} "
            f"min_slack={self.min_slack: .3e} max_gap={self.max_gap:.3e}"
        )
        if self.notes:
            line += f"  [{self.notes}]"
        return line


def _scalar_verdicts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slacks and gaps of a block of scalar chains, one chain's values
    per row: ``(v[i+1] - v[i]) / max(1, max |v|)`` and ``v[-1] - v[0]``.
    Chain values are finite, so no NaN reaches ``max``; a difference that
    overflows gives an infinite slack, as a float difference does."""
    with np.errstate(over="ignore"):
        slacks = values[:, 1:] - values[:, :-1]
        gaps = values[:, -1] - values[:, 0]
    scale = np.maximum(values.max(axis=1), -values.min(axis=1))  # max |v|, no |values| block
    slacks /= np.maximum(scale, 1.0, out=scale)[:, None]
    return slacks, gaps


def _margin_verdicts(margins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Margins are slacks; a row's gap is its largest margin."""
    return margins, margins.max(axis=1)


def _decided_verdicts(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows already decided one by one: each slack row followed by its gap."""
    return rows[:, :-1], rows[:, -1]


def _operator_slacks(chain: OperatorChain) -> list[float]:
    """Per-eigenvalue link slacks of an operator chain, from its rows."""
    v = chain.values
    d = v[1:] - v[:-1]
    if not _finite(d):  # rows are finite, so a difference is finite or +-inf
        raise DomainError("chain link differences must be finite")
    mag = np.abs(v)
    scale = np.maximum(mag[:-1], mag[1:])
    slacks = np.divide(d, scale, out=np.zeros_like(d), where=scale > 0.0)
    return np.minimum.reduce(slacks, axis=1).tolist()


def _operator_gap(chain: OperatorChain) -> float:
    """lambda_max(X_k - X_0) = lambda_max(M diag(v_k - v_0) M*): one
    congruence and one ``eigh``, which the chain's transfer skips when its
    last gap had the same v_k - v_0 (a depth sweep moves neither end).
    Congruence keeps inertia, not magnitudes, so the gap cannot be read off
    the rows."""
    d = chain.values[-1] - chain.values[0]
    if not _finite(d):
        raise DomainError("matrix entries must be finite")
    return chain.transfer.max_eig(d)


def _chain_row(chain) -> tuple:
    """``(decide, row)``: the value row ``case_report`` keeps for a chain,
    and the block verdict that decides it. A scalar chain's row is its
    values. An operator chain's gap needs one ``eigh``, so its row is
    decided here: its slack row, then its gap."""
    if isinstance(chain, ScalarChain):
        return _scalar_verdicts, chain.values
    if isinstance(chain, OperatorChain):
        return _decided_verdicts, [*_operator_slacks(chain), _operator_gap(chain)]
    raise DomainError(f"not a chain: {type(chain).__name__}")


def chain_slacks(chain) -> np.ndarray:
    """Normalized link slacks: forward differences of a scalar chain,
    per-eigenvalue slacks of an operator chain."""
    if isinstance(chain, OperatorChain):
        return np.asarray(_operator_slacks(chain))
    decide, row = _chain_row(chain)
    return decide(np.array([row], dtype=np.float64))[0][0]


def chain_gap(chain) -> float:
    """End-to-end gap: plain difference for scalar chains, the largest
    eigenvalue of (last - first) for operator chains."""
    if isinstance(chain, ScalarChain):
        return float(chain.values[-1] - chain.values[0])
    if isinstance(chain, OperatorChain):
        return _operator_gap(chain)
    raise DomainError(f"not a chain: {type(chain).__name__}")


def _block(name: str, rows) -> np.ndarray:
    """The rows of a case as one float block: one row per instance, all of
    one width (rows of unequal width raise DomainError)."""
    if not rows:
        raise DomainError(f"case {name} produced no instances")
    try:
        return np.array(rows, dtype=np.float64)
    except ValueError:  # numpy: "inhomogeneous shape"
        raise DomainError(f"case {name} produced slack rows of unequal width") from None


def case_report(name, decide, rows, rel_tol: float, notes: str = ""):
    """Decide a case's value rows (see ``_chain_row``) in one pass over
    their block. Returns the report and a mask of the failing instances: a
    row fails when a slack is below ``-rel_tol`` or is NaN."""
    slacks, gaps = decide(_block(name, rows))
    fails = ~(slacks >= -rel_tol).all(axis=1)
    slacks.setflags(write=False)  # the report is frozen, and caches its quantiles
    report = ChainReport(
        name=name,
        instances=len(slacks),
        skipped=0,
        failures=int(np.count_nonzero(fails)),
        min_slack=float(slacks.min()),
        max_gap=max(gaps.tolist()),
        slacks=slacks,
        notes=notes,
    )
    return report, fails


def reports_to_csv(reports) -> str:
    """CSV with one row per case; 17 significant digits, '.' decimal."""
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in reports)
    return "\n".join(lines) + "\n"
