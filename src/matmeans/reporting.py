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

The harness takes each instance's slacks and gap from ``_chain_verdict`` in
one pass: Python floats for a scalar chain, the rows and one ``eigh`` of
the end-to-end difference for an operator chain (kept by the chain's
transfer for its last difference, so the chains of one pair that share
their ends, as a depth sweep's do, pay it once). ``chain_slacks`` and
``chain_gap`` (the sweep's path) return the same slacks and gap on their
own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .linalg import OperatorChain
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


def _scalar_slacks(values) -> list[float]:
    """``np.diff(v) / scale`` in Python floats: the same IEEE operations."""
    v = [float(x) for x in values]
    scale = max(1.0, max(abs(x) for x in v))
    return [(hi - lo) / scale for lo, hi in zip(v, v[1:])]


def _operator_slacks(chain: OperatorChain) -> list[float]:
    """Per-eigenvalue link slacks of an operator chain, from its rows."""
    v = chain.values
    d = v[1:] - v[:-1]
    if np.logical_or.reduce(np.isinf(d), axis=None):  # np.isinf(d).any(), without its dispatch
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
    if np.logical_or.reduce(np.isinf(d), axis=None):
        raise DomainError("matrix entries must be finite")
    return chain.transfer.max_eig(d)


def _chain_verdict(chain) -> tuple[list[float], float]:
    """``(chain_slacks(chain), chain_gap(chain))`` in one pass, as floats."""
    if isinstance(chain, ScalarChain):
        v = chain.values
        return _scalar_slacks(v), float(v[-1] - v[0])
    if isinstance(chain, OperatorChain):
        return _operator_slacks(chain), _operator_gap(chain)
    raise DomainError(f"not a chain: {type(chain).__name__}")


def _row_fails(row, rel_tol: float) -> bool:
    """A slack row fails when a slack is below ``-rel_tol`` or is NaN."""
    floor = -rel_tol
    return not all(s >= floor for s in row)


def chain_slacks(chain) -> np.ndarray:
    """Normalized link slacks: forward differences of a scalar chain,
    per-eigenvalue slacks of an operator chain."""
    if isinstance(chain, OperatorChain):
        return np.asarray(_operator_slacks(chain))
    return np.asarray(_chain_verdict(chain)[0])


def chain_passes(chain, rel_tol: float) -> bool:
    return not _row_fails(chain_slacks(chain), rel_tol)


def chain_gap(chain) -> float:
    """End-to-end gap: plain difference for scalar chains, the largest
    eigenvalue of (last - first) for operator chains."""
    if isinstance(chain, ScalarChain):
        return float(chain.values[-1] - chain.values[0])
    if isinstance(chain, OperatorChain):
        return _operator_gap(chain)
    raise DomainError(f"not a chain: {type(chain).__name__}")


def aggregate_report(
    name: str,
    slack_rows: list[list[float]],
    gaps: list[float],
    rel_tol: float,
    notes: str = "",
) -> ChainReport:
    """Fold per-instance slack rows (lists or arrays) into a ChainReport.

    An instance fails when a link slack is below ``-rel_tol`` or is NaN,
    and a NaN slack makes ``min_slack`` NaN. Every row has one width (one
    slack per link position), so the rows form one block: failures are
    counted over it at once, and the report keeps it for its
    ``link_quantiles``. Rows of unequal width raise DomainError.
    """
    if not slack_rows:
        raise DomainError(f"case {name} produced no instances")
    if len({len(row) for row in slack_rows}) != 1:
        raise DomainError(f"case {name} produced slack rows of unequal width")
    block = np.array(slack_rows, dtype=np.float64)
    block.setflags(write=False)  # the report is frozen, and caches its quantiles
    return ChainReport(
        name=name,
        instances=len(slack_rows),
        skipped=0,
        failures=int(np.count_nonzero(~(block >= -rel_tol).all(axis=1))),
        min_slack=float(block.min()),
        max_gap=float(max(gaps)) if gaps else 0.0,
        slacks=block,
        notes=notes,
    )


def reports_to_csv(reports) -> str:
    """CSV with one row per case; 17 significant digits, '.' decimal."""
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in reports)
    return "\n".join(lines) + "\n"
