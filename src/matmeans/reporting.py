"""Slack accounting for inequality chains and per-case reports.

A chain passes when every consecutive link holds within a relative
tolerance. Scalar links report the normalized forward difference
``(v[i+1] - v[i]) / scale`` with ``scale = max(1, max |v|)``; operator links
report the smallest eigenvalue of the difference normalized by
``max(1, ||X_i||_2, ||X_{i+1}||_2)``. A link fails when its slack drops
below ``-rel_tol`` or is NaN.

The harness takes each instance's slacks and gap from ``_chain_verdict`` in
one pass: Python floats for a scalar chain, one stacked ``eigh`` for an
operator chain. ``chain_slacks`` shares those helpers; ``chain_gap`` (the
sweep's path) returns the same gap on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .linalg import OperatorChain, _eigh_array
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


def _operator_verdict(chain: OperatorChain) -> tuple[list[float], float]:
    """Link slacks and the gap of an operator chain from one stacked ``eigh``.

    The stack holds every matrix X_i of the chain, each link's difference
    X_{i+1} - X_i and the end-to-end difference X_k - X_0. The matrices are
    exactly Hermitian (every constructor symmetrizes), so their differences
    are too and need no re-symmetrization: each slice's spectrum is the one
    ``HermitianMatrix(y.a - x.a).eig`` gives. A difference whose subtraction
    overflows raises DomainError, as that constructor does.
    """
    k = len(chain.matrices)
    xs = np.stack([m.a for m in chain.matrices])
    diffs = np.concatenate([xs[1:] - xs[:-1], xs[-1:] - xs[:1]])
    if not np.isfinite(diffs).all():
        raise DomainError("matrix entries must be finite")
    w = _eigh_array(np.concatenate([xs, diffs]))[0].tolist()
    norm2 = [max(abs(wi[0]), abs(wi[-1])) for wi in w[:k]]
    slacks = [d[0] / max(1.0, x, y) for d, x, y in zip(w[k:-1], norm2, norm2[1:])]
    return slacks, w[-1][-1]


def _chain_verdict(chain) -> tuple[list[float], float]:
    """``(chain_slacks(chain), chain_gap(chain))`` in one pass, as floats."""
    if isinstance(chain, ScalarChain):
        v = chain.values
        return _scalar_slacks(v), float(v[-1] - v[0])
    if isinstance(chain, OperatorChain):
        return _operator_verdict(chain)
    raise DomainError(f"not a chain: {type(chain).__name__}")


def _row_fails(row, rel_tol: float) -> bool:
    """A slack row fails when a slack is below ``-rel_tol`` or is NaN."""
    floor = -rel_tol
    return not all(s >= floor for s in row)


def chain_slacks(chain) -> np.ndarray:
    """Normalized link slacks: forward differences of a scalar chain, Loewner
    witnesses of an operator chain."""
    return np.asarray(_chain_verdict(chain)[0])


def chain_passes(chain, rel_tol: float) -> bool:
    return not _row_fails(_chain_verdict(chain)[0], rel_tol)


def chain_gap(chain) -> float:
    """End-to-end gap: plain difference for scalar chains, the largest
    eigenvalue of (last - first) for operator chains."""
    if isinstance(chain, ScalarChain):
        return float(chain.values[-1] - chain.values[0])
    if isinstance(chain, OperatorChain):
        diff = chain.matrices[-1].a - chain.matrices[0].a
        if not np.isfinite(diff).all():
            raise DomainError("matrix entries must be finite")
        return float(_eigh_array(diff)[0][-1])
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
