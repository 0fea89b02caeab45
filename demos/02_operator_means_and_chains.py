#!/usr/bin/env python3
"""Operator means on positive definite matrices and semidefinite-order chains.

Every scalar chain has a matrix analog: the scalar inequality holds on the
spectrum of A^{-1/2} B A^{-1/2} and transfers to the semidefinite (Loewner)
order by congruence. This script builds random SPD pairs, evaluates the
means, and shows the per-link slacks of the operator chains. A chain holds
the congruence M = A^{1/2} Q and the values of each matrix on the spectrum
of X, and each link's slack is the smallest relative step
(hi - lo) / max(|lo|, |hi|) over the eigenvalues of X; the chain matrices
M diag(v) M* are assembled only when read.
"""

import numpy as np

from matmeans import (
    arithmetic_mean,
    geometric_mean,
    harmonic_mean,
    harmonic_operator_chain,
    kantorovich_operator_chain,
    loewner_leq,
    operator_reverse_chain,
    random_spd,
    trace_additive_chain,
)
from matmeans.linalg import SpdMatrix
from matmeans.reporting import chain_slacks

a = random_spd(4, cond_max=50.0, seed=7)
b = random_spd(4, cond_max=50.0, seed=8)

print("A and B are random 4x4 SPD matrices with condition number <= 50.")
print("eigenvalues of A:", np.round(a.eig.eigenvalues, 4))
print("eigenvalues of B:", np.round(b.eig.eigenvalues, 4))
print()

nu = 0.5
for name, mean in [
    ("arithmetic", arithmetic_mean(a, b, nu)),
    ("geometric ", geometric_mean(a, b, nu)),
    ("harmonic  ", harmonic_mean(a, b, nu)),
]:
    print(f"{name} mean, trace = {np.trace(mean.a).real:.6f}")

# The classical ordering harmonic <= geometric <= arithmetic at weight 1/2:
g, h, m = geometric_mean(a, b, nu), harmonic_mean(a, b, nu), arithmetic_mean(a, b, nu)
print("harmonic <= geometric:", loewner_leq(h, g).holds)
print("geometric <= arithmetic:", loewner_leq(g, m).holds)
print()

print("Reverse operator chain at nu = 2 (extended weight), depth 4:")
chain = operator_reverse_chain(a, b, 2.0, 4)
slacks = chain_slacks(chain)
for (lo, hi), s in zip(zip(chain.labels, chain.labels[1:]), slacks):
    print(f"  {lo:>7s} <= {hi:<7s}  per-eigenvalue slack = {s:.3e}")
print()

print("Chains with an order hypothesis use pairs A <= B by construction:")
bigger = SpdMatrix(a.a + random_spd(4, 10.0, 9).a)
hchain = harmonic_operator_chain(a, bigger, 1.5, 3)
print("  harmonic operator chain slacks:", np.round(chain_slacks(hchain), 10))
kchain = kantorovich_operator_chain(a, bigger, 1.5)
print("  Kantorovich operator chain slacks:", np.round(chain_slacks(kchain), 10))
print()

print("Trace chain (scalar-valued) at nu = 1, depth 3:")
tchain = trace_additive_chain(a, b, 1.0, 3)
print("  " + "  <=  ".join(f"{v:.6f}" for v in tchain.values))
