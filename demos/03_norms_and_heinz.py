#!/usr/bin/env python3
"""Unitarily invariant norms and the Heinz functional.

The Heinz functional f(v) = ||A^v X B^{1-v} + A^{1-v} X B^v|| is symmetric
about v = 1/2, convex on the whole real line, and monotone on each side of
1/2. This script tabulates it on a grid, checks the shape numerically, and
shows the norm-functional refinement chains.
"""

import numpy as np

from matmeans import (
    NormKind,
    heinz_norm,
    norm_reverse_chain,
    norms,
    random_spd,
    singular_values,
    ui_norm,
)

rng = np.random.default_rng(12)
a = random_spd(3, 40.0, rng)
b = random_spd(3, 40.0, rng)
x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

print("singular values of X:", np.round(singular_values(x), 4))
for kind in (
    NormKind.spectral(),
    NormKind.trace_norm(),
    NormKind.frobenius(),
    NormKind.schatten(3),
    NormKind.ky_fan(2),
):
    print(f"  ||X|| for {str(kind):<12s} = {ui_norm(x, kind):.6f}")
print()

kind = NormKind.trace_norm()
print("Heinz functional on a coarse grid (trace norm); note the dip at v = 1/2:")
for v in np.linspace(-1.0, 2.0, 13):
    bar = "#" * int(heinz_norm(a, b, x, float(v), kind))
    print(f"  v = {v:>5.2f}   f(v) = {heinz_norm(a, b, x, float(v), kind):>10.4f}  {bar}")
print()

v = 0.3
print("Symmetry defect f(v) - f(1-v) =",
      heinz_norm(a, b, x, v, kind) - heinz_norm(a, b, x, 1.0 - v, kind),
      "(guaranteed below 1e-10)")
print()

# Convexity: (f(v1) + f(v2))/2 - f((v1+v2)/2) >= 0, normalized by max(1, both sides).
pairs = np.random.default_rng(5).uniform(-3.0, 4.0, size=(200, 2)).tolist()
mids = [norms.heinz_midpoint_margin(a, b, x, v1, v2, kind) for v1, v2 in pairs]
print(f"smallest midpoint-convexity margin over 200 weight pairs in [-3, 4]: {min(mids):.3e}")
# Monotonicity: f falls on [-3, 1/2] and rises on [1/2, 4], along an 81-point grid.
steps, _ = norms.heinz_grid_margins(a, b, x, kind)
print(f"smallest monotonicity margin over {len(steps)} grid steps: {steps.min():.3e}")
print("(both are nonnegative up to round-off; the harness cases heinz_midpoint_convexity")
print(" and heinz_monotonicity check them on random instances)")
print()

print("Norm-functional refinement chain at nu = 1.2, depth 3 (Frobenius):")
chain = norm_reverse_chain(a, b, x, 1.2, 3, NormKind.frobenius())
for label, value in zip(chain.labels, chain.values):
    print(f"  {label:<8s} {value:.6f}")
