"""The eigenbasis kernels against a 40-digit reference built from the
recorded factorizations of A and B.

Every drawn SPD matrix carries its factorization A = Qa diag(wa) Qa*, and
the kernels work in those eigenbases without assembling a power of A or B.
The reference takes the same double factors, assembles every power
A^p = Qa diag(wa^p) Qa* in mpmath and forms the literal products, so it
shares no step with the kernels beyond their inputs. The recorded Q is
unitary to round-off, and a congruence by it moves each eigenvalue by a
relative 1e-16 at most (Ostrowski), far below the bounds checked here.
"""

import numpy as np
from mpmath import mp

from matmeans import means, norms, random_spd

DPS = 40
CONDS = (1e2, 1e8, 1e12)
PAIRS_PER_COND = 5
WEIGHTS = (-0.7, 0.3, 1.6)
TRANSFER_TOL = 1e-10
VALUE_TOL = 1e-13
HARMONIC_WEIGHTS = (0.0, 0.3, 0.5, 0.9, 1.0)
#: The harmonic mean's error relative to its largest entry, per condition
#: bound: 10x or more the worst of 100 draws of n = 2..4, v ~ U[0, 1]
#: (1.1e-14, 4.4e-11 and 4.2e-8 against a 40-digit reference).
HARMONIC_TOL = {1e2: 2e-13, 1e8: 5e-10, 1e12: 5e-7}


def pairs():
    """(label, A, B, X, cond) for seeded pairs at n = 2..4 and each
    condition bound."""
    for cond in CONDS:
        rng = np.random.default_rng(int(np.log10(cond)))
        for i in range(PAIRS_PER_COND):
            n = int(rng.integers(2, 5))
            a, b = random_spd(n, cond, rng), random_spd(n, cond, rng)
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            yield f"cond {cond:g}, pair {i}, n {n}", a, b, x, cond


def mp_powers(m):
    """p |-> Q diag(w^p) Q* in mpmath, from m's recorded factorization."""
    q = mp.matrix(m.eig.eigenvectors.tolist())
    w = [mp.mpf(v) for v in m.eig.eigenvalues.tolist()]
    return lambda p: q * mp.diag([v ** mp.mpf(p) for v in w]) * q.H


def mp_norms(m):
    """Every default norm kind of ``m``, from one 40-digit SVD."""
    s = sorted(mp.svd_c(m, compute_uv=False), reverse=True)
    out = []
    for kind in norms.DEFAULT_NORM_KINDS:
        if kind.family == "schatten":
            out.append(mp.fsum(v ** kind.param for v in s) ** (1 / mp.mpf(kind.param)))
        else:
            out.append(mp.fsum(s[: int(kind.param)]))
    return out


class Worst:
    """The largest relative error seen, and where."""

    def __init__(self):
        self.err, self.where = 0.0, None

    def see(self, got, exact, where, scale=None):
        """Note |got - exact| / |scale|, where ``scale`` defaults to ``exact``."""
        err = float(abs(mp.mpmathify(got) - exact) / abs(exact if scale is None else scale))
        if err > self.err:
            self.err, self.where = err, where

    def check(self, tol):
        assert self.err <= tol, f"worst relative error {self.err:.2e} at {self.where}"


def test_transfer_spectrum():
    # The spectrum of X = A^{-1/2} B A^{-1/2}, down to its smallest
    # eigenvalue, which at cond 1e12 can sit 24 decades below the largest.
    worst = Worst()
    with mp.workdps(DPS):
        for label, a, b, _, _ in pairs():
            pa, pb = mp_powers(a), mp_powers(b)
            x = pa(-0.5) * pb(1) * pa(-0.5)
            exact = sorted(mp.eighe((x + x.H) / 2, eigvals_only=True))
            for i, (got, e) in enumerate(zip(means._pair(a, b).w.tolist(), exact)):
                worst.see(got, e, f"{label}, eigenvalue {i}")
    worst.check(TRANSFER_TOL)


def test_norm_and_trace_kernels():
    kinds = norms.DEFAULT_NORM_KINDS
    functional, heinz, traces = Worst(), Worst(), Worst()
    with mp.workdps(DPS):
        for label, a, b, x, _ in pairs():
            pa, pb, mx = mp_powers(a), mp_powers(b), mp.matrix(x.tolist())
            got_t = means._traces(means._pair(a, b))(list(WEIGHTS))
            got_f = [norms._functional_values(a, b, x, WEIGHTS, kind) for kind in kinds]
            got_h = [norms._heinz_values(a, b, x, WEIGHTS, kind) for kind in kinds]
            for i, v in enumerate(WEIGHTS):
                u = 1 - mp.mpf(v)
                lo, hi = pa(u) * mx * pb(v), pa(v) * mx * pb(u)
                t_exact = mp.re(sum((pa(u) * pb(v))[k, k] for k in range(a.n)))
                traces.see(got_t[i], t_exact, f"{label}, v {v}")
                exact = zip(kinds, got_f, got_h, mp_norms(lo), mp_norms(lo + hi))
                for kind, f, h, f_exact, h_exact in exact:
                    functional.see(f[i], f_exact, f"{label}, {kind}, v {v}")
                    heinz.see(h[i], h_exact, f"{label}, {kind}, v {v}")
    for worst in (functional, heinz, traces):
        worst.check(VALUE_TOL)


def test_harmonic_mean():
    # A !_v B against ((1 - v) A^{-1} + v B^{-1})^{-1}, entrywise, relative
    # to the reference's largest entry.
    worst = {cond: Worst() for cond in CONDS}
    with mp.workdps(DPS):
        for label, a, b, _, cond in pairs():
            inv_a, inv_b = mp_powers(a)(-1), mp_powers(b)(-1)
            for v in HARMONIC_WEIGHTS:
                got = means.harmonic_mean(a, b, v).a
                exact = ((1 - mp.mpf(v)) * inv_a + mp.mpf(v) * inv_b) ** -1
                scale = max(abs(e) for e in exact)
                for (i, j), e in np.ndenumerate(got):
                    worst[cond].see(e, exact[i, j], f"{label}, v {v}, entry {i, j}", scale)
    for cond, w in worst.items():
        w.check(HARMONIC_TOL[cond])
