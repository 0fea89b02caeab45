"""Every refinement chain against the literal dyadic ladder, summed in mpmath.

The chains compute the paper's refinement

    sum_{j=1..N} 2^j w [(f(e) + f(m_{j-1}))/2 - f(m_j)]

in its telescoped form w [(f(o) - f(e)) + 2^N (f(e) - f(m_N))]. These tests
keep the literal sum, level by level, as the reference: the functional is
evaluated at 50 digits on the same double inputs (for the operator chains, on
the double spectrum of X that the chain pushes back), and every chain value
must lie within rel_tol/10 * max(1, max|v|) of the reference, where rel_tol
is the tolerance of the harness case that checks the chain. The builders with
a closed-form drop are checked at depth 32 as well as at depths 1..8.
"""

import numpy as np
from mpmath import mp

from matmeans import (
    SpdMatrix,
    convex_refined_chain,
    harmonic_geometric_chain,
    harmonic_operator_chain,
    harmonic_reverse_chain,
    heinz_reverse_chain,
    logconvex_refined_chain,
    loewner_leq,
    norm_heinz_chain,
    norm_reverse_chain,
    operator_reverse_chain,
    operator_squared_chain,
    random_spd,
    trace_additive_chain,
    trace_multiplicative_chain,
    young_refinement_chain,
    young_reverse_chain,
    young_squared_chain,
)
from matmeans import harness, means, norms
from matmeans.scalar import CONVEX_CATALOG, LOGCONVEX_CATALOG

DPS = 50
INSTANCES = 4
DEEP = 32

MP_CATALOG = {
    "square": lambda t: t * t,
    "exp": mp.exp,
    "abs_cubed": lambda t: abs(t) ** 3,
    "relu_squared": lambda t: max(t, 0) ** 2,
    "neg_log_shifted": lambda t: -mp.log(t + 100),
    "cosh": mp.cosh,
    "exp_square_64": lambda t: mp.exp(t * t / 64),
    "exp_abs": lambda t: mp.exp(abs(t)),
}


def ladder(f, a, b, nu, depth, anchor):
    """(secant, refined, target), the refinement summed level by level."""
    a, b, nu = mp.mpf(a), mp.mpf(b), mp.mpf(nu)
    e, o, w = (a, b, nu) if anchor == "a" else (b, a, -(1 + nu))
    fe, prev, total = f(e), f(o), 0
    for j in range(1, depth + 1):
        cur = f(((2 ** j - 1) * e + o) / 2 ** j)
        total += 2 ** j * w * ((fe + prev) / 2 - cur)
        prev = cur
    secant = (1 + nu) * f(a) - nu * f(b)
    return secant, secant + total, f((1 + nu) * a - nu * b)


def log_ladder(f, a, b, nu, depth, anchor):
    """The ladder of log f, exponentiated: the multiplicative refinement."""
    return tuple(mp.exp(v) for v in ladder(lambda t: mp.log(f(t)), a, b, nu, depth, anchor))


def rel_tol(case):
    return harness.REGISTRY[case].overrides.get("rel_tol", harness.CaseConfig().rel_tol)


def assert_close(got, exact, case, what):
    scale = max(1, max(abs(v) for v in exact))
    err = max(abs(mp.mpmathify(g) - v) for g, v in zip(got, exact))
    assert err <= rel_tol(case) / 10 * scale, (case, what, float(err / scale))


def assert_chain(chain, exact, case, what):
    """A scalar chain, or an operator chain against the reference spectra of
    its links pushed back by the same congruence ``m``."""
    if isinstance(chain, means.OperatorChain):
        what, m = what
        mm = mp.matrix(m.tolist())
        refs = [mm * mp.diag(vals) * mm.H for vals in exact]
        got = [g for c in chain.matrices for g in c.a.ravel().tolist()]
        exact = [r[i, k] for r in refs for i in range(r.rows) for k in range(r.cols)]
        assert_close(got, exact, case, what)
    else:
        assert_close(chain.values, exact, case, what)


def depths(rng, closed_form):
    return [int(rng.integers(1, 9)) for _ in range(INSTANCES)] + [DEEP] * closed_form


def loguniform(rng):
    return float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))


def weight(rng, branch):
    mag = float(rng.uniform(0.0, 8.0))
    return mag if branch > 0 else -1.0 - mag


def mp_power(x, y):
    x, y = mp.mpf(x), mp.mpf(y)
    return lambda v: x ** (1 - v) * y ** v


def mp_harm(x, y):
    x, y = mp.mpf(x), mp.mpf(y)
    return lambda v: 1 / ((1 - v) / x + v / y)


class TestScalarBuilders:
    def test_young_reverse(self):
        rng = np.random.default_rng(101)
        for branch, case in ((1, "young_reverse_pos"), (-1, "young_reverse_neg")):
            for depth in depths(rng, True):
                x, y, nu = loguniform(rng), loguniform(rng), weight(rng, branch)
                with mp.workdps(DPS):
                    exact = ladder(mp_power(x, y), 0, 1, nu, depth, "a" if branch > 0 else "b")
                    assert_chain(young_reverse_chain(x, y, nu, depth), exact, case, (x, y, nu, depth))

    def test_young_squared(self):
        # The literal sums: sum_j 2^j nu (x - (x^{2^j-1} y)^{1/2^j})^2, and
        # -sum_j 2^j (1+nu) (y - (x y^{2^j-1})^{1/2^j})^2 for nu <= -1.
        rng = np.random.default_rng(102)
        for branch in (1, -1):
            for depth in depths(rng, True):
                x, y, nu = loguniform(rng), loguniform(rng), weight(rng, branch)
                with mp.workdps(DPS):
                    mx, my, mnu = mp.mpf(x), mp.mpf(y), mp.mpf(nu)
                    lhs = ((1 + mnu) * mx - mnu * my) ** 2
                    for j in range(1, depth + 1):
                        p = mp.mpf(2) ** j
                        if branch > 0:
                            lhs += p * mnu * (mx - (mx ** (p - 1) * my) ** (1 / p)) ** 2
                        else:
                            lhs -= p * (1 + mnu) * (my - (mx * my ** (p - 1)) ** (1 / p)) ** 2
                    coef = mnu if branch > 0 else 1 + mnu
                    target = (mx ** (1 + mnu) * my ** -mnu) ** 2 + coef ** 2 * (mx - my) ** 2
                    chain = young_squared_chain(x, y, nu, depth)
                    assert_chain(chain, (lhs, target), "young_squared", (x, y, nu, depth))

    def test_young_refinement(self):
        # The literal form g + (1-t) y (1 - (x/y)^{t/2})^2
        # + (1-t) g sum_{j=2..N} 2^{j-1} (1 - (y/x)^{t/2^j})^2, g = x^t y^{1-t}.
        rng = np.random.default_rng(103)
        for depth in depths(rng, True):
            x, y, t = loguniform(rng), loguniform(rng), 1.0 - float(rng.uniform(0.0, 1.0))
            with mp.workdps(DPS):
                mx, my, mt = mp.mpf(x), mp.mpf(y), mp.mpf(t)
                g = mx ** mt * my ** (1 - mt)
                s = mp.fsum(
                    2 ** (j - 1) * (1 - (my / mx) ** (mt / 2 ** j)) ** 2 for j in range(2, depth + 1)
                )
                lhs = g * (1 + (1 - mt) * s) + (1 - mt) * my * (1 - (mx / my) ** (mt / 2)) ** 2
                exact = (lhs, mt * mx + (1 - mt) * my)
                chain = young_refinement_chain(x, y, t, depth)
                assert_chain(chain, exact, "young_refined_t", (x, y, t, depth))

    def test_harmonic_chains(self):
        rng = np.random.default_rng(104)
        for chain_fn, kernel, case in (
            (harmonic_reverse_chain, ladder, "harmonic_reverse"),
            (harmonic_geometric_chain, log_ladder, "harmonic_geometric"),
        ):
            for depth in depths(rng, True):
                x, y = sorted((loguniform(rng), loguniform(rng)))
                nu = weight(rng, 1)
                with mp.workdps(DPS):
                    exact = kernel(mp_harm(x, y), 0, 1, nu, depth, "a")
                    assert_chain(chain_fn(x, y, nu, depth), exact, case, (x, y, nu, depth))

    def test_harmonic_reverse_extreme_weight(self):
        # At nu = 1e300 the chain spans about 600 decades, from -nu (y - x)
        # to x y / (nu (y - x)). Each value of the first three instances that
        # `matmeans sweep --case harmonic_reverse --param nu --grid
        # 1e300:1e300:1` checks is right relative to itself.
        for i in range(3):
            built = harness.build_instance("harmonic_reverse", i, {"nu": 1e300})
            x, y, nu, depth = (built.payload[k] for k in ("x", "y", "nu", "depth"))
            with mp.workdps(60):
                exact = ladder(mp_harm(x, y), 0, 1, nu, depth, "a")
                for label, got, e in zip(built.chain.labels, built.chain.values, exact):
                    rel = abs(mp.mpf(got) - e) / abs(e)
                    assert rel <= 1e-13, (i, label, float(rel))

    def test_catalog_chains(self):
        rng = np.random.default_rng(105)
        for chain_fn, kernel, catalog, prefix in (
            (convex_refined_chain, ladder, CONVEX_CATALOG, "convex_refined_"),
            (logconvex_refined_chain, log_ladder, LOGCONVEX_CATALOG, "logconvex_refined_"),
        ):
            for anchor, branch in (("a", 1), ("b", -1)):
                for name, f in catalog:
                    for depth in depths(rng, False):
                        a, b = sorted(rng.uniform(-5.0, 5.0, size=2).tolist())
                        nu = weight(rng, branch)
                        with mp.workdps(DPS):
                            exact = kernel(MP_CATALOG[name], a, b, nu, depth, anchor)
                            chain = chain_fn(f, a, b, nu, depth, anchor)
                            assert_chain(chain, exact, prefix + anchor, (name, a, b, nu, depth))


def spd_pair(rng, ordered=False):
    n = int(rng.integers(2, 5))
    a, b = random_spd(n, 100.0, rng), random_spd(n, 100.0, rng)
    return a, SpdMatrix(a.a + b.a) if ordered else b


class TestOperatorBuilders:
    def test_operator_reverse_and_harmonic(self):
        rng = np.random.default_rng(106)
        cases = (
            (operator_reverse_chain, 1, "operator_reverse_pos"),
            (operator_reverse_chain, -1, "operator_reverse_neg"),
            (harmonic_operator_chain, 1, "harmonic_operator"),
        )
        for chain_fn, branch, case in cases:
            for depth in depths(rng, True):
                harmonic = chain_fn is harmonic_operator_chain
                a, b = spd_pair(rng, ordered=harmonic)
                nu = weight(rng, branch)
                t = means._pair(a, b)
                with mp.workdps(DPS):
                    per_w = [
                        ladder(
                            mp_harm(1, w) if harmonic else mp_power(1, w),
                            0, 1, nu, depth, "a" if branch > 0 else "b",
                        )
                        for w in t.w.tolist()
                    ]
                    exact = list(zip(*per_w))
                    assert_chain(chain_fn(a, b, nu, depth), exact, case, ((nu, depth), t.m))

    def test_operator_squared(self):
        # The literal sums over the spectrum: sum_j 2^j nu (1 + w^{2^{1-j}}
        # - 2 w^{2^-j}), and -sum_j 2^j (1+nu) S_j with
        # S_j = w^2 - 2 w^{2-2^-j} + w^{2-2^{1-j}} for nu <= -1.
        rng = np.random.default_rng(107)
        for branch, case in ((1, "operator_squared_pos"), (-1, "operator_squared_neg")):
            for depth in depths(rng, True):
                a, b = spd_pair(rng)
                nu = weight(rng, branch)
                t = means._pair(a, b)
                with mp.workdps(DPS):
                    mnu, per_w = mp.mpf(nu), []
                    for w in map(mp.mpf, t.w.tolist()):
                        h = [mp.mpf(2) ** -j for j in range(depth + 1)]
                        if branch > 0:
                            base = (1 + mnu) * ((1 + mnu) - mnu * w)
                            total = mp.fsum(
                                2 ** j * mnu * (1 + w ** h[j - 1] - 2 * w ** h[j])
                                for j in range(1, depth + 1)
                            )
                            target = w ** (-2 * mnu) + mnu ** 2 * (1 - w) + mnu * w
                        else:
                            base = 2 * (1 + mnu) * w
                            total = -mp.fsum(
                                2 ** j * (1 + mnu) * (w ** 2 - 2 * w ** (2 - h[j]) + w ** (2 - h[j - 1]))
                                for j in range(1, depth + 1)
                            )
                            target = w ** (-2 * mnu) + (1 + 2 * mnu) * w ** 2
                        per_w.append((base, base + total, target))
                    exact = list(zip(*per_w))
                    chain = operator_squared_chain(a, b, nu, depth)
                    assert_chain(chain, exact, case, ((nu, depth), t.m))


def mp_powers(m):
    """p |-> M^p in mpmath, from a 50-digit eigendecomposition of M."""
    lam, q = mp.eighe(mp.matrix(m.a.tolist()))
    return lambda p: q * mp.diag([v ** p for v in lam]) * q.H


def mp_norm(m, kind):
    s = sorted(mp.svd_c(m, compute_uv=False), reverse=True)
    if kind.family == "schatten":
        return mp.fsum(v ** kind.param for v in s) ** (1 / mp.mpf(kind.param))
    return mp.fsum(s[: int(kind.param)])


class TestTraceAndNormBuilders:
    def test_trace_chains(self):
        rng = np.random.default_rng(108)
        for chain_fn, kernel, case in (
            (trace_additive_chain, ladder, "trace_additive"),
            (trace_multiplicative_chain, log_ladder, "trace_multiplicative"),
        ):
            for depth in depths(rng, False):
                a, b = spd_pair(rng)
                nu = weight(rng, 1)
                with mp.workdps(DPS):
                    pa, pb = mp_powers(a), mp_powers(b)
                    exact = kernel(
                        lambda v: mp.re(sum((pa(1 - v) * pb(v))[i, i] for i in range(a.n))),
                        0, 1, nu, depth, "a",
                    )
                    assert_chain(chain_fn(a, b, nu, depth), exact, case, (nu, depth))

    def test_norm_and_heinz_chains(self):
        rng = np.random.default_rng(109)
        cases = (
            (norm_reverse_chain, log_ladder, 1, "norm_reverse_pos"),
            (norm_reverse_chain, log_ladder, -1, "norm_reverse_neg"),
            (norm_heinz_chain, log_ladder, 1, "norm_heinz_power"),
            (heinz_reverse_chain, ladder, 1, "heinz_reverse"),
        )
        for chain_fn, kernel, branch, case in cases:
            for i, depth in enumerate(depths(rng, False)[:2]):
                a, b = spd_pair(rng)
                x = rng.standard_normal((a.n, a.n)) + 1j * rng.standard_normal((a.n, a.n))
                kind = norms.DEFAULT_NORM_KINDS[i % len(norms.DEFAULT_NORM_KINDS)]
                nu = weight(rng, branch)
                with mp.workdps(DPS):
                    pa, pb, mx = mp_powers(a), mp_powers(b), mp.matrix(x.tolist())
                    f = {
                        norm_reverse_chain: lambda v: mp_norm(pa(1 - v) * mx * pb(v), kind),
                        norm_heinz_chain: lambda v: mp_norm(pa(1 - v) * mx * pb(1 - v), kind),
                        heinz_reverse_chain: lambda v: mp_norm(
                            pa(v) * mx * pb(1 - v) + pa(1 - v) * mx * pb(v), kind
                        ),
                    }[chain_fn]
                    exact = kernel(f, 0, 1, nu, depth, "a" if branch > 0 else "b")
                    chain = chain_fn(a, b, x, nu, depth, kind)
                    assert_chain(chain, exact, case, (str(kind), nu, depth))


class TestDeepNearEqualInputs:
    """At depth 32 with B = 1.0005 A, the second differences of a value ladder
    lose 2^32 eps to cancellation, far more than the true gaps."""

    def test_operator_reverse_witnesses_are_positive(self):
        a = random_spd(3, 10, 0)
        m = operator_reverse_chain(a, SpdMatrix(1.0005 * a.a), 1.0, 32).matrices
        witnesses = [loewner_leq(m[i], m[i + 1]).witness_eigenvalue for i in range(2)]
        assert min(witnesses) > 0.0, witnesses

    def test_harmonic_reverse_link_slacks(self):
        chain = harmonic_reverse_chain(1.0, 1.0005, 1.0, 32)
        with mp.workdps(60):
            exact = ladder(mp_harm(1.0, 1.0005), 0, 1, 1.0, 32, "a")
            for i in range(2):
                slack, true = chain.values[i + 1] - chain.values[i], exact[i + 1] - exact[i]
                assert abs(slack - true) <= 1e-6 * true, (i, slack, float(true))
