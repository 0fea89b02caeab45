"""References for the tests that share no code with the package.

``jacobi_eigenvalues`` is pure-Python cyclic Jacobi: the package computes
eigendecompositions with LAPACK through numpy, so the tests compare its
eigenvalues against this separate algorithm instead of against LAPACK
itself. It is slow (pure Python loops) and meant only for the small
matrices the tests draw. ``eigh_power`` is the literal matrix power that
the tests compare the package's eigenbasis kernels with.
"""

import numpy as np

# Convergence: off-diagonal Frobenius norm below this multiple of ||H||_F.
TOL_FACTOR = 1e-13
MAX_SWEEPS = 100


def jacobi_eigenvalues(h) -> np.ndarray:
    """Ascending eigenvalues of the complex Hermitian matrix ``h`` by cyclic Jacobi."""
    h = np.array(h, dtype=np.complex128)
    n = h.shape[0]
    tol = TOL_FACTOR * float(np.linalg.norm(h))
    for _ in range(MAX_SWEEPS):
        off2 = sum(abs(h[p, r]) ** 2 for p in range(n - 1) for r in range(p + 1, n))
        if (2.0 * off2) ** 0.5 <= tol:
            return np.sort(np.real(np.diag(h)))
        for p in range(n - 1):
            for r in range(p + 1, n):
                hpr = h[p, r]
                apr = abs(hpr)
                if apr < 1e-300:
                    continue
                # Factor out the phase so the 2x2 subproblem is real symmetric.
                phase = hpr / apr
                tau = (h[r, r].real - h[p, p].real) / (2.0 * apr)
                if tau >= 0.0:
                    t = 1.0 / (tau + (1.0 + tau * tau) ** 0.5)
                else:
                    t = -1.0 / (-tau + (1.0 + tau * tau) ** 0.5)
                c = 1.0 / (1.0 + t * t) ** 0.5
                s = t * c * phase
                sc = np.conj(s)
                col_p, col_r = h[:, p].copy(), h[:, r].copy()
                h[:, p] = c * col_p - sc * col_r
                h[:, r] = s * col_p + c * col_r
                row_p, row_r = h[p, :].copy(), h[r, :].copy()
                h[p, :] = c * row_p - s * row_r
                h[r, :] = sc * row_p + c * row_r
                h[p, r] = 0.0
                h[r, p] = 0.0
    raise AssertionError(f"Jacobi oracle did not converge in {MAX_SWEEPS} sweeps (n={n})")


def eigh_power(m, t: float) -> np.ndarray:
    """M^t of a positive definite matrix (an array or a package matrix) from
    its own ``numpy.linalg.eigh``."""
    w, q = np.linalg.eigh(getattr(m, "a", m))
    return (q * w ** t) @ q.conj().T
