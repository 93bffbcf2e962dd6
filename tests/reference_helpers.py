"""Test-side references that the library does not need.

`rho_jacobian` is the analytic Jacobian of the shift transform, built from
the system's gradients and the derivative of the Hermite interpolant; the
library certifies rho by the complex step of the transform itself, and the
tests compare that with this reference.  `factorization` factors each matrix
of the stack a certificate report checked, for the tests that read the factors.
"""

import numpy as np

from jacobiflow import jacobi_factor


def rho_rate(rho, t):
    """Rate (v, f), interleaved, of the shift transform's Hermite interpolant at a real t in its table."""
    tk = rho.tk
    i = min(max(int(np.searchsorted(tk, t, side="right")) - 1, 0), len(tk) - 2)
    h = tk[i + 1] - tk[i]
    s = (t - tk[i]) / h
    # the derivatives of the interpolant's basis weights; at s = 0 and s = 1
    # every one but the node's rate weight is an exact zero
    w = (6.0 * (s - 1.0) * s / h, (3.0 * s - 4.0) * s + 1.0,
         6.0 * (1.0 - s) * s / h, (3.0 * s - 2.0) * s)
    return np.dot(w, rho.table[i : i + 2].reshape(4, -1))


def rho_jacobian(rho, z):
    """Analytic Jacobian of rho at z: identity block, gradient row, shift-rate column; blind to `value`."""
    z = np.array(z, dtype=float)
    d = len(z)
    k = d - 2
    q, p, t = z[0:k:2], z[1:k:2], z[-1]
    sys = rho.sys
    J = np.eye(d)
    J[:k, -1] = rho_rate(rho, t)
    J[k, 0:k:2] = np.asarray(sys.grad_q(q, p, t), dtype=float)
    J[k, 1:k:2] = np.asarray(sys.grad_p(q, p, t), dtype=float)
    J[k, -1] = float(sys.d_t(q, p, t))
    return J


def factorization(report):
    """The factors of `report.jacobians`, one per matrix; None unless the report counted all as members."""
    if not report.n_factored:
        return None
    tol = max(report.tol_omega, report.tol_lambda)
    return tuple(jacobi_factor(J, tol=tol) for J in report.jacobians)
