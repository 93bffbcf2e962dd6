"""Canonical bilinear forms on extended phase space and Jacobian plumbing.

Extended phase space has coordinates z = (q1, p1, ..., qn, pn, eps, t) in
R^(2n+2): each position is interleaved with its momentum, followed by the
energy coordinate and time.  This interleaved ordering is the one canonical
ordering used everywhere in the package; `block_to_interleaved` reads a state
written in block order (q1..qn, p1..pn, eps, t), the order of the CLI's `z0`.

Two structures live on this space: the symplectic form with matrix zeta
(n+1 diagonal 2x2 blocks [[0,1],[-1,0]], the last acting on (eps, t)) and
the degenerate time metric with matrix eta (a single 1 in the (t, t) entry).
Invariance of either under a map is measured by `form_residual` applied to
the map's Jacobian, or by `zeta_residual` and `eta_residual` over a stack of
Jacobians.  The certification layer reads only a `MapHandle`'s own
`jacobian`: the shift transform's handle carries `complex_step_jacobian`,
whose error is round-off.  `numeric_jacobian` takes a map's Jacobian by
central differences, as the tests' reference and as an explicit opt-in,
`MapHandle(func, n, jacobian=functools.partial(numeric_jacobian, func))`.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Default tolerance of exact matrix algebra.
TOL_EXACT = 1e-12


def _freeze(a):
    # read-only copy; values are immutable after construction
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def as_dimension(n):
    """The number n of position degrees of freedom as a Python int; n must be a positive integer."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    return int(n)


@dataclass(frozen=True)
class MapHandle:
    """An evaluable map on extended phase space and `jacobian(z)`, the one Jacobian certification reads."""

    func: object
    n: int
    jacobian: object = None
    name: str = ""

    def __call__(self, z):
        return np.asarray(self.func(np.asarray(z, dtype=float)), dtype=float)


@lru_cache(maxsize=None)
def _canonical(n):
    # (zeta, eta, zeta°) for n degrees of freedom, validated and built once per
    # n, read-only and shared by every caller: the group ops pay a cache lookup only
    d = 2 * as_dimension(n) + 2
    m = np.zeros((d, d))
    for k in range(0, d, 2):
        m[k, k + 1] = 1.0
        m[k + 1, k] = -1.0
    e = np.zeros((d, d))
    e[-1, -1] = 1.0
    return _freeze(m), _freeze(e), _freeze(m[:-2, :-2])


def canonical_zeta(n):
    """Canonical symplectic matrix on R^(2n+2).

    Parameters
    ----------
    n : int
        Position degrees of freedom.

    Returns
    -------
    ndarray
        (2n+2)-dimensional matrix of n+1 diagonal blocks [[0, 1], [-1, 0]];
        the final block acts on (eps, t) and the top-left 2n x 2n block is
        the reduced symplectic matrix zeta°.  Built once per n; read-only
        and shared.
    """
    return _canonical(n)[0]


def canonical_eta(n):
    """Degenerate time metric on R^(2n+2): zeros except eta[t, t] = 1 (shared, read-only)."""
    return _canonical(n)[1]


def zeta_reduced(n):
    """Reduced symplectic matrix zeta° on R^(2n) (interleaved pairs; shared, read-only)."""
    return _canonical(n)[2]


def form_residual(M, F):
    """Max-absolute-entry norm of M^T F M - F.

    Membership in the invariance group of the form with matrix F is
    residual <= tol.
    """
    M = np.asarray(M, dtype=float)
    F = np.asarray(F, dtype=float)
    if M.shape != F.shape or M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"shape mismatch: M {M.shape} vs form {F.shape}")
    return float(np.max(np.abs(M.T @ F @ M - F)))


def zeta_residual(J):
    """Symplectic residual of a (d, d) matrix, or of each matrix of a (..., d, d) stack.

    Bitwise equal to `form_residual(J, canonical_zeta(n))` per matrix, with
    no input checks: J must be a float array with d = 2n + 2 >= 4.
    """
    zeta = canonical_zeta((J.shape[-1] - 2) // 2)
    # in place, so that a stack's pass holds two stack-sized temporaries
    R = J.swapaxes(-1, -2) @ zeta @ J
    R -= zeta
    return np.abs(R, out=R).max(axis=(-2, -1))


def eta_residual(J):
    """Time-metric residual of a (d, d) matrix, or of each matrix of a (..., d, d) stack.

    J^T eta J is the outer product of J's last row l with itself, whose
    largest entry off the (t, t) corner is b*b or b*|l_t|, with b the largest
    |l_i| for i < t: |l_i l_j| = |l_i||l_j| and rounding is monotone.  So this
    is bitwise equal to `form_residual(J, canonical_eta(n))` per matrix for
    finite J, in O(d) per matrix; a non-finite entry in l gives inf or NaN,
    which fails every tolerance.  No input checks.
    """
    a = abs(J[..., -1, :])
    b = a[..., :-1].max(axis=-1)
    a_t = a[..., -1][()]  # a scalar for one matrix, whose arithmetic is faster
    return np.maximum(np.maximum(b * b, b * a_t), abs(a_t * a_t - 1.0))


def block_to_interleaved(z):
    """Reorder a block-order state (q, p, eps, t), or each row of a stack, to interleaved order."""
    z = np.asarray(z)
    if z.ndim < 1 or z.shape[-1] < 4 or z.shape[-1] % 2:
        raise ValueError(f"a state (q, p, eps, t) has even length >= 4, got shape {z.shape}")
    n = (z.shape[-1] - 2) // 2
    idx = np.empty(2 * n + 2, dtype=int)
    idx[0 : 2 * n : 2] = np.arange(n)
    idx[1 : 2 * n : 2] = n + np.arange(n)
    idx[-2:] = (2 * n, 2 * n + 1)
    return z[..., idx]


def default_step(z):
    """Finite-difference step h = 1e-5 * max(1, |z|_inf) at a state vector z."""
    return 1e-5 * max(1.0, float(np.max(np.abs(z), initial=0.0)))


def numeric_jacobian(f, z):
    """Central-difference Jacobian of a map at z, with the step h = `default_step(z)`.

    Parameters
    ----------
    f : MapHandle or callable
        Map R^m -> R^m on flat state vectors.
    z : array
        Evaluation point, a finite flat state vector.

    Returns
    -------
    ndarray
        Matrix with entry (a, d) = (f(z + h e_d)_a - f(z - h e_d)_a) / (2h).
    """
    func = f.func if isinstance(f, MapHandle) else f
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"numeric_jacobian needs a finite state, got {z.tolist()}")
    h = default_step(z)
    m = len(z)
    J = np.empty((m, m))
    for d in range(m):
        e = np.zeros(m)
        e[d] = h
        fp = np.asarray(func(z + e), dtype=float)
        fm = np.asarray(func(z - e), dtype=float)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise ValueError(f"map evaluated to non-finite values near column {d}")
        J[:, d] = (fp - fm) / (2.0 * h)
    return J


def complex_step_jacobian(func, z):
    """Jacobian of a map at z by complex step: column c is Im func(z + i h e_c) / h, h = 1e-30.

    Nothing is subtracted, so the error is round-off, and Re z stays put (Squire
    & Trapp, SIAM Review 40:110, 1998).  func must be analytic in a complex state.
    """
    z = np.asarray(z, dtype=float)
    return np.column_stack([np.imag(func(w)) for w in z + 1e-30j * np.eye(len(z))]) / 1e-30
