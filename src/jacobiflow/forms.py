"""Canonical bilinear forms on extended phase space and Jacobian plumbing.

Extended phase space has coordinates z = (q1, p1, ..., qn, pn, eps, t) in
R^(2n+2): each position is interleaved with its momentum, followed by the
energy coordinate and time.  This interleaved ordering is the one canonical
ordering used everywhere in the package; `block_permutation` converts to the
block view (q, p, eps, t) when that reads better.

Two structures live on this space: the symplectic form with matrix zeta
(n+1 diagonal 2x2 blocks [[0,1],[-1,0]], the last acting on (eps, t)) and
the degenerate time metric with matrix eta (a single 1 in the (t, t) entry).
Invariance of either under a map is measured by `form_residual` applied to
the map's Jacobian.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Default tolerances: exact matrix algebra vs finite-difference checks.
TOL_EXACT = 1e-12
TOL_FD = 1e-6


def _freeze(a):
    # read-only copy; values are immutable after construction
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dimension:
    """Number of position degrees of freedom; sizes derive from it."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.n!r}")

    @property
    def reduced(self):
        return 2 * self.n

    @property
    def extended(self):
        return 2 * self.n + 2


def as_dimension(n):
    return n if isinstance(n, Dimension) else Dimension(n)


@dataclass(frozen=True)
class MapHandle:
    """An evaluable map on extended phase space, with optional analytic Jacobian."""

    func: object
    n: Dimension
    jacobian: object = None
    name: str = ""

    def __call__(self, z):
        return np.asarray(self.func(np.asarray(z, dtype=float)), dtype=float)


@lru_cache(maxsize=None)
def _canonical(n):
    # (zeta, eta, zeta°) for n degrees of freedom: built once per n, read-only
    # and shared by every caller, so the group ops pay a cache lookup only
    n = as_dimension(n)
    m = np.zeros((n.extended, n.extended))
    for k in range(n.n + 1):
        m[2 * k, 2 * k + 1] = 1.0
        m[2 * k + 1, 2 * k] = -1.0
    e = np.zeros((n.extended, n.extended))
    e[-1, -1] = 1.0
    return _freeze(m), _freeze(e), _freeze(m[: n.reduced, : n.reduced])


def _key(n):
    return n.n if isinstance(n, Dimension) else n


def canonical_zeta(n):
    """Canonical symplectic matrix on R^(2n+2).

    Parameters
    ----------
    n : int or Dimension
        Position degrees of freedom.

    Returns
    -------
    ndarray
        (2n+2)-dimensional matrix of n+1 diagonal blocks [[0, 1], [-1, 0]];
        the final block acts on (eps, t) and the top-left 2n x 2n block is
        the reduced symplectic matrix zeta°.  Built once per n; read-only
        and shared.
    """
    return _canonical(_key(n))[0]


def canonical_eta(n):
    """Degenerate time metric on R^(2n+2): zeros except eta[t, t] = 1 (shared, read-only)."""
    return _canonical(_key(n))[1]


def zeta_reduced(n):
    """Reduced symplectic matrix zeta° on R^(2n) (interleaved pairs; shared, read-only)."""
    return _canonical(_key(n))[2]


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
    return abs(J.swapaxes(-1, -2) @ zeta @ J - zeta).max(axis=(-2, -1))


def eta_residual(J):
    """Time-metric residual of a (d, d) matrix, or of each matrix of a (..., d, d) stack.

    J^T eta J is the outer product of J's last row with itself, so this is
    bitwise equal to `form_residual(J, canonical_eta(n))` per matrix for
    finite J, without the two matrix products; no input checks.
    """
    eta = canonical_eta((J.shape[-1] - 2) // 2)
    last = J[..., -1, :]
    return abs(last[..., :, None] * last[..., None, :] - eta).max(axis=(-2, -1))


def block_permutation(n):
    """Permutation matrix P with z_block = P @ z_interleaved.

    Block ordering is (q1..qn, p1..pn, eps, t); P is orthogonal, so the
    inverse conversion is P.T.
    """
    n = as_dimension(n)
    P = np.zeros((n.extended, n.extended))
    for i in range(n.n):
        P[i, 2 * i] = 1.0
        P[n.n + i, 2 * i + 1] = 1.0
    P[-2, -2] = 1.0
    P[-1, -1] = 1.0
    return P


def interleaved_to_block(z):
    """Reorder a state vector (or each row of a matrix of states) to (q, p, eps, t)."""
    z = np.asarray(z)
    n = (z.shape[-1] - 2) // 2
    idx = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)) + [2 * n, 2 * n + 1]
    return z[..., idx]


def block_to_interleaved(z):
    z = np.asarray(z)
    n = (z.shape[-1] - 2) // 2
    idx = np.empty(2 * n + 2, dtype=int)
    idx[0 : 2 * n : 2] = np.arange(n)
    idx[1 : 2 * n : 2] = n + np.arange(n)
    idx[-2:] = (2 * n, 2 * n + 1)
    return z[..., idx]


def default_step(z):
    """Finite-difference step h = 1e-5 * max(1, |z|_inf); one step per row of a 2-d z."""
    z = np.asarray(z, dtype=float)
    h = 1e-5 * np.maximum(1.0, np.max(np.abs(z), axis=-1, initial=0.0))
    return float(h) if h.ndim == 0 else h


def numeric_jacobian(f, z, h=None):
    """Central-difference Jacobian of a map at z.

    Parameters
    ----------
    f : MapHandle or callable
        Map R^m -> R^m on flat state vectors.
    z : array
        Evaluation point, a flat state vector.
    h : float, optional
        Step size; defaults to 1e-5 * max(1, |z|_inf).

    Returns
    -------
    ndarray
        Matrix with entry (a, d) = (f(z + h e_d)_a - f(z - h e_d)_a) / (2h).
    """
    func = f.func if isinstance(f, MapHandle) else f
    z = np.asarray(z, dtype=float)
    if h is None:
        h = default_step(z)
    if h <= 0:
        raise ValueError("step size must be positive")
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
