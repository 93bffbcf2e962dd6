"""Matrix groups acting on extended phase space.

Three layers, all realized as (2n+2)-dimensional matrices in the canonical
interleaved ordering:

* translation elements Upsilon(w, r) with w in R^(2n), central parameter r;
* symplectic blocks Sigma acting on the (q, p) part;
* the composite elements Gamma(Sigma, w, r, tr) with a time-reversal sign
  tr = +-1, realized as Gamma°(Sigma, w, r) . Delta(tr), where

      Gamma°(Sigma, w, r) = [[Sigma,          0, w ],
                             [w^T zeta° Sigma, 1, 2r],
                             [0,               0, 1 ]]

  and Delta(tr) = diag(1, ..., 1, tr).  The stored r maps to matrix entry
  2r (the factor of 2 keeps the group law's cocycle at 1/2).

Composition for tr = -1 is done in normal form: Delta conjugation acts on
parameters as (Sigma, w, r) -> (Sigma, tr*w, r), and the Delta factors are
collected on the right.  The matrix realization multiplies like the group
exactly when the left factor has tr = +1; Delta(-1) itself preserves only
the time metric, not the symplectic form.

Validation happens where elements enter: the class constructors check
shapes and signs, and `SymplecticBlock` (hence `JacobiElement.from_parts`,
`from_dict` and `identity`) checks the symplectic residual against its
`tol`.  Results that are members by construction (products, inverses,
conjugates, the `vfr_convert`/`heisenberg_from_vfr` conversions, and the
output of `jacobi_factor` once its own checks pass) are built by
`_trusted`, which neither re-checks nor copies.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .forms import (
    Dimension,
    as_dimension,
    eta_residual,
    form_residual,
    zeta_reduced,
    zeta_residual,
    TOL_EXACT,
    _freeze,
)


class FactorError(ValueError):
    """A matrix failed a group-membership factorization."""


class NotSymplectic(FactorError):
    pass


class NotTimePreserving(FactorError):
    pass


class PatternViolation(FactorError):
    pass


class NotARotation(FactorError):
    pass


def _trusted(cls, **fields):
    # An element whose fields hold by construction: products, inverses,
    # factors and conversions of valid elements.  Skips __post_init__: no
    # checks and no copies, so every array field must be passed through
    # `_owned` or already belong to a valid element.
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


def _owned(a):
    # a fresh float array that becomes an element's read-only storage
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _identity(k):
    return _owned(np.eye(k))


@dataclass(frozen=True, eq=False)
class HeisenbergElement:
    """Translation element Upsilon(w, r); w interleaves (velocity, force) pairs."""

    w: np.ndarray
    r: float
    n: Dimension = field(init=False)

    def __post_init__(self):
        w = _freeze(np.atleast_1d(self.w))
        if w.ndim != 1 or len(w) % 2 or len(w) < 2:
            raise ValueError(f"w must have even length >= 2, got shape {w.shape}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "n", Dimension(len(w) // 2))

    @classmethod
    def identity(cls, n):
        n = as_dimension(n)
        return cls(w=np.zeros(n.reduced), r=0.0)

    def __mul__(self, other):
        return heisenberg_mul(self, other)

    def inv(self):
        return heisenberg_inv(self)

    def matrix(self):
        return _realize(_identity(self.n.reduced), self.w, self.r, 1)


@dataclass(frozen=True, eq=False)
class SymplecticBlock:
    """A 2n x 2n matrix with Sigma^T zeta° Sigma = zeta° (validated)."""

    sigma: np.ndarray
    n: Dimension = field(init=False)

    def __init__(self, sigma, tol=TOL_EXACT):
        sigma = _freeze(sigma)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
            raise ValueError(f"expected a square even-dimensional matrix, got {sigma.shape}")
        n = Dimension(sigma.shape[0] // 2)
        res = form_residual(sigma, zeta_reduced(n))
        if res > tol:
            raise NotSymplectic(f"Sigma^T zeta° Sigma - zeta° has max entry {res:.3e} > {tol:.1e}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "n", n)

    @classmethod
    def identity(cls, n):
        return cls(np.eye(as_dimension(n).reduced))


@dataclass(frozen=True, eq=False)
class JacobiElement:
    """Group element (Sigma, w, r, tr) with tr = +-1 the time-reversal sign."""

    sigma: SymplecticBlock
    w: np.ndarray
    r: float
    tr: int = 1
    n: Dimension = field(init=False)

    def __post_init__(self):
        if self.tr not in (1, -1):
            raise ValueError(f"tr must be +1 or -1, got {self.tr!r}")
        w = _freeze(np.atleast_1d(self.w))
        if w.shape != (self.sigma.n.reduced,):
            raise ValueError(f"w has shape {w.shape}, expected ({self.sigma.n.reduced},)")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "tr", int(self.tr))
        object.__setattr__(self, "n", self.sigma.n)

    @classmethod
    def from_parts(cls, sigma, w, r, tr=1, tol=TOL_EXACT):
        return cls(sigma=SymplecticBlock(sigma, tol=tol), w=w, r=r, tr=tr)

    @classmethod
    def identity(cls, n):
        n = as_dimension(n)
        return cls.from_parts(np.eye(n.reduced), np.zeros(n.reduced), 0.0)

    def __mul__(self, other):
        return jacobi_mul(self, other)

    def inv(self):
        return jacobi_inv(self)

    def matrix(self):
        return jacobi_matrix(self)

    def heisenberg_part(self):
        return HeisenbergElement(w=self.w, r=self.r)

    def to_dict(self):
        """JSON-ready dict {n, sigma (row-major), w, r, eps}."""
        return {
            "n": self.n.n,
            "sigma": self.sigma.sigma.ravel().tolist(),
            "w": self.w.tolist(),
            "r": float(self.r),
            "eps": int(self.tr),
        }

    @classmethod
    def from_dict(cls, d, tol=TOL_EXACT):
        n = int(d["n"])
        sigma = np.array(d["sigma"], dtype=float).reshape(2 * n, 2 * n)
        return cls.from_parts(sigma, np.array(d["w"], dtype=float), d["r"], int(d["eps"]), tol=tol)


@dataclass(frozen=True, eq=False)
class IglElement:
    """Factored time-metric-preserving element: Lambda = [[Omega, eps*u], [0, eps]]."""

    omega: np.ndarray
    u: np.ndarray
    eps: int
    n: Dimension = field(init=False)

    def __post_init__(self):
        omega = _freeze(self.omega)
        u = _freeze(np.atleast_1d(self.u))
        if omega.ndim != 2 or omega.shape[0] != omega.shape[1] or omega.shape[0] % 2 == 0:
            raise ValueError(f"Omega must be square of odd dimension, got {omega.shape}")
        if u.shape != (omega.shape[0],):
            raise ValueError(f"u has shape {u.shape}, expected ({omega.shape[0]},)")
        if self.eps not in (1, -1):
            raise ValueError(f"eps must be +1 or -1, got {self.eps!r}")
        if np.linalg.det(omega) == 0.0:
            raise ValueError("Omega is singular")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "eps", int(self.eps))
        object.__setattr__(self, "n", Dimension((omega.shape[0] - 1) // 2))

    def matrix(self):
        d = self.omega.shape[0] + 1
        L = np.zeros((d, d))
        L[:-1, :-1] = self.omega
        L[:-1, -1] = self.eps * self.u
        L[-1, -1] = self.eps
        return L


@dataclass(frozen=True, eq=False)
class VfrView:
    """Physical view of a translation element: velocity, force, power."""

    v: np.ndarray
    f: np.ndarray
    r_phys: float
    n: Dimension = field(init=False)

    def __post_init__(self):
        v = _freeze(np.atleast_1d(self.v))
        f = _freeze(np.atleast_1d(self.f))
        if v.shape != f.shape or v.ndim != 1:
            raise ValueError("v and f must be 1-d arrays of equal length")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "r_phys", float(self.r_phys))
        object.__setattr__(self, "n", Dimension(len(v)))


def _check_same_n(a, b):
    if a.n.n != b.n.n:
        raise ValueError(f"dimension mismatch: n={a.n.n} vs n={b.n.n}")


def heisenberg_mul(a, b):
    """Product of translation elements, a on the left.

    (w_a, r_a) (w_b, r_b) = (w_a + w_b, r_a + r_b + 1/2 w_a^T zeta° w_b).
    """
    _check_same_n(a, b)
    z0 = zeta_reduced(a.n.n)
    return _trusted(
        HeisenbergElement, w=_owned(a.w + b.w), r=a.r + b.r + 0.5 * float(a.w @ z0 @ b.w), n=a.n
    )


def heisenberg_inv(a):
    """Inverse (-w, -r)."""
    return _trusted(HeisenbergElement, w=_owned(-a.w), r=-a.r, n=a.n)


def heisenberg_generators(n):
    """Algebra basis W_1..W_2n, R as integer matrices.

    W_a is the derivative of the matrix realization in w_a at the identity,
    R the derivative in r; [W_a, W_b] = zeta°_{a,b} R and [W_a, R] = 0 hold
    exactly in integer arithmetic.
    """
    n = as_dimension(n)
    d = n.extended
    z0 = np.zeros((n.reduced, n.reduced), dtype=np.int64)
    for k in range(n.n):
        z0[2 * k, 2 * k + 1] = 1
        z0[2 * k + 1, 2 * k] = -1
    gens = []
    for a in range(n.reduced):
        W = np.zeros((d, d), dtype=np.int64)
        W[a, -1] = 1
        W[n.reduced, : n.reduced] = z0[a]
        gens.append(W)
    R = np.zeros((d, d), dtype=np.int64)
    R[n.reduced, -1] = 2
    gens.append(R)
    return gens


def conjugate_by_sp(s, a):
    """Sigma Upsilon(w, r) Sigma^{-1} = Upsilon(Sigma w, r); r is untouched."""
    _check_same_n(s, a)
    return _trusted(HeisenbergElement, w=_owned(s.sigma @ a.w), r=a.r, n=a.n)


def jacobi_matrix(g):
    """Matrix realization Gamma°(Sigma, w, r) . Delta(tr) in canonical ordering."""
    return _realize(g.sigma.sigma, g.w, g.r, g.tr)


def _realize(sigma, w, r, tr):
    k = len(w)
    M = np.zeros((k + 2, k + 2))
    M[:k, :k] = sigma
    M[:k, -1] = tr * w
    M[k, :k] = (w @ zeta_reduced(k // 2)) @ sigma
    M[k, k] = 1.0
    M[k, -1] = tr * 2.0 * r
    M[-1, -1] = tr
    return M


def jacobi_mul(a, b):
    """Group product in normal form.

    For tr_a = tr_b = +1 this is
    (Sigma_a Sigma_b, w_a + Sigma_a w_b, r_a + r_b + 1/2 w_a^T zeta° Sigma_a w_b);
    a left factor with tr_a = -1 first flips the sign of w_b (Delta
    conjugation acting on parameters), and the signs multiply.
    """
    _check_same_n(a, b)
    z0 = zeta_reduced(a.n.n)
    shift = a.sigma.sigma @ (a.tr * b.w)
    return _trusted(
        JacobiElement,
        sigma=_trusted(SymplecticBlock, sigma=_owned(a.sigma.sigma @ b.sigma.sigma), n=a.n),
        w=_owned(a.w + shift),
        r=a.r + b.r + 0.5 * float(a.w @ z0 @ shift),
        tr=a.tr * b.tr,
        n=a.n,
    )


def jacobi_inv(a):
    """Inverse (Sigma^{-1}, -tr * Sigma^{-1} w, -r, tr)."""
    z0 = zeta_reduced(a.n.n)
    # symplectic inverse without a linear solve: Sigma^{-1} = zeta°^{-1} Sigma^T zeta°
    sig_inv = -z0 @ a.sigma.sigma.T @ z0
    return _trusted(
        JacobiElement,
        sigma=_trusted(SymplecticBlock, sigma=_owned(sig_inv), n=a.n),
        w=_owned(-a.tr * (sig_inv @ a.w)),
        r=-a.r,
        tr=a.tr,
        n=a.n,
    )


def _factor_input(M):
    # a NaN passes every "residual > tol" check, so non-finite input is rejected first
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 4 or M.shape[0] % 2:
        raise ValueError(f"expected a square matrix of even dimension >= 4, got {M.shape}")
    if not np.isfinite(M).all():
        bad = np.argwhere(~np.isfinite(M)).tolist()
        raise FactorError(f"{len(bad)} of {M.size} entries are not finite: (row, column) {bad[:6]}")
    return M


def jacobi_factor(M, tol=TOL_EXACT):
    """Factor a matrix into (Sigma, w, r, tr), verifying membership.

    Checks, in order: that every entry is finite (FactorError), the
    time-metric residual (NotTimePreserving), the block pattern of the
    normal form after stripping Delta(tr) (PatternViolation), and the
    symplectic residual of the stripped factor (NotSymplectic).  The
    pattern check runs before the symplectic one so that a structural
    violation is reported as such even though it also breaks the
    symplectic residual.

    Parameters are read as tr = sign M[t, t], w = tr * (top 2n entries of
    the last column), 2r = tr * M[eps, t].
    """
    M = _factor_input(M)
    n = as_dimension((M.shape[0] - 2) // 2)
    k = n.reduced
    res_eta = eta_residual(M)
    if res_eta > tol:
        raise NotTimePreserving(f"time-metric residual {res_eta:.3e} > {tol:.1e}")
    s = 1 if M[-1, -1] > 0 else -1
    G = M.copy()
    G[:, -1] *= s
    sigma = G[:k, :k]
    w = G[:k, -1].copy()
    r = 0.5 * G[k, -1]
    bad = max(
        abs(G[-1, :-1]).max(),
        abs(G[-1, -1] - 1.0),
        abs(G[:k, k]).max(),
        abs(G[k, k] - 1.0),
        abs(G[k, :k] - (w @ zeta_reduced(n.n)) @ sigma).max(),
    )
    if bad > tol:
        raise PatternViolation(f"block pattern deviates by {bad:.3e} > {tol:.1e}")
    res_zeta = zeta_residual(G)
    if res_zeta > tol:
        raise NotSymplectic(f"symplectic residual {res_zeta:.3e} > {tol:.1e}")
    return _trusted(
        JacobiElement,
        sigma=_trusted(SymplecticBlock, sigma=_owned(sigma.copy()), n=n),
        w=_owned(w),
        r=float(r),
        tr=s,
        n=n,
    )


def igl_factor(L, tol=TOL_EXACT):
    """Factor a time-metric-preserving matrix into (Omega, u, eps).

    Invariance of the time metric forces the bottom row to (0, ..., 0, eps)
    with eps = +-1; then Omega is the top-left block and u = eps * (top
    entries of the last column).  A non-finite entry raises FactorError.
    """
    L = _factor_input(L)
    res_eta = eta_residual(L)
    if res_eta > tol:
        raise NotTimePreserving(
            f"bottom row must be (0, ..., 0, +-1): time-metric residual {res_eta:.3e} > {tol:.1e}"
        )
    s = 1 if L[-1, -1] > 0 else -1
    return IglElement(omega=L[:-1, :-1], u=s * L[:-1, -1], eps=s)


def euclidean_element(R, v, tol=TOL_EXACT):
    """Inertial element from a rotation R and velocity v.

    R embeds as the same rotation on positions and momenta (block-diagonal
    in the (q, p) view, here interleaved), v becomes the velocity half of w,
    and the force and power parts are exactly zero.
    """
    R = np.asarray(R, dtype=float)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if R.ndim != 2 or R.shape[0] != R.shape[1] or v.shape != (R.shape[0],):
        raise ValueError(f"need an n x n matrix and length-n vector, got {R.shape} and {v.shape}")
    n = as_dimension(R.shape[0])
    ortho = np.max(np.abs(R.T @ R - np.eye(n.n)))
    det = np.linalg.det(R)
    if ortho > tol or abs(det - 1.0) > max(tol, 10 * ortho):
        raise NotARotation(f"R^T R - I has max entry {ortho:.3e}, det = {det!r}")
    sigma = np.zeros((n.reduced, n.reduced))
    sigma[0::2, 0::2] = R
    sigma[1::2, 1::2] = R
    w = np.zeros(n.reduced)
    w[0::2] = v
    return JacobiElement(sigma=SymplecticBlock(sigma, tol=max(tol, 4 * n.n * ortho)), w=w, r=0.0)


def vfr_convert(a):
    """Split a translation element into (velocity, force, power).

    w interleaves (v, f) per pair and the power is the matrix-entry
    normalization r_phys = 2r; lossless round-trip with
    `heisenberg_from_vfr`.
    """
    v, f = _owned(a.w.reshape(-1, 2).T.copy())
    return _trusted(VfrView, v=v, f=f, r_phys=2.0 * a.r, n=a.n)


def heisenberg_from_vfr(view):
    """Inverse of `vfr_convert`."""
    w = np.empty(view.n.reduced)
    w[0::2] = view.v
    w[1::2] = view.f
    return _trusted(HeisenbergElement, w=_owned(w), r=0.5 * view.r_phys, n=view.n)


def random_symplectic(n, rng, factors=4):
    """Random symplectic 2n x 2n matrix as a product of shears and pair rotations.

    Symplectic by construction; entries stay O(1) for the default factor
    count.  Used by the self-test suites and the randomized tests.
    """
    n = as_dimension(n)
    k = n.reduced
    M = np.eye(k)
    for _ in range(factors):
        kind = rng.integers(3)
        F = np.eye(k)
        if kind == 0:  # q += S p, S symmetric
            A = rng.uniform(-0.6, 0.6, (n.n, n.n))
            S = 0.5 * (A + A.T)
            F[0::2, 1::2] = S
        elif kind == 1:  # p += T q, T symmetric
            A = rng.uniform(-0.6, 0.6, (n.n, n.n))
            T = 0.5 * (A + A.T)
            F[1::2, 0::2] = T
        else:  # independent rotation in each (q_i, p_i) plane
            for i in range(n.n):
                th = rng.uniform(0.0, 2.0 * np.pi)
                c, s = np.cos(th), np.sin(th)
                F[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[c, -s], [s, c]]
        M = M @ F
    return M


def random_jacobi(n, rng, tr=None, factors=4):
    """Random group element; tr = None draws the sign at random."""
    n = as_dimension(n)
    if tr is None:
        tr = int(rng.choice([-1, 1]))
    return JacobiElement(
        sigma=SymplecticBlock(random_symplectic(n, rng, factors=factors), tol=1e-9),
        w=rng.uniform(-2.0, 2.0, n.reduced),
        r=float(rng.uniform(-2.0, 2.0)),
        tr=tr,
    )
