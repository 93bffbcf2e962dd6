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

`_realize` alone writes this layout: an element's matrix, the membership
check of `jacobi_factor` and the basis of `heisenberg_generators` come from it.

Validation happens where elements enter: the class constructors check
shapes, signs and that every parameter is finite, and `SymplecticBlock`
(hence `JacobiElement.from_parts` and `identity`) checks the symplectic
residual against its `tol`.  Results that are members by construction
(products, inverses, conjugates, the `vfr_convert`/`heisenberg_from_vfr`
conversions, the random elements of `random_jacobi`, and the output of
`jacobi_factor` once its own checks pass) are built by `_trusted`, which
neither re-checks nor copies.
`_membership` runs those checks alone, on one matrix or a stack, for callers
that only count members.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .forms import (
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


def _finite(name, a):
    # a NaN or infinite float or array is rejected before any arithmetic on it can warn
    if not (math.isfinite(a) if type(a) is float else np.count_nonzero(np.isfinite(a)) == a.size):
        raise ValueError(f"{name} must be finite, got {np.asarray(a).tolist()}")
    return a


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
    n: int = field(init=False)

    def __post_init__(self):
        w = _freeze(np.atleast_1d(self.w))
        if w.ndim != 1 or len(w) % 2 or len(w) < 2:
            raise ValueError(f"w must have even length >= 2, got shape {w.shape}")
        object.__setattr__(self, "w", _finite("w", w))
        object.__setattr__(self, "r", _finite("r", float(self.r)))
        object.__setattr__(self, "n", len(w) // 2)

    @classmethod
    def identity(cls, n):
        return cls(w=np.zeros(2 * as_dimension(n)), r=0.0)

    def __mul__(self, other):
        return heisenberg_mul(self, other)

    def inv(self):
        """Inverse (-w, -r)."""
        return _trusted(HeisenbergElement, w=_owned(-self.w), r=-self.r, n=self.n)

    def matrix(self):
        return _realize(_identity(2 * self.n), self.w, self.r, 1)


@dataclass(frozen=True, eq=False)
class SymplecticBlock:
    """A 2n x 2n matrix with Sigma^T zeta° Sigma = zeta° (validated)."""

    sigma: np.ndarray
    n: int = field(init=False)

    def __init__(self, sigma, tol=TOL_EXACT):
        sigma = _freeze(sigma)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
            raise ValueError(f"expected a square even-dimensional matrix, got {sigma.shape}")
        n = as_dimension(sigma.shape[0] // 2)
        res = form_residual(_finite("Sigma", sigma), zeta_reduced(n))
        if not res <= tol:
            raise NotSymplectic(f"Sigma^T zeta° Sigma - zeta° has max entry {res:.3e} > {tol:.1e}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "n", n)


@dataclass(frozen=True, eq=False)
class JacobiElement:
    """Group element (Sigma, w, r, tr) with tr = +-1 the time-reversal sign."""

    sigma: SymplecticBlock
    w: np.ndarray
    r: float
    tr: int = 1
    n: int = field(init=False)

    def __post_init__(self):
        if self.tr not in (1, -1):
            raise ValueError(f"tr must be +1 or -1, got {self.tr!r}")
        w = _freeze(np.atleast_1d(self.w))
        if w.shape != (2 * self.sigma.n,):
            raise ValueError(f"w has shape {w.shape}, expected ({2 * self.sigma.n},)")
        object.__setattr__(self, "w", _finite("w", w))
        object.__setattr__(self, "r", _finite("r", float(self.r)))
        object.__setattr__(self, "tr", int(self.tr))
        object.__setattr__(self, "n", self.sigma.n)

    @classmethod
    def from_parts(cls, sigma, w, r, tr=1, tol=TOL_EXACT):
        return cls(sigma=SymplecticBlock(sigma, tol=tol), w=w, r=r, tr=tr)

    @classmethod
    def identity(cls, n):
        k = 2 * as_dimension(n)
        return cls.from_parts(np.eye(k), np.zeros(k), 0.0)

    def __mul__(self, other):
        return jacobi_mul(self, other)

    def inv(self):
        return jacobi_inv(self)

    def matrix(self):
        return jacobi_matrix(self)

    def heisenberg_part(self):
        return HeisenbergElement(w=self.w, r=self.r)

@dataclass(frozen=True, eq=False)
class IglElement:
    """Factored time-metric-preserving element: Lambda = [[Omega, eps*u], [0, eps]]."""

    omega: np.ndarray
    u: np.ndarray
    eps: int
    n: int = field(init=False)

    def __post_init__(self):
        omega = _finite("Omega", _freeze(self.omega))
        u = _finite("u", _freeze(np.atleast_1d(self.u)))
        if omega.ndim != 2 or omega.shape[0] != omega.shape[1] or omega.shape[0] % 2 == 0:
            raise ValueError(f"Omega must be square of odd dimension, got {omega.shape}")
        if u.shape != (omega.shape[0],):
            raise ValueError(f"u has shape {u.shape}, expected ({omega.shape[0]},)")
        if self.eps not in (1, -1):
            raise ValueError(f"eps must be +1 or -1, got {self.eps!r}")
        if np.linalg.det(omega) == 0.0:
            raise FactorError("Omega is singular")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "eps", int(self.eps))
        object.__setattr__(self, "n", as_dimension((omega.shape[0] - 1) // 2))

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
    n: int = field(init=False)

    def __post_init__(self):
        v = _freeze(np.atleast_1d(self.v))
        f = _freeze(np.atleast_1d(self.f))
        if v.shape != f.shape or v.ndim != 1:
            raise ValueError("v and f must be 1-d arrays of equal length")
        object.__setattr__(self, "v", _finite("v", v))
        object.__setattr__(self, "f", _finite("f", f))
        object.__setattr__(self, "r_phys", _finite("r_phys", float(self.r_phys)))
        object.__setattr__(self, "n", as_dimension(len(v)))


def _check_same_n(a, b):
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: n={a.n} vs n={b.n}")


def heisenberg_mul(a, b):
    """Product of translation elements, a on the left.

    (w_a, r_a) (w_b, r_b) = (w_a + w_b, r_a + r_b + 1/2 w_a^T zeta° w_b).
    """
    _check_same_n(a, b)
    z0 = zeta_reduced(a.n)
    return _trusted(
        HeisenbergElement, w=_owned(a.w + b.w), r=a.r + b.r + 0.5 * float(a.w @ z0 @ b.w), n=a.n
    )


def heisenberg_generators(n):
    """Algebra basis W_1..W_2n, R as integer matrices.

    W_a = `_realize`(I, e_a, 0, 1) - I and R = `_realize`(I, 0, 1, 1) - I: the
    realization is affine in (w, r) at Sigma = I, so these are exactly its
    derivatives in w_a and r.  [W_a, W_b] = zeta°_{a,b} R and [W_a, R] = 0
    hold exactly in integer arithmetic.
    """
    k = 2 * as_dimension(n)
    # parameter row a < k is (e_a, 0), row k is (0, 1)
    gens = _realize(_identity(k), np.eye(k + 1, k), np.eye(k + 1)[k], 1) - _identity(k + 2)
    return list(gens.astype(np.int64))


def conjugate_by_sp(s, a):
    """Sigma Upsilon(w, r) Sigma^{-1} = Upsilon(Sigma w, r); r is untouched."""
    _check_same_n(s, a)
    return _trusted(HeisenbergElement, w=_owned(s.sigma @ a.w), r=a.r, n=a.n)


def jacobi_matrix(g):
    """Matrix realization Gamma°(Sigma, w, r) . Delta(tr) in canonical ordering."""
    return _realize(g.sigma.sigma, g.w, g.r, g.tr)


def _realize(sigma, w, r, tr):
    """Gamma°(Sigma, w, r) . Delta(tr), or one per element of stacked sigma, w and r."""
    k = w.shape[-1]
    M = np.zeros(w.shape[:-1] + (k + 2, k + 2))
    M[..., :k, :k] = sigma
    M[..., :k, -1] = tr * w
    # a (1, k) row times Sigma per element: the bits of one vector-matrix product
    M[..., k : k + 1, :k] = (w @ zeta_reduced(k // 2))[..., None, :] @ sigma
    M[..., k, k] = 1.0
    M[..., k, -1] = tr * 2.0 * r
    M[..., -1, -1] = tr
    return M


def jacobi_mul(a, b):
    """Group product in normal form.

    For tr_a = tr_b = +1 this is
    (Sigma_a Sigma_b, w_a + Sigma_a w_b, r_a + r_b + 1/2 w_a^T zeta° Sigma_a w_b);
    a left factor with tr_a = -1 first flips the sign of w_b (Delta
    conjugation acting on parameters), and the signs multiply.
    """
    _check_same_n(a, b)
    z0 = zeta_reduced(a.n)
    shift = a.sigma.sigma @ (a.tr * b.w)
    r = a.r + b.r + 0.5 * float(a.w @ z0 @ shift)
    return _element(_owned(a.sigma.sigma @ b.sigma.sigma), _owned(a.w + shift), r, a.tr * b.tr, a.n)


def jacobi_inv(a):
    """Inverse (Sigma^{-1}, -tr * Sigma^{-1} w, -r, tr)."""
    z0 = zeta_reduced(a.n)
    # symplectic inverse without a linear solve: Sigma^{-1} = zeta°^{-1} Sigma^T zeta°
    sig_inv = -z0 @ a.sigma.sigma.T @ z0
    return _element(_owned(sig_inv), _owned(-a.tr * (sig_inv @ a.w)), -a.r, a.tr, a.n)


def _square(M):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 4 or M.shape[0] % 2:
        raise ValueError(f"expected a square matrix of even dimension >= 4, got {M.shape}")
    return M


def _check(res, tol, error, what):
    """Whether each residual of a stack is <= tol; one matrix's residual raises its error if not."""
    ok = res <= tol
    if ok.ndim == 0 and not ok:
        raise error(f"{what} {res:.3e} > {tol:.1e}")
    return ok.ndim == 0 or np.count_nonzero(ok) == len(ok)


def _time_preserving(M, tol):
    """The finiteness and time-metric checks of a matrix, raising its error, or of a stack."""
    if not np.isfinite(M).all():
        if M.ndim == 3:
            return False
        bad = np.argwhere(~np.isfinite(M)).tolist()
        raise FactorError(f"{len(bad)} of {M.size} entries are not finite: (row, column) {bad[:6]}")
    return _check(eta_residual(M), tol, NotTimePreserving, "time-metric residual")


def _element(sigma, w, r, tr, n):
    # a member by construction, from arrays that are owned already
    return _trusted(
        JacobiElement,
        sigma=_trusted(SymplecticBlock, sigma=sigma, n=n),
        w=w,
        r=float(r),
        tr=int(tr),
        n=n,
    )


def _membership(M, tol):
    """The checks of `jacobi_factor`, in order, on a float matrix or (B, d, d) stack of them.

    The shape is not checked.  One matrix raises the error of the first check
    it fails.  Each check runs on a whole stack, and a stack that fails one
    runs its matrices one at a time, so that its first failing matrix raises
    its own error: a stack passes exactly when each of its matrices passes
    alone.  Returns what the
    factors are read from: M with its last column times tr, the top 2n
    entries of that column (w), and tr.
    """
    k = M.shape[-1] - 2
    if _time_preserving(M, tol):
        # [()] reads one matrix's entries as scalars, whose arithmetic is faster
        corner = M[..., -1, -1][()]
        s = np.sign(corner) - (corner == 0)  # tr: 1 if M[t, t] > 0, else -1
        G = M.copy()
        col = G[..., -1].T  # the last column, one column of it per matrix
        col *= s
        w = G[..., :k, -1].copy()
        # realization first: numpy subtracts in its buffer, freed before zeta_residual
        pattern = abs(_realize(G[..., :k, :k], w, 0.5 * G[..., k, -1], 1) - G).max(axis=(-2, -1))
        if _check(pattern, tol, PatternViolation, "block pattern deviates by") and _check(
            zeta_residual(G), tol, NotSymplectic, "symplectic residual"
        ):
            return G, w, s
    # only a stack gets here.  Its matrices run alone, and if they all pass
    # (a stacked product may round unlike one matrix's), their results are its
    return tuple(map(np.stack, zip(*(_membership(m, tol) for m in M))))


def jacobi_factor(M, tol=TOL_EXACT):
    """Factor a matrix into (Sigma, w, r, tr), verifying membership.

    Checks, in order: that every entry is finite (FactorError), the
    time-metric residual (NotTimePreserving), the normal form after
    stripping Delta(tr) (PatternViolation: the stripped matrix must equal
    `_realize` of its own parameters within tol), and the symplectic
    residual of the stripped factor (NotSymplectic).  The normal form is
    checked first so that a structural violation is reported as such even
    though it also breaks the symplectic residual.

    Parameters are read as tr = sign M[t, t], w = tr * (top 2n entries of
    the last column), 2r = tr * M[eps, t].  M is one matrix; a stack raises
    ValueError.
    """
    G, w, s = _membership(_square(M), tol)
    k = len(G) - 2
    return _element(_owned(G[:k, :k].copy()), _owned(w), 0.5 * G[k, -1], s, k // 2)


def igl_factor(L, tol=TOL_EXACT):
    """Factor a time-metric-preserving matrix into (Omega, u, eps).

    Invariance of the time metric forces the bottom row to (0, ..., 0, eps)
    with eps = +-1; then Omega is the top-left block and u = eps * (top
    entries of the last column).  Its first two checks are those of
    `jacobi_factor`, with the same errors: a non-finite entry raises
    FactorError and a time-metric residual above tol NotTimePreserving.  A
    singular Omega raises FactorError.
    """
    L = _square(L)
    _time_preserving(L, tol)
    s = 1 if L[-1, -1] > 0 else -1
    return IglElement(omega=L[:-1, :-1], u=s * L[:-1, -1], eps=s)


def euclidean_element(R, v, tol=TOL_EXACT):
    """Inertial element from a rotation R and velocity v.

    R embeds as the same rotation on positions and momenta (block-diagonal
    in the (q, p) view, here interleaved), v becomes the velocity half of w,
    and the force and power parts are exactly zero.
    """
    R = _finite("R", np.asarray(R, dtype=float))
    v = _finite("v", np.atleast_1d(np.asarray(v, dtype=float)))
    if R.ndim != 2 or R.shape[0] != R.shape[1] or v.shape != (R.shape[0],):
        raise ValueError(f"need an n x n matrix and length-n vector, got {R.shape} and {v.shape}")
    n = as_dimension(R.shape[0])
    ortho = np.max(np.abs(R.T @ R - np.eye(n)))
    det = np.linalg.det(R)
    if not (ortho <= tol and abs(det - 1.0) <= max(tol, 10 * ortho)):
        raise NotARotation(f"R^T R - I has max entry {ortho:.3e}, det = {det!r}")
    sigma = np.zeros((2 * n, 2 * n))
    sigma[0::2, 0::2] = R
    sigma[1::2, 1::2] = R
    w = np.zeros(2 * n)
    w[0::2] = v
    return JacobiElement(sigma=SymplecticBlock(sigma, tol=max(tol, 4 * n * ortho)), w=w, r=0.0)


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
    w = np.empty(2 * view.n)
    w[0::2] = view.v
    w[1::2] = view.f
    return _trusted(HeisenbergElement, w=_owned(w), r=0.5 * view.r_phys, n=view.n)


def random_symplectic(n, rng):
    """Random symplectic 2n x 2n matrix as a product of four shears and pair rotations.

    Symplectic by construction, with entries of O(1).  Used by the self-test
    suites and the randomized tests.  Returns a fresh writable array.
    """
    n = as_dimension(n)
    k = 2 * n
    M = _identity(k)
    for _ in range(4):
        kind = int(rng.integers(3))
        F = _identity(k).copy()
        if kind == 2:  # independent rotation in each (q_i, p_i) plane
            th = rng.uniform(0.0, 2.0 * np.pi, n)
            c, s = np.cos(th), np.sin(th)
            # the four entries of pair i sit on F's flat diagonals, 2(k+1) apart
            f, step = F.reshape(-1), 2 * (k + 1)
            f[0::step], f[1::step], f[k::step], f[k + 1 :: step] = c, -s, s, c
        else:  # q += S p (kind 0) or p += S q (kind 1), S symmetric
            A = rng.uniform(-0.6, 0.6, (n, n))
            F[kind::2, 1 - kind :: 2] = 0.5 * (A + A.T)
        M = M @ F
    return M


def random_jacobi(n, rng, tr=None):
    """Random group element; tr = None draws the sign at random.

    A member by construction, built by `_element` without re-checking the
    symplectic residual; sigma, w and r are drawn in that order.
    """
    if tr is None:
        tr = (-1, 1)[rng.integers(2)]
    elif tr not in (1, -1):
        raise ValueError(f"tr must be +1 or -1, got {tr!r}")
    sigma = _owned(random_symplectic(n, rng))
    w = _owned(rng.uniform(-2.0, 2.0, len(sigma)))
    return _element(sigma, w, rng.uniform(-2.0, 2.0), tr, len(sigma) // 2)
