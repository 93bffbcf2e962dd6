"""Group ops against plain-numpy reference formulas, bit for bit.

The references below build every matrix from scratch, compute the form
residuals as M^T F M - F and construct nothing through the element classes,
so the shared form table and the unchecked constructor that the group ops
use must reproduce them exactly: parameters, matrices, exception classes
and messages.
"""

import numpy as np
import pytest

from jacobiflow import (
    FactorError,
    HeisenbergElement,
    JacobiElement,
    NotSymplectic,
    NotTimePreserving,
    PatternViolation,
    canonical_eta,
    canonical_zeta,
    heisenberg_mul,
    jacobi_factor,
    jacobi_inv,
    jacobi_matrix,
    jacobi_mul,
    noncommutativity_check,
    random_jacobi,
    zeta_reduced,
)
from jacobiflow.groups import VfrView

TOL = 1e-9


def _zeta(m):
    # m/2 diagonal blocks [[0, 1], [-1, 0]]
    z = np.zeros((m, m))
    for k in range(m // 2):
        z[2 * k, 2 * k + 1] = 1.0
        z[2 * k + 1, 2 * k] = -1.0
    return z


def _eta(d):
    e = np.zeros((d, d))
    e[-1, -1] = 1.0
    return e


def _residual(M, F):
    return float(np.max(np.abs(M.T @ F @ M - F)))


def _ref_matrix(sigma, w, r, tr):
    k = len(w)
    M = np.zeros((k + 2, k + 2))
    M[:k, :k] = sigma
    M[:k, -1] = tr * w
    M[k, :k] = (w @ _zeta(k)) @ sigma
    M[k, k] = 1.0
    M[k, -1] = tr * 2.0 * r
    M[-1, -1] = tr
    return M


def _ref_mul(a, b):
    sa, wa, ra, ta = a
    sb, wb, rb, tb = b
    shift = sa @ (ta * wb)
    return sa @ sb, wa + shift, ra + rb + 0.5 * float(wa @ _zeta(len(wa)) @ shift), ta * tb


def _ref_inv(a):
    s, w, r, tr = a
    z0 = _zeta(len(w))
    s_inv = -z0 @ s.T @ z0
    return s_inv, -tr * (s_inv @ w), -r, tr


def _ref_factor(M, tol):
    """(sigma, w, r, tr), or the (exception class, message) the factorization raises."""
    d = M.shape[0]
    k = d - 2
    res_eta = _residual(M, _eta(d))
    if res_eta > tol:
        return NotTimePreserving, f"time-metric residual {res_eta:.3e} > {tol:.1e}"
    s = 1 if M[-1, -1] > 0 else -1
    G = M.copy()
    G[:, -1] *= s
    sigma, w, r = G[:k, :k].copy(), G[:k, -1].copy(), 0.5 * G[k, -1]
    bad = max(
        np.max(np.abs(G[-1, :-1])),
        abs(G[-1, -1] - 1.0),
        np.max(np.abs(G[:k, k])),
        abs(G[k, k] - 1.0),
        np.max(np.abs(G[k, :k] - (w @ _zeta(k)) @ sigma)),
    )
    if bad > tol:
        return PatternViolation, f"block pattern deviates by {bad:.3e} > {tol:.1e}"
    res_zeta = _residual(G, _zeta(d))
    if res_zeta > tol:
        return NotSymplectic, f"symplectic residual {res_zeta:.3e} > {tol:.1e}"
    return sigma, w, float(r), s


def _parts(g):
    return g.sigma.sigma, g.w, g.r, g.tr


def _same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _assert_element(g, ref):
    sigma, w, r, tr = ref
    assert _same_bits(g.sigma.sigma, sigma)
    assert _same_bits(g.w, w)
    assert _same_bits(g.r, r) and type(g.r) is float
    assert g.tr == tr and type(g.tr) is int
    assert g.n.n == len(w) // 2 and g.sigma.n == g.n


def _elements(n, seed, count=12):
    rng = np.random.default_rng(seed)
    # both time-reversal signs, alternating, on either side of a product
    return [random_jacobi(n, rng, tr=(1, -1)[i % 2]) for i in range(count)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobi_mul_inv_matrix_match_reference(n):
    els = _elements(n, 100 + n)
    for a, b in zip(els, els[1:] + els[:1]):
        _assert_element(jacobi_mul(a, b), _ref_mul(_parts(a), _parts(b)))
        _assert_element(jacobi_inv(a), _ref_inv(_parts(a)))
        assert _same_bits(jacobi_matrix(a), _ref_matrix(*_parts(a)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobi_factor_matches_reference(n):
    k = 2 * n
    for i, g in enumerate(_elements(n, 200 + n)):
        sigma, w, r, tr = _parts(g)
        candidates = [_ref_matrix(sigma, w, r, tr)]
        off_pattern = _ref_matrix(sigma, w, r, tr)
        off_pattern[0, k] += 1e-3
        off_time = _ref_matrix(sigma, w, r, tr)
        off_time[-1, i % (k + 1)] += 1e-3
        # a scaled Sigma keeps the block pattern but leaves the symplectic group
        off_sp = _ref_matrix(1.01 * sigma, w, r, tr)
        candidates += [off_pattern, off_time, off_sp]
        for M in candidates:
            ref = _ref_factor(M, TOL)
            if isinstance(ref[0], type):
                with pytest.raises(FactorError) as info:
                    jacobi_factor(M, tol=TOL)
                assert type(info.value) is ref[0] and str(info.value) == ref[1]
            else:
                _assert_element(jacobi_factor(M, tol=TOL), ref)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heisenberg_mul_and_matrix_match_reference(n):
    rng = np.random.default_rng(300 + n)
    k = 2 * n
    for _ in range(12):
        wa, wb = rng.uniform(-2.0, 2.0, (2, k))
        wa[rng.integers(k)] = 0.0  # exact zeros keep their sign through the ops
        ra, rb = (float(x) for x in rng.uniform(-2.0, 2.0, 2))
        a, b = HeisenbergElement(w=wa, r=ra), HeisenbergElement(w=wb, r=rb)
        c = heisenberg_mul(a, b)
        assert _same_bits(c.w, wa + wb)
        assert _same_bits(c.r, ra + rb + 0.5 * float(wa @ _zeta(k) @ wb))
        assert _same_bits(a.matrix(), _ref_matrix(np.eye(k), wa, ra, 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_noncommutativity_check_matches_reference(n):
    rng = np.random.default_rng(400 + n)
    k = 2 * n
    for _ in range(12):
        va, fa, vb, fb = rng.integers(-3, 4, (4, n)).astype(float)
        ra, rb = (float(x) for x in rng.integers(-3, 4, 2))
        wa, wb = np.empty(k), np.empty(k)
        wa[0::2], wa[1::2], wb[0::2], wb[1::2] = va, fa, vb, fb
        z0 = _zeta(k)
        left_r = 2.0 * (0.5 * ra + 0.5 * rb + 0.5 * float(wa @ z0 @ wb))
        right_r = 2.0 * (0.5 * rb + 0.5 * ra + 0.5 * float(wb @ z0 @ wa))
        left, right, comm = noncommutativity_check(
            VfrView(v=va, f=fa, r_phys=ra), VfrView(v=vb, f=fb, r_phys=rb)
        )
        for view, r_phys in ((left, left_r), (right, right_r)):
            assert _same_bits(view.v, (wa + wb)[0::2])
            assert _same_bits(view.f, (wa + wb)[1::2])
            assert _same_bits(view.r_phys, r_phys)
        assert _same_bits(comm, left_r - right_r)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shared_forms_are_read_only(n):
    d = 2 * n + 2
    zeta, eta, z0 = canonical_zeta(n), canonical_eta(n), zeta_reduced(n)
    assert np.array_equal(zeta, _zeta(d)) and np.array_equal(eta, _eta(d))
    assert np.array_equal(z0, _zeta(d - 2))
    # one table per n, whichever way n is given
    assert canonical_zeta(n) is canonical_zeta(JacobiElement.identity(n).n)
    assert zeta_reduced(n) is z0
    for m in (zeta, eta, z0):
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 5.0


def test_group_op_results_are_read_only():
    rng = np.random.default_rng(7)
    a, b = random_jacobi(2, rng), random_jacobi(2, rng)
    for g in (a * b, a.inv(), jacobi_factor(a.matrix(), tol=TOL)):
        for arr in (g.sigma.sigma, g.w):
            with pytest.raises(ValueError):
                arr[0] = 1.0
    h = a.heisenberg_part() * b.heisenberg_part()
    with pytest.raises(ValueError):
        h.w[0] = 1.0


def test_from_parts_still_validates():
    sigma = np.eye(4)
    sigma[0, 0] = 1.5  # not symplectic
    with pytest.raises(NotSymplectic):
        JacobiElement.from_parts(sigma, np.zeros(4), 0.0)
    with pytest.raises(NotSymplectic):
        JacobiElement.from_dict(
            {"n": 2, "sigma": sigma.ravel().tolist(), "w": [0.0] * 4, "r": 0.0, "eps": 1}
        )
    g = JacobiElement.from_parts(sigma, np.zeros(4), 0.0, tol=np.inf)
    assert g.sigma.sigma[0, 0] == 1.5
