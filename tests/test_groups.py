import re

import numpy as np
import pytest

from jacobiflow import (
    FactorError,
    HeisenbergElement,
    IglElement,
    JacobiElement,
    NotARotation,
    NotSymplectic,
    NotTimePreserving,
    PatternViolation,
    SymplecticBlock,
    canonical_eta,
    canonical_zeta,
    conjugate_by_sp,
    euclidean_element,
    form_residual,
    heisenberg_generators,
    igl_factor,
    jacobi_factor,
    random_jacobi,
    random_symplectic,
    vfr_convert,
)
from jacobiflow.groups import VfrView, _membership, _realize, heisenberg_from_vfr


def test_heisenberg_half_cocycle():
    a = HeisenbergElement(w=np.array([1.0, 0.0]), r=0.0)
    b = HeisenbergElement(w=np.array([0.0, 1.0]), r=0.0)
    ab = a * b
    ba = b * a
    assert np.array_equal(ab.w, [1.0, 1.0])
    assert ab.r == 0.5
    assert ba.r == -0.5


def test_heisenberg_identity_and_inverse():
    a = HeisenbergElement(w=np.array([0.7, -0.3, 1.1, 0.4]), r=2.0)
    e = HeisenbergElement.identity(2)
    for g in (a * e, e * a):
        assert np.array_equal(g.w, a.w) and g.r == a.r
    for g in (a * a.inv(), a.inv() * a):
        # the cocycle term w zeta° w only cancels to rounding in a dot product
        assert np.array_equal(g.w, e.w) and abs(g.r) < 1e-15


def test_heisenberg_matrix_oracle():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for _ in range(50):
            a = HeisenbergElement(w=rng.uniform(-2, 2, 2 * n), r=rng.uniform(-2, 2))
            b = HeisenbergElement(w=rng.uniform(-2, 2, 2 * n), r=rng.uniform(-2, 2))
            assert np.max(np.abs((a * b).matrix() - a.matrix() @ b.matrix())) < 1e-12
            assert np.max(np.abs(a.inv().matrix() - np.linalg.inv(a.matrix()))) < 1e-12


def test_jacobi_matrix_layout():
    sigma = np.array([[1.0, 2.0], [0.0, 1.0]])
    g = JacobiElement.from_parts(sigma, np.array([3.0, 4.0]), 5.0)
    # w^T zeta° = (-4, 3), times Sigma gives (-4, -5); matrix entry 2r = 10
    expected = np.array(
        [
            [1.0, 2.0, 0.0, 3.0],
            [0.0, 1.0, 0.0, 4.0],
            [-4.0, -5.0, 1.0, 10.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.array_equal(g.matrix(), expected)


def test_pure_translation_eps_row():
    g = JacobiElement.from_parts(np.eye(2), np.array([1.0, 0.0]), 0.0)
    assert np.array_equal(g.matrix()[2], [0.0, 1.0, 1.0, 0.0])


def test_time_reversal_matrix():
    d = JacobiElement.from_parts(np.eye(2), np.zeros(2), 0.0, tr=-1)
    assert np.array_equal(d.matrix(), np.diag([1.0, 1.0, 1.0, -1.0]))


def test_rotation_moves_translation():
    # CCW quarter turn carries a velocity translation to a force translation
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    a = JacobiElement.from_parts(rot, np.zeros(2), 0.0)
    b = JacobiElement.from_parts(np.eye(2), np.array([1.0, 0.0]), 0.0)
    ab = a * b
    assert np.array_equal(ab.w, [0.0, 1.0])
    assert ab.r == 0.0
    assert np.array_equal(ab.sigma.sigma, rot)


def test_jacobi_inverse_example():
    g = JacobiElement.from_parts(np.eye(2), np.array([1.0, 0.0]), 3.0)
    gi = g.inv()
    assert np.array_equal(gi.w, [-1.0, 0.0])
    assert gi.r == -3.0 and gi.tr == 1


def test_matrix_homomorphism_forward_time():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for _ in range(50):
            a = random_jacobi(n, rng, tr=1)
            b = random_jacobi(n, rng)
            res = np.max(np.abs((a * b).matrix() - a.matrix() @ b.matrix()))
            assert res < 1e-12


def test_matrix_inverse_forward_time():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3):
        for _ in range(50):
            a = random_jacobi(n, rng, tr=1)
            res = np.max(np.abs(a.inv().matrix() - np.linalg.inv(a.matrix())))
            assert res < 1e-10


def test_reversed_time_composition():
    a = JacobiElement.from_parts(np.eye(2), np.array([1.0, 0.0]), 0.0, tr=-1)
    b = JacobiElement.from_parts(np.eye(2), np.array([0.0, 1.0]), 0.0)
    ab = a * b
    # the left reversal flips b's translation before composing
    assert np.array_equal(ab.w, [1.0, -1.0])
    assert ab.r == -0.5
    assert ab.tr == -1
    assert (a * a).tr == 1


def test_reversal_conjugation_flips_w():
    rng = np.random.default_rng(7)
    for n in (1, 2):
        d = JacobiElement.from_parts(np.eye(2 * n), np.zeros(2 * n), 0.0, tr=-1)
        w = rng.uniform(-2, 2, 2 * n)
        g = JacobiElement.from_parts(np.eye(2 * n), w, 1.3)
        conj = d * g * d.inv()
        assert np.array_equal(conj.w, -w)
        assert conj.r == 1.3 and conj.tr == 1


def test_group_inverse_both_signs():
    rng = np.random.default_rng(8)
    for tr in (1, -1):
        a = random_jacobi(2, rng, tr=tr)
        e = a * a.inv()
        assert np.max(np.abs(e.sigma.sigma - np.eye(4))) < 1e-12
        assert np.max(np.abs(e.w)) < 1e-12
        assert abs(e.r) < 1e-12 and e.tr == 1


def test_factor_scaling_example():
    g = jacobi_factor(np.diag([2.0, 0.5, 1.0, 1.0]))
    assert np.array_equal(g.sigma.sigma, np.diag([2.0, 0.5]))
    assert np.array_equal(g.w, [0.0, 0.0])
    assert g.r == 0.0 and g.tr == 1


def test_factor_roundtrip_mixed_signs():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        for _ in range(50):
            g = random_jacobi(n, rng)
            back = jacobi_factor(g.matrix(), tol=1e-9)
            assert np.max(np.abs(back.sigma.sigma - g.sigma.sigma)) == 0.0
            assert np.array_equal(back.w, g.w)
            assert back.r == g.r and back.tr == g.tr


def test_factor_rejects_nonsymplectic():
    with pytest.raises(NotSymplectic):
        jacobi_factor(np.diag([2.0, 1.0, 1.0, 1.0]))


def test_factor_rejects_time_scaling():
    with pytest.raises(NotTimePreserving):
        jacobi_factor(np.diag([1.0, 1.0, 1.0, 2.0]))


def test_factor_rejects_broken_pattern():
    # flipping the eps column alone leaves eta intact but breaks the
    # normal form
    g = JacobiElement.from_parts(np.eye(2), np.array([0.3, -0.8]), 0.7)
    M = g.matrix() @ np.diag([1.0, 1.0, -1.0, -1.0])
    with pytest.raises(PatternViolation):
        jacobi_factor(M)


def test_factor_detects_structural_perturbation():
    rng = np.random.default_rng(10)
    g = random_jacobi(1, rng, tr=1)
    M = g.matrix()
    M[0, 2] += 1e-3  # (q1, eps) entry is a structural zero
    with pytest.raises(PatternViolation):
        jacobi_factor(M, tol=1e-9)


def test_factor_rejects_bad_shape():
    with pytest.raises(ValueError):
        jacobi_factor(np.eye(5))
    for shape in ((3, 5, 5), (2, 3, 4, 4), (4,)):
        with pytest.raises(ValueError, match="expected a square matrix of even dimension >= 4"):
            jacobi_factor(np.zeros(shape))


def _member_stack(count=9, n=2, seed=12):
    rng = np.random.default_rng(seed)
    return [random_jacobi(n, rng, tr=(1, -1)[i % 2]) for i in range(count)]


def _broken(g, kind):
    # g's matrix made to fail one membership check first, n = 2
    M = g.matrix()
    if kind == "non_finite":
        M[1, 3] = np.nan
    elif kind == "time_metric":
        M[-1, 0] = 1e-3
    elif kind == "pattern":
        M[0, 4] = 1e-3  # the eps column above the eps row is a structural zero
    elif kind == "eps_row":
        M[4, 0] += 1e-3  # the eps row left of the eps column is w^T zeta° Sigma
    elif kind == "eps_diagonal":
        M[4, 4] += 1e-3
    else:  # a scaled Sigma keeps the block pattern but leaves the symplectic group
        M = _realize(1.01 * g.sigma.sigma, g.w, g.r, g.tr)
    return M


_FIRST_FAILURE = {
    "non_finite": FactorError,
    "time_metric": NotTimePreserving,
    "pattern": PatternViolation,
    "eps_row": PatternViolation,
    "eps_diagonal": PatternViolation,
    "symplectic": NotSymplectic,
}


def test_stacked_membership_matches_the_calls_on_each_matrix():
    els = _member_stack(count=40)
    stack = np.array([g.matrix() for g in els])
    G, w, s = _membership(stack, 1e-9)
    assert G.shape == stack.shape and w.shape == (40, 4) and s.shape == (40,)
    assert not np.shares_memory(G, stack)
    for i, (M, g) in enumerate(zip(stack, els)):
        for a, b in zip((G[i], w[i], s[i]), _membership(M, 1e-9)):
            assert np.shape(a) == np.shape(b) and np.float64(a).tobytes() == np.float64(b).tobytes()
        # the factors jacobi_factor reads off the same entries
        one = jacobi_factor(M, tol=1e-9)
        assert one.sigma.sigma.tobytes() == G[i, :4, :4].tobytes() and one.w.tobytes() == w[i].tobytes()
        assert one.r == 0.5 * G[i, 4, -1] and one.tr == s[i] == g.tr
    assert [a.shape for a in _membership(stack[:0], 1e-9)] == [(0, 6, 6), (0, 4), (0,)]


def test_factor_takes_one_matrix_and_refuses_a_stack():
    stack = np.array([g.matrix() for g in _member_stack()])
    with pytest.raises(ValueError, match=r"^expected a square matrix .* got \(9, 6, 6\)$") as refused:
        jacobi_factor(stack, tol=1e-9)
    assert not isinstance(refused.value, FactorError)


@pytest.mark.parametrize("kind", sorted(_FIRST_FAILURE))
def test_stacked_membership_raises_the_failing_matrix_error(kind):
    els = _member_stack()
    stack = np.array([g.matrix() for g in els])
    stack[4] = _broken(els[4], kind)
    with pytest.raises(FactorError) as alone:
        jacobi_factor(stack[4], tol=1e-9)
    with pytest.raises(FactorError) as stacked:
        _membership(stack, 1e-9)
    assert type(alone.value) is type(stacked.value) is _FIRST_FAILURE[kind]
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("first", sorted(_FIRST_FAILURE))
@pytest.mark.parametrize("later", sorted(_FIRST_FAILURE))
def test_stacked_membership_reports_the_first_failing_matrix(first, later):
    # a later matrix that fails an earlier check does not take its place
    els = _member_stack()
    stack = np.array([g.matrix() for g in els])
    stack[3] = _broken(els[3], first)
    stack[6] = _broken(els[6], later)
    with pytest.raises(FactorError) as alone:
        jacobi_factor(stack[3], tol=1e-9)
    with pytest.raises(FactorError) as stacked:
        _membership(stack, 1e-9)
    assert type(stacked.value) is _FIRST_FAILURE[first]
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("factor", [jacobi_factor, igl_factor])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "entry",
    [(0, 0), (1, 0), (0, 5), (4, 5), (5, 0), (5, 5)],
    ids=["sigma", "sigma_offdiag", "last_col", "last_col_r", "time_row", "time_corner"],
)
def test_factors_reject_non_finite_entries(factor, bad, entry):
    # a NaN fails no "residual > tol" check, so only the finiteness check can stop it
    M = random_jacobi(2, np.random.default_rng(7), tr=1).matrix()
    M[entry] = bad
    with pytest.raises(FactorError) as info:
        factor(M, tol=1e-9)
    assert type(info.value) is FactorError
    assert str(info.value) == f"1 of 36 entries are not finite: (row, column) {[list(entry)]}"


@pytest.mark.parametrize("factor", [jacobi_factor, igl_factor])
def test_factors_reject_an_all_nan_matrix(factor):
    with pytest.raises(FactorError) as info:
        factor(np.full((4, 4), np.nan))
    assert str(info.value) == (
        "16 of 16 entries are not finite: (row, column)"
        " [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0], [1, 1]]"
    )


def test_error_taxonomy_is_factor_error():
    for exc in (NotSymplectic, NotTimePreserving, PatternViolation, NotARotation):
        assert issubclass(exc, FactorError)


# a non-member of each entry point, failing its first membership check
_NON_MEMBERS = {
    "factor-time-metric": lambda tol: jacobi_factor(np.arange(16.0).reshape(4, 4), tol=tol),
    "igl-time-metric": lambda tol: igl_factor(np.arange(16.0).reshape(4, 4), tol=tol),
    "symplectic-block": lambda tol: SymplecticBlock(np.ones((2, 2)), tol=tol),
    "from-parts": lambda tol: JacobiElement.from_parts(np.ones((2, 2)), [0, 0], 0, tol=tol),
    "euclidean": lambda tol: euclidean_element(2.0 * np.eye(2), [0.0, 0.0], tol=tol),
}


@pytest.mark.parametrize("check", _NON_MEMBERS.values(), ids=_NON_MEMBERS.keys())
def test_nan_tolerance_fails_closed(check):
    with pytest.raises(FactorError) as exact:
        check(1e-12)
    with pytest.raises(FactorError) as nan:
        check(np.nan)
    assert type(nan.value) is type(exact.value)


def test_symplectic_block_validates():
    with pytest.raises(NotSymplectic):
        SymplecticBlock(np.diag([2.0, 1.0]))
    s = SymplecticBlock(np.array([[1.0, 0.7], [0.0, 1.0]]))
    assert s.n == 1


def test_igl_matrix_and_roundtrip():
    omega = np.diag([1.0, 2.0, 4.0])
    u = np.array([1.0, 2.0, 3.0])
    el = IglElement(omega=omega, u=u, eps=-1)
    L = el.matrix()
    assert np.array_equal(L[:3, :3], omega)
    assert np.array_equal(L[:3, 3], -u)
    assert np.array_equal(L[3], [0.0, 0.0, 0.0, -1.0])
    back = igl_factor(L)
    assert np.array_equal(back.omega, omega)
    assert np.array_equal(back.u, u)
    assert back.eps == -1


def test_igl_factor_requires_metric_invariance():
    L = np.eye(4)
    L[3, 2] = 0.1  # bottom row must be (0, ..., 0, +-1)
    with pytest.raises(NotTimePreserving):
        igl_factor(L)


def test_igl_rejects_singular_omega():
    with pytest.raises(ValueError):
        IglElement(omega=np.zeros((3, 3)), u=np.zeros(3), eps=1)


def test_igl_factor_rejects_singular_omega_as_a_membership_error():
    # the bottom row passes the time-metric check; the typed error is still a ValueError
    with pytest.raises(FactorError, match="^Omega is singular$") as info:
        igl_factor(np.diag([0.0, 1.0, 1.0, 1.0]))
    assert type(info.value) is FactorError and isinstance(info.value, ValueError)


def test_generators_hand_matrices():
    W1, W2, R = heisenberg_generators(1)
    for g in (W1, W2, R):
        assert g.dtype == np.int64
    e = np.zeros((4, 4), dtype=np.int64)
    exp_W1 = e.copy()
    exp_W1[0, 3] = 1
    exp_W1[2, 1] = 1
    exp_W2 = e.copy()
    exp_W2[1, 3] = 1
    exp_W2[2, 0] = -1
    exp_R = e.copy()
    exp_R[2, 3] = 2
    assert np.array_equal(W1, exp_W1)
    assert np.array_equal(W2, exp_W2)
    assert np.array_equal(R, exp_R)


def test_generators_match_realization_derivative():
    # entries of the realization are linear in (w, 2r) at the identity,
    # so the difference quotient is exact for any step
    gens = heisenberg_generators(2)
    h = 0.25
    for a in range(4):
        w = np.zeros(4)
        w[a] = h
        M = HeisenbergElement(w=w, r=0.0).matrix()
        assert np.array_equal((M - np.eye(6)) / h, gens[a])
    M = HeisenbergElement(w=np.zeros(4), r=h).matrix()
    assert np.array_equal((M - np.eye(6)) / h, gens[-1])


def test_lie_algebra_exact():
    for n in range(1, 5):
        gens = heisenberg_generators(n)
        W, R = gens[:-1], gens[-1]
        z0 = np.zeros((2 * n, 2 * n), dtype=np.int64)
        for k in range(n):
            z0[2 * k, 2 * k + 1] = 1
            z0[2 * k + 1, 2 * k] = -1
        for a in range(2 * n):
            for b in range(2 * n):
                comm = W[a] @ W[b] - W[b] @ W[a]
                assert np.array_equal(comm, z0[a, b] * R)
            assert np.array_equal(W[a] @ R, R @ W[a])


def test_conjugation_by_symplectic():
    rng = np.random.default_rng(12)
    for n in (1, 2):
        s = SymplecticBlock(random_symplectic(n, rng))
        a = HeisenbergElement(w=rng.uniform(-2, 2, 2 * n), r=0.9)
        c = conjugate_by_sp(s, a)
        assert c.r == a.r
        assert np.array_equal(c.w, s.sigma @ a.w)
        embed = JacobiElement(sigma=s, w=np.zeros(2 * n), r=0.0)
        oracle = embed.matrix() @ a.matrix() @ embed.inv().matrix()
        assert np.max(np.abs(c.matrix() - oracle)) < 1e-12


def test_euclidean_element_layout():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    g = euclidean_element(rot, np.array([1.0, 2.0]))
    assert np.array_equal(g.w, [1.0, 0.0, 2.0, 0.0])
    assert g.r == 0.0
    assert np.array_equal(g.sigma.sigma[0::2, 0::2], rot)
    assert np.array_equal(g.sigma.sigma[1::2, 1::2], rot)
    assert np.all(g.sigma.sigma[0::2, 1::2] == 0.0)
    assert np.all(g.sigma.sigma[1::2, 0::2] == 0.0)


def test_euclidean_rejects_non_rotation():
    with pytest.raises(NotARotation):
        euclidean_element(np.diag([2.0, 1.0]), np.zeros(2))
    with pytest.raises(NotARotation):
        euclidean_element(np.diag([1.0, -1.0]), np.zeros(2))  # reflection


def test_euclidean_membership_and_form_invariance():
    rng = np.random.default_rng(13)
    theta = rng.uniform(0, 2 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    g = euclidean_element(np.array([[c, -s], [s, c]]), rng.uniform(-2, 2, 2))
    M = g.matrix()
    assert form_residual(M, canonical_zeta(2)) < 1e-15
    assert form_residual(M, canonical_eta(2)) == 0.0
    back = jacobi_factor(M, tol=1e-12)
    assert np.array_equal(back.w, g.w)


def test_vfr_views():
    a = HeisenbergElement(w=np.array([1.0, 2.0, 3.0, 4.0]), r=0.5)
    view = vfr_convert(a)
    assert np.array_equal(view.v, [1.0, 3.0])
    assert np.array_equal(view.f, [2.0, 4.0])
    assert view.r_phys == 1.0
    back = heisenberg_from_vfr(view)
    assert np.array_equal(back.w, a.w) and back.r == a.r


def test_vfr_view_validation():
    with pytest.raises(ValueError):
        VfrView(v=np.array([1.0]), f=np.array([1.0, 2.0]), r_phys=0.0)


def test_random_symplectic_membership():
    # random_jacobi trusts this without a runtime check
    rng = np.random.default_rng(15)
    from jacobiflow.forms import zeta_reduced

    for n in (1, 2, 3, 4):
        for _ in range(200):
            M = random_symplectic(n, rng)
            assert form_residual(M, zeta_reduced(n)) < 1e-12


def test_element_validation():
    with pytest.raises(ValueError):
        JacobiElement.from_parts(np.eye(2), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        JacobiElement.from_parts(np.eye(2), np.zeros(2), 0.0, tr=2)
    with pytest.raises(ValueError):
        HeisenbergElement(w=np.array([1.0, 2.0, 3.0]), r=0.0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SymplecticBlock(np.zeros((2, 4))), "expected a square even-dimensional matrix, got (2, 4)"),
        (lambda: IglElement(omega=np.eye(2), u=np.zeros(2), eps=1),
         "Omega must be square of odd dimension, got (2, 2)"),
        (lambda: IglElement(omega=np.eye(3), u=np.zeros(2), eps=1), "u has shape (2,), expected (3,)"),
        (lambda: IglElement(omega=np.eye(3), u=np.zeros(3), eps=0), "eps must be +1 or -1, got 0"),
        (lambda: euclidean_element(np.eye(2), np.zeros(3)),
         "need an n x n matrix and length-n vector, got (2, 2) and (3,)"),
    ],
    ids=["symplectic-2x4", "igl-2x2", "igl-u", "igl-eps", "euclidean-v"],
)
def test_element_constructors_reject_bad_shapes_and_signs(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        make()
    assert type(info.value) is ValueError


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: HeisenbergElement(w=[np.inf, 1.0], r=0.0), "w must be finite, got [inf, 1.0]"),
        (lambda: HeisenbergElement(w=[0.0, 1.0], r=np.nan), "r must be finite, got nan"),
        (lambda: JacobiElement.from_parts(np.eye(2), [np.nan, 0.0], np.inf), "w must be finite, got [nan, 0.0]"),
        (lambda: JacobiElement.from_parts(np.eye(2), [0.0, 0.0], -np.inf), "r must be finite, got -inf"),
        (lambda: SymplecticBlock(np.array([[1.0, np.inf], [0.0, 1.0]])),
         "Sigma must be finite, got [[1.0, inf], [0.0, 1.0]]"),
        (lambda: IglElement(omega=np.diag([1.0, np.nan, 1.0]), u=np.zeros(3), eps=1),
         "Omega must be finite, got [[1.0, 0.0, 0.0], [0.0, nan, 0.0], [0.0, 0.0, 1.0]]"),
        (lambda: IglElement(omega=np.eye(3), u=[0.0, np.inf, 0.0], eps=-1), "u must be finite, got [0.0, inf, 0.0]"),
        (lambda: VfrView(v=[np.nan], f=[0.0], r_phys=0.0), "v must be finite, got [nan]"),
        (lambda: VfrView(v=[0.0], f=[-np.inf], r_phys=0.0), "f must be finite, got [-inf]"),
        (lambda: VfrView(v=[0.0], f=[0.0], r_phys=np.nan), "r_phys must be finite, got nan"),
        (lambda: euclidean_element(np.eye(2), [np.nan, 0.0]), "v must be finite, got [nan, 0.0]"),
        (lambda: euclidean_element(np.array([[1.0, np.inf], [0.0, 1.0]]), np.zeros(2)),
         "R must be finite, got [[1.0, inf], [0.0, 1.0]]"),
    ],
    ids=[
        "heisenberg-w", "heisenberg-r", "jacobi-w", "jacobi-r", "symplectic-sigma", "igl-omega",
        "igl-u", "vfr-v", "vfr-f", "vfr-r_phys", "euclidean-v", "euclidean-R",
    ],
)
def test_element_constructors_reject_non_finite_parameters(make, message):
    # the suite turns RuntimeWarning into an error, so a NaN or infinite
    # parameter that reached any arithmetic would fail here with that warning
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        make()
    assert type(info.value) is ValueError


@pytest.mark.parametrize(
    "make",
    [
        lambda: SymplecticBlock(np.zeros((0, 0))),
        lambda: IglElement(omega=np.eye(1), u=np.zeros(1), eps=1),
        lambda: VfrView(v=[], f=[], r_phys=0.0),
    ],
    ids=["symplectic-0x0", "igl-1x1", "vfr-empty"],
)
def test_element_of_n_zero_is_rejected(make):
    with pytest.raises(ValueError, match="dimension must be a positive integer, got 0"):
        make()
