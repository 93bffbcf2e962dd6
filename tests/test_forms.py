import re

import numpy as np
import pytest

from jacobiflow import (
    HeisenbergElement,
    IglElement,
    JacobiElement,
    MapHandle,
    SymplecticBlock,
    VfrView,
    block_to_interleaved,
    box_probes,
    builtin_system,
    canonical_eta,
    canonical_zeta,
    form_residual,
    integrate_flow,
    jacobi_factor,
    make_rho,
    numeric_jacobian,
    random_jacobi,
)
from jacobiflow.forms import (
    as_dimension,
    complex_step_jacobian,
    default_step,
    eta_residual,
    zeta_reduced,
    zeta_residual,
)


def test_zeta_n1_matrix():
    expected = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
        ]
    )
    assert np.array_equal(canonical_zeta(1), expected)


def test_zeta_block_structure():
    z = canonical_zeta(2)
    pair = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for k in range(3):
        assert np.array_equal(z[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], pair)
    # nothing off the 2x2 diagonal blocks
    mask = np.ones((6, 6), dtype=bool)
    for k in range(3):
        mask[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = False
    assert np.all(z[mask] == 0.0)
    assert abs(np.linalg.det(z) - 1.0) < 1e-12
    assert np.array_equal(zeta_reduced(2), z[:4, :4])


def test_eta_matrix():
    e = canonical_eta(1)
    expected = np.zeros((4, 4))
    expected[-1, -1] = 1.0
    assert np.array_equal(e, expected)


def test_form_residual_scaling_example():
    # hand value: q, p doubling turns the (q, p) block of zeta into 4*zeta
    M = np.diag([2.0, 2.0, 1.0, 1.0])
    assert form_residual(M, canonical_zeta(1)) == 3.0
    assert form_residual(M, canonical_eta(1)) == 0.0


def test_form_residual_identity_zero():
    assert form_residual(np.eye(4), canonical_zeta(1)) == 0.0
    assert form_residual(np.eye(4), canonical_eta(1)) == 0.0
    # any matrix serves as the form, not only the shared read-only ones
    assert form_residual(np.eye(4), canonical_zeta(1).tolist()) == 0.0


@pytest.mark.parametrize("n", [1, 4, 16])
def test_stacked_residuals_match_form_residual(n):
    # per matrix and over a stack, bit for bit; some last rows are exactly
    # the time metric's, where the residual's zero must come out exactly
    rng = np.random.default_rng(n)
    d = 2 * n + 2
    Js = rng.normal(size=(40, d, d)) * rng.uniform(0.0, 10.0, (40, 1, 1))
    Js[::3, -1] = 0.0
    Js[::3, -1, -1] = 1.0
    want_o = [form_residual(J, canonical_zeta(n)) for J in Js]
    want_l = [form_residual(J, canonical_eta(n)) for J in Js]
    assert zeta_residual(Js).tolist() == want_o
    assert eta_residual(Js).tolist() == want_l
    assert [float(zeta_residual(J)) for J in Js] == want_o
    assert [float(eta_residual(J)) for J in Js] == want_l
    assert want_l[0] == 0.0


def _eta_outer_residual(J):
    # the time-metric residual as the max entry of |l l^T - eta|, l = J's last row
    eta = canonical_eta((J.shape[-1] - 2) // 2)
    last = J[..., -1, :]
    return abs(last[..., :, None] * last[..., None, :] - eta).max(axis=(-2, -1))


@pytest.mark.parametrize("n", [1, 2, 16])
def test_eta_residual_matches_the_outer_product_bitwise(n):
    rng = np.random.default_rng(100 + n)
    d = 2 * n + 2
    scale = 10.0 ** rng.uniform(-160, 150, (300, 1, 1))
    Js = rng.normal(size=(300, d, d)) * scale
    Js[::4, -1, :-1] = 0.0  # exact time rows, some with a signed zero
    Js[::8, -1, :-1] = -0.0
    Js[1::5, -1, -1] = rng.choice([1.0, -1.0, 0.0, -0.0, 1.0 + 2**-52], 60)
    Js[2::7, -1, rng.integers(0, d - 1)] = -0.0
    assert eta_residual(Js).tobytes() == _eta_outer_residual(Js).tobytes()
    for J in Js[:50]:
        assert eta_residual(J).tobytes() == _eta_outer_residual(J).tobytes()
    assert np.ndim(eta_residual(Js[0])) == 0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_eta_residual_of_a_non_finite_time_row_fails_every_tolerance(bad):
    d = 6
    for col in range(d):
        for rest in (0.0, 1.0):
            J = np.eye(d)
            J[-1] = rest
            J[-1, -1] = 1.0
            J[-1, col] = bad
            with np.errstate(invalid="ignore"):
                res = eta_residual(J)
                stacked = eta_residual(J[None])[0]
            assert not res <= np.finfo(float).max
            assert not stacked <= np.finfo(float).max


def test_form_residual_shape_mismatch():
    with pytest.raises(ValueError):
        form_residual(np.eye(4), canonical_zeta(2))


def test_block_to_interleaved_is_a_permutation():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        q, p, tail = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, 2)
        z = block_to_interleaved(np.concatenate([q, p, tail]))
        assert np.array_equal(z[0 : 2 * n : 2], q)
        assert np.array_equal(z[1 : 2 * n : 2], p)
        assert np.array_equal(z[-2:], tail)


def test_block_order():
    z = np.array([1.0, 3.0, 2.0, 4.0, 5.0, 6.0])  # q1 q2 p1 p2 eps t
    assert np.array_equal(block_to_interleaved(z), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    z = np.array([1.0, 2.0, 3.0, 4.0])  # n = 1: block and interleaved order agree
    assert np.array_equal(block_to_interleaved(z), z)


@pytest.mark.parametrize("shape", [(5,), (2,), (0,), (3, 7), ()])
def test_block_to_interleaved_rejects_a_length_that_is_no_state(shape):
    # an odd length or one below 4 (n = 0) is no (q, p, eps, t) state
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        block_to_interleaved(np.zeros(shape))


def test_converters_work_on_rows():
    rows = np.arange(12.0).reshape(2, 6)
    back = block_to_interleaved(rows)
    assert np.array_equal(back, [block_to_interleaved(row) for row in rows])
    assert np.array_equal(back[0], [0.0, 2.0, 1.0, 3.0, 4.0, 5.0])


def test_numeric_jacobian_time_shear():
    # q1 picks up 2t; the only off-identity entry is J[0, 3] = 2
    def f(z):
        out = z.copy()
        out[0] += 2.0 * z[-1]
        return out

    J = numeric_jacobian(f, np.array([0.3, -0.2, 0.1, 0.7]))
    expected = np.eye(4)
    expected[0, 3] = 2.0
    assert np.max(np.abs(J - expected)) < 1e-9


def test_numeric_jacobian_quadratic():
    z0 = np.array([1.0, 2.0, 3.0, 4.0])
    J = numeric_jacobian(lambda z: 0.5 * z**2, z0)
    assert np.max(np.abs(J - np.diag(z0))) < 1e-9


def test_numeric_jacobian_accepts_handle_and_point():
    handle = MapHandle(func=lambda z: 2.0 * z, n=1)
    J = numeric_jacobian(handle, [1.0, 0.5, 0.0, 0.2])
    assert np.max(np.abs(J - 2.0 * np.eye(4))) < 1e-9


@pytest.mark.parametrize(
    "func, z",
    [
        (lambda w: w, [0.0, np.inf, 0.0, 0.0]),
        (lambda w: w, [np.nan, 0.0, 0.0, 0.0]),
        # finite at any point, so only the check of z can refuse it
        (lambda w: np.zeros(4), [0.0, 0.0, np.nan, 0.0]),
    ],
    ids=["inf", "nan", "nan_constant_map"],
)
def test_numeric_jacobian_rejects_a_non_finite_point(func, z):
    message = f"numeric_jacobian needs a finite state, got {z}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        numeric_jacobian(func, np.array(z))


def test_numeric_jacobian_nonfinite_map():
    with pytest.raises(ValueError):
        numeric_jacobian(lambda z: np.full_like(z, np.inf), np.ones(4))


def test_default_step_scales_with_state():
    assert default_step(np.zeros(4)) == 1e-5
    assert default_step(np.array([0.0, 100.0, 0.0, 0.0])) == 1e-3


def test_complex_step_jacobian_is_exact_to_round_off():
    # a map whose entries are far apart in scale; central differences would
    # lose digits to cancellation at t = 1e5, the complex step loses none
    def f(z):
        q, p, eps, t = z
        return np.array([np.sin(q) * p, np.exp(p) + eps * t, q * q * t, np.cos(1e-3 * t) * q])

    z = np.array([0.3, -1.2, 0.7, 1e5])
    q, p, eps, t = z
    exact = np.array([
        [np.cos(q) * p, np.sin(q), 0.0, 0.0],
        [0.0, np.exp(p), t, eps],
        [2.0 * q * t, 0.0, 0.0, q * q],
        [np.cos(1e-3 * t), 0.0, 0.0, -1e-3 * np.sin(1e-3 * t) * q],
    ])
    J = complex_step_jacobian(f, z)
    assert J.dtype == np.float64 and J.shape == (4, 4)
    assert np.all(np.abs(J - exact) <= 4e-16 * np.maximum(1.0, np.abs(exact)))
    assert np.max(np.abs(numeric_jacobian(f, z) - exact)) > 1e-6


def test_as_dimension_returns_a_python_int():
    n = as_dimension(np.int64(3))
    assert n == 3 and type(n) is int


def test_every_n_is_a_plain_int():
    sys = builtin_system("harmonic_oscillator", n=2)
    traj = integrate_flow(sys, [1.0, 0.0, 1.0, 0.0, 0.0, 0.0], 0.01, 1e-3)
    rng = np.random.default_rng(0)
    a, b = random_jacobi(2, rng), random_jacobi(2, rng)
    objects = [
        sys,
        traj,
        make_rho(traj, sys).as_map(),
        HeisenbergElement(w=np.ones(4), r=0.5),
        SymplecticBlock(np.eye(4)),
        JacobiElement.identity(np.int64(2)),
        IglElement(omega=np.eye(5), u=np.zeros(5), eps=1),
        VfrView(v=np.ones(2), f=np.zeros(2), r_phys=0.0),
        a * b,
        jacobi_factor(b.matrix()),
        a,
    ]
    for x in objects:
        assert type(x.n) is int and x.n == 2, type(x).__name__


@pytest.mark.parametrize("n", [0, -1, 1.5, 2.0, 2.7, "3", True, np.True_])
def test_dimension_that_is_not_a_positive_integer_is_rejected(n):
    with pytest.raises(ValueError, match="positive integer"):
        as_dimension(n)
    with pytest.raises(ValueError, match="positive integer"):
        builtin_system("harmonic_oscillator", n=n)
    with pytest.raises(ValueError, match="positive integer"):
        box_probes(n, 3, np.random.default_rng(0))
