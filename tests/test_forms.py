import numpy as np
import pytest

from jacobiflow import (
    Dimension,
    MapHandle,
    block_permutation,
    block_to_interleaved,
    box_probes,
    builtin_system,
    canonical_eta,
    canonical_zeta,
    form_residual,
    interleaved_to_block,
    numeric_jacobian,
)
from jacobiflow.forms import as_dimension, default_step, eta_residual, zeta_reduced, zeta_residual


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


def test_form_residual_shape_mismatch():
    with pytest.raises(ValueError):
        form_residual(np.eye(4), canonical_zeta(2))


def test_block_permutation_matches_index_converters():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        z = rng.uniform(-1.0, 1.0, 2 * n + 2)
        P = block_permutation(n)
        assert np.array_equal(P @ z, interleaved_to_block(z))
        assert np.array_equal(P.T @ P, np.eye(2 * n + 2))
        assert np.array_equal(block_to_interleaved(interleaved_to_block(z)), z)


def test_block_order():
    z = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])  # q1 p1 q2 p2 eps t
    assert np.array_equal(interleaved_to_block(z), [1.0, 3.0, 2.0, 4.0, 5.0, 6.0])


def test_converters_work_on_rows():
    rows = np.arange(12.0).reshape(2, 6)
    back = block_to_interleaved(interleaved_to_block(rows))
    assert np.array_equal(back, rows)


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
    handle = MapHandle(func=lambda z: 2.0 * z, n=Dimension(1), name="doubling")
    J = numeric_jacobian(handle, [1.0, 0.5, 0.0, 0.2])
    assert np.max(np.abs(J - 2.0 * np.eye(4))) < 1e-9


def test_numeric_jacobian_bad_step():
    with pytest.raises(ValueError):
        numeric_jacobian(lambda z: z, np.zeros(4), h=0.0)


def test_numeric_jacobian_nonfinite_map():
    with pytest.raises(ValueError):
        numeric_jacobian(lambda z: np.full_like(z, np.inf), np.ones(4))


def test_default_step_scales_with_state():
    assert default_step(np.zeros(4)) == 1e-5
    assert default_step(np.array([0.0, 100.0, 0.0, 0.0])) == 1e-3
    assert np.array_equal(default_step(np.array([[0.0, 0.0], [0.0, -100.0]])), [1e-5, 1e-3])


def test_dimension():
    d = Dimension(2)
    assert d.reduced == 4 and d.extended == 6
    assert as_dimension(d) is d
    assert as_dimension(3).n == 3
    with pytest.raises(ValueError):
        Dimension(0)
    with pytest.raises(ValueError):
        Dimension(1.5)


@pytest.mark.parametrize("n", [2.7, 2.0, "3"])
def test_non_integer_dimension_is_rejected_not_truncated(n):
    with pytest.raises(ValueError, match="positive integer"):
        as_dimension(n)
    with pytest.raises(ValueError, match="positive integer"):
        builtin_system("harmonic_oscillator", n=n)
    with pytest.raises(ValueError, match="positive integer"):
        box_probes(n, 3, np.random.default_rng(0))
