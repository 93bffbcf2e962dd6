"""integrate_flow against a plain reference of the RK4 and leapfrog updates.

The reference evaluates every stage, every stage Jacobian and every stored
sample through the public, validated field functions, one state at a time,
so the integrator's reuse of evaluations and its batched stage Jacobians
must reproduce it bit for bit.  Its tangent is written in increment form,
one step at a time: each step's increment D comes from the step's stage
Jacobians, and the step maps J to J + D J, the arithmetic the integrator
applies to a whole chunk of stacked increments.  The only state carried
between steps is leapfrog's opening-kick Jacobian, which the method takes
from the previous step's half-kick state.  The flows run across more than
two of the integrator's chunk boundaries, where a stage Jacobian taken at
the wrong state, or a step written to the wrong row, would first show; with
and without the Jacobian, since both take the same chunked state pass.
"""

import numpy as np
import pytest

from jacobiflow import builtin_system, extended_vector_field, field_jacobian, integrate_flow
from jacobiflow.dynamics import _STAGE_CHUNK
from jacobiflow.systems import BUILTIN_SYSTEMS

T0, DT = 0.25, 0.01
T_END = T0 + (2 * _STAGE_CHUNK + 11) * DT


def _rk4_step(sys, z, t1, dt, J, A_open):
    K1 = extended_vector_field(sys, z)
    z2 = z + (0.5 * dt) * K1
    K2 = extended_vector_field(sys, z2)
    z3 = z + (0.5 * dt) * K2
    K3 = extended_vector_field(sys, z3)
    z4 = z + dt * K3
    K4 = extended_vector_field(sys, z4)
    zn = z + (dt / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    zn[-1] = t1
    # the stages applied to J' = A J give J + D J, with
    # D = (A1 + 2 L2 + 2 L3 + L4) dt/6 and L_i the stage's A applied to the last
    A1, A2, A3, A4 = (field_jacobian(sys, s) for s in (z, z2, z3, z4))
    L2 = A2 + (0.5 * dt) * (A2 @ A1)
    L3 = A3 + (0.5 * dt) * (A3 @ L2)
    L4 = A4 + dt * (A4 @ L3)
    D = (dt / 6.0) * (A1 + 2.0 * L2 + 2.0 * L3 + L4)
    return zn, J + D @ J, None


def _leapfrog_step(sys, z, t1, dt, J, A_open):
    k = len(z) - 2
    q, p, eps, t = z[0:k:2].copy(), z[1:k:2].copy(), z[-2], z[-1]
    p_h = p - (0.5 * dt) * np.asarray(sys.grad_q(q, p, t), dtype=float)
    eps_h = eps + (0.5 * dt) * float(sys.d_t(q, p, t))
    q1 = q + dt * np.asarray(sys.grad_p(q, p_h, t), dtype=float)
    p1 = p_h - (0.5 * dt) * np.asarray(sys.grad_q(q1, p_h, t1), dtype=float)
    eps1 = eps_h + (0.5 * dt) * float(sys.d_t(q1, p_h, t1))
    zn = np.empty_like(z)
    zn[0:k:2] = q1
    zn[1:k:2] = p1
    zn[-2] = eps1
    zn[-1] = t1
    # tangent (I + c)(I + b)(I + a) = I + D: the kicks a and c move the
    # (p, eps) rows by h A, the drift b the q rows by dt A; A at the half-kick
    # state (q1, p_h, eps1, t1) gives b and the closing kick c, and the
    # previous step's gives the opening kick a
    zh = zn.copy()
    zh[1:k:2] = p_h
    A = field_jacobian(sys, zh)
    kick = np.zeros((len(z), 1))
    kick[1:k:2] = 0.5 * dt
    kick[k] = 0.5 * dt
    drift = np.zeros((len(z), 1))
    drift[0:k:2] = dt
    a, b, c = kick * A_open, drift * A, kick * A
    u = a + b + b @ a
    D = u + c + c @ u
    return zn, J + D @ J, A


def _reference_flow(sys, z0, t_end, dt, method):
    t0 = z0[-1]
    n_steps = max(1, round((t_end - t0) / dt))
    dt = (t_end - t0) / n_steps
    step = _rk4_step if method == "rk4" else _leapfrog_step
    Z, Js = [z0.copy()], [np.eye(len(z0))]
    A = field_jacobian(sys, z0)
    for i in range(n_steps):
        zn, J, A = step(sys, Z[-1], t0 + (i + 1) * dt, dt, Js[-1], A)
        Z.append(zn)
        Js.append(J)
    X = np.array([extended_vector_field(sys, z) for z in Z])
    k = len(z0) - 2
    return np.array(Z), X[:, 0:k:2], X[:, 1:k:2], X[:, -2], Js


@pytest.mark.parametrize("method", ["rk4", "leapfrog"])
@pytest.mark.parametrize("n", [1, 3, 16])
@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_flow_matches_reference_bitwise(name, n, method):
    _assert_matches_reference(builtin_system(name, n=n), 11 * n + len(name), method)


@pytest.mark.parametrize("method", ["rk4", "leapfrog"])
@pytest.mark.parametrize("n", [1, 3, 16])
@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_flow_without_jacobian_matches_reference_bitwise(name, n, method):
    # the state pass alone, as ensemble runs take it
    _assert_matches_reference(builtin_system(name, n=n), 11 * n + len(name), method, with_variational=False)


@pytest.mark.parametrize("method", ["rk4", "leapfrog"])
@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_flow_from_signed_zeros_matches_reference_bitwise(name, method):
    # a -0.0 coordinate whose increments are all -0.0, as the free particle's
    # momentum under its force -0.0, stays -0.0; at n = 1 the state pass works
    # on length-1 q and p views
    for z0 in ([-0.0, -0.0, 0.5, -0.0, -0.0, 0.7, -0.0, T0], [-0.0, -0.0, -0.0, T0]):
        sys = builtin_system(name, n=len(z0) // 2 - 1)
        _assert_matches_reference(sys, None, method, z0=np.array(z0))


@pytest.mark.parametrize("with_variational", [True, False])
@pytest.mark.parametrize("method", ["rk4", "leapfrog"])
@pytest.mark.parametrize("steps", [2 * _STAGE_CHUNK + 1, 3 * _STAGE_CHUNK], ids=["last-1", "last-full"])
def test_flow_whose_last_chunk_is_one_step_or_full_matches_reference_bitwise(steps, method, with_variational):
    # the last chunk takes 1 step, or exactly _STAGE_CHUNK: its stage states
    # and increments fill one row, or every row, of the chunk's buffers
    sys = builtin_system("driven_oscillator", n=3)
    _assert_matches_reference(sys, steps, method, with_variational, t_end=T0 + steps * DT)


def _assert_matches_reference(sys, seed, method, with_variational=True, z0=None, t_end=T_END):
    if z0 is None:
        rng = np.random.default_rng(seed)
        z0 = np.concatenate([rng.uniform(-1.0, 1.0, 2 * sys.n + 1), [T0]])
    traj = integrate_flow(sys, z0, t_end, DT, method=method, with_variational=with_variational, jac_every=1)
    z, v, f, r, Js = _reference_flow(sys, z0, t_end, DT, method)
    assert len(z) > 2 * _STAGE_CHUNK + 1
    # bytes, so that a signed zero or a NaN payload that differs shows too
    for got, want in ((traj.z, z), (traj.v, v), (traj.f, f), (traj.r, r)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if with_variational:
        assert traj.jac.tobytes() == np.array(Js).tobytes()
    else:
        assert traj.jac is None and traj.jac_omega is None
