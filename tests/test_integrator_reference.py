"""integrate_flow against a plain reference of the RK4 and leapfrog updates.

The reference evaluates every stage and every stored sample through the
public, validated field functions and shares no state between steps, so the
integrator's reuse of evaluations must reproduce it bit for bit.  Leapfrog's
Jacobian is the tangent of its step and is checked in test_dynamics.
"""

import numpy as np
import pytest

from jacobiflow import builtin_system, extended_vector_field, field_jacobian, integrate_flow
from jacobiflow.systems import BUILTIN_SYSTEMS


def _rk4_step(sys, z, t1, dt, J):
    K1 = extended_vector_field(sys, z)
    z2 = z + (0.5 * dt) * K1
    K2 = extended_vector_field(sys, z2)
    z3 = z + (0.5 * dt) * K2
    K3 = extended_vector_field(sys, z3)
    z4 = z + dt * K3
    K4 = extended_vector_field(sys, z4)
    zn = z + (dt / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    zn[-1] = t1
    L1 = field_jacobian(sys, z) @ J
    L2 = field_jacobian(sys, z2) @ (J + (0.5 * dt) * L1)
    L3 = field_jacobian(sys, z3) @ (J + (0.5 * dt) * L2)
    L4 = field_jacobian(sys, z4) @ (J + dt * L3)
    return zn, J + (dt / 6.0) * (L1 + 2.0 * L2 + 2.0 * L3 + L4)


def _leapfrog_step(sys, z, t1, dt, J):
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
    return zn, None


def _reference_flow(sys, z0, t_end, dt, method):
    t0 = z0[-1]
    n_steps = max(1, round((t_end - t0) / dt))
    dt = (t_end - t0) / n_steps
    step = _rk4_step if method == "rk4" else _leapfrog_step
    Z, Js = [z0.copy()], [np.eye(len(z0))]
    for i in range(n_steps):
        zn, J = step(sys, Z[-1], t0 + (i + 1) * dt, dt, Js[-1])
        Z.append(zn)
        Js.append(J)
    X = np.array([extended_vector_field(sys, z) for z in Z])
    k = len(z0) - 2
    return np.array(Z), X[:, 0:k:2], X[:, 1:k:2], X[:, -2], Js


@pytest.mark.parametrize("method", ["rk4", "leapfrog"])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_flow_matches_reference_bitwise(name, n, method):
    sys = builtin_system(name, n=n)
    rng = np.random.default_rng(11 * n + len(name))
    z0 = np.concatenate([rng.uniform(-1.0, 1.0, 2 * n + 1), [0.25]])
    traj = integrate_flow(sys, z0, 0.75, 0.01, method=method, with_variational=True, jac_every=1)
    z, v, f, r, Js = _reference_flow(sys, z0, 0.75, 0.01, method)
    assert np.array_equal(traj.z, z)
    assert np.array_equal(traj.v, v)
    assert np.array_equal(traj.f, f)
    assert np.array_equal(traj.r, r)
    if method == "rk4":
        assert np.array_equal(traj.jac, np.array(Js))
