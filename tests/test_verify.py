import json

import numpy as np
import pytest

from jacobiflow import (
    Dimension,
    HamiltonianSystem,
    MapHandle,
    VfrView,
    box_probes,
    builtin_system,
    check_flow_jacobians,
    check_invariance,
    energy_ledger,
    hamilton_residual,
    integrate_flow,
    make_rho,
    noncommutativity_check,
    trajectory_probes,
)
from jacobiflow.forms import default_step


def _probes(n=1, count=8, seed=7):
    return box_probes(Dimension(n), count, np.random.default_rng(seed))


def test_identity_is_jacobimorphism():
    handle = MapHandle(
        lambda z: z.copy(), Dimension(1), jacobian=lambda z: np.eye(4), name="identity"
    )
    report = check_invariance(handle, _probes())
    assert report.classification == "Jacobimorphism"
    assert report.omega_residual_max == 0.0
    assert report.lambda_residual_max == 0.0
    assert report.factorization is not None
    assert len(report.factorization) == len(report.probes)


def test_identity_via_finite_differences():
    # without an analytic Jacobian the identity still certifies, at FD accuracy
    handle = MapHandle(lambda z: z.copy(), Dimension(1), name="identity")
    report = check_invariance(handle, _probes())
    assert report.classification == "Jacobimorphism"
    assert report.omega_residual_max < 1e-9


def test_time_doubling_is_neither():
    def doubling(z):
        out = z.copy()
        out[-1] *= 2.0
        return out

    report = check_invariance(MapHandle(doubling, Dimension(1)), _probes())
    assert report.classification == "Neither"
    # T'JT with J_tt = 2 gives lambda residual 3 and omega residual 1
    assert abs(report.lambda_residual_max - 3.0) < 1e-6
    assert abs(report.omega_residual_max - 1.0) < 1e-6
    assert report.factorization is None


def test_symplectic_but_not_time_preserving():
    # (q, p, eps, t + eps) preserves omega exactly but shears the time row
    def shear(z):
        out = z.copy()
        out[-1] = z[-1] + z[-2]
        return out

    report = check_invariance(MapHandle(shear, Dimension(1)), _probes())
    assert report.classification == "Symplectomorphism"
    assert report.omega_residual_max < 1e-9
    assert report.lambda_residual_max > 0.5


def test_time_preserving_but_not_symplectic():
    def stretch(z):
        out = z.copy()
        out[0] *= 2.0
        return out

    report = check_invariance(MapHandle(stretch, Dimension(1)), _probes())
    assert report.classification == "TimePreservingOnly"
    assert report.lambda_residual_max < 1e-9
    assert report.omega_residual_max > 0.5


def test_analytic_jacobian_is_preferred():
    # a deliberately wrong analytic jacobian must win over finite differences
    def doubling(z):
        out = z.copy()
        out[-1] *= 2.0
        return out

    lying = MapHandle(doubling, Dimension(1), jacobian=lambda z: np.eye(4))
    report = check_invariance(lying, _probes())
    assert report.classification == "Jacobimorphism"


def test_check_invariance_requires_probes():
    handle = MapHandle(lambda z: z.copy(), Dimension(1))
    with pytest.raises(ValueError):
        check_invariance(handle, [])


def test_report_to_dict_is_json_ready():
    handle = MapHandle(lambda z: z.copy(), Dimension(1), name="identity")
    report = check_invariance(handle, _probes(count=3))
    blob = json.dumps(report.to_dict())
    data = json.loads(blob)
    assert data["classification"] == "Jacobimorphism"
    assert data["n_probes"] == 3
    assert len(data["factorization"]) == 3
    assert data["factorization"][0]["eps"] == 1


def test_flow_jacobians_certify():
    traj = integrate_flow(
        builtin_system("driven_oscillator"),
        np.array([1.0, 0.0, 0.0, 0.0]),
        2.0,
        1e-3,
        with_variational=True,
    )
    report = check_flow_jacobians(traj)
    assert report.classification == "Jacobimorphism"
    assert report.omega_residual_max < 1e-6
    assert report.lambda_residual_max == 0.0  # time row is propagated exactly
    assert report.factorization is not None


def test_flow_jacobians_need_variational_data():
    traj = integrate_flow(_sys_ho(), np.array([1.0, 0.0, 0.0, 0.0]), 1.0, 0.1)
    with pytest.raises(ValueError):
        check_flow_jacobians(traj)


def _sys_ho():
    return builtin_system("harmonic_oscillator")


def test_hamilton_residual_harmonic():
    traj = integrate_flow(_sys_ho(), np.array([1.0, 0.0, 0.0, 0.0]), 5.0, 1e-3)
    assert hamilton_residual(traj, _sys_ho()) <= 1e-5


def test_hamilton_residual_free_particle():
    sys = builtin_system("free_particle")
    traj = integrate_flow(sys, np.array([0.0, 2.0, 0.0, 0.0]), 5.0, 1e-3)
    # the flow is linear, central differences are exact up to rounding
    assert hamilton_residual(traj, sys) <= 1e-10


def test_hamilton_residual_scales_quadratically():
    z0 = np.array([1.0, 0.0, 0.0, 0.0])
    coarse = hamilton_residual(integrate_flow(_sys_ho(), z0, 5.0, 1e-3), _sys_ho())
    fine = hamilton_residual(integrate_flow(_sys_ho(), z0, 5.0, 1e-4), _sys_ho())
    assert fine <= 1e-7
    assert 50.0 < coarse / fine < 200.0


def test_hamilton_residual_constant_hamiltonian():
    # a constant H has a stationary flow: every difference quotient vanishes
    const = HamiltonianSystem(
        n=Dimension(1),
        value=lambda q, p, t: 3.0,
        grad_q=lambda q, p, t: np.zeros(1),
        grad_p=lambda q, p, t: np.zeros(1),
        d_t=lambda q, p, t: 0.0,
    )
    traj = integrate_flow(const, np.array([1.0, 2.0, 0.0, 0.0]), 1.0, 0.01)
    assert hamilton_residual(traj, const) == 0.0


def test_hamilton_residual_rejects_short_trajectory():
    traj = integrate_flow(_sys_ho(), np.array([1.0, 0.0, 0.0, 0.0]), 0.2, 0.1)
    with pytest.raises(ValueError):
        hamilton_residual(traj, _sys_ho())


def test_hamilton_residual_rejects_dimension_mismatch():
    traj = integrate_flow(_sys_ho(), np.array([1.0, 0.0, 0.0, 0.0]), 1.0, 0.01)
    with pytest.raises(ValueError):
        hamilton_residual(traj, builtin_system("harmonic_oscillator", n=2))


def test_energy_ledger_harmonic_period():
    traj = integrate_flow(_sys_ho(), np.array([1.0, 0.0, 0.0, 0.0]), 2.0 * np.pi, 1e-3)
    ledger = energy_ledger(traj, _sys_ho())
    assert abs(ledger.delta_H) < 1e-6
    assert ledger.residual <= 1e-6
    assert ledger.power_term == 0.0  # autonomous, integrand identically zero


def test_energy_ledger_free_particle_all_zero():
    sys = builtin_system("free_particle")
    traj = integrate_flow(sys, np.array([0.0, 2.0, 0.0, 0.0]), 5.0, 1e-3)
    ledger = energy_ledger(traj, sys)
    assert ledger.delta_H == 0.0
    assert ledger.kinetic_term == 0.0
    assert ledger.work_term == 0.0
    assert ledger.power_term == 0.0
    assert ledger.residual == 0.0


def test_energy_ledger_driven():
    sys = builtin_system("driven_oscillator")
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, 0.0]), 5.0, 1e-3)
    ledger = energy_ledger(traj, sys)
    assert ledger.residual <= 1e-5
    assert abs(ledger.power_term) > 1e-3  # the drive actually does work


def test_energy_ledger_residual_scales():
    sys = builtin_system("driven_oscillator")
    z0 = np.array([1.0, 0.0, 0.0, 0.0])
    coarse = energy_ledger(integrate_flow(sys, z0, 5.0, 2e-3), sys).residual
    fine = energy_ledger(integrate_flow(sys, z0, 5.0, 1e-3), sys).residual
    assert coarse / fine > 3.0  # trapezoid rule is second order


def test_energy_ledger_to_dict():
    sys = builtin_system("free_particle")
    traj = integrate_flow(sys, np.array([0.0, 1.0, 0.0, 0.0]), 1.0, 0.01)
    data = json.loads(json.dumps(energy_ledger(traj, sys).to_dict()))
    assert set(data) == {"delta_H", "kinetic_term", "work_term", "power_term", "residual"}


def test_noncommutativity_frozen_example():
    a = VfrView(np.array([1.0]), np.array([0.0]), 0.0)
    b = VfrView(np.array([0.0]), np.array([1.0]), 0.0)
    left, right, commutator_r = noncommutativity_check(a, b)
    assert commutator_r == 2.0
    assert np.array_equal(left.v, right.v)
    assert np.array_equal(left.f, right.f)
    # swapping the order flips the sign
    assert noncommutativity_check(b, a)[2] == -2.0


def test_noncommutativity_identity_commutes():
    a = VfrView(np.array([1.0]), np.array([2.0]), 3.0)
    e = VfrView(np.zeros(1), np.zeros(1), 0.0)
    assert noncommutativity_check(a, e)[2] == 0.0


def test_noncommutativity_parallel_boosts_commute():
    # pure velocity shifts generate an abelian subgroup
    a = VfrView(np.array([1.0, 2.0]), np.zeros(2), 0.0)
    b = VfrView(np.array([-3.0, 5.0]), np.zeros(2), 0.0)
    assert noncommutativity_check(a, b)[2] == 0.0


def test_noncommutativity_general_value():
    a = VfrView(np.array([2.0]), np.array([3.0]), 1.0)
    b = VfrView(np.array([5.0]), np.array([7.0]), -2.0)
    # 2 (v_a . f_b - f_a . v_b) = 2 (14 - 15) = -2
    assert noncommutativity_check(a, b)[2] == -2.0


def test_noncommutativity_rejects_dimension_mismatch():
    a = VfrView(np.array([1.0]), np.array([0.0]), 0.0)
    b = VfrView(np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        noncommutativity_check(a, b)


def test_trajectory_probes_interior():
    traj = integrate_flow(_sys_ho(), np.array([1.0, 0.0, 0.0, 0.0]), 5.0, 1e-3)
    rng = np.random.default_rng(3)
    probes = trajectory_probes(traj, 50, rng)
    assert len(probes) == 50
    assert probes.shape == (50, 4)
    for z in probes:
        h = default_step(z)
        assert traj.t[0] + h <= z[-1] <= traj.t[-1] - h
        assert -2.0 <= z[-2] <= 2.0
    # every sample but the two ends leaves room for the difference stencil
    short = integrate_flow(_sys_ho(), np.array([1.0, 0.0, 0.0, 0.0]), 0.5, 0.1)
    drawn = set(trajectory_probes(short, 200, np.random.default_rng(0))[:, -1])
    assert drawn == set(short.t[1:-1])


def test_trajectory_probes_need_room():
    # at t0 = 1e5 the probe step is about 1.0, wider than half of the 1.5 span
    traj = integrate_flow(_sys_ho(), np.array([1.0, 0.0, 0.0, 1e5]), 1e5 + 1.5, 0.1)
    with pytest.raises(ValueError, match=r"h >= 1 inside the span \[100000.0, 100001.5\]"):
        trajectory_probes(traj, 5, np.random.default_rng(0))


def test_box_probes_shape_and_range():
    probes = box_probes(Dimension(2), 10, np.random.default_rng(1), half_width=1.5)
    assert probes.shape == (10, 6)
    assert np.max(np.abs(probes)) <= 1.5
    # one state per draw of 6, the stream the map-mode probes always used
    rng = np.random.default_rng(1)
    assert np.array_equal(probes, [rng.uniform(-1.5, 1.5, 6) for _ in range(10)])


def test_rho_certifies_on_trajectory():
    sys = _sys_ho()
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, 0.0]), 5.0, 1e-3)
    rho = make_rho(traj, sys)
    probes = trajectory_probes(traj, 20, np.random.default_rng(11))
    report = check_invariance(rho.as_map(), probes, tol_omega=1e-5)
    assert report.classification == "Jacobimorphism"
    assert report.omega_residual_max <= 1e-5
    assert report.lambda_residual_max <= 1e-8


@pytest.mark.parametrize("method", ["rk4", "leapfrog"])
@pytest.mark.parametrize("name", ["harmonic_oscillator", "driven_oscillator"])
def test_rho_exact_at_table_ends(name, method):
    sys = builtin_system(name)
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, 0.0]), 5.0, 1e-3, method=method)
    rho = make_rho(traj, sys)
    N = traj.n_samples
    ends = [traj.z[k] for k in (*range(5), *range(N - 5, N))]
    analytic = MapHandle(rho, traj.n, jacobian=rho.jacobian, name="rho")
    assert check_invariance(analytic, ends, tol_omega=1e-5).omega_residual_max <= 1e-14
    near_ends = [traj.z[k] for k in (1, 2, N - 3, N - 2)]
    report = check_invariance(rho.as_map(), near_ends, tol_omega=1e-5, tol_lambda=1e-8)
    assert report.classification == "Jacobimorphism"


def test_rho_reproduces_the_table_at_the_nodes():
    sys = builtin_system("driven_oscillator", n=2)
    traj = integrate_flow(sys, np.array([1.0, 0.2, -0.5, 0.1, 0.0, 0.0]), 2.0, 1e-2)
    rho = make_rho(traj, sys)
    q0, p0 = traj.q[0], traj.p[0]
    for k, t in enumerate(traj.t):
        assert np.array_equal(rho.xi(t), traj.q[k] - q0)
        assert np.array_equal(rho.pi(t), traj.p[k] - p0)
        assert np.array_equal(rho.xi_dot(t), traj.v[k])
        assert np.array_equal(rho.pi_dot(t), traj.f[k])
