import dataclasses
import functools
import json
import re
import tracemalloc

import numpy as np
import pytest

from jacobiflow import (
    HamiltonianSystem,
    MapHandle,
    Trajectory,
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
    numeric_jacobian,
    trajectory_probes,
)
from jacobiflow.cli import _catalog_map
from jacobiflow.forms import canonical_zeta
from jacobiflow.systems import BUILTIN_SYSTEMS
from reference_helpers import factorization, rho_jacobian


def _probes(n=1, count=8, seed=7):
    return box_probes(n, count, np.random.default_rng(seed))


def test_identity_is_jacobimorphism():
    handle = MapHandle(lambda z: z.copy(), 1, jacobian=lambda z: np.eye(4))
    report = check_invariance(handle, _probes())
    assert report.classification == "Jacobimorphism"
    assert report.omega_residual_max == 0.0
    assert report.lambda_residual_max == 0.0
    assert factorization(report) is not None
    assert len(factorization(report)) == report.n_probes


def test_identity_via_finite_differences():
    # central differences are an explicit opt-in: the handle carries them as its Jacobian
    def identity(z):
        return z.copy()

    handle = MapHandle(identity, 1, jacobian=functools.partial(numeric_jacobian, identity))
    report = check_invariance(handle, _probes())
    assert report.classification == "Jacobimorphism"
    assert 0.0 < report.omega_residual_max < 1e-9


def _linear(M):
    # the map z -> M z with its exact Jacobian M
    return MapHandle(lambda z: M @ z, (len(M) - 2) // 2, jacobian=lambda z: M)


def test_time_doubling_is_neither():
    report = check_invariance(_linear(np.diag([1.0, 1.0, 1.0, 2.0])), _probes())
    assert report.classification == "Neither"
    # T'JT with J_tt = 2 gives lambda residual 3 and omega residual 1
    assert report.lambda_residual_max == 3.0
    assert report.omega_residual_max == 1.0
    assert factorization(report) is None


def test_symplectic_but_not_time_preserving():
    # (q, p, eps, t + eps) preserves omega exactly but shears the time row
    shear = np.eye(4)
    shear[-1, -2] = 1.0
    report = check_invariance(_linear(shear), _probes())
    assert report.classification == "Symplectomorphism"
    assert report.omega_residual_max == 0.0
    assert report.lambda_residual_max == 1.0


def test_time_preserving_but_not_symplectic():
    report = check_invariance(_linear(np.diag([2.0, 1.0, 1.0, 1.0])), _probes())
    assert report.classification == "TimePreservingOnly"
    assert report.lambda_residual_max == 0.0
    assert report.omega_residual_max == 1.0


def test_analytic_jacobian_is_preferred():
    # the handle's Jacobian, wrong here, is the only one read; the map is never evaluated
    calls = []

    def doubling(z):
        calls.append(z)
        out = z.copy()
        out[-1] *= 2.0
        return out

    lying = MapHandle(doubling, 1, jacobian=lambda z: np.eye(4))
    report = check_invariance(lying, _probes())
    assert report.classification == "Jacobimorphism"
    assert calls == []


def _counted(calls):
    def func(z):
        calls.append("map")
        return z.copy()

    return func


@pytest.mark.parametrize("kind", ["callable", "handle"])
def test_a_map_without_its_own_jacobian_is_refused_before_any_evaluation(kind):
    calls = []
    func = _counted(calls)
    f = func if kind == "callable" else MapHandle(func, 1)
    opt_in = "MapHandle(func, n, jacobian=functools.partial(numeric_jacobian, func))"
    with pytest.raises(ValueError, match=re.escape(opt_in)) as info:
        check_invariance(f, _probes())
    assert type(info.value) is ValueError
    assert calls == []


def test_non_finite_probes_are_refused_before_any_jacobian():
    calls = []
    handle = MapHandle(_counted(calls), 1, jacobian=lambda z: calls.append("jacobian") or np.eye(4))
    probes = [[0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0], [0.0, np.inf, 0.0, 0.0]]
    with pytest.raises(ValueError, match=re.escape("probe 1 is not finite: [nan, 0.0, 0.0, 0.0]")):
        check_invariance(handle, probes)
    assert calls == []


def test_check_invariance_requires_probes():
    with pytest.raises(ValueError, match="^need at least one probe point$"):
        check_invariance(_linear(np.eye(4)), [])


@pytest.mark.parametrize("probes", [np.zeros(4), np.zeros((2, 3))], ids=["one_state", "width_3"])
def test_check_invariance_names_a_probe_array_of_the_wrong_shape(probes):
    with pytest.raises(ValueError, match=re.escape(f"got shape {probes.shape}")) as info:
        check_invariance(_linear(np.eye(4)), probes)
    assert "(count, 2n+2) array" in str(info.value)


def test_check_invariance_names_a_handle_jacobian_of_the_wrong_shape():
    handle = MapHandle(lambda z: z.copy(), 1, jacobian=lambda z: np.eye(3))
    message = "expected (4, 4) Jacobians, got a stack of shape (2, 3, 3)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        check_invariance(handle, np.zeros((2, 4)))
    assert type(info.value) is ValueError


def test_report_to_dict_is_json_ready():
    report = check_invariance(_linear(np.eye(4)), _probes(count=3))
    blob = json.dumps(report.to_dict())
    data = json.loads(blob)
    assert data["classification"] == "Jacobimorphism"
    assert data["n_probes"] == 3
    # the factors are summarised; their parameters are the Jacobians' entries
    assert "factorization" not in data
    assert data["n_factored"] == 3
    assert data["factor_error"] is None
    assert factorization(report)[0].tr == 1
    assert report.jacobians.shape == (3, 4, 4)


def test_pattern_violation_within_both_form_residuals_is_reported():
    # scaling p by 0.1 shrinks the symplectic residual of an eps-column entry
    # delta to 0.1 delta, so both forms pass while the block pattern misses by delta
    J = np.diag([10.0, 0.1, 1.0, 1.0])
    J[0, 2] = 5e-6
    handle = MapHandle(lambda z: J @ z, 1, jacobian=lambda z: J)
    report = check_invariance(handle, _probes(count=3), tol_omega=1e-6, tol_lambda=1e-8)
    assert report.omega_residual_max <= 1e-6
    assert report.lambda_residual_max <= 1e-8
    assert report.classification == "Symplectomorphism"
    assert factorization(report) is None
    assert report.factor_error == "PatternViolation: block pattern deviates by 5.000e-06 > 1.0e-06"
    data = json.loads(json.dumps(report.to_dict()))
    assert data["factor_error"] == report.factor_error
    assert data["n_factored"] == 0


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
    assert factorization(report) is not None


@pytest.mark.parametrize("t0", [0.0, 1e3, 1e5])
def test_late_clock_flow_jacobians_certify_at_round_off(t0):
    # the tangent is built from the exact field Jacobian, so its residual stays
    # at round-off however late the clock starts; a field Jacobian whose error
    # grows with |t| fails here
    sys = builtin_system("driven_oscillator")
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, t0]), t0 + 10.0, 0.01,
                          method="leapfrog", with_variational=True)
    report = check_flow_jacobians(traj, tol_omega=1e-14)
    assert report.classification == "Jacobimorphism"
    assert report.omega_residual_max <= 1e-14 and report.lambda_residual_max == 0.0


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
        n=1,
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


def test_energy_ledger_needs_two_samples():
    traj = Trajectory(zX=np.zeros((1, 2, 4)), dt=0.1, n=1)
    with pytest.raises(ValueError, match="^need at least 2 samples$") as info:
        energy_ledger(traj, _sys_ho())
    assert type(info.value) is ValueError


@pytest.mark.parametrize("check", [hamilton_residual, energy_ledger, make_rho])
def test_trajectory_checks_reject_dimension_mismatch(check):
    traj = integrate_flow(_sys_ho(), np.array([1.0, 0.0, 0.0, 0.0]), 1.0, 0.01)
    with pytest.raises(ValueError, match="dimension mismatch: system n=2, trajectory n=1"):
        check(traj, builtin_system("harmonic_oscillator", n=2))


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


def test_trajectory_probes_draw_every_sample_ends_included():
    traj = integrate_flow(_sys_ho(), np.array([1.0, 0.0, 0.0, 0.0]), 5.0, 1e-3)
    probes = trajectory_probes(traj, 50, np.random.default_rng(3))
    assert probes.shape == (50, 4)
    for z in probes:
        k = np.flatnonzero(traj.t == z[-1])
        assert len(k) == 1 and np.array_equal(z[:2], traj.z[k[0], :2])
        assert -2.0 <= z[-2] <= 2.0
    # the complex step needs no stencil room, so both end samples are drawn
    short = integrate_flow(_sys_ho(), np.array([1.0, 0.0, 0.0, 0.0]), 0.5, 0.1)
    drawn = set(trajectory_probes(short, 200, np.random.default_rng(0))[:, -1])
    assert drawn == set(short.t)


def test_late_short_trajectory_probes_certify_the_shift_transform():
    # at t0 = 1e5 a central difference step is about 1.0, wider than half of
    # the 1.5 span, so no sample left room for its stencil
    sys = _sys_ho()
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, 1e5]), 1e5 + 1.5, 0.1)
    probes = trajectory_probes(traj, 20, np.random.default_rng(0))
    report = check_invariance(make_rho(traj, sys).as_map(), probes, tol_omega=1e-12)
    assert report.classification == "Jacobimorphism"
    assert report.omega_residual_max <= 1e-15 and report.lambda_residual_max == 0.0


def test_box_probes_shape_and_range():
    probes = box_probes(2, 10, np.random.default_rng(1))
    assert probes.shape == (10, 6)
    assert np.max(np.abs(probes)) <= 2.0
    # one state per draw of 6 from [-2, 2], the stream the map-mode probes always used
    rng = np.random.default_rng(1)
    assert np.array_equal(probes, [rng.uniform(-2.0, 2.0, 6) for _ in range(10)])


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("method", ["rk4", "leapfrog"])
@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_complex_step_matches_the_analytic_rho_jacobian(name, method, n):
    sys = builtin_system(name, n=n)
    z0 = np.zeros(2 * n + 2)
    z0[: 2 * n] = np.linspace(-0.8, 0.9, 2 * n)
    traj = integrate_flow(sys, z0, 2.0, 1e-2, method=method)
    rho = make_rho(traj, sys)
    handle = rho.as_map()
    N = traj.n_samples
    rng = np.random.default_rng(5)
    for k in (0, 1, N // 3, N // 2, N - 2, N - 1):
        z = traj.z[k].copy()
        z[-2] = rng.uniform(-2.0, 2.0)
        J = rho_jacobian(rho, z)
        assert np.max(np.abs(handle.jacobian(z) - J)) <= 1e-15
        assert np.array_equal(rho(z), handle(z))


@pytest.mark.parametrize("method", ["rk4", "leapfrog"])
@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_rho_residuals_are_round_off_at_the_cli_defaults(name, method):
    sys = builtin_system(name)
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, 0.0]), 5.0, 1e-3, method=method)
    probes = trajectory_probes(traj, 20, np.random.default_rng(0))
    report = check_invariance(make_rho(traj, sys).as_map(), probes, tol_omega=1e-5, tol_lambda=1e-8)
    assert report.classification == "Jacobimorphism"
    assert report.omega_residual_max <= 1e-15
    assert report.lambda_residual_max == 0.0


@pytest.mark.parametrize("method", ["rk4", "leapfrog"])
@pytest.mark.parametrize("wrong", ["mass", "value"])
def test_rho_of_a_wrong_hamiltonian_fails_where_the_true_one_certifies(wrong, method):
    # a rho of a mass-1 orbit, certified with the H of mass 1 + delta, or with
    # a value that disagrees with the gradients by the factor 1 + delta
    delta = 1e-9
    sys = _sys_ho()
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, 0.0]), 5.0, 1e-3, method=method)
    if wrong == "mass":
        other = builtin_system("harmonic_oscillator", mass=1.0 + delta)
    else:
        other = dataclasses.replace(sys, value=lambda q, p, t: (1.0 + delta) * sys.value(q, p, t))
    probes = trajectory_probes(traj, 20, np.random.default_rng(0))
    tols = {"tol_omega": 1e-12, "tol_lambda": 1e-12}
    true = check_invariance(make_rho(traj, sys).as_map(), probes, **tols)
    assert true.classification == "Jacobimorphism"
    rho = make_rho(traj, other)
    report = check_invariance(rho.as_map(), probes, **tols)
    assert report.classification == "TimePreservingOnly"
    assert 1e-10 < report.omega_residual_max < 1e-8
    if wrong == "value":
        # the analytic Jacobian is built from the gradients, so it is blind to this
        analytic = MapHandle(rho, 1, jacobian=functools.partial(rho_jacobian, rho))
        assert check_invariance(analytic, probes, **tols).classification == "Jacobimorphism"


def test_rho_of_a_system_whose_value_casts_to_float_fails_loudly():
    # the complex step needs value to take a complex (q, p, t); a float() cast
    # drops the imaginary part, with numpy's ComplexWarning, an error under
    # the suite's RuntimeWarning filter
    base = _sys_ho()
    sys = dataclasses.replace(base, value=lambda q, p, t: float(base.value(q, p, t)))
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, 0.0]), 1.0, 1e-2)
    with pytest.raises(np.exceptions.ComplexWarning):
        check_invariance(make_rho(traj, sys).as_map(), traj.z[:3])


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
    analytic = MapHandle(rho, traj.n, jacobian=functools.partial(rho_jacobian, rho))
    assert check_invariance(analytic, ends, tol_omega=1e-5).omega_residual_max <= 1e-14
    near_ends = [traj.z[k] for k in (1, 2, N - 3, N - 2)]
    report = check_invariance(rho.as_map(), near_ends, tol_omega=1e-5, tol_lambda=1e-8)
    assert report.classification == "Jacobimorphism"


def test_rho_reproduces_the_table_at_the_nodes():
    sys = builtin_system("driven_oscillator", n=2)
    traj = integrate_flow(sys, np.array([1.0, 0.2, -0.5, 0.1, 0.0, 0.0]), 2.0, 1e-2)
    rho = make_rho(traj, sys)
    q0, p0 = traj.q[0], traj.p[0]
    z = np.zeros(6)
    for k, t in enumerate(traj.t):
        # at q = p = 0 the shift is rho's (q, p); its rate is J's t column
        z[-1] = t
        shift, rate = rho(z)[:4], rho_jacobian(rho, z)[:4, -1]
        assert np.array_equal(shift[0::2], traj.q[k] - q0)
        assert np.array_equal(shift[1::2], traj.p[k] - p0)
        assert np.array_equal(rate[0::2], traj.v[k])
        assert np.array_equal(rate[1::2], traj.f[k])


def test_check_invariance_holds_one_probe_stack_beyond_its_report():
    n, count = 8, 100
    d = 2 * n + 2
    stack = count * d * d * 8
    rotation = _catalog_map(n, "rotation")
    probes = box_probes(n, count, np.random.default_rng(0))
    canonical_zeta(n)  # the shared form cache is not part of the call's cost
    tracemalloc.start()
    try:
        report = check_invariance(rotation, probes)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.classification == "Jacobimorphism"
    # the report keeps the stack it checked and no factor: its factorization
    # is derived from the stack on demand
    assert report.jacobians.nbytes == stack and report.n_factored == count
    assert retained <= 1.1 * stack
    # the call peaks at the stack and one chunk's temporaries: the chunk's
    # stripped copy and the two products of its symplectic residual
    assert peak <= 2.1 * stack
    assert len(factorization(report)) == count
