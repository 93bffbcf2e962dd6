import dataclasses

import numpy as np
import pytest

from jacobiflow import (
    Dimension,
    HamiltonianSystem,
    builtin_system,
    canonical_zeta,
    extended_vector_field,
    field_jacobian,
    form_residual,
    integrate_flow,
    make_rho,
    numeric_jacobian,
    write_csv,
)


def _ho():
    return builtin_system("harmonic_oscillator")


def test_field_harmonic_oscillator():
    X = extended_vector_field(_ho(), np.array([1.0, 0.0, 0.5, 0.0]))
    assert np.array_equal(X, [0.0, -1.0, 0.0, 1.0])


def test_field_free_particle():
    sys = builtin_system("free_particle")
    X = extended_vector_field(sys, np.array([0.3, 2.0, -1.0, 4.0]))
    assert np.array_equal(X, [2.0, 0.0, 0.0, 1.0])


def test_field_autonomous_energy_component():
    rng = np.random.default_rng(31)
    for name in ("free_particle", "harmonic_oscillator", "constant_force"):
        sys = builtin_system(name, n=2)
        X = extended_vector_field(sys, rng.uniform(-2, 2, 6))
        assert X[-2] == 0.0 and X[-1] == 1.0


def test_free_particle_closed_form():
    sys = builtin_system("free_particle")
    traj = integrate_flow(sys, np.array([0.0, 2.0, 2.0, 0.0]), 3.0, 0.01)
    assert np.max(np.abs(traj.z[-1] - [6.0, 2.0, 2.0, 3.0])) < 1e-12


def test_constant_force_closed_form():
    # quadratic flow is reproduced by the one-step method to rounding
    g = 2.0
    sys = builtin_system("constant_force", g=g)
    q0, p0 = 1.0, 0.5
    traj = integrate_flow(sys, np.array([q0, p0, 0.0, 0.0]), 2.0, 0.01)
    t = 2.0
    assert abs(traj.z[-1][0] - (q0 + p0 * t - 0.5 * g * t * t)) < 1e-12
    assert abs(traj.z[-1][1] - (p0 - g * t)) < 1e-12


def test_harmonic_oscillator_period_return():
    traj = integrate_flow(_ho(), np.array([1.0, 0.0, 0.0, 0.0]), 2.0 * np.pi, 1e-3)
    assert np.max(np.abs(traj.z[-1][:2] - [1.0, 0.0])) < 1e-9


def test_time_is_exact():
    traj = integrate_flow(_ho(), np.array([1.0, 0.0, 0.0, 0.25]), 1.25, 1e-2)
    k = np.arange(traj.n_samples)
    assert np.array_equal(traj.t, 0.25 + k * traj.dt)
    assert np.array_equal(traj.tau, traj.t)


def test_step_count_rounding():
    traj = integrate_flow(_ho(), np.array([1.0, 0.0, 0.0, 0.0]), 1.0, 0.3)
    assert traj.n_samples == 4  # round(1/0.3) = 3 steps
    assert traj.dt == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert traj.t[-1] == pytest.approx(1.0, abs=1e-15)


def test_extended_energy_is_conserved():
    # d(eps)/dtau = dH/dt along the flow, so H - eps is a first integral
    sys = builtin_system("driven_oscillator")
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, 0.0]), 5.0, 1e-3)
    H = np.array([sys.value(traj.q[k], traj.p[k], traj.t[k]) for k in range(traj.n_samples)])
    K = H - traj.eps
    assert np.max(np.abs(K - K[0])) < 1e-8


def test_rk4_error_scaling():
    z0 = np.array([1.0, 0.0, 0.0, 0.0])
    exact = np.array([np.cos(1.0), -np.sin(1.0)])

    def err(dt):
        traj = integrate_flow(_ho(), z0, 1.0, dt)
        return np.max(np.abs(traj.z[-1][:2] - exact))

    assert err(0.02) / err(0.01) > 3.8  # order 4, expected near 16


def test_leapfrog_error_scaling():
    z0 = np.array([1.0, 0.0, 0.0, 0.0])
    exact = np.array([np.cos(1.0), -np.sin(1.0)])

    def err(dt):
        traj = integrate_flow(_ho(), z0, 1.0, dt, method="leapfrog")
        return np.max(np.abs(traj.z[-1][:2] - exact))

    assert err(0.02) / err(0.005) > 3.8  # order 2 over two halvings, near 16


def test_leapfrog_matches_rk4():
    z0 = np.array([0.7, -0.2, 0.0, 0.0])
    sys = builtin_system("driven_oscillator")
    a = integrate_flow(sys, z0, 2.0, 1e-3, method="leapfrog")
    b = integrate_flow(sys, z0, 2.0, 1e-3, method="rk4")
    assert np.max(np.abs(a.z[-1] - b.z[-1])) < 1e-5


def test_integrate_flow_validation():
    sys = _ho()
    z0 = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        integrate_flow(sys, z0, 1.0, -0.1)
    with pytest.raises(ValueError):
        integrate_flow(sys, z0, 0.0, 0.1)  # t_end must exceed t0
    with pytest.raises(ValueError):
        integrate_flow(sys, z0, 1.0, 0.1, method="euler")
    with pytest.raises(ValueError):
        integrate_flow(sys, np.zeros(6), 1.0, 0.1)  # wrong state length
    with pytest.raises(ValueError):
        integrate_flow(sys, np.array([np.nan, 0.0, 0.0, 0.0]), 1.0, 0.1)
    with pytest.raises(ValueError):
        integrate_flow(sys, z0, np.inf, 0.1)


def test_leapfrog_requires_separable():
    sys = _ho()
    coupled = HamiltonianSystem(
        n=Dimension(1),
        value=sys.value,
        grad_q=sys.grad_q,
        grad_p=sys.grad_p,
        d_t=sys.d_t,
        separable=False,
    )
    with pytest.raises(ValueError):
        integrate_flow(coupled, np.array([1.0, 0.0, 0.0, 0.0]), 1.0, 0.1, method="leapfrog")


def test_blow_up_detection():
    # dq/dtau = q^2 escapes in finite time
    unstable = HamiltonianSystem(
        n=Dimension(1),
        value=lambda q, p, t: q[0] ** 2 * p[0],
        grad_q=lambda q, p, t: np.array([2.0 * q[0] * p[0]]),
        grad_p=lambda q, p, t: np.array([q[0] ** 2]),
        d_t=lambda q, p, t: 0.0,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            integrate_flow(unstable, np.array([1.0, 1.0, 0.0, 0.0]), 2.0, 0.01)


def test_variational_initial_and_fixed_rows():
    traj = integrate_flow(
        builtin_system("driven_oscillator"),
        np.array([1.0, 0.0, 0.0, 0.0]),
        2.0,
        1e-2,
        with_variational=True,
        jac_every=1,
    )
    assert np.array_equal(traj.jac[0], np.eye(4))
    e_t = np.array([0.0, 0.0, 0.0, 1.0])
    e_eps = np.array([0.0, 0.0, 1.0, 0.0])
    for k in (1, traj.n_samples // 2, traj.n_samples - 1):
        assert np.array_equal(traj.jac[k][-1], e_t)  # time row never moves
        assert np.array_equal(traj.jac[k][:, -2], e_eps)  # nothing feeds on eps


def test_variational_matches_closed_form_rotation():
    T = np.pi / 2.0
    traj = integrate_flow(
        _ho(), np.array([0.3, -0.1, 0.0, 0.0]), T, 1e-3, with_variational=True
    )
    expected = np.eye(4)
    expected[:2, :2] = [[np.cos(T), np.sin(T)], [-np.sin(T), np.cos(T)]]
    assert np.max(np.abs(traj.jac[-1] - expected)) < 1e-10


def _variational_vs_flow_differentiation(method):
    # J against finite differences of the time-T flow map
    sys = builtin_system("driven_oscillator")
    z0 = np.array([0.5, 0.2, 0.0, 0.0])
    T, dt = 1.0, 1e-3
    traj = integrate_flow(sys, z0, T, dt, method=method, with_variational=True)

    def flow_map(z):
        # fixed step count so the map is smooth in the initial state
        zt = z.copy()
        if zt[-1] != z0[-1]:
            raise ValueError("probe must keep the start time")
        return integrate_flow(sys, zt, T, dt, method=method).z[-1]

    h = 1e-6
    J_fd = np.empty((4, 4))
    for c in range(3):  # skip the t column, flow_map pins t0
        e = np.zeros(4)
        e[c] = h
        J_fd[:, c] = (flow_map(z0 + e) - flow_map(z0 - e)) / (2.0 * h)
    return np.max(np.abs(traj.jac[-1][:, :3] - J_fd[:, :3]))


def test_variational_matches_flow_differentiation():
    assert _variational_vs_flow_differentiation("rk4") < 1e-6


def test_leapfrog_variational_matches_flow_differentiation():
    # the exact tangent of the discrete map leaves only the differencing error
    assert _variational_vs_flow_differentiation("leapfrog") < 1e-8


@pytest.mark.parametrize("name", ["harmonic_oscillator", "driven_oscillator"])
def test_leapfrog_jacobian_is_symplectic(name):
    # the tangent of a symplectic step is symplectic to round-off
    sys = builtin_system(name)
    traj = integrate_flow(
        sys, np.array([0.5, 0.2, 0.0, 0.0]), 50.0, 1e-2, method="leapfrog", with_variational=True,
        jac_every=1,
    )
    zeta = canonical_zeta(sys.n)
    assert max(form_residual(J, zeta) for J in traj.jac) <= 1e-12


def _counting(sys):
    calls = dict.fromkeys(("grad_p", "grad_q", "d_t", "vf_jacobian"), 0)

    def counted(name):
        fn = getattr(sys, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    return dataclasses.replace(sys, **{name: counted(name) for name in calls}), calls


@pytest.mark.parametrize(
    "method, expected",
    [
        # 4 field and 4 Jacobian evaluations per step; the field at each new
        # state is both the stored sample and the next step's first stage
        ("rk4", {"grad_p": 401, "grad_q": 401, "d_t": 401, "vf_jacobian": 400}),
        # per step a drift, the sample's v, one half kick shared with the next
        # step and one Jacobian; plus the opening sample and Jacobian
        ("leapfrog", {"grad_p": 201, "grad_q": 101, "d_t": 101, "vf_jacobian": 101}),
    ],
)
def test_evaluations_per_100_steps(method, expected):
    sys, calls = _counting(builtin_system("driven_oscillator", n=2))
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.5, 0.1, 0.0, 0.0]), 0.1, 1e-3,
                          method=method, with_variational=True, jac_every=1)
    assert traj.n_samples == 101
    assert calls == expected


def test_trajectory_accessors():
    traj = integrate_flow(_ho(), np.array([1.0, 0.5, 0.2, 0.0]), 1.0, 0.1)
    assert traj.q.shape == (traj.n_samples, 1)
    assert traj.p.shape == (traj.n_samples, 1)
    assert np.all(np.diff(traj.tau) > 0)
    z = traj.z[3]
    assert z[-1] == traj.t[3] and z[-2] == traj.eps[3]
    assert z[0] == traj.q[3, 0] and z[1] == traj.p[3, 0]


def test_velocity_force_power_samples():
    sys = builtin_system("driven_oscillator")
    traj = integrate_flow(sys, np.array([1.0, 0.5, 0.0, 0.0]), 1.0, 0.1)
    for k in (0, 5, traj.n_samples - 1):
        X = extended_vector_field(sys, traj.z[k])
        assert np.array_equal(traj.v[k], X[0:2:2])
        assert np.array_equal(traj.f[k], X[1:2:2])
        assert traj.r[k] == X[-2]


def test_write_csv(tmp_path):
    traj = integrate_flow(_ho(), np.array([1.0, 0.0, 0.0, 0.0]), 0.5, 0.1)
    path = tmp_path / "traj.csv"
    write_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,q1,p1,eps,t,v1,f1,r"
    assert len(lines) == traj.n_samples + 1
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1], traj.q[:, 0])  # 17g round-trips exactly
    assert np.array_equal(data[:, 4], traj.t)


def test_write_csv_multidof_header(tmp_path):
    sys = builtin_system("harmonic_oscillator", n=2)
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.5, 0.0, 0.0, 0.0]), 0.5, 0.1)
    path = tmp_path / "traj2.csv"
    write_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "tau,q1,q2,p1,p2,eps,t,v1,v2,f1,f2,r"


def test_rho_free_particle_shifts():
    sys = builtin_system("free_particle")
    traj = integrate_flow(sys, np.array([0.0, 2.0, 0.0, 0.0]), 3.0, 0.01)
    rho = make_rho(traj, sys)
    assert abs(rho.xi(1.5)[0] - 3.0) < 1e-9  # xi(t) = p0 t
    assert abs(rho.pi(1.5)[0]) < 1e-12


def test_rho_at_start_time():
    sys = _ho()
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, 0.0]), 2.0, 0.01)
    rho = make_rho(traj, sys)
    z = np.array([0.4, -0.2, 0.3, 0.0])
    zt = rho(z)
    assert np.array_equal(zt[:2], z[:2])  # empty shift at t0
    assert zt[-1] == z[-1]
    assert abs(zt[-2] - (z[-2] + sys.value(z[0:1], z[1:2], 0.0))) < 1e-15


def test_rho_shift_depends_only_on_time():
    sys = _ho()
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, 0.0]), 2.0, 0.01)
    rho = make_rho(traj, sys)
    za = np.array([0.4, -0.2, 0.0, 1.0])
    zb = np.array([-1.1, 0.8, 0.5, 1.0])
    assert np.allclose(rho(za)[:2] - za[:2], rho(zb)[:2] - zb[:2], atol=1e-15)


def test_rho_jacobian_structure_and_fd_agreement():
    sys = builtin_system("driven_oscillator")
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, 0.0]), 2.0, 1e-3)
    rho = make_rho(traj, sys)
    z = traj.z[traj.n_samples // 2].copy()
    J = rho.jacobian(z)
    assert np.array_equal(J[:2, :2], np.eye(2))
    assert np.array_equal(J[-1], [0.0, 0.0, 0.0, 1.0])
    assert J[2, 2] == 1.0
    J_fd = numeric_jacobian(rho.as_map(), z)
    assert np.max(np.abs(J - J_fd)) < 1e-7


def test_rho_rejects_time_outside_range():
    sys = _ho()
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, 0.0]), 1.0, 0.01)
    rho = make_rho(traj, sys)
    with pytest.raises(ValueError):
        rho(np.array([0.0, 0.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        rho.xi(-0.5)


def test_make_rho_needs_samples():
    sys = _ho()
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, 0.0]), 0.2, 0.1)
    with pytest.raises(ValueError):
        make_rho(traj, sys)
