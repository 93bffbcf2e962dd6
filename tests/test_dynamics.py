import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from jacobiflow import (
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
from jacobiflow.dynamics import _CSV_BLOCK, step_count
from reference_helpers import rho_jacobian


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


@pytest.mark.parametrize("n, length", [(1, 6), (2, 4), (2, 8)])
def test_field_functions_reject_a_state_of_another_dimension(n, length):
    # a driven n=1 preset returned a 6-vector for a length-6 state, and an n=2
    # preset a 6x6 Jacobian for a length-4 state
    sys = builtin_system("driven_oscillator", n=n)
    z = np.linspace(-1.0, 1.0, length)
    message = f"^state length {length} does not match system n={n}$"
    with pytest.raises(ValueError, match=message):
        extended_vector_field(sys, z)
    with pytest.raises(ValueError, match=message):
        field_jacobian(sys, z)
    with pytest.raises(ValueError, match=message):
        integrate_flow(sys, z, 1.0, 0.1)


@pytest.mark.parametrize("shape", [(3,), (2,), (5,), (2, 4)])
def test_field_functions_reject_a_state_that_is_no_state_vector(shape):
    sys = _ho()
    z = np.zeros(shape)
    message = f"^expected a state vector of even length >= 4, got shape {re.escape(str(shape))}$"
    for call in (extended_vector_field, field_jacobian, lambda s, w: integrate_flow(s, w, 1.0, 0.1)):
        with pytest.raises(ValueError, match=message) as info:
            call(sys, z)
        assert type(info.value) is ValueError


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
    with pytest.raises(ValueError, match="^unknown method None$"):
        integrate_flow(sys, z0, 1.0, 0.1, method=None)
    with pytest.raises(ValueError, match="^unknown method 'RK4'$"):
        integrate_flow(sys, z0, 1.0, 0.1, method="RK4")  # the names are exact, as in the CLI
    with pytest.raises(ValueError):
        integrate_flow(sys, np.zeros(6), 1.0, 0.1)  # wrong state length
    with pytest.raises(ValueError):
        integrate_flow(sys, np.array([np.nan, 0.0, 0.0, 0.0]), 1.0, 0.1)
    with pytest.raises(ValueError):
        integrate_flow(sys, z0, np.inf, 0.1)


def test_leapfrog_requires_separable():
    sys = _ho()
    coupled = HamiltonianSystem(
        n=1,
        value=sys.value,
        grad_q=sys.grad_q,
        grad_p=sys.grad_p,
        d_t=sys.d_t,
        separable=False,
    )
    with pytest.raises(ValueError):
        integrate_flow(coupled, np.array([1.0, 0.0, 0.0, 0.0]), 1.0, 0.1, method="leapfrog")


def test_a_system_is_not_separable_unless_it_says_so():
    # H = (p^2 + q^2)/2 + q p/2 couples q and p; leapfrog would integrate it
    # at first order, so it must be refused unless the system declares itself separable
    coupled = HamiltonianSystem(
        n=1,
        value=lambda q, p, t: 0.5 * float(p @ p + q @ q + q @ p),
        grad_q=lambda q, p, t: q + 0.5 * p,
        grad_p=lambda q, p, t: p + 0.5 * q,
        d_t=lambda q, p, t: 0.0,
    )
    assert not coupled.separable
    with pytest.raises(ValueError, match="^leapfrog requires a separable system$"):
        integrate_flow(coupled, np.array([1.0, 0.0, 0.0, 0.0]), 5.0, 1e-2, method="leapfrog")
    assert np.isfinite(integrate_flow(coupled, np.array([1.0, 0.0, 0.0, 0.0]), 5.0, 1e-2).z).all()


@pytest.mark.parametrize(
    "t0, t_end, dt, message",
    [
        (0.0, 1.0, -0.1, r"^dt must be positive, got -0.1$"),
        (0.0, 1.0, 0.0, r"^dt must be positive, got 0.0$"),
        (0.0, 1.0, np.nan, r"^dt must be positive, got nan$"),
        (1.0, 0.0, 0.1, r"^t_end \(0.0\) must exceed the initial time \(1.0\)$"),
        (1.0, 1.0, 0.1, r"^t_end \(1.0\) must exceed the initial time \(1.0\)$"),
    ],
)
def test_step_count_owns_the_flow_time_checks(t0, t_end, dt, message):
    with pytest.raises(ValueError, match=message):
        step_count(t0, t_end, dt)
    # integrate_flow raises the same error through it
    with pytest.raises(ValueError, match=message):
        integrate_flow(_ho(), np.array([1.0, 0.0, 0.0, t0]), t_end, dt)


# float spacings of 16 and 0.125 at the flow's times, at or above the step
CLOCK_STOPS = [
    (1e17, 100000000000000016.0, 0.5, "0.5", "16.0"),
    (1e15, 1000000000000010.0, 0.01, "0.01", "0.125"),
]


@pytest.mark.parametrize("t0, t_end, dt, step, spacing", CLOCK_STOPS)
def test_a_step_within_the_float_spacing_is_refused_before_any_allocation(t0, t_end, dt, step, spacing):
    # t0 + k dt would repeat values, and the shift transform divide by a zero interval
    message = f"^the step {step} does not exceed the float spacing {spacing} at the flow's times$"
    with pytest.raises(ValueError, match=message):
        step_count(t0, t_end, dt)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            integrate_flow(_ho(), np.array([1.0, 0.0, 0.0, t0]), t_end, dt, with_variational=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the flow's sample array and stage buffers alone would take more
    assert peak < 8192
    # a late start with a step above the spacing keeps a strictly increasing clock
    assert np.all(np.diff(integrate_flow(_ho(), np.array([1.0, 0.0, 0.0, 1000.0]), 1001.0, 1e-3).t) > 0)


def _zero_jacobian(z):
    # a constant field Jacobian, for one state (d,) or a (B, d) stack: the
    # variational branch of the tests below runs on it, so that they reach
    # the state pass and its checks
    return np.zeros(z.shape + z.shape[-1:])


def test_blow_up_detection():
    # dq/dtau = q^2 escapes in finite time
    unstable = HamiltonianSystem(
        n=1,
        value=lambda q, p, t: q[0] ** 2 * p[0],
        grad_q=lambda q, p, t: np.array([2.0 * q[0] * p[0]]),
        grad_p=lambda q, p, t: np.array([q[0] ** 2]),
        d_t=lambda q, p, t: 0.0,
        vf_jacobian=_zero_jacobian,
    )
    # no np.errstate here: the overflow must surface as the blow-up error, not
    # as a RuntimeWarning, which this suite turns into an error
    for with_variational in (False, True):
        with pytest.raises(ValueError, match="flow blew up: non-finite state or field at step"):
            integrate_flow(unstable, np.array([1.0, 1.0, 0.0, 0.0]), 2.0, 0.01,
                           with_variational=with_variational)


def _turns_infinite(t_bad, term, strict):
    # a harmonic oscillator whose force, velocity or power is infinite from
    # t_bad on; the callable named by strict, grad_q or d_t, also raises on a
    # non-finite position, as a callable may
    force = np.inf if term == "force" else 0.0
    velocity = np.inf if term == "velocity" else 0.0
    power = np.inf if term == "power" else 0.0

    def finite(name, q):
        if strict == name and not np.isfinite(q).all():
            raise ArithmeticError("non-finite position")

    def grad_q(q, p, t):
        finite("grad_q", q)
        return q + (force if t >= t_bad else 0.0)

    def d_t(q, p, t):
        # a (..., 1) stack of positions with (...) times, or one state
        finite("d_t", q)
        return np.where(np.asarray(t) >= t_bad, power, 0.0)

    return HamiltonianSystem(
        n=1,
        value=lambda q, p, t: 0.5 * float(p @ p + q @ q),
        grad_q=grad_q,
        grad_p=lambda q, p, t: p + (velocity if t >= t_bad else 0.0),
        d_t=d_t,
        separable=True,
        vf_jacobian=_zero_jacobian,
    )


@pytest.mark.parametrize("term", ["force", "velocity", "power"])
def test_a_non_finite_field_at_a_state_is_rejected(term):
    # one path: integrate_flow takes its initial sample from extended_vector_field
    sys = _turns_infinite(0.0, term, None)
    z0 = np.array([1.0, 0.0, 0.0, 0.0])
    message = "^Hamiltonian gradients evaluated to non-finite values$"
    with pytest.raises(ValueError, match=message):
        extended_vector_field(sys, z0)
    for method in ("rk4", "leapfrog"):
        for with_variational in (False, True):
            with pytest.raises(ValueError, match=message) as info:
                integrate_flow(sys, z0, 1.0, 0.1, method=method, with_variational=with_variational)
            assert type(info.value) is ValueError


def _per_step_blow_up(sys, z0, dt, method, max_steps):
    # reference: one step per call, so the state and field are checked after every step
    z = z0
    for i in range(max_steps):
        try:
            z = integrate_flow(sys, z, z[-1] + dt, dt, method=method).z[-1]
        except ValueError as e:
            assert str(e) == "flow blew up: non-finite state or field at step 1 (last valid step 0)"
            return i + 1
    return None


@pytest.mark.parametrize(
    "term, strict",
    [
        ("force", None),
        ("force", "grad_q"),
        ("force", "d_t"),
        ("velocity", None),
        ("velocity", "grad_q"),
        ("power", None),
    ],
)
@pytest.mark.parametrize("with_variational", [False, True])
@pytest.mark.parametrize("method", ["rk4", "leapfrog"])
@pytest.mark.parametrize("step", [31, 32, 33])
def test_blow_up_names_the_first_bad_step_around_a_chunk_boundary(step, method, with_variational,
                                                                   term, strict):
    # steps 1..32 make up the first chunk of the state pass.  The field turns
    # infinite between the stages of `step`, so its state or field sample is
    # the first non-finite one (leapfrog's infinite velocity leaves only the
    # field sample non-finite, an infinite power only the energy and power);
    # a strict grad_q raises on the step after it, or on the step's own new
    # state (RK4's infinite velocity), and a strict d_t on the first
    # non-finite position it is given, in the step loop or in the chunk's
    # power fill
    dt, t0 = 0.01, 0.5
    sys = _turns_infinite(t0 + (step - 0.25) * dt, term, strict)
    z0 = np.array([1.0, 0.0, 0.0, t0])
    assert _per_step_blow_up(sys, z0, dt, method, 40) == step
    with pytest.raises(ValueError) as info:
        integrate_flow(sys, z0, t0 + 40 * dt, dt, method=method, with_variational=with_variational)
    assert str(info.value) == (
        f"flow blew up: non-finite state or field at step {step} (last valid step {step - 1})"
    )
    if strict and step != 32:
        # mid-chunk, the next step ran into the bad state and the strict callable raised
        assert isinstance(info.value.__cause__, ArithmeticError)


class _Refused(Exception):
    pass


@pytest.mark.parametrize("with_variational", [False, True])
@pytest.mark.parametrize("method", ["rk4", "leapfrog"])
@pytest.mark.parametrize("n_steps, step", [(1, 1), (40, 12)])
def test_a_callable_raising_at_a_finite_state_propagates_unchanged(n_steps, step, method,
                                                                   with_variational):
    # grad_q raises from the last stage of `step` on, in a one-step run or
    # mid-chunk.  The state stays finite, so there is no blow-up to report:
    # the callable's own exception surfaces as it was raised
    dt, t0 = 0.01, 0.5
    t_bad = t0 + (step - 0.25) * dt

    def grad_q(q, p, t):
        if t >= t_bad:
            raise _Refused(f"grad_q refused at t={t}")
        return q

    sys = HamiltonianSystem(
        n=1,
        value=lambda q, p, t: 0.5 * float(p @ p + q @ q),
        grad_q=grad_q,
        grad_p=lambda q, p, t: p,
        d_t=lambda q, p, t: 0.0 * np.asarray(t),
        separable=True,
        vf_jacobian=_zero_jacobian,
    )
    z0 = np.array([1.0, 0.0, 0.0, t0])
    with pytest.raises(_Refused, match="^grad_q refused at t=") as info:
        integrate_flow(sys, z0, t0 + n_steps * dt, dt, method=method,
                       with_variational=with_variational)
    assert info.value.__cause__ is None and info.value.__context__ is None


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


def _variational_vs_flow_differentiation(
    method, sys=None, z0=(0.5, 0.2, 0.0, 0.0), T=1.0, dt=1e-3
):
    # J against finite differences of the time-T flow map
    sys = builtin_system("driven_oscillator") if sys is None else sys
    z0 = np.array(z0)
    d = len(z0)
    traj = integrate_flow(sys, z0, T, dt, method=method, with_variational=True)

    def flow_map(z):
        # fixed step count so the map is smooth in the initial state
        zt = z.copy()
        if zt[-1] != z0[-1]:
            raise ValueError("probe must keep the start time")
        return integrate_flow(sys, zt, T, dt, method=method).z[-1]

    h = 1e-6
    J_fd = np.empty((d, d))
    for c in range(d - 1):  # skip the t column, flow_map pins t0
        e = np.zeros(d)
        e[c] = h
        J_fd[:, c] = (flow_map(z0 + e) - flow_map(z0 - e)) / (2.0 * h)
    return np.max(np.abs(traj.jac[-1][:, :-1] - J_fd[:, :-1]))


def test_variational_matches_flow_differentiation():
    assert _variational_vs_flow_differentiation("rk4") < 1e-6


def test_leapfrog_variational_matches_flow_differentiation():
    # the exact tangent of the discrete map leaves only the differencing error
    assert _variational_vs_flow_differentiation("leapfrog") < 1e-8


def _anharmonic(n=2, beta=0.8):
    """The driven oscillator plus (beta/4) sum(q^4), with its analytic field Jacobian.

    Its force Jacobian -(om^2 + 3 beta q^2) changes within a step, so every
    stage's Jacobian, taken at its own state, enters the tangent.
    """
    base = builtin_system("driven_oscillator", n=n)
    k = 2 * n
    p_rows, q_cols = np.arange(1, k, 2), np.arange(0, k, 2)

    def vf_jacobian(z):
        # one state (d,) or a stack (B, d), like the family's
        A = base.vf_jacobian(z)
        q = z[..., 0:k:2]
        A[..., p_rows, q_cols] -= 3.0 * beta * q * q
        return A

    return dataclasses.replace(
        base,
        value=lambda q, p, t: base.value(q, p, t) + 0.25 * beta * float(np.sum(q**4)),
        grad_q=lambda q, p, t: base.grad_q(q, p, t) + beta * q**3,
        vf_jacobian=vf_jacobian,
        name="anharmonic",
    )


def test_anharmonic_field_jacobian_is_the_field_derivative():
    sys = _anharmonic()
    rng = np.random.default_rng(41)
    Z = rng.uniform(-1.0, 1.0, (5, 6))
    stacked = sys.vf_jacobian(Z)
    for z, A in zip(Z, stacked):
        assert np.array_equal(field_jacobian(sys, z), A)
        assert np.max(np.abs(A - numeric_jacobian(lambda w: extended_vector_field(sys, w), z))) < 1e-8


@pytest.mark.parametrize("method", ["rk4", "leapfrog"])
def test_anharmonic_variational_matches_flow_differentiation(method):
    # the tangent is the exact derivative of the discrete step for both
    # methods, so at dt = 0.01 only the differencing error is left; 120 steps
    # cross three chunk boundaries of the tangent pass
    err = _variational_vs_flow_differentiation(
        method, _anharmonic(), z0=(0.9, -0.3, -0.6, 0.4, 0.0, 0.2), T=1.2, dt=0.01
    )
    assert err < 1e-8


@pytest.mark.parametrize("method", ["rk4", "leapfrog"])
def test_replaced_gradient_is_the_field_the_flow_integrates(method):
    # a preset whose grad_q is replaced by the force of frequency 2, and
    # nothing else, flows as the frequency-2 preset, bit for bit
    base = builtin_system("harmonic_oscillator", n=2)
    replaced = dataclasses.replace(base, grad_q=lambda q, p, t: 4.0 * q)
    target = builtin_system("harmonic_oscillator", n=2, frequency=2.0)
    z0 = np.array([0.9, -0.3, -0.6, 0.4, 0.0, 0.2])
    got = integrate_flow(replaced, z0, 3.0, 0.01, method=method)
    want = integrate_flow(target, z0, 3.0, 0.01, method=method)
    assert got.z.tobytes() == want.z.tobytes() and got.X.tobytes() == want.X.tobytes()
    assert got.z.tobytes() != integrate_flow(base, z0, 3.0, 0.01, method=method).z.tobytes()


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
    # a vf_jacobian or d_t call counts the states it evaluates: one per row of
    # a (B, d) stack of states or a stack of (..., n) positions, one for a
    # single state; a missing vf_jacobian stays missing
    calls = dict.fromkeys(("grad_p", "grad_q", "d_t", "vf_jacobian"), 0)

    def counted(name):
        fn = getattr(sys, name)
        stacked = name in ("d_t", "vf_jacobian")

        def wrapper(*args):
            calls[name] += args[0][..., 0].size if stacked else 1
            return fn(*args)

        return wrapper

    wrapped = {name: counted(name) for name in calls if getattr(sys, name) is not None}
    return dataclasses.replace(sys, **wrapped), calls


@pytest.mark.parametrize(
    "method, with_variational, expected",
    [
        # 4 field and 4 Jacobian evaluations per step; the field at each new
        # state is both the stored sample and the next step's first stage
        ("rk4", True, {"grad_p": 401, "grad_q": 401, "d_t": 401, "vf_jacobian": 400}),
        # per step a drift, the sample's v, one half kick shared with the next
        # step and one Jacobian; plus the opening sample and Jacobian
        ("leapfrog", True, {"grad_p": 201, "grad_q": 101, "d_t": 101, "vf_jacobian": 101}),
        # the state pass alone makes the same field evaluations and no Jacobian
        ("rk4", False, {"grad_p": 401, "grad_q": 401, "d_t": 401, "vf_jacobian": 0}),
        ("leapfrog", False, {"grad_p": 201, "grad_q": 101, "d_t": 101, "vf_jacobian": 0}),
    ],
)
def test_evaluations_per_100_steps(method, with_variational, expected):
    sys, calls = _counting(builtin_system("driven_oscillator", n=2))
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.5, 0.1, 0.0, 0.0]), 0.1, 1e-3,
                          method=method, with_variational=with_variational, jac_every=1)
    assert traj.n_samples == 101
    assert calls == expected


@pytest.mark.parametrize("method", ["rk4", "leapfrog"])
def test_a_system_without_vf_jacobian_is_refused_before_any_field_call(method):
    # the field Jacobian is exact or refused: neither the variational flow nor
    # field_jacobian differentiates the field numerically
    preset = builtin_system("driven_oscillator", n=2)
    sys, calls = _counting(dataclasses.replace(preset, vf_jacobian=None))
    z0 = np.array([1.0, 0.0, 0.5, 0.1, 0.0, 0.0])
    message = "^system has no vf_jacobian; the field Jacobian is not taken numerically$"
    with pytest.raises(ValueError, match=message) as info:
        integrate_flow(sys, z0, 0.1, 1e-3, method=method, with_variational=True)
    assert type(info.value) is ValueError
    with pytest.raises(ValueError, match=message):
        field_jacobian(sys, z0)
    assert calls == dict.fromkeys(calls, 0)
    # without the Jacobian the same system flows as the preset does, bit for bit
    got = integrate_flow(sys, z0, 0.1, 1e-3, method=method)
    want = integrate_flow(preset, z0, 0.1, 1e-3, method=method)
    assert got.zX.tobytes() == want.zX.tobytes()


def test_trajectory_accessors():
    traj = integrate_flow(_ho(), np.array([1.0, 0.5, 0.2, 0.0]), 1.0, 0.1)
    assert traj.q.shape == (traj.n_samples, 1)
    assert traj.p.shape == (traj.n_samples, 1)
    assert np.all(np.diff(traj.t) > 0)
    z = traj.z[3]
    assert z[-1] == traj.t[3] and z[-2] == traj.eps[3]
    assert z[0] == traj.q[3, 0] and z[1] == traj.p[3, 0]
    # the samples are views of the two stored arrays, not copies
    for view, base in ((traj.v, traj.X), (traj.f, traj.X), (traj.r, traj.X), (traj.t, traj.z)):
        assert np.shares_memory(view, base)


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
    assert traj.t[150] == 1.5
    z = np.array([0.0, 0.0, 0.0, 1.5])
    xi, pi = rho(z)[:2]
    assert abs(xi - 3.0) < 1e-9  # xi(t) = p0 t
    assert abs(pi) < 1e-12
    assert np.array_equal(rho_jacobian(rho, z)[:2, -1], traj.X[150, :2])  # (xi_dot, pi_dot) = (v, f)


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
    J = rho_jacobian(rho, z)
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
        rho(np.array([0.0, 0.0, 0.0, -0.5]))
    with pytest.raises(ValueError):
        rho.as_map().jacobian(np.array([0.0, 0.0, 0.0, -0.5]))


def test_make_rho_needs_samples():
    sys = _ho()
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, 0.0]), 0.2, 0.1)
    with pytest.raises(ValueError):
        make_rho(traj, sys)


def test_make_rho_copies_only_the_time_grid():
    # the table is a view of the trajectory's samples; the time grid, which
    # searchsorted needs contiguous, is the one float per sample copied
    sys = _ho()
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, 0.0]), 20.0, 1e-3)
    assert traj.n_samples == 20_001
    tracemalloc.start()
    try:
        rho = make_rho(traj, sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * traj.n_samples + 4096
    assert np.shares_memory(rho.table, traj.zX)


def test_write_csv_in_blocks_matches_one_shot_formatting(tmp_path):
    # the free particle keeps its signed zeros: q2 = 0.0 and p1 = -0.0 stay
    # put, and so do the v and f columns they give
    sys = builtin_system("free_particle", n=2)
    traj = integrate_flow(sys, np.array([1.0, -0.0, 0.0, 0.5, 0.0, 0.0]), 2.5, 1e-3)
    assert traj.n_samples > 2 * _CSV_BLOCK + 1
    path = tmp_path / "traj.csv"
    write_csv(traj, path)
    body = np.column_stack([traj.t, traj.q, traj.p, traj.eps, traj.t, traj.v, traj.f, traj.r])
    row = ",".join(["%.17g"] * body.shape[1]) + "\n"
    lines = path.read_bytes().split(b"\n", 1)
    assert lines[1] == "".join(row % tuple(values) for values in body.tolist()).encode()
    assert b",-0," in lines[1] and b",0," in lines[1]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("samples", [_CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 2 * _CSV_BLOCK + 7])
def test_write_csv_matches_row_by_row_formatting(tmp_path, samples, n):
    # sample counts on either side of a block boundary; the free particle keeps
    # its -0.0 entries, q1 = -0.0 under p1 = -0.0, and eps = -0.0 under no power
    z0 = np.array([-0.0, -0.0] + [0.5, 0.1] * (n - 1) + [-0.0, 0.25])
    traj = integrate_flow(builtin_system("free_particle", n=n), z0, 0.25 + (samples - 1) / 64, 1 / 64)
    assert traj.n_samples == samples
    path = tmp_path / "traj.csv"
    write_csv(traj, path)
    header, body = path.read_bytes().split(b"\n", 1)
    assert header.count(b",") == 4 * n + 3
    want = []
    for k in range(samples):
        row = [traj.t[k], *traj.q[k], *traj.p[k], traj.eps[k], traj.t[k], *traj.v[k], *traj.f[k], traj.r[k]]
        want.append(",".join("%.17g" % x for x in row) + "\n")
    assert body == "".join(want).encode()
    assert b"-0," in body
