import math

import numpy as np
import pytest

from jacobiflow import BUILTIN_SYSTEMS, builtin_system, numeric_jacobian
from jacobiflow.dynamics import extended_vector_field, field_jacobian

NAMES = ("free_particle", "harmonic_oscillator", "constant_force", "driven_oscillator")


def test_catalog():
    assert set(BUILTIN_SYSTEMS) == set(NAMES)
    with pytest.raises(ValueError):
        builtin_system("pendulum")


def test_bad_params():
    with pytest.raises(ValueError):
        builtin_system("free_particle", mass=-1.0)
    with pytest.raises(ValueError):
        builtin_system("free_particle", frequency=2.0)
    with pytest.raises(ValueError):
        builtin_system("harmonic_oscillator", frequency=0.0)


def test_flags():
    for name in NAMES:
        sys = builtin_system(name)
        assert sys.separable


def test_defaults():
    drv = builtin_system("driven_oscillator")
    assert drv.params["mass"] == 1.0
    assert drv.params["frequency"] == 1.0
    assert drv.params["amplitude"] == 0.3
    assert drv.params["drive_frequency"] == 2.0


def _central(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    for name in NAMES:
        for n in (1, 2):
            sys = builtin_system(name, n=n, mass=1.3)
            for _ in range(5):
                q = rng.uniform(-2, 2, n)
                p = rng.uniform(-2, 2, n)
                t = rng.uniform(0, 3)
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = 1.0
                    dq = _central(lambda s: sys.value(q + s * e, p, t), 0.0)
                    dp = _central(lambda s: sys.value(q, p + s * e, t), 0.0)
                    assert abs(dq - sys.grad_q(q, p, t)[i]) < 1e-6
                    assert abs(dp - sys.grad_p(q, p, t)[i]) < 1e-6
                dt_ = _central(lambda s: sys.value(q, p, t + s), 0.0)
                assert abs(dt_ - sys.d_t(q, p, t)) < 1e-6


def test_autonomous_means_no_time_derivative():
    rng = np.random.default_rng(22)
    for name in ("free_particle", "harmonic_oscillator", "constant_force"):
        sys = builtin_system(name)
        q, p = rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)
        assert sys.d_t(q, p, rng.uniform(0, 5)) == 0.0


def test_driven_time_derivative_value():
    sys = builtin_system("driven_oscillator", n=2)
    q = np.array([1.0, 1.0])
    # dH/dt = -amplitude * sum(q) * drive_frequency * sin(drive_frequency t)
    expected = -0.3 * 2.0 * 2.0 * np.sin(2.0 * 0.7)
    assert abs(sys.d_t(q, np.zeros(2), 0.7) - expected) < 1e-12


def test_driven_value():
    sys = builtin_system("driven_oscillator")
    q, p = np.array([2.0]), np.array([3.0])
    expected = 9.0 / 2.0 + 4.0 / 2.0 + 0.3 * 2.0 * np.cos(2.0 * 0.5)
    assert abs(sys.value(q, p, 0.5) - expected) < 1e-12


def test_mass_scaling():
    sys = builtin_system("free_particle", mass=2.0)
    assert np.array_equal(sys.grad_p(np.array([0.0]), np.array([3.0]), 0.0), [1.5])


def test_constant_force_gradient():
    sys = builtin_system("constant_force", g=2.5)
    assert np.array_equal(sys.grad_q(np.array([0.7]), np.array([0.0]), 0.0), [2.5])


def test_analytic_field_jacobian_matches_fd():
    rng = np.random.default_rng(23)
    for name in NAMES:
        for n in (1, 2):
            sys = builtin_system(name, n=n)
            assert sys.vf_jacobian is not None
            z = rng.uniform(-2, 2, 2 * n + 2)
            A = field_jacobian(sys, z)
            A_fd = numeric_jacobian(lambda w: extended_vector_field(sys, w), z)
            assert np.max(np.abs(A - A_fd)) < 1e-5
            # the time row and energy column vanish identically
            assert np.all(A[-1] == 0.0)
            assert np.all(A[:, -2] == 0.0)


def _spring_jacobian(n, m, om=0.0):
    k = 2 * n
    A = np.zeros((k + 2, k + 2))
    A[0:k:2, 1:k:2] = np.eye(n) / m
    if om:
        A[1:k:2, 0:k:2] = -m * om * om * np.eye(n)
    return A


def _driven_jacobian(z, m, om, amp, wd):
    k, t = len(z) - 2, z[-1]
    A = _spring_jacobian(k // 2, m, om)
    A[1:k:2, -1] = amp * wd * np.sin(wd * t)
    A[k, 0:k:2] = -amp * wd * np.sin(wd * t)
    A[k, -1] = -amp * wd * wd * float(z[0:k:2].sum()) * np.cos(wd * t)
    return A


# reference (value, grad_q, d_t, vf_jacobian) of each preset, written in the
# evaluation order that the output bytes depend on; grad_p is p / m for all
REFERENCE = {
    "free_particle": lambda m: (
        lambda q, p, t: 0.5 * float(p @ p) / m,
        lambda q, p, t: np.zeros(len(q)),
        lambda q, p, t: 0.0,
        lambda z: _spring_jacobian(len(z) // 2 - 1, m),
    ),
    "harmonic_oscillator": lambda m, om: (
        lambda q, p, t: 0.5 * float(p @ p) / m + 0.5 * m * om * om * float(q @ q),
        lambda q, p, t: m * om * om * q,
        lambda q, p, t: 0.0,
        lambda z: _spring_jacobian(len(z) // 2 - 1, m, om),
    ),
    "constant_force": lambda m, g: (
        lambda q, p, t: 0.5 * float(p @ p) / m + g * float(q.sum()),
        lambda q, p, t: g * np.ones(len(q)),
        lambda q, p, t: 0.0,
        lambda z: _spring_jacobian(len(z) // 2 - 1, m),
    ),
    "driven_oscillator": lambda m, om, amp, wd: (
        lambda q, p, t: (
            0.5 * float(p @ p) / m + 0.5 * m * om * om * float(q @ q)
            + amp * float(q.sum()) * np.cos(wd * t)
        ),
        lambda q, p, t: m * om * om * q + amp * np.cos(wd * t),
        lambda q, p, t: -amp * wd * float(q.sum()) * np.sin(wd * t),
        lambda z: _driven_jacobian(z, m, om, amp, wd),
    ),
}

VARIANTS = [
    ("free_particle", {}),
    ("free_particle", {"mass": 2.5}),
    ("harmonic_oscillator", {}),
    ("harmonic_oscillator", {"mass": 0.7, "frequency": 1.9}),
    ("constant_force", {}),
    ("constant_force", {"g": 0.0}),
    ("constant_force", {"g": -0.0}),
    ("constant_force", {"mass": 2.0, "g": -1.5}),
    ("driven_oscillator", {}),
    ("driven_oscillator", {"amplitude": 0.0}),
    ("driven_oscillator", {"amplitude": -0.0}),
    ("driven_oscillator", {"drive_frequency": 0.0}),
    ("driven_oscillator", {"amplitude": 0.0, "drive_frequency": 0.0}),
    ("driven_oscillator", {"mass": 1.3, "frequency": 0.8, "amplitude": -0.6, "drive_frequency": 3.1}),
]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("name,params", VARIANTS)
def test_presets_match_the_per_system_formulas_bitwise(name, params):
    # signed zeros included: a term the preset lacks must not turn up as -0.0
    rng = np.random.default_rng(24)
    for n in (1, 3):
        sys = builtin_system(name, n=n, **params)
        value, grad_q, d_t, jac = REFERENCE[name](*sys.params.values())
        states = [rng.uniform(-2, 2, 2 * n + 2) for _ in range(16)]
        states += [np.full(2 * n + 2, -0.0), np.zeros(2 * n + 2)]
        states += [np.where(rng.uniform(size=2 * n + 2) < 0.5, -0.0, z) for z in states[:4]]
        for z in states:
            q, p, t = z[0:-2:2], z[1:-2:2], z[-1]
            assert _bits(sys.value(q, p, t)) == _bits(value(q, p, t))
            assert _bits(sys.grad_q(q, p, t)) == _bits(grad_q(q, p, t))
            assert _bits(sys.grad_p(q, p, t)) == _bits(p / sys.params["mass"])
            assert _bits(sys.d_t(q, p, t)) == _bits(d_t(q, p, t))
            assert _bits(sys.vf_jacobian(z)) == _bits(jac(z))
        # a (B, d) stack gives each row's single-state Jacobian, bit for bit
        stacked = sys.vf_jacobian(np.array(states))
        assert stacked.shape == (len(states), 2 * n + 2, 2 * n + 2)
        for z, A in zip(states, stacked):
            assert _bits(A) == _bits(sys.vf_jacobian(z))


@pytest.mark.parametrize("name,params", VARIANTS)
def test_stacked_d_t_matches_the_per_state_call_bitwise(name, params):
    # the integrator takes the power of a chunk's samples, a (B, n) stack with
    # (B,) times, and of RK4's stage states, a (3, m, n) stack, in one call each
    rng = np.random.default_rng(26)
    for n in (1, 2, 3, 16):
        sys = builtin_system(name, n=n, **params)
        Z = rng.uniform(-3.0, 3.0, (3, 20, 2 * n + 2))
        Z[0, :6] = np.where(rng.uniform(size=(6, 2 * n + 2)) < 0.5, -0.0, Z[0, :6])
        Z[1, :3], Z[1, 3:6] = -0.0, 0.0
        # B = 1 and B = 20 with signed zeros, and a (3, 20, n) stack
        for stack in (Z[0, :1], Z[0], Z[1], Z):
            q, p, t = stack[..., 0:-2:2], stack[..., 1:-2:2], stack[..., -1]
            r = np.broadcast_to(sys.d_t(q, p, t), t.shape)
            for i in np.ndindex(t.shape):
                assert _bits(r[i]) == _bits(sys.d_t(q[i], p[i], t.item(i)))
                if name == "driven_oscillator":
                    # the single-state formula with math.sin and a 1-d sum: flows
                    # stay byte-identical to those it gave only while np.sin over
                    # an array of drive phases equals math.sin of each
                    amp, wd = sys.params["amplitude"], sys.params["drive_frequency"]
                    by_math = -amp * wd * float(np.add.reduce(q[i])) * math.sin(wd * t.item(i))
                    assert _bits(r[i]) == _bits(by_math)


def test_math_trig_equals_numpy_trig_on_drive_phases():
    # the drive's grad_q takes math.cos of the scalar phase om_d t, its d_t
    # numpy's np.sin over a stack of phases, and its stacked vf_jacobian
    # numpy's batched np.cos and np.sin: the bitwise preset tests above hold
    # only while these agree with each other and with numpy's single-value call
    rng = np.random.default_rng(41)
    phases = np.concatenate([2.0 * rng.uniform(0.0, 60.0, 50_000), rng.uniform(-1e3, 1e3, 50_000)])
    for mfn, nfn in ((math.cos, np.cos), (math.sin, np.sin)):
        by_math = np.array([mfn(x) for x in phases.tolist()])
        assert by_math.tobytes() == nfn(phases).tobytes()
        assert by_math.tobytes() == np.array([nfn(x) for x in phases.tolist()]).tobytes()
