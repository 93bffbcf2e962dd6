import numpy as np
import pytest

from jacobiflow import BUILTIN_SYSTEMS, builtin_system
from jacobiflow.dynamics import _fd_field_jacobian, field_jacobian

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
        assert sys.autonomous == (name != "driven_oscillator")


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
            A_fd = _fd_field_jacobian(sys, z)
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
