"""Hamiltonian systems H(q, p, t) with analytic gradients.

A HamiltonianSystem bundles the scalar value with its gradients and the
time derivative; the built-in catalog covers the standard test systems
(free particle, harmonic oscillator, constant force, driven oscillator),
each with an analytic field Jacobian for the variational flow.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .forms import Dimension, as_dimension


@dataclass(frozen=True)
class HamiltonianSystem:
    """Evaluable H(q, p, t) with gradients and structure flags.

    value, grad_q, grad_p, d_t all take (q, p, t) with q, p arrays of
    length n, and must not modify them.  separable means H = T(p) + V(q, t),
    so grad_q and d_t ignore p and grad_p ignores q and t; leapfrog relies
    on this to reuse one half kick's force and power for the next.
    autonomous means d_t == 0 identically.  vf_jacobian, when supplied,
    evaluates the (2n+2)-dimensional Jacobian of the extended vector field
    at a flat state vector; the integrator falls back to central
    differences without it.
    """

    n: Dimension
    value: object
    grad_q: object
    grad_p: object
    d_t: object
    separable: bool = True
    autonomous: bool = True
    vf_jacobian: object = None
    name: str = ""
    params: dict = dc_field(default_factory=dict)


def _require(params, allowed, name):
    unknown = set(params) - set(allowed)
    if unknown:
        raise ValueError(f"unknown parameters for {name}: {sorted(unknown)}")
    out = dict(allowed)
    out.update(params)
    for key, val in out.items():
        if not math.isfinite(val):
            raise ValueError(f"{key} must be finite, got {val}")
    m, om = out.get("mass", 1.0), out.get("frequency", 1.0)
    if not m > 0:
        raise ValueError(f"mass must be positive, got {m}")
    if not om > 0:
        raise ValueError(f"frequency must be positive, got {om}")
    # the field and its Jacobian scale with 1/m and m om^2
    if not math.isfinite(1.0 / m):
        raise ValueError(f"1/mass overflows, mass {m}")
    if not math.isfinite(m * om * om):
        raise ValueError(f"mass * frequency^2 overflows, mass {m}, frequency {om}")
    return out


def _quadratic_jacobian(n, m, om=0.0):
    """Field Jacobian of |p|^2/2m + m om^2 |q|^2/2, the constant part of every builtin's."""
    k = n.reduced
    A = np.zeros((k + 2, k + 2))
    A[0:k:2, 1:k:2] = np.eye(n.n) / m
    if om:
        A[1:k:2, 0:k:2] = -m * om * om * np.eye(n.n)
    return A


def _free_particle(n, **params):
    p_ = _require(params, {"mass": 1.0}, "free_particle")
    m = p_["mass"]
    A = _quadratic_jacobian(n, m)

    return HamiltonianSystem(
        n=n,
        value=lambda q, p, t: 0.5 * float(p @ p) / m,
        grad_q=lambda q, p, t: np.zeros(n.n),
        grad_p=lambda q, p, t: p / m,
        d_t=lambda q, p, t: 0.0,
        separable=True,
        autonomous=True,
        vf_jacobian=lambda z: A.copy(),
        name="free_particle",
        params=p_,
    )


def _harmonic_oscillator(n, **params):
    p_ = _require(params, {"mass": 1.0, "frequency": 1.0}, "harmonic_oscillator")
    m, om = p_["mass"], p_["frequency"]
    A = _quadratic_jacobian(n, m, om)

    return HamiltonianSystem(
        n=n,
        value=lambda q, p, t: 0.5 * float(p @ p) / m + 0.5 * m * om * om * float(q @ q),
        grad_q=lambda q, p, t: m * om * om * q,
        grad_p=lambda q, p, t: p / m,
        d_t=lambda q, p, t: 0.0,
        separable=True,
        autonomous=True,
        vf_jacobian=lambda z: A.copy(),
        name="harmonic_oscillator",
        params=p_,
    )


def _constant_force(n, **params):
    p_ = _require(params, {"mass": 1.0, "g": 1.0}, "constant_force")
    m, g = p_["mass"], p_["g"]
    A = _quadratic_jacobian(n, m)

    return HamiltonianSystem(
        n=n,
        value=lambda q, p, t: 0.5 * float(p @ p) / m + g * float(q.sum()),
        grad_q=lambda q, p, t: g * np.ones(n.n),
        grad_p=lambda q, p, t: p / m,
        d_t=lambda q, p, t: 0.0,
        separable=True,
        autonomous=True,
        vf_jacobian=lambda z: A.copy(),
        name="constant_force",
        params=p_,
    )


def _driven_oscillator(n, **params):
    p_ = _require(
        params,
        {"mass": 1.0, "frequency": 1.0, "amplitude": 0.3, "drive_frequency": 2.0},
        "driven_oscillator",
    )
    m, om, amp, wd = p_["mass"], p_["frequency"], p_["amplitude"], p_["drive_frequency"]
    k = n.reduced
    A0 = _quadratic_jacobian(n, m, om)

    def value(q, p, t):
        return (
            0.5 * float(p @ p) / m
            + 0.5 * m * om * om * float(q @ q)
            + amp * float(q.sum()) * np.cos(wd * t)
        )

    def vf_jac(z):
        t = z[-1]
        A = A0.copy()
        A[1:k:2, -1] = amp * wd * np.sin(wd * t)
        A[k, 0:k:2] = -amp * wd * np.sin(wd * t)
        A[k, -1] = -amp * wd * wd * float(z[0:k:2].sum()) * np.cos(wd * t)
        return A

    return HamiltonianSystem(
        n=n,
        value=value,
        grad_q=lambda q, p, t: m * om * om * q + amp * np.cos(wd * t),
        grad_p=lambda q, p, t: p / m,
        d_t=lambda q, p, t: -amp * wd * float(q.sum()) * np.sin(wd * t),
        separable=True,
        autonomous=False,
        vf_jacobian=vf_jac,
        name="driven_oscillator",
        params=p_,
    )


BUILTIN_SYSTEMS = {
    "free_particle": _free_particle,
    "harmonic_oscillator": _harmonic_oscillator,
    "constant_force": _constant_force,
    "driven_oscillator": _driven_oscillator,
}


def builtin_system(name, n=1, **params):
    """Look up a built-in system by name.

    Parameters
    ----------
    name : str
        One of free_particle, harmonic_oscillator, constant_force,
        driven_oscillator.
    n : int or Dimension
        Degrees of freedom.
    **params
        System parameters (mass, frequency, amplitude, drive_frequency, g);
        only the ones the named system actually has are accepted.
    """
    if name not in BUILTIN_SYSTEMS:
        raise ValueError(f"unknown system {name!r}; available: {sorted(BUILTIN_SYSTEMS)}")
    return BUILTIN_SYSTEMS[name](as_dimension(n), **params)
