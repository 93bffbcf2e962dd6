"""Hamiltonian systems H(q, p, t) with analytic gradients.

A HamiltonianSystem bundles the scalar value with its gradients and the
time derivative.  Every built-in system is one family,
H = |p|^2/2m + m om^2 |q|^2/2 + (g + A cos om_d t) sum(q), with an analytic
field Jacobian for the variational flow; the catalog names (free particle,
harmonic oscillator, constant force, driven oscillator) are presets that
switch its terms on and give their parameter defaults.
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
    # the field and its Jacobian scale with 1/m and m om^2, and a drive's
    # power and Jacobian with A om_d and A om_d^2
    if not math.isfinite(1.0 / m):
        raise ValueError(f"1/mass overflows, mass {m}")
    if not math.isfinite(m * om * om):
        raise ValueError(f"mass * frequency^2 overflows, mass {m}, frequency {om}")
    amp, wd = out.get("amplitude", 0.0), out.get("drive_frequency", 0.0)
    if not (math.isfinite(amp * wd) and math.isfinite(amp * wd * wd)):
        raise ValueError(
            f"amplitude * drive_frequency or its product with drive_frequency overflows,"
            f" amplitude {amp}, drive_frequency {wd}"
        )
    return out


def _family(name, n, params):
    """H = |p|^2/2m + m om^2 |q|^2/2 + (g + A cos om_d t) sum(q), with only the present terms.

    A term is present when its parameters are: the spring with `frequency`,
    the constant force with `g`, the drive with `amplitude` and
    `drive_frequency`.  An absent term is left out, not added as zero,
    because a zero term still changes bits: a zero drive gives an undriven
    system the power -0 om_d sum(q) sin(om_d t), often -0.0 where its power
    is 0.0.  For the same reason each term keeps one evaluation order; the
    drive's value is (A sum(q)) cos(om_d t), not (g + A cos(om_d t)) sum(q).
    """
    m = params["mass"]
    om, g = params.get("frequency"), params.get("g")
    amp, wd = params.get("amplitude"), params.get("drive_frequency")
    k = n.reduced
    A0 = np.zeros((k + 2, k + 2))
    A0[0:k:2, 1:k:2] = np.eye(n.n) / m
    if om is not None:
        spring = m * om * om
        A0[1:k:2, 0:k:2] = -spring * np.eye(n.n)

    def value(q, p, t):
        h = 0.5 * float(p @ p) / m
        if om is not None:
            h = h + 0.5 * m * om * om * float(q @ q)
        if g is not None:
            h = h + g * float(q.sum())
        if amp is not None:
            h = h + amp * float(q.sum()) * np.cos(wd * t)
        return h

    def grad_q(q, p, t):
        u = g  # the uniform force g + A cos(om_d t), None with neither term
        if amp is not None:
            drive = amp * np.cos(wd * t)
            u = drive if u is None else u + drive
        if om is None:
            return np.zeros(n.n) if u is None else u * np.ones(n.n)
        return spring * q if u is None else spring * q + u

    def d_t(q, p, t):
        return 0.0 if amp is None else -amp * wd * float(q.sum()) * np.sin(wd * t)

    def vf_jacobian(z):
        A = A0.copy()
        if amp is not None:
            t = z[-1]
            A[1:k:2, -1] = amp * wd * np.sin(wd * t)
            A[k, 0:k:2] = -amp * wd * np.sin(wd * t)
            A[k, -1] = -amp * wd * wd * float(z[0:k:2].sum()) * np.cos(wd * t)
        return A

    return HamiltonianSystem(
        n=n,
        value=value,
        grad_q=grad_q,
        grad_p=lambda q, p, t: p / m,
        d_t=d_t,
        separable=True,
        autonomous=amp is None,
        vf_jacobian=vf_jacobian,
        name=name,
        params=params,
    )


# catalog name -> the parameters the preset accepts, with their defaults
BUILTIN_SYSTEMS = {
    "free_particle": {"mass": 1.0},
    "harmonic_oscillator": {"mass": 1.0, "frequency": 1.0},
    "constant_force": {"mass": 1.0, "g": 1.0},
    "driven_oscillator": {"mass": 1.0, "frequency": 1.0, "amplitude": 0.3, "drive_frequency": 2.0},
}


def builtin_system(name, n=1, **params):
    """Look up a built-in system by name.

    Parameters
    ----------
    name : str
        One of free_particle, harmonic_oscillator, constant_force,
        driven_oscillator: presets of one Hamiltonian family,
        |p|^2/2m + m om^2 |q|^2/2 + (g + A cos om_d t) sum(q), each with
        only the terms whose parameters it takes.
    n : int or Dimension
        Degrees of freedom.
    **params
        System parameters (mass, frequency, amplitude, drive_frequency, g);
        only the ones the named preset has are accepted.
    """
    if name not in BUILTIN_SYSTEMS:
        raise ValueError(f"unknown system {name!r}; available: {sorted(BUILTIN_SYSTEMS)}")
    return _family(name, as_dimension(n), _require(params, BUILTIN_SYSTEMS[name], name))
