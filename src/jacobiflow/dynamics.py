"""Flows of extended Hamiltonian systems.

The extended vector field is (v, f, r, 1) with v = dH/dp, f = -dH/dq,
r = dH/dt: positions and momenta follow Hamilton's equations, the energy
coordinate integrates the power, and time advances at unit rate.  Time is
never integrated numerically: the t component of every stored state is
computed as t0 + k*dt, which keeps the time metric invariant by
construction.

`integrate_flow` optionally propagates the variational Jacobian: the tangent
of the step the method actually took, built from the field Jacobian A at the
step's own stages (RK4 applies its stages to J' = A J; leapfrog multiplies
the tangents of its kick, drift and kick).  A's time row is identically zero
and its energy column is identically zero, so J keeps an exact
(0, ..., 0, 1) time row and e_eps energy column.  The step loop takes the
symplectic and time-metric residual of every J as it goes, in stacked passes
over a buffer of `_RESIDUAL_CHUNK` Jacobians, and keeps only every
`jac_every`-th J and the last one; the certification layer factors those
into the matrix group.  The full (steps + 1, d, d) stack is never stored.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .forms import Dimension, MapHandle, default_step, eta_residual, zeta_residual

# Jacobians per stacked residual pass in the step loop: bounds the buffer and
# the pass's temporaries to a few (chunk, d, d) arrays however long the flow
_RESIDUAL_CHUNK = 256


def _as_state(z):
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or len(z) < 4 or len(z) % 2:
        raise ValueError(f"expected a state vector of even length >= 4, got shape {z.shape}")
    return z.copy()


def _split(z):
    k = len(z) - 2
    return z[0:k:2], z[1:k:2], z[-2], z[-1]


def _field(sys, z):
    """Field (v, f, r, 1) at a state vector that is already validated."""
    k = len(z) - 2
    q, p, t = z[0:k:2], z[1:k:2], z[-1]
    X = np.empty(k + 2)
    X[0:k:2] = sys.grad_p(q, p, t)
    np.negative(sys.grad_q(q, p, t), out=X[1:k:2])
    X[-2] = sys.d_t(q, p, t)
    X[-1] = 1.0
    return X


def extended_vector_field(sys, z):
    """Field (v, f, r, 1) at z, in canonical ordering."""
    X = _field(sys, _as_state(z))
    if not np.all(np.isfinite(X)):
        raise ValueError("Hamiltonian gradients evaluated to non-finite values")
    return X


def _jacobian(sys, z):
    if sys.vf_jacobian is not None:
        return np.asarray(sys.vf_jacobian(z), dtype=float)
    return _fd_field_jacobian(sys, z)


def field_jacobian(sys, z):
    """Jacobian A = dX/dz of the extended field: analytic if the system has one."""
    return _jacobian(sys, _as_state(z))


def _fd_field_jacobian(sys, z):
    h = default_step(z)
    d = len(z)
    A = np.empty((d, d))
    for c in range(d):
        e = np.zeros(d)
        e[c] = h
        A[:, c] = (extended_vector_field(sys, z + e) - extended_vector_field(sys, z - e)) / (2 * h)
    return A


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow with pointwise (v, f, r) and optional variational Jacobians.

    tau equals the time column of z bitwise (the flow parameter is time).
    With the variational Jacobian, `jac` holds the kept Jacobians, those at
    the sample indices `jac_steps` (every `jac_every`-th sample and the last
    one), and `jac_omega`/`jac_lambda` hold the symplectic and time-metric
    residual of the Jacobian at every sample.  Without it all four are None.
    """

    tau: np.ndarray
    z: np.ndarray
    v: np.ndarray
    f: np.ndarray
    r: np.ndarray
    dt: float
    method: str
    n: Dimension
    jac: np.ndarray = None
    jac_steps: np.ndarray = None
    jac_omega: np.ndarray = None
    jac_lambda: np.ndarray = None

    @property
    def q(self):
        return self.z[:, 0 : self.n.reduced : 2]

    @property
    def p(self):
        return self.z[:, 1 : self.n.reduced : 2]

    @property
    def eps(self):
        return self.z[:, -2]

    @property
    def t(self):
        return self.z[:, -1]

    @property
    def n_samples(self):
        return self.z.shape[0]


def step_count(t0, t_end, dt):
    """Number of steps `integrate_flow` takes: round((t_end - t0)/dt), at least 1."""
    ratio = (t_end - t0) / dt
    if not math.isfinite(ratio):
        raise ValueError(f"step count (t_end - t0)/dt = {ratio} is not finite")
    return max(1, round(ratio))


def integrate_flow(sys, z0, t_end, dt, method="rk4", with_variational=False, jac_every=10):
    """Integrate the extended flow from z0 up to t_end.

    Parameters
    ----------
    sys : HamiltonianSystem
    z0 : array
        Initial state vector, finite; its time component is the start time.
    t_end : float
        Final time; the step count is `step_count(t0, t_end, dt)` and the
        actual step is (t_end - t0)/n_steps (recorded on the trajectory).
    dt : float
        Requested step, > 0.
    method : {"rk4", "leapfrog"}
        Leapfrog requires a separable system.
    with_variational : bool
        Also propagate the Jacobian J of the flow map (J0 = identity): the
        tangent of each step the method took.  The symplectic and
        time-metric residual of J are recorded at every sample
        (`jac_omega`, `jac_lambda`); J itself is kept at the samples
        `jac_steps`.
    jac_every : int
        Keep J at samples 0, jac_every, 2 jac_every, ... and at the last
        sample, >= 1.  jac_every=1 keeps every J.

    Returns
    -------
    Trajectory

    Raises ValueError on bad input, and on a non-finite state or field
    sample along the flow.
    """
    z = _as_state(z0)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"initial state must be finite, got {z.tolist()}")
    t0 = z[-1]
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not t_end > t0:
        raise ValueError(f"t_end ({t_end}) must exceed the initial time ({t0})")
    method = method.lower()
    if method not in ("rk4", "leapfrog"):
        raise ValueError(f"unknown method {method!r}")
    if method == "leapfrog" and not sys.separable:
        raise ValueError("leapfrog requires a separable system")
    if 2 * sys.n.n + 2 != len(z):
        raise ValueError(f"state length {len(z)} does not match system n={sys.n.n}")
    if with_variational and not (isinstance(jac_every, (int, np.integer)) and jac_every >= 1):
        raise ValueError(f"jac_every must be an integer >= 1, got {jac_every!r}")

    n_steps = step_count(t0, t_end, dt)
    dt = (t_end - t0) / n_steps
    d = len(z)
    k = d - 2
    X = _field(sys, z)
    if not np.isfinite(X).all():
        raise ValueError("Hamiltonian gradients evaluated to non-finite values at the initial state")
    Z = np.empty((n_steps + 1, d))
    XS = np.empty((n_steps + 1, d))  # field samples (v, f, r, 1) at each Z row
    Z[0] = z
    XS[0] = X
    J = jac_steps = Js = res_o = res_l = None
    if with_variational:
        jac_steps = np.union1d(np.arange(0, n_steps + 1, jac_every), [n_steps])
        Js = np.empty((len(jac_steps), d, d))
        res_o = np.empty(n_steps + 1)
        res_l = np.empty(n_steps + 1)
        buf = np.empty((min(_RESIDUAL_CHUNK, n_steps + 1), d, d))

        def record(s, J):
            # J at sample s: buffered for the residual pass, kept if on the stride
            b = s % _RESIDUAL_CHUNK
            buf[b] = J
            if s % jac_every == 0:
                Js[s // jac_every] = J
            elif s == n_steps:
                Js[-1] = J
            if b == _RESIDUAL_CHUNK - 1 or s == n_steps:
                res_o[s - b : s + 1] = zeta_residual(buf[: b + 1])
                res_l[s - b : s + 1] = eta_residual(buf[: b + 1])

        J = np.eye(d)
        record(0, J)
    h = 0.5 * dt
    w = dt / 6.0
    if method == "leapfrog" and with_variational:
        # the tangent of kick-drift-kick is K2 D K1 with K = I + h A on the
        # (p, eps) rows and D = I + dt A on the q rows
        kick_rows = np.zeros((d, 1))
        kick_rows[1:k:2] = h
        kick_rows[k] = h
        drift_rows = np.zeros((d, 1))
        drift_rows[0:k:2] = dt
        A = _jacobian(sys, z)
    for i in range(n_steps):
        z = Z[i]
        t1 = t0 + (i + 1) * dt
        if method == "rk4":
            # X, the field at z, is both the stored sample and K1
            z2 = z + h * X
            K2 = _field(sys, z2)
            z3 = z + h * K2
            K3 = _field(sys, z3)
            z4 = z + dt * K3
            K4 = _field(sys, z4)
            zn = z + w * (X + 2.0 * K2 + 2.0 * K3 + K4)
            zn[-1] = t1
            if with_variational:
                L1 = _jacobian(sys, z) @ J
                L2 = _jacobian(sys, z2) @ (J + h * L1)
                L3 = _jacobian(sys, z3) @ (J + h * L2)
                L4 = _jacobian(sys, z4) @ (J + dt * L3)
                J = J + w * (L1 + 2.0 * L2 + 2.0 * L3 + L4)
            X = _field(sys, zn)
        else:
            # separable: grad_q and d_t ignore p, so the force and power of the
            # stored sample at z give the opening half kick, and those of the
            # closing half kick give the sample at the new state
            p_h = z[1:k:2] + h * X[1:k:2]
            eps_h = z[-2] + h * X[-2]
            zn = np.empty(d)
            X = np.empty(d)
            zn[0:k:2] = z[0:k:2] + dt * np.asarray(sys.grad_p(z[0:k:2], p_h, z[-1]), dtype=float)
            q1 = zn[0:k:2]
            np.negative(sys.grad_q(q1, p_h, t1), out=X[1:k:2])
            X[-2] = sys.d_t(q1, p_h, t1)
            zn[1:k:2] = p_h + h * X[1:k:2]
            zn[-2] = eps_h + h * X[-2]
            zn[-1] = t1
            X[0:k:2] = sys.grad_p(q1, zn[1:k:2], t1)
            X[-1] = 1.0
            if with_variational:
                # A at (q1, p_h, t1) gives D, the closing kick and the next opening kick
                zh = zn.copy()
                zh[1:k:2] = p_h
                A_open, A = A, _jacobian(sys, zh)
                J = J + kick_rows * (A_open @ J)
                J = J + drift_rows * (A @ J)
                J = J + kick_rows * (A @ J)
        if not (np.isfinite(zn).all() and np.isfinite(X).all()):
            raise ValueError(
                f"flow blew up: non-finite state or field at step {i + 1} (last valid step {i})"
            )
        Z[i + 1] = zn
        XS[i + 1] = X
        if with_variational:
            record(i + 1, J)
    return Trajectory(
        tau=Z[:, -1].copy(),
        z=Z,
        v=XS[:, 0:k:2].copy(),
        f=XS[:, 1:k:2].copy(),
        r=XS[:, -2].copy(),
        dt=dt,
        method=method,
        n=sys.n,
        jac=Js,
        jac_steps=jac_steps,
        jac_omega=res_o,
        jac_lambda=res_l,
    )


def write_csv(traj, path):
    """Trajectory CSV: tau, q1..qn, p1..pn, eps, t, v1..vn, f1..fn, r at 17 significant digits."""
    nn = traj.n.n
    cols = (
        ["tau"]
        + [f"q{i + 1}" for i in range(nn)]
        + [f"p{i + 1}" for i in range(nn)]
        + ["eps", "t"]
        + [f"v{i + 1}" for i in range(nn)]
        + [f"f{i + 1}" for i in range(nn)]
        + ["r"]
    )
    body = np.column_stack(
        [traj.tau, traj.q, traj.p, traj.eps, traj.t, traj.v, traj.f, traj.r]
    )
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(row % tuple(values) for values in body.tolist())


@dataclass(frozen=True)
class RhoTransform:
    """Shift transform built from one reference trajectory.

    Maps (q, p, eps, t) to (q + xi(t), p + pi(t), eps + H(q, p, t), t), where
    (xi, pi) is the reference trajectory's displacement from its initial
    (q, p).  The displacement is the cubic Hermite interpolant of the stored
    samples: at every sample time it equals the stored (q, p) and its rate
    (xi_dot, pi_dot) equals the stored field (v, f), so the transform is exact
    at the samples up to both ends of the table.  Defined for t inside the
    tabulated range only.
    """

    sys: object
    tk: np.ndarray  # sample times, increasing
    table: np.ndarray  # (samples, 2, 2n): interleaved (q, p) and its rate (v, f)
    n: Dimension = dc_field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", self.sys.n)

    def _check_t(self, t):
        t0, t1 = self.tk[0], self.tk[-1]
        if not (t0 <= t <= t1):
            raise ValueError(f"t={t} outside the tabulated range [{t0}, {t1}]")

    def _shift(self, t):
        """Interleaved (xi, pi) at t."""
        return self._hermite(t, 0) - self.table[0, 0]

    def _hermite(self, t, order):
        """Interleaved (q, p) of the table (order 0) or its rate (order 1) at t."""
        # the basis weights are written so that at s = 0 and s = 1 every weight
        # but one is an exact zero: the nodes reproduce the table bitwise
        self._check_t(t)
        tk = self.tk
        i = min(max(int(np.searchsorted(tk, t, side="right")) - 1, 0), len(tk) - 2)
        h = tk[i + 1] - tk[i]
        s = (t - tk[i]) / h
        if order == 0:
            w = ((2.0 * s - 3.0) * s * s + 1.0, h * ((s - 2.0) * s + 1.0) * s,
                 (3.0 - 2.0 * s) * s * s, h * (s - 1.0) * s * s)
        else:
            w = (6.0 * (s - 1.0) * s / h, (3.0 * s - 4.0) * s + 1.0,
                 6.0 * (1.0 - s) * s / h, (3.0 * s - 2.0) * s)
        return np.dot(w, self.table[i : i + 2].reshape(4, -1))

    def xi(self, t):
        return self._shift(t)[0::2]

    def pi(self, t):
        return self._shift(t)[1::2]

    def xi_dot(self, t):
        return self._hermite(t, 1)[0::2]

    def pi_dot(self, t):
        return self._hermite(t, 1)[1::2]

    def __call__(self, z):
        z = _as_state(z)
        q, p, eps, t = _split(z)
        zt = z.copy()
        k = len(z) - 2
        zt[:k] = z[:k] + self._shift(t)
        zt[-2] = eps + float(self.sys.value(q, p, t))
        return zt

    def jacobian(self, z):
        """Analytic Jacobian: identity block, gradient row, shift-rate column."""
        z = _as_state(z)
        q, p, _, t = _split(z)
        d = len(z)
        k = d - 2
        J = np.eye(d)
        J[:k, -1] = self._hermite(t, 1)
        J[k, 0:k:2] = np.asarray(self.sys.grad_q(q, p, t), dtype=float)
        J[k, 1:k:2] = np.asarray(self.sys.grad_p(q, p, t), dtype=float)
        J[k, -1] = float(self.sys.d_t(q, p, t))
        return J

    def as_map(self):
        # certification goes through finite differences on purpose, so the
        # handle carries no analytic Jacobian
        return MapHandle(func=self.__call__, n=self.n, name="rho")


def make_rho(traj, sys):
    """Build the shift transform from a trajectory of sys.

    The interpolation table is the trajectory's own interleaved (q, p)
    samples with the stored field (v, f) as their rates; nothing is fitted.
    """
    if traj.n_samples < 4:
        raise ValueError(
            f"need at least 4 samples to build the shift transform, got {traj.n_samples}"
        )
    k = traj.n.reduced
    table = np.empty((traj.n_samples, 2, k))
    table[:, 0] = traj.z[:, :k]
    table[:, 1, 0::2] = traj.v
    table[:, 1, 1::2] = traj.f
    return RhoTransform(sys=sys, tk=traj.t.copy(), table=table)
