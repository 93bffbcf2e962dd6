"""Flows of extended Hamiltonian systems.

The extended vector field is (v, f, r, 1) with v = dH/dp, f = -dH/dq,
r = dH/dt: positions and momenta follow Hamilton's equations, the energy
coordinate integrates the power, and time advances at unit rate.  Time is
never integrated numerically: the t component of every stored state is
computed as t0 + k*dt, which keeps the time metric invariant by
construction; `step_count` refuses a step within the float spacing at the
flow's times, where those values would repeat.

A trajectory is one (samples, 2, 2n+2) array zX: each sample is its state z
and the field X = (v, f, r, 1) at it.  z, X, the coordinates (q, p, eps, t),
(v, f, r) and the shift transform's table are views of it.  The
first sample's field is `extended_vector_field`'s, the one-state field.

The energy eps never enters the field, so it is a quadrature of the power
along the (q, p, t) solution and is summed after the steps that produce it.
The steps run in chunks of `_STAGE_CHUNK`.  A state pass advances (q, p, t)
and the field sample (v, f) in place, in the first two rows of a fixed buffer
whose (q, p) and (v, f) views are made once per call, and copies both rows
to the step's sample at once, with numpy's floating-point warnings off.  RK4
writes each stage's (grad_p, -grad_q) into a row of a (4, 2n+2) buffer,
combines its four stages in one row sum of that buffer, and stores its three
stage states in the chunk's stage buffer; leapfrog calls grad_p and grad_q
one at a time, since its kicks and drift take v and f at different states.
The pass binds its callables once, passes every ufunc output positionally,
and has no ufunc write over its own length-1 input, which numpy charges
about twice the cost of a call without the alias.  A chunk fill then takes
the power r at the chunk's new samples, and RK4's at its stage states, in
one stacked d_t call each, and sums eps with the step's own operations in
its order, the sequential sum as one `np.add.accumulate`, so every bit is
that of a step-by-step sum.  One finiteness check over the chunk's samples,
after the fill, reports the first non-finite step as a blow-up.

`integrate_flow` optionally propagates the variational Jacobian: the tangent
of the step the method actually took, built from the field Jacobian A at the
step's own stages.  Each step's tangent is J <- J + D J, with D the step's
increment:

* RK4 applies its stages to J' = A J, which gives L2 = A2 + h A2 A1,
  L3 = A3 + h A3 L2, L4 = A4 + dt A4 L3 and D = (A1 + 2 L2 + 2 L3 + L4) dt/6,
  with h = dt/2 and A1..A4 at the stage states z, z2, z3, z4;
* leapfrog's tangent is (I + c)(I + b)(I + a) for its opening kick a, drift
  b and closing kick c, which gives u = a + b + b a and D = u + c + c u.
  The kicks are h A on the (p, eps) rows and the drift dt A on the q rows;
  A at the half-kick state (q1, p_half, t1) gives b and c, and the previous
  step's gives a.

A's time row and energy column are identically zero, hence so are D's, and
J keeps an exact (0, ..., 0, 1) time row and e_eps energy column.  Once a
chunk's state pass is checked, one call of the system's `vf_jacobian`
evaluates A at all its stage states.  They sit stage by stage in a (stages,
chunk, d) buffer, so each stage's Jacobians come back as one contiguous
(m, d, d) stack.  RK4's step loop writes its three stage states there (A
does not read their energy entries), and the chunk adds the steps' start
states from the samples.  Leapfrog's step loop
writes nothing for the tangent: the chunk forms each half-kick state from
the samples, the step's new sample with the momenta f h + p of its old one,
by the same two ufuncs as the loop's opening kick.  Stacked products form
all the chunk's increments at once, RK4's in place over three increment
stacks made once per flow, and the tangent pass chains them, one product and
one sum per step (adding D J to J keeps the round-off of I + D out of the
chain).  The tangent pass writes each J over the increment that produced it,
so the increment stack becomes the chunk's Jacobians; from it the pass takes
the symplectic and time-metric residual of every J in one stacked pass, and
keeps only every `jac_every`-th J and the last one.  The certification layer
factors those into the matrix group.  The full (steps + 1, d, d) stack is
never stored.

`write_csv` selects its columns from each sample's row of zX with one index
and writes the bytes of '%.17g' % v, formatting about `_CSV_BLOCK` values at a
time in numpy from a long-double significand; a value near a rounding tie, 0,
inf, nan or far out of range takes '%.17g' % itself, one call per block.
"""

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .forms import MapHandle, complex_step_jacobian, eta_residual, zeta_residual

# steps per state pass and per finiteness check; with the variational flow,
# one field-Jacobian call per chunk instead of one per stage, with a
# (stages, chunk, d, d) stack that stays near 1 MB at n = 16, and one
# stacked residual pass per chunk
_STAGE_CHUNK = 32
_CSV_BLOCK = 4096  # values per block of write_csv's formatting
_CSV_BAND = 2  # half-width, in eps y, of the band around a tie that '%.17g' % formats


def _as_state(z, dtype=float):
    z = np.asarray(z, dtype=dtype)
    if z.ndim != 1 or len(z) < 4 or len(z) % 2:
        raise ValueError(f"expected a state vector of even length >= 4, got shape {z.shape}")
    return z.copy()


def _system_state(sys, z):
    z = _as_state(z)
    if 2 * sys.n + 2 != len(z):
        raise ValueError(f"state length {len(z)} does not match system n={sys.n}")
    return z


def extended_vector_field(sys, z):
    """Field (v, f, r, 1) at z, in canonical ordering."""
    z = _system_state(sys, z)
    k = len(z) - 2
    q, p, t = z[0:k:2], z[1:k:2], z.item(-1)
    X = np.empty(len(z))
    X[0:k:2] = sys.grad_p(q, p, t)
    np.negative(sys.grad_q(q, p, t), out=X[1:k:2])
    X[-2] = sys.d_t(q, p, t)
    X[-1] = 1.0
    if not np.all(np.isfinite(X)):
        raise ValueError("Hamiltonian gradients evaluated to non-finite values")
    return X


def _vf_jacobian(sys):
    """The system's field Jacobian: exact, so a system without one is refused."""
    if sys.vf_jacobian is None:
        raise ValueError("system has no vf_jacobian; the field Jacobian is not taken numerically")
    return sys.vf_jacobian


def field_jacobian(sys, z):
    """Jacobian A = dX/dz of the extended field at z, the system's `vf_jacobian`."""
    return np.asarray(_vf_jacobian(sys)(_system_state(sys, z)), dtype=float)


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow: each sample's state z and field X = (v, f, r, 1) in one array zX.

    z, X, q, p, eps, t and v, f, r are views of zX, a (samples, 2, 2n+2)
    array.  With the variational Jacobian, `jac` holds the kept Jacobians,
    those at the sample indices `jac_steps` (every `jac_every`-th sample and
    the last one), and `jac_omega`/`jac_lambda` hold the symplectic and
    time-metric residual of the Jacobian at every sample; without it all
    four are None.
    """

    zX: np.ndarray
    dt: float
    n: int
    jac: np.ndarray = None
    jac_steps: np.ndarray = None
    jac_omega: np.ndarray = None
    jac_lambda: np.ndarray = None

    @property
    def z(self):
        return self.zX[:, 0]

    @property
    def X(self):
        return self.zX[:, 1]

    @property
    def q(self):
        return self.z[:, 0:-2:2]

    @property
    def p(self):
        return self.z[:, 1:-2:2]

    @property
    def eps(self):
        return self.z[:, -2]

    @property
    def t(self):
        return self.z[:, -1]

    @property
    def v(self):
        return self.X[:, 0:-2:2]

    @property
    def f(self):
        return self.X[:, 1:-2:2]

    @property
    def r(self):
        return self.X[:, -2]

    @property
    def n_samples(self):
        return len(self.zX)


def _check_system(traj, sys):
    if sys.n != traj.n:
        raise ValueError(f"dimension mismatch: system n={sys.n}, trajectory n={traj.n}")


def step_count(t0, t_end, dt):
    """Number of steps `integrate_flow` takes: round((t_end - t0)/dt), at least 1."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not t_end > t0:
        raise ValueError(f"t_end ({t_end}) must exceed the initial time ({t0})")
    ratio = (t_end - t0) / dt
    if not math.isfinite(ratio):
        raise ValueError(f"step count (t_end - t0)/dt = {ratio} is not finite")
    steps = max(1, round(ratio))
    # the stored times t0 + k*dt repeat unless the step exceeds the float spacing at them
    step, spacing = (t_end - t0) / steps, math.ulp(max(abs(t0), abs(t_end)))
    if not step > spacing:
        raise ValueError(f"the step {step} does not exceed the float spacing {spacing} at the flow's times")
    return steps


def variational_matrices(n_steps, method, d):
    """An upper bound on the (d, d) matrices a certified flow of n_steps holds at once.

    steps + 1 samples, the size of the full stack, which is not stored but
    which the kept Jacobians grow with; per step of one chunk, the stage
    Jacobians, the three increment stacks and the two temporaries of their
    residual; and, rounded up to whole matrices, the (d,) rows of the samples
    that outlive the flow: each sample's state and field, which the shift
    transform's table views, and three (steps - 1, d) rows for the report
    layer, where `verify.hamilton_residual` holds one such temporary.
    """
    stages = 4 if method == "rk4" else 1
    rows = 2 * (n_steps + 1) + 3 * (n_steps - 1)
    return n_steps + 1 + (stages + 5) * min(_STAGE_CHUNK, n_steps) + -(-rows // d)


# over/invalid/divide each leave a non-finite value: in the state pass and its
# fill, which the chunk's finiteness check reports, and in the tangent pass, in
# a residual that fails every tolerance
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
        `jac_steps`.  A system without `vf_jacobian` raises ValueError.
    jac_every : int
        Keep J at samples 0, jac_every, 2 jac_every, ... and at the last
        sample, >= 1.  jac_every=1 keeps every J.

    Returns
    -------
    Trajectory

    Raises ValueError on bad input, and "flow blew up" at the first step
    with a non-finite state or field sample, found by one check after each
    chunk's state pass and power fill, also when a system callable then
    raises, on that step's state or later in the chunk or in its fill.
    numpy's floating-point warnings are suppressed throughout: an overflowed
    Jacobian reads as an inf or NaN residual.
    """
    z = _system_state(sys, z0)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"initial state must be finite, got {z.tolist()}")
    t0 = z.item(-1)
    if method not in ("rk4", "leapfrog"):
        raise ValueError(f"unknown method {method!r}")
    if method == "leapfrog" and not sys.separable:
        raise ValueError("leapfrog requires a separable system")
    whole = isinstance(jac_every, (int, np.integer)) and not isinstance(jac_every, bool)
    if with_variational and not (whole and jac_every >= 1):
        raise ValueError(f"jac_every must be an integer >= 1, got {jac_every!r}")
    vf_jacobian = _vf_jacobian(sys) if with_variational else None

    n_steps = step_count(t0, t_end, dt)
    dt = (t_end - t0) / n_steps
    d = len(z)
    k = d - 2
    ZX = np.empty((n_steps + 1, 2, d))  # each sample's state and the field (v, f, r, 1) at it
    # the step's buffers, with their (q, p) and (v, f) views made once: the
    # sample B[:2] of the state z and the field X = R[0], and the fields K2, K3, K4
    # at the stage states Zs in the rest of R; each field's time entry stays 1
    B = np.empty((5, d))
    B[0] = z
    B[1] = extended_vector_field(sys, z)
    z, R, sample = B[0], B[1:], B[:2]
    ZX[0] = sample
    R[:, -1] = 1.0
    # the state pass leaves the energy and the power to the chunk fill; zero
    # power keeps the values it carries there finite
    R[:, -2] = 0.0
    Zs = np.empty((3, d))
    tmp = np.empty(d)
    X = R[0]
    q, p, v, f = z[0:k:2], z[1:k:2], X[0:k:2], X[1:k:2]
    jac_steps = Js = res_o = res_l = None
    if with_variational:
        jac_steps = np.union1d(np.arange(0, n_steps + 1, jac_every), [n_steps])
        Js = np.empty((len(jac_steps), d, d))
        res_o = np.empty(n_steps + 1)
        res_l = np.empty(n_steps + 1)
        J = Js[0] = np.eye(d)  # carried into the next chunk
        JD = np.empty((d, d))
        res_o[0], res_l[0] = zeta_residual(J), eta_residual(J)
    h = 0.5 * dt
    w = dt / 6.0
    rk4 = method == "rk4"
    stages = 4 if rk4 else 1
    chunk = min(_STAGE_CHUNK, n_steps)
    S = np.empty((stages, chunk, d))  # stage states of the chunk's steps, stage by stage
    stage_rows = list(S[1:].swapaxes(0, 1))  # RK4: S[1:, j], the stages of the chunk's step j
    # the step sizes as 0-d arrays, which numpy multiplies by without a scalar conversion
    hc, dtc, wc = np.array(h), np.array(dt), np.array(w)
    # RK4 stage s + 2 is the field at Zs[s] = z + c K_{s+1}, at time t + c, with K1 = X:
    # (K_{s+1}, c as a 0-d array and a float, Zs[s], its q and p, K_{s+2}'s v and f)
    rk4_stages = [
        (R[s], c, float(c), Zs[s], Zs[s, 0:k:2], Zs[s, 1:k:2], R[s + 1, 0:k:2], R[s + 1, 1:k:2])
        for s, c in enumerate((hc, hc, dtc))
    ]
    K23 = R[1:3]
    p_h, dq, kick = np.empty((3, k // 2))  # leapfrog's half-kick momenta, drift and kick
    grad_p, grad_q, d_t = sys.grad_p, sys.grad_q, sys.d_t
    multiply, add, negative, add_reduce = np.multiply, np.add, np.negative, np.add.reduce
    t1 = t0  # the time of z before each step, a float
    if not rk4 and with_variational:
        # the tangent of kick-drift-kick is (I + c)(I + b)(I + a): the kicks
        # a and c are h A on the (p, eps) rows, the drift b is dt A on the q rows
        kick_rows = np.zeros((d, 1))
        kick_rows[1:k:2] = h
        kick_rows[k] = h
        drift_rows = np.zeros((d, 1))
        drift_rows[0:k:2] = dt
        A_open = vf_jacobian(z)  # A of the chunk's first opening kick
    elif with_variational:
        # the increment stacks L2 (then D), L3 and L4, made once and filled in place per chunk
        incs = np.empty((3, chunk, d, d))
    for start in range(0, n_steps, _STAGE_CHUNK):
        stop = min(start + _STAGE_CHUNK, n_steps)
        # step i advances z and X to step i + 1 and copies them to sample i + 1
        # of ZX; a non-finite value there is reported by the check after the
        # pass and the fill
        cause = None
        try:
            for i in range(start, stop):
                t, t1 = t1, t0 + (i + 1) * dt
                if rk4:
                    # X, the field at z, is both the stored sample and K1
                    for K, c, c_f, z_s, q_s, p_s, v_s, f_s in rk4_stages:
                        multiply(K, c, tmp)
                        add(z, tmp, z_s)
                        t_s = t + c_f
                        v_s[...] = grad_p(q_s, p_s, t_s)
                        negative(grad_q(q_s, p_s, t_s), f_s)
                    # K + K is 2 K exactly; the rows are summed in order from
                    # -0.0, the exact identity of +, which gives ((X + 2 K2) +
                    # 2 K3) + K4 bit for bit (numpy's default start, +0.0, turns
                    # a column of -0.0 into +0.0); the time entries reset to 1
                    add(K23, K23, K23)
                    add_reduce(R, 0, None, tmp, False, -0.0)
                    K23[0, -1] = K23[1, -1] = 1.0
                    multiply(tmp, wc, tmp)
                    add(z, tmp, z)
                    z[-1] = t1
                    v[...] = grad_p(q, p, t1)
                    negative(grad_q(q, p, t1), f)
                    stage_rows[i - start][...] = Zs
                else:
                    # separable: grad_q ignores p, so the force of the stored sample
                    # at z gives the opening half kick, and that of the closing half
                    # kick gives the sample at the new state
                    multiply(f, hc, kick)
                    add(kick, p, p_h)
                    multiply(grad_p(q, p_h, t), dtc, dq)
                    q[...] = add(q, dq, kick)
                    negative(grad_q(q, p_h, t1), f)
                    multiply(f, hc, kick)
                    add(kick, p_h, p)
                    z[-1] = t1
                    v[...] = grad_p(q, p, t1)
                ZX[i + 1] = sample
        except Exception as e:
            # a callable may raise on a non-finite state: of an earlier step,
            # or of step i itself, whose sample so far then goes to the check
            # too (RK4's stage states of step i are not stored, so its power
            # and energy are not those of a finite sample)
            cause, stop = e, i
            if not np.isfinite(sample).all():
                ZX[i + 1] = sample
                stop += 1
        m = stop - start
        rows = slice(start + 1, stop + 1)
        # the chunk fill: the power r at the new samples (and at RK4's stage
        # states) in one stacked d_t call each, and the energy summed with
        # the loop's operations in its order, sequentially by one accumulate.
        # Leapfrog's power at a half-kick state is the new sample's, since a
        # separable d_t ignores p
        try:
            new = ZX[rows, 0]
            ZX[rows, 1, -2] = d_t(new[:, 0:k:2], new[:, 1:k:2], new[:, -1])
            r = ZX[start : stop + 1, 1, -2]  # the power at the chunk's samples
            if rk4:
                # eps_{i+1} = eps_i + w (((r1 + 2 r2) + 2 r3) + r4), in the row
                # sum's order (-0.0 + r1 is r1), with r1 at the step's sample
                rs = np.empty((4, m))
                rs[0] = r[:-1]
                rs[1:] = d_t(S[1:, :m, 0:k:2], S[1:, :m, 1:k:2], S[1:, :m, -1])
                r1, r2, r3, r4 = rs
                eps = np.empty(m + 1)
                eps[1:] = w * (((r1 + (r2 + r2)) + (r3 + r3)) + r4)
            else:
                # eps_{i+1} = (eps_i + h r_i) + h r_{i+1}: both half kicks, interleaved
                hr = h * r
                eps = np.empty(2 * m + 1)
                eps[1::2] = hr[:-1]
                eps[2::2] = hr[1:]
            eps[0] = ZX[start, 0, -2]
            np.add.accumulate(eps, out=eps)
            eps = eps[:: 1 if rk4 else 2]  # the energy at the chunk's samples
            ZX[rows, 0, -2] = eps[1:]
        except Exception as e:
            if cause is None:
                cause = e
        ok = np.isfinite(ZX[rows]).all(axis=(1, 2))
        if not ok.all():
            i = start + int(ok.argmin())
            raise ValueError(
                f"flow blew up: non-finite state or field at step {i + 1} (last valid step {i})"
            ) from cause
        if cause is not None:
            raise cause
        if not with_variational:
            continue
        if rk4:
            S[0, :m] = ZX[start:stop, 0]
        else:
            # A at the half-kick state (q1, p_h, eps1, t1) gives the drift, the
            # closing kick and the next opening kick: the step's new sample with
            # the momenta p_h = f h + p of its old one, the step loop's two ufuncs
            zh = S[0, :m]
            zh[...] = ZX[start + 1 : stop + 1, 0]
            P_h = zh[:, 1:k:2]
            multiply(ZX[start:stop, 1, 1:k:2], hc, P_h)
            add(P_h, ZX[start:stop, 0, 1:k:2], P_h)
        As = vf_jacobian(S[:, :m].reshape(stages * m, d)).reshape(stages, m, d, d)
        # every step's increment D at once, in place over three (m, d, d) stacks;
        # a step's tangent is then J <- J + D J
        if rk4:
            A1, A2, A3, A4 = As
            D, L3, L4 = incs[:, :m]
            np.matmul(A2, A1, out=D)  # L2 = A2 + h A2 A1
            D *= h
            D += A2
            np.matmul(A3, D, out=L3)  # L3 = A3 + h A3 L2
            L3 *= h
            L3 += A3
            np.matmul(A4, L3, out=L4)  # L4 = A4 + dt A4 L3
            L4 *= dt
            L4 += A4
            D *= 2.0  # D = w (A1 + 2 L2 + 2 L3 + L4)
            D += A1
            L3 *= 2.0
            D += L3
            D += L4
            D *= w
            del As, A1, A2, A3, A4  # freed before the next chunk's stage Jacobians are formed
        else:
            # the opening kick takes A from the previous step's half-kick state
            A = As[0]
            D = np.empty((m, d, d))
            np.multiply(kick_rows, A_open, out=D[0])
            np.multiply(kick_rows, A[:-1], out=D[1:])
            A_open = A[-1]
            b = drift_rows * A
            u = b @ D  # u = a + b + b a, with a the opening kick
            D += b
            D += u
            c = np.multiply(kick_rows, A, out=b)
            np.matmul(c, D, out=u)  # D = u + c + c u
            D += c
            D += u
        for D_j in D:
            np.matmul(D_j, J, out=JD)
            np.add(JD, J, out=D_j)
            J = D_j
        J = J.copy()  # D is overwritten by the next chunk, or freed with it
        res_o[start + 1 : stop + 1] = zeta_residual(D)
        res_l[start + 1 : stop + 1] = eta_residual(D)
        lo, hi = np.searchsorted(jac_steps, (start + 1, stop + 1))
        Js[lo:hi] = D[jac_steps[lo:hi] - start - 1]
    return Trajectory(
        zX=ZX,
        dt=dt,
        n=sys.n,
        jac=Js,
        jac_steps=jac_steps,
        jac_omega=res_o,
        jac_lambda=res_l,
    )


@cache
def _csv_tables():
    """`_format17`'s tables, built on its first call: 10^k for k in -300..300, correctly
    rounded to long double and to double; long double's eps; each decimal exponent's
    fixed slot bytes; and, per count of digits printed, the ASCII offsets of the digits."""
    pow10 = np.array([np.longdouble(f"1e{k}") for k in range(-300, 301)])
    layout = np.zeros((601, 45), np.uint8)
    layout[:, -1] = ord(",")
    for e, row in zip(range(-300, 301), layout):
        if not -4 <= e <= 16:
            tail = b"e%+03d" % e
            row[7], row[39 : 39 + len(tail)] = ord("."), list(tail)
        elif e < 0:
            row[1 : 2 - e] = list(b"0.000"[: 1 - e])
        elif e < 16:
            row[7 + 2 * e] = ord(".")
    base = np.where(np.arange(17) < np.arange(18)[:, None], ord("0"), 0).astype(np.uint8)
    return pow10, pow10.astype(float), float(np.finfo(np.longdouble).eps), layout, base


def _format17(block):
    """The bytes of ','.join('%.17g' % v for v in row) + '\\n' for each row of a float64 block.

    A value fills 45 slots: its sign; the "0.000" of fixed notation below 1; its
    17 digits in even slots, the point in the odd slot after digit p; "e" and the
    exponent; its separator.  Unused slots are NUL and are deleted at the end.
    """
    pow10, pow10_f, eps, layout, base = _csv_tables()
    x = block.ravel()
    a = np.abs(x)
    safe = (a >= 1e-280) & (a <= 1e280)  # false for 0, inf and nan
    a[~safe] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    # e corrected once, so that y = |x| 10^(16 - e) lies in [1e16, 1e17)
    y = a * np.take(pow10_f, 316 - e)
    e = e + (y >= 1e17) - (y < 1e16)
    y = a.astype(np.longdouble) * np.take(pow10, 316 - e)
    N = np.rint(y)
    # the table entry and the product are each rounded once, so y is within eps y of
    # |x| 10^(16 - e) (eps = 2^-63 for x87's long double: 0.011 below 1e17), and N is
    # the correctly rounded significand unless |y - N| lies within 2 eps y of 0.5;
    # those values (exact ties too), unsafe ones and N outside [1e16, 1e17) go to '%'
    ok = safe & (y >= 1e16) & (N < 1e17)
    ok &= np.abs((np.abs(y - N) - 0.5).astype(float)) > _CSV_BAND * eps * y.astype(float)
    # N's digits from its two halves below 10^9, one scalar // 10 per digit
    halves = np.array(np.divmod(N.astype(np.uint64), 10**9), np.uint32)
    digits = np.empty((2, 9, len(x)), np.uint8)
    for i in range(8, -1, -1):
        q = halves // 10
        digits[:, i] = halves - q * 10
        halves = q
    d = digits.reshape(18, -1)[1:]  # the upper half's first digit is 0
    s = np.max((d != 0) * np.arange(1, 18, dtype=np.uint8)[:, None], axis=0)  # without trailing zeros
    # %g: fixed notation for -4 <= e <= 16, the point after digit p = e and every
    # integer digit kept; else exponent notation, p = 0; no point before nothing
    p = np.where((e >= -4) & (e <= 16), e, 0)
    out = np.take(layout, e + 300, axis=0)
    np.multiply(x < 0, np.uint8(ord("-")), out=out[:, 0])
    np.add(d.T, np.take(base, np.maximum(s, p + 1), axis=0), out=out[:, 6:39:2])
    bare = np.flatnonzero(s <= p + 1)
    out[bare, 7 + 2 * p[bare]] = 0
    out[block.shape[1] - 1 :: block.shape[1], -1] = ord("\n")
    bad = np.flatnonzero(~ok)
    text = ("%.17g " * len(bad) % tuple(x[bad].tolist())).split()
    out[bad, :-1] = np.array(text, "S44").view(np.uint8).reshape(len(bad), 44)
    return out.tobytes().translate(None, b"\0")


def write_csv(traj, path):
    """Trajectory CSV: tau, q1..qn, p1..pn, eps, t, v1..vn, f1..fn, r, each value as '%.17g'.

    17 significant digits round-trip every double.  The bytes are Python's '%.17g' % v:
    `_format17` rounds a long-double significand, within eps of exact, and leaves
    values within 2 eps of a tie, 0, inf, nan and |v| outside [1e-280, 1e280] to '%'.
    """
    k, d = 2 * traj.n, 2 * traj.n + 2
    cols = ["tau", *[f"{c}{i + 1}" for c in "qp" for i in range(traj.n)], "eps", "t",
            *[f"{c}{i + 1}" for c in "vf" for i in range(traj.n)], "r"]
    # a sample's row of zX is its state z, then its field X at offset d
    index = np.r_[k + 1, 0:k:2, 1:k:2, k, k + 1, d : d + k : 2, d + 1 : d + k : 2, d + k]
    rows = traj.zX.reshape(traj.n_samples, 2 * d)
    per_block = max(1, _CSV_BLOCK // len(cols))
    with open(path, "wb") as fh:
        fh.write((",".join(cols) + "\n").encode())
        for a in range(0, traj.n_samples, per_block):
            fh.write(_format17(rows[a : a + per_block, index]))


@dataclass(frozen=True)
class RhoTransform:
    """Shift transform built from one reference trajectory.

    Maps (q, p, eps, t) to (q + xi(t), p + pi(t), eps + H(q, p, t), t), where
    (xi, pi) is the reference trajectory's displacement from its initial
    (q, p).  The displacement is the cubic Hermite interpolant of the stored
    samples: at every sample time it equals the stored (q, p) and its rate
    equals the stored field (v, f), so the transform is exact at the samples
    up to both ends of the table.  Defined for Re t inside the tabulated
    range only: a complex state is taken too, for the complex step.
    """

    sys: object
    tk: np.ndarray  # sample times, increasing
    table: np.ndarray  # (samples, 2, 2n) view of zX: interleaved (q, p) and its rate (v, f)

    def _hermite(self, t):
        """Interleaved (q, p) of the table at t."""
        # the basis weights are written so that at s = 0 and s = 1 every weight
        # but one is an exact zero: the nodes reproduce the table bitwise.  Re t
        # picks the interval; a complex t carries Im t through s
        tk = self.tk
        if not (tk[0] <= t.real <= tk[-1]):
            raise ValueError(f"t={t} outside the tabulated range [{tk[0]}, {tk[-1]}]")
        i = min(max(int(np.searchsorted(tk, t.real, side="right")) - 1, 0), len(tk) - 2)
        h = tk[i + 1] - tk[i]
        s = (t - tk[i]) / h
        w = ((2.0 * s - 3.0) * s * s + 1.0, h * ((s - 2.0) * s + 1.0) * s,
             (3.0 - 2.0 * s) * s * s, h * (s - 1.0) * s * s)
        return np.dot(w, self.table[i : i + 2].reshape(4, -1))

    def __call__(self, z):
        z = _as_state(z, complex if np.iscomplexobj(z) else float)
        k, t = len(z) - 2, z[-1]
        z[-2] += self.sys.value(z[0:k:2], z[1:k:2], t)
        z[:-2] += self._hermite(t) - self.table[0, 0]  # the shift (xi, pi)
        return z

    def as_map(self):
        # the Jacobian is the complex step of the transform itself, which sees `value`
        jacobian = partial(complex_step_jacobian, self)
        return MapHandle(func=self, n=self.sys.n, jacobian=jacobian)


def make_rho(traj, sys):
    """Build the shift transform from a trajectory of sys.

    The interpolation table is a view of the trajectory's own interleaved
    (q, p) samples with the stored field (v, f) as their rates; nothing is
    fitted, and only the time grid is copied, since searchsorted needs it
    contiguous.
    """
    _check_system(traj, sys)
    if traj.n_samples < 4:
        raise ValueError(
            f"need at least 4 samples to build the shift transform, got {traj.n_samples}"
        )
    return RhoTransform(sys=sys, tk=traj.t.copy(), table=traj.zX[:, :, :-2])
