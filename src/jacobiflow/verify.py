"""Certification layer: invariance of the two forms, flow residuals, ledger.

A map is certified by evaluating its handle's own Jacobian at probe points
(the catalog maps' matrix, the complex step for the shift transform; a map
without one is refused, never differentiated numerically), measuring the
residuals of both canonical forms, and counting the Jacobians that pass the
membership checks of `jacobi_factor` (`groups._membership`); classification:

* Jacobimorphism: both residuals pass and the Jacobian factors into the
  matrix group at every probe;
* Symplectomorphism: the symplectic residual passes (factorization or time
  metric failing);
* TimePreservingOnly: only the time-metric residual passes;
* Neither: both fail.
"""

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dynamics import _check_system
from .forms import (
    as_dimension,
    eta_residual,
    form_residual,  # noqa: F401  (unused here; perfbench/tracing.py wraps verify.form_residual)
    zeta_residual,
)
from .groups import (
    FactorError,
    _check_same_n,
    _membership,
    heisenberg_from_vfr,
    heisenberg_mul,
    jacobi_factor,  # noqa: F401  (unused here; perfbench/tracing.py wraps verify.jacobi_factor)
    vfr_convert,
)

_CHUNK = 32  # Jacobians per stacked symplectic-residual pass and per stacked membership pass


@dataclass(frozen=True)
class InvarianceReport:
    omega_residual_max: float
    lambda_residual_max: float
    n_probes: int
    classification: str
    # how many Jacobians are members of the group: all of them, or 0
    n_factored: int
    omega_residuals: tuple
    lambda_residuals: tuple
    tol_omega: float
    tol_lambda: float
    # "Class: message" of the FactorError that stopped the membership pass
    factor_error: str
    # the (count, d, d) stack of checked Jacobians: the probe Jacobians of a
    # map, the kept Jacobians of a flow; the factors are read off its entries
    jacobians: np.ndarray = field(compare=False, repr=False)

    def to_dict(self):
        """Every field but the `jacobians` stack, which the CLI writes to a .npy file."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "jacobians"}


@dataclass(frozen=True)
class EnergyLedger:
    delta_H: float
    kinetic_term: float
    work_term: float
    power_term: float
    residual: float

    def to_dict(self):
        return asdict(self)


def _classify(omega_ok, lambda_ok, factored):
    if omega_ok and lambda_ok and factored:
        return "Jacobimorphism"
    if omega_ok:
        return "Symplectomorphism"
    if lambda_ok:
        return "TimePreservingOnly"
    return "Neither"


def _report(res_o, res_l, matrices, listed, tol_omega, tol_lambda):
    """Report from per-matrix residuals.

    The maxima run over every residual; `matrices` are counted as group
    members in stacked chunks whose temporaries stay small next to them,
    and the residuals at the indices `listed` are reported with them.
    """
    omega_ok = res_o.max() <= tol_omega
    lambda_ok = res_l.max() <= tol_lambda
    n_factored, error = 0, None
    if omega_ok and lambda_ok:
        tol_factor = max(tol_omega, tol_lambda)
        try:
            for i in range(0, len(matrices), _CHUNK):
                _membership(matrices[i : i + _CHUNK], tol_factor)
            n_factored = len(matrices)
        except FactorError as e:
            error = f"{type(e).__name__}: {e}"
    cls = _classify(omega_ok, lambda_ok, error is None)
    return InvarianceReport(
        omega_residual_max=float(res_o.max()),
        lambda_residual_max=float(res_l.max()),
        n_probes=len(matrices),
        classification=cls,
        n_factored=n_factored,
        omega_residuals=tuple(res_o[listed].tolist()),
        lambda_residuals=tuple(res_l[listed].tolist()),
        tol_omega=tol_omega,
        tol_lambda=tol_lambda,
        factor_error=error,
        jacobians=matrices,
    )


def check_invariance(f, probes, tol_omega=1e-6, tol_lambda=1e-8):
    """Certify a map at the given probe points.

    Parameters
    ----------
    f : MapHandle
        The map; only its `jacobian` is read (the shift transform's is its
        complex step).  A map without one is refused before any evaluation.
    probes : (count, 2n+2) array, one finite state vector per row
        At least one; classification is the AND over probes.
    tol_omega, tol_lambda : float
        Residual thresholds for the symplectic form and the time metric.
    """
    jac = getattr(f, "jacobian", None)
    if jac is None:
        raise ValueError(
            "check_invariance reads the map handle's own jacobian and got none; opt in to central"
            " differences with MapHandle(func, n, jacobian=functools.partial(numeric_jacobian, func))"
        )
    probes = np.asarray(probes, dtype=float)
    if not probes.size:
        raise ValueError("need at least one probe point")
    if probes.ndim != 2 or probes.shape[1] < 4 or probes.shape[1] % 2:
        raise ValueError(f"probes must be a (count, 2n+2) array, n >= 1; got shape {probes.shape}")
    bad = np.flatnonzero(~np.isfinite(probes).all(axis=1))
    if bad.size:
        raise ValueError(f"probe {bad[0]} is not finite: {probes[bad[0]].tolist()}")
    count, d = probes.shape
    # one stack, filled in place, and its symplectic residuals in chunks, whose
    # temporaries stay small next to it
    jacobians = np.empty((count, d, d))
    for J, z in zip(jacobians, probes):
        J_z = np.asarray(jac(z), dtype=float)
        if J_z.shape != J.shape:
            shape = (count, *J_z.shape)
            raise ValueError(f"expected ({d}, {d}) Jacobians, got a stack of shape {shape}")
        J[...] = J_z
    chunks = range(0, count, _CHUNK)
    res_o = np.concatenate([zeta_residual(jacobians[i : i + _CHUNK]) for i in chunks])
    return _report(res_o, eta_residual(jacobians), jacobians, slice(None), tol_omega, tol_lambda)


def check_matrices(count, d):
    """The most (d, d) matrices a check of `count` Jacobians holds beside their stack.

    The membership pass holds a chunk's stripped copy and the two products
    of its symplectic residual beside the last probe's Jacobian and 4 rows
    of length d per probe, rounded up to whole matrices: the probe and its
    residuals, 3 rows at n = 1 as the report's floats.  One complex-step
    Jacobian of the shift transform holds about five.
    """
    return max(3 * min(count, _CHUNK) + 1 + -(-4 * count // d), 5)


def check_flow_jacobians(traj, tol_omega=1e-6, tol_lambda=1e-10):
    """Certify the variational Jacobians of a trajectory.

    The residual maxima run over the residuals that `integrate_flow`
    recorded at every sample; the kept Jacobians, at the samples
    `traj.jac_steps` (every 10th sample and the last one by default), are
    counted as group members and their residuals listed.
    """
    if traj.jac is None:
        raise ValueError("trajectory carries no variational Jacobians")
    return _report(traj.jac_omega, traj.jac_lambda, traj.jac, traj.jac_steps, tol_omega, tol_lambda)


def trajectory_probes(traj, count, rng):
    """Probe points on a stored trajectory, one state vector per row.

    Each probe is a stored sample, either end of the table included, with
    its energy coordinate redrawn from [-2, 2], since no certified quantity
    depends on it.
    """
    out = np.empty((count, traj.z.shape[1]))
    for z in out:
        z[:] = traj.z[rng.integers(traj.n_samples)]
        z[-2] = rng.uniform(-2.0, 2.0)
    return out


def box_probes(n, count, rng):
    """Probe points drawn uniformly from the box [-2, 2]^(2n+2), one state vector per row."""
    return rng.uniform(-2.0, 2.0, (count, 2 * as_dimension(n) + 2))


def hamilton_residual(traj, sys):
    """Max deviation of central-difference d(q, p, eps)/dt from (v, f, r)."""
    _check_system(traj, sys)
    if traj.n_samples < 5:
        raise ValueError("need at least 5 samples for interior differences")
    # one (steps - 1, d) temporary, updated in place; its time column is left unread
    z = traj.z
    D = z[2:] - z[:-2]
    D /= 2.0 * traj.dt
    R = D[:, :-1]
    R -= traj.X[1:-1, :-1]
    return float(np.max(np.abs(R, out=R)))


def energy_ledger(traj, sys):
    """Work-energy decomposition along a trajectory.

    Trapezoid quadrature on the stored grid of the three increments
    (v . dp), -(f . dq), (r dt); the residual measures how well they add up
    to the endpoint difference of H.
    """
    _check_system(traj, sys)
    if traj.n_samples < 2:
        raise ValueError("need at least 2 samples")
    dq = np.diff(traj.q, axis=0)
    dp = np.diff(traj.p, axis=0)
    dtau = np.diff(traj.t)
    v_mid = 0.5 * (traj.v[:-1] + traj.v[1:])
    f_mid = 0.5 * (traj.f[:-1] + traj.f[1:])
    r_mid = 0.5 * (traj.r[:-1] + traj.r[1:])
    kinetic = float(np.sum(v_mid * dp))
    work = -float(np.sum(f_mid * dq))
    power = float(np.sum(r_mid * dtau))
    q0, p0, t0 = traj.q[0], traj.p[0], traj.t[0]
    q1, p1, t1 = traj.q[-1], traj.p[-1], traj.t[-1]
    delta_H = float(sys.value(q1, p1, t1)) - float(sys.value(q0, p0, t0))
    residual = abs(delta_H - (kinetic + work + power))
    return EnergyLedger(
        delta_H=delta_H,
        kinetic_term=kinetic,
        work_term=work,
        power_term=power,
        residual=residual,
    )


def noncommutativity_check(a, b):
    """Compose two physical translations both ways and report the power gap.

    Returns (left, right, commutator_r) with left = a then b applied after
    a (a is the left factor), right the reverse order; the two agree in
    (v, f) and differ in power by commutator_r = 2 (v_a . f_b - f_a . v_b),
    with the sign fixed by the matrix realization.  The group-law value is
    cross-checked against the matrix products.
    """
    _check_same_n(a, b)
    ha = heisenberg_from_vfr(a)
    hb = heisenberg_from_vfr(b)
    hab = heisenberg_mul(ha, hb)
    hba = heisenberg_mul(hb, ha)
    # w interleaves (v, f)
    if not (hab.w == hba.w).all():
        raise RuntimeError("(v, f) parts of the two orderings disagree")
    left = vfr_convert(hab)
    right = vfr_convert(hba)
    commutator_r = left.r_phys - right.r_phys
    Ma = ha.matrix()
    Mb = hb.matrix()
    k = 2 * a.n
    oracle = (Ma @ Mb - Mb @ Ma)[k, -1]
    scale = 1.0 + abs(commutator_r)
    if abs(commutator_r - oracle) > 1e-12 * scale:
        raise RuntimeError(
            f"group-law commutator {commutator_r!r} disagrees with matrix oracle {oracle!r}"
        )
    return left, right, commutator_r
