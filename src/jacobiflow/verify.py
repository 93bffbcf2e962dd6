"""Certification layer: invariance of the two forms, flow residuals, ledger.

A map is certified by evaluating its Jacobian at probe points and measuring
the residuals of both canonical forms; classification:

* Jacobimorphism: both residuals pass and the Jacobian factors into the
  matrix group at every probe;
* Symplectomorphism: the symplectic residual passes (factorization or time
  metric failing);
* TimePreservingOnly: only the time-metric residual passes;
* Neither: both fail.
"""

from dataclasses import dataclass

import numpy as np

from .forms import (
    MapHandle,
    as_dimension,
    default_step,
    eta_residual,
    form_residual,  # noqa: F401  (unused here; perfbench/tracing.py wraps verify.form_residual)
    numeric_jacobian,
    zeta_residual,
)
from .groups import (
    FactorError,
    HeisenbergElement,
    VfrView,
    heisenberg_from_vfr,
    heisenberg_mul,
    jacobi_factor,
    vfr_convert,
)

CLASSIFICATIONS = ("Jacobimorphism", "Symplectomorphism", "TimePreservingOnly", "Neither")


@dataclass(frozen=True)
class InvarianceReport:
    omega_residual_max: float
    lambda_residual_max: float
    probes: tuple
    classification: str
    factorization: tuple = None
    omega_residuals: tuple = ()
    lambda_residuals: tuple = ()
    tol_omega: float = 1e-6
    tol_lambda: float = 1e-8

    def to_dict(self):
        return {
            "classification": self.classification,
            "omega_residual_max": self.omega_residual_max,
            "lambda_residual_max": self.lambda_residual_max,
            "omega_residuals": list(self.omega_residuals),
            "lambda_residuals": list(self.lambda_residuals),
            "tol_omega": self.tol_omega,
            "tol_lambda": self.tol_lambda,
            "n_probes": len(self.probes),
            "factorization": None
            if self.factorization is None
            else [g.to_dict() for g in self.factorization],
        }


@dataclass(frozen=True)
class EnergyLedger:
    delta_H: float
    kinetic_term: float
    work_term: float
    power_term: float
    residual: float

    def to_dict(self):
        return {
            "delta_H": self.delta_H,
            "kinetic_term": self.kinetic_term,
            "work_term": self.work_term,
            "power_term": self.power_term,
            "residual": self.residual,
        }


def _classify(omega_ok, lambda_ok, factored):
    if omega_ok and lambda_ok and factored:
        return "Jacobimorphism"
    if omega_ok:
        return "Symplectomorphism"
    if lambda_ok:
        return "TimePreservingOnly"
    return "Neither"


def _report(res_o, res_l, matrices, listed, probes, tol_omega, tol_lambda):
    """Report from per-matrix residuals.

    The maxima run over every residual; `matrices` are the ones factored,
    and the residuals at the indices `listed` are the ones reported with them.
    """
    omega_ok = res_o.max() <= tol_omega
    lambda_ok = res_l.max() <= tol_lambda
    factors = None
    factored = False
    if omega_ok and lambda_ok:
        tol_factor = max(tol_omega, tol_lambda)
        try:
            factors = tuple(jacobi_factor(M, tol=tol_factor) for M in matrices)
            factored = True
        except FactorError:
            factors = None
    cls = _classify(omega_ok, lambda_ok, factored)
    return InvarianceReport(
        omega_residual_max=float(res_o.max()),
        lambda_residual_max=float(res_l.max()),
        probes=tuple(probes),
        classification=cls,
        factorization=factors if cls == "Jacobimorphism" else None,
        omega_residuals=tuple(res_o[listed].tolist()),
        lambda_residuals=tuple(res_l[listed].tolist()),
        tol_omega=tol_omega,
        tol_lambda=tol_lambda,
    )


def check_invariance(f, probes, tol_omega=1e-6, tol_lambda=1e-8):
    """Certify a map at the given probe points.

    Parameters
    ----------
    f : MapHandle or callable
        The map; an analytic Jacobian on the handle is used when present,
        otherwise central differences.
    probes : sequence of state vectors, or an array with one per row
        At least one; classification is the AND over probes.
    tol_omega, tol_lambda : float
        Residual thresholds for the symplectic form and the time metric.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe point")
    jac = f.jacobian if isinstance(f, MapHandle) and f.jacobian is not None else None
    arrays = [np.asarray(pr, dtype=float) for pr in probes]
    jacobians = np.array(
        [np.asarray(jac(z), dtype=float) if jac else numeric_jacobian(f, z) for z in arrays]
    )
    d = as_dimension((len(arrays[0]) - 2) // 2).extended
    if jacobians.ndim != 3 or jacobians.shape[1:] != (d, d):
        raise ValueError(f"expected ({d}, {d}) Jacobians, got a stack of shape {jacobians.shape}")
    return _report(
        zeta_residual(jacobians), eta_residual(jacobians), jacobians, slice(None),
        probes, tol_omega, tol_lambda,
    )


def check_flow_jacobians(traj, tol_omega=1e-6, tol_lambda=1e-10):
    """Certify the variational Jacobians of a trajectory.

    The residual maxima run over the residuals that `integrate_flow`
    recorded at every sample; the kept Jacobians, at the samples
    `traj.jac_steps` (every 10th sample and the last one by default), are
    factored and their residuals listed.
    """
    if traj.jac is None:
        raise ValueError("trajectory carries no variational Jacobians")
    probes = [traj.z[k] for k in traj.jac_steps]  # views of the stored rows, no copy
    return _report(
        traj.jac_omega, traj.jac_lambda, traj.jac, traj.jac_steps, probes, tol_omega, tol_lambda
    )


def trajectory_probes(traj, count, rng):
    """Probe points on a stored trajectory, one state vector per row.

    Each probe is a stored sample with its energy coordinate redrawn from
    [-2, 2], since no certified quantity depends on it.  Only samples whose
    finite-difference stencil stays inside the table are drawn: t0 + h <= t_k
    <= t1 - h, where h is the `default_step` of the probe for any drawn
    energy.  Raises ValueError when no sample qualifies.
    """
    widest = traj.z.copy()
    widest[:, -2] = 2.0  # the draw with the largest default_step
    h = default_step(widest)
    t = traj.t
    room = np.flatnonzero((t - t[0] >= h) & (t[-1] - t >= h))
    if not room.size:
        raise ValueError(
            f"no trajectory sample leaves room for the probe difference step"
            f" h >= {h.min():.3g} inside the span [{float(t[0])}, {float(t[-1])}]"
        )
    out = np.empty((count, traj.z.shape[1]))
    for z in out:
        z[:] = traj.z[room[rng.integers(room.size)]]
        z[-2] = rng.uniform(-2.0, 2.0)
    return out


def box_probes(n, count, rng, half_width=2.0):
    """Probe points drawn uniformly from a box around the origin, one state vector per row."""
    return rng.uniform(-half_width, half_width, (count, as_dimension(n).extended))


def hamilton_residual(traj, sys):
    """Max deviation of central-difference d(q, p, eps)/dt from (v, f, r)."""
    if sys.n.n != traj.n.n:
        raise ValueError(f"dimension mismatch: system n={sys.n.n}, trajectory n={traj.n.n}")
    if traj.n_samples < 5:
        raise ValueError("need at least 5 samples for interior differences")
    dt = traj.dt
    D = (traj.z[2:] - traj.z[:-2]) / (2.0 * dt)
    k = traj.n.reduced
    res = max(
        float(np.max(np.abs(D[:, 0:k:2] - traj.v[1:-1]))),
        float(np.max(np.abs(D[:, 1:k:2] - traj.f[1:-1]))),
        float(np.max(np.abs(D[:, -2] - traj.r[1:-1]))),
    )
    return res


def energy_ledger(traj, sys):
    """Work-energy decomposition along a trajectory.

    Trapezoid quadrature on the stored grid of the three increments
    (v . dp), -(f . dq), (r dt); the residual measures how well they add up
    to the endpoint difference of H.
    """
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
    if a.n.n != b.n.n:
        raise ValueError(f"dimension mismatch: n={a.n.n} vs n={b.n.n}")
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
    k = 2 * a.n.n
    oracle = (Ma @ Mb - Mb @ Ma)[k, -1]
    scale = 1.0 + abs(commutator_r)
    if abs(commutator_r - oracle) > 1e-12 * scale:
        raise RuntimeError(
            f"group-law commutator {commutator_r!r} disagrees with matrix oracle {oracle!r}"
        )
    return left, right, commutator_r
