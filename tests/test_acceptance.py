"""Acceptance suite: one certified property per test, one summary line each.

Every test records a PASS/FAIL line (echoed again by conftest in the terminal
summary) and then asserts, so a red run still reports every criterion.
"""

import functools

import numpy as np
import pytest

from conftest import acceptance_results

from jacobiflow import (
    HeisenbergElement,
    JacobiElement,
    MapHandle,
    VfrView,
    box_probes,
    builtin_system,
    canonical_eta,
    canonical_zeta,
    check_flow_jacobians,
    check_invariance,
    energy_ledger,
    euclidean_element,
    form_residual,
    hamilton_residual,
    heisenberg_generators,
    igl_factor,
    integrate_flow,
    jacobi_factor,
    jacobi_matrix,
    noncommutativity_check,
    numeric_jacobian,
    random_jacobi,
    random_symplectic,
    zeta_reduced,
)
from reference_helpers import factorization


def _record(name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    acceptance_results.append(line)
    print(line)
    assert ok, line


def test_group_law_matrix_oracle():
    # composition and inversion agree with plain matrix arithmetic
    rng = np.random.default_rng(101)
    tol = 1e-10
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(500):
            a = random_jacobi(n, rng, tr=1)
            b = random_jacobi(n, rng)
            prod_err = np.max(np.abs(jacobi_matrix(a * b) - jacobi_matrix(a) @ jacobi_matrix(b)))
            inv_err = np.max(np.abs(jacobi_matrix(a.inv()) - np.linalg.inv(jacobi_matrix(a))))
            worst = max(worst, float(prod_err), float(inv_err))
    _record(
        "group law vs matrix oracle",
        worst <= tol,
        f"500 pairs per n in 1..3, max err {worst:.2e}, tol {tol:.0e}",
    )


def test_form_intersection():
    # membership: every element preserves both defining forms; factoring an
    # assembled product recovers its parameters
    rng = np.random.default_rng(102)
    tol_form, tol_param = 1e-12, 1e-10
    worst_form = 0.0
    worst_param = 0.0
    for n in (1, 2, 3):
        zeta = canonical_zeta(n)
        eta = canonical_eta(n)
        for _ in range(200):
            M = jacobi_matrix(random_jacobi(n, rng, tr=1))
            worst_form = max(worst_form, form_residual(M, zeta), form_residual(M, eta))
        for _ in range(200):
            sigma = random_symplectic(n, rng)
            w = rng.uniform(-2, 2, 2 * n)
            r = float(rng.uniform(-2, 2))
            tr = int(rng.choice([-1, 1]))
            heis = HeisenbergElement(w=w, r=r)
            embed = JacobiElement.from_parts(sigma, np.zeros(2 * n), 0.0)
            flip = JacobiElement.from_parts(np.eye(2 * n), np.zeros(2 * n), 0.0, tr=tr)
            M = heis.matrix() @ jacobi_matrix(embed) @ jacobi_matrix(flip)
            g = jacobi_factor(M, tol=1e-9)
            worst_param = max(
                worst_param,
                float(np.max(np.abs(g.sigma.sigma - sigma))),
                float(np.max(np.abs(g.w - w))),
                abs(g.r - r),
                float(abs(g.tr - tr)),
                float(np.max(np.abs(igl_factor(M).matrix() - M))),
            )
    ok = worst_form <= tol_form and worst_param <= tol_param
    _record(
        "form intersection and factor round-trip",
        ok,
        f"form res {worst_form:.2e} (tol {tol_form:.0e}), "
        f"param err {worst_param:.2e} (tol {tol_param:.0e})",
    )


def test_lie_algebra_exact():
    # translation generators close on the center, in integer arithmetic
    ok = True
    for n in (1, 2, 3, 4):
        gens = heisenberg_generators(n)
        Ws, R = gens[:-1], gens[-1]
        zc = zeta_reduced(n).astype(np.int64)
        for a in range(2 * n):
            if not np.array_equal(Ws[a] @ R - R @ Ws[a], np.zeros_like(R)):
                ok = False
            for b in range(2 * n):
                comm = Ws[a] @ Ws[b] - Ws[b] @ Ws[a]
                if not np.array_equal(comm, zc[a, b] * R):
                    ok = False
    _record("translation algebra closes exactly", ok, "n up to 4, integer arithmetic")


def test_flow_jacobians_certify():
    tol_omega, tol_lambda = 1e-6, 1e-10
    worst_o, worst_l = 0.0, 0.0
    ok = True
    for name in ("free_particle", "harmonic_oscillator", "constant_force", "driven_oscillator"):
        for n in (1, 2):
            sys = builtin_system(name, n=n)
            z0 = np.zeros(2 * n + 2)
            z0[0 : 2 * n : 2] = 1.0  # unit displacement per pair
            z0[1] = 0.5
            traj = integrate_flow(sys, z0, 5.0, 1e-3, with_variational=True)
            rep = check_flow_jacobians(traj, tol_omega=tol_omega, tol_lambda=tol_lambda)
            worst_o = max(worst_o, rep.omega_residual_max)
            worst_l = max(worst_l, rep.lambda_residual_max)
            if rep.classification != "Jacobimorphism" or factorization(rep) is None:
                ok = False
            elif len(factorization(rep)) < traj.n_samples // 10:
                ok = False
    ok = ok and worst_o <= tol_omega and worst_l <= tol_lambda
    _record(
        "flow variational Jacobians certify",
        ok,
        f"4 systems x n in 1..2, omega res {worst_o:.2e} (tol {tol_omega:.0e}), "
        f"lambda res {worst_l:.2e} (tol {tol_lambda:.0e}), factored every 10th step",
    )


def test_hamilton_residual_scaling():
    tol_coarse = 1e-5
    details = []
    ok = True
    for name in ("free_particle", "harmonic_oscillator", "constant_force", "driven_oscillator"):
        sys = builtin_system(name)
        z0 = np.array([1.0, 0.5, 0.0, 0.0])
        res5 = hamilton_residual(integrate_flow(sys, z0, 5.0, 1e-3), sys)
        if res5 > tol_coarse:
            ok = False
        # refinement ratio on [0, 1] keeps the fine run at 1e4 steps
        coarse = hamilton_residual(integrate_flow(sys, z0, 1.0, 1e-3), sys)
        fine = hamilton_residual(integrate_flow(sys, z0, 1.0, 1e-4), sys)
        if name in ("harmonic_oscillator", "driven_oscillator"):
            ratio = coarse / fine
            if not 50.0 < ratio < 200.0:
                ok = False
            details.append(f"{name} {res5:.1e}, x{ratio:.0f}")
        else:
            # linear-in-time flows sit at the rounding floor at either step
            if fine > 1e-9 or coarse > 1e-9:
                ok = False
            details.append(f"{name} {res5:.1e}, floor")
    _record(
        "hamilton residual small and second order",
        ok,
        f"tol {tol_coarse:.0e} at dt=1e-3; " + "; ".join(details),
    )


def test_energy_ledger():
    sys = builtin_system("driven_oscillator")
    traj = integrate_flow(sys, np.array([1.0, 0.0, 0.0, 0.0]), 5.0, 1e-3)
    led = energy_ledger(traj, sys)
    free = builtin_system("free_particle")
    ftraj = integrate_flow(free, np.array([0.0, 2.0, 0.0, 0.0]), 5.0, 1e-3)
    fled = energy_ledger(ftraj, free)
    zeros = (fled.delta_H, fled.kinetic_term, fled.work_term, fled.power_term, fled.residual)
    ok = led.residual <= 1e-5 and all(x == 0.0 for x in zeros)
    _record(
        "energy ledger closes",
        ok,
        f"driven residual {led.residual:.2e} (tol 1e-05), free-particle terms exactly zero",
    )


def test_closed_form_flows():
    ho = builtin_system("harmonic_oscillator")
    traj = integrate_flow(ho, np.array([1.0, 0.0, 0.0, 0.0]), 2.0 * np.pi, 1e-3)
    ho_err = float(np.max(np.abs(traj.z[-1][:2] - [1.0, 0.0])))
    free = builtin_system("free_particle")
    ftraj = integrate_flow(free, np.array([0.0, 2.0, 2.0, 0.0]), 3.0, 0.01)
    free_err = float(np.max(np.abs(ftraj.z[-1] - [6.0, 2.0, 2.0, 3.0])))
    ok = ho_err <= 1e-9 and free_err <= 1e-12
    _record(
        "closed-form flows reproduced",
        ok,
        f"oscillator period return {ho_err:.2e} (tol 1e-09), "
        f"free particle {free_err:.2e} (tol 1e-12)",
    )


def test_flow_certificate_reproduces_the_rk4_symplecticity_defect():
    # On a harmonic oscillator RK4's step acts on each (q_i, p_i) pair as a
    # matrix with eigenvalues R(+-i om dt), R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
    # and J^T zeta J of a pair is det(J) zeta: after N steps the omega residual
    # is |1 - |R(i om dt)|^(2N)|, which grows with N.  Leapfrog's kicks and
    # drift are shears, so its residual is round-off
    steps, tol_rel, tol_leapfrog = 500, 1e-6, 1e-13
    ok = True
    worst_gap = worst_leapfrog = 0.0
    for dt in (0.1, 0.2, 0.3):
        for n in (1, 4):
            for mass, frequency in ((1.0, 1.0), (2.5, 0.7)):
                sys = builtin_system("harmonic_oscillator", n=n, mass=mass, frequency=frequency)
                z0 = np.zeros(2 * n + 2)
                z0[0 : 2 * n : 2] = 1.0
                z = 1j * frequency * dt
                R = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
                expected = abs(1.0 - abs(R) ** (2 * steps))
                for method in ("rk4", "leapfrog"):
                    traj = integrate_flow(sys, z0, steps * dt, dt, method=method, with_variational=True)
                    residual = check_flow_jacobians(traj).omega_residual_max
                    if method == "rk4":
                        ok = ok and residual == pytest.approx(expected, rel=tol_rel)
                        worst_gap = max(worst_gap, abs(residual - expected) / expected)
                    else:
                        worst_leapfrog = max(worst_leapfrog, residual)
    ok = ok and worst_leapfrog <= tol_leapfrog
    _record(
        "flow certificate reproduces RK4's closed-form symplecticity defect",
        ok,
        f"dt in 0.1..0.3, n in {{1, 4}}, 2 (mass, frequency), {steps} steps: rk4 relative gap "
        f"{worst_gap:.1e} (tol {tol_rel:.0e}), leapfrog omega {worst_leapfrog:.1e} (tol {tol_leapfrog:.0e})",
    )


def test_extended_energy_drift():
    # the extended energy K = eps - H(q, p, t) is a first integral of the
    # extended flow; leapfrog keeps a modified energy, so its drift
    # max |K - K(0)| stays bounded (dt^2/8 per unit pair), while RK4's
    # symplecticity defect makes it grow linearly in T
    dt, tol = 0.1, 0.01
    ratios = {"leapfrog": [], "rk4": []}
    for n in (1, 4):
        sys = builtin_system("harmonic_oscillator", n=n)
        z0 = np.zeros(2 * n + 2)
        z0[0 : 2 * n : 2] = 1.0
        for method, drifts in ratios.items():
            drift = []
            for T in (100.0, 200.0):
                traj = integrate_flow(sys, z0, T, dt, method=method)
                H = np.array([sys.value(*s) for s in zip(traj.q, traj.p, traj.t)])
                K = traj.eps - H
                drift.append(float(np.max(np.abs(K - K[0]))))
            drifts.append(drift[1] / drift[0])
    ok = all(abs(r - 1.0) <= tol for r in ratios["leapfrog"])
    ok = ok and all(abs(r - 2.0) <= 2.0 * tol for r in ratios["rk4"])
    _record(
        "extended energy: leapfrog bounded, RK4 linear",
        ok,
        f"harmonic n in {{1, 4}}, dt {dt}, drift at T = 200 over T = 100: leapfrog "
        + ", ".join(f"{r:.4f}" for r in ratios["leapfrog"])
        + " (1 within 1%), rk4 "
        + ", ".join(f"{r:.4f}" for r in ratios["rk4"])
        + " (2 within 1%)",
    )


def test_translation_noncommutativity():
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        a = VfrView(
            v=rng.integers(-3, 4, n).astype(float),
            f=rng.integers(-3, 4, n).astype(float),
            r_phys=float(rng.integers(-6, 7)),
        )
        b = VfrView(
            v=rng.integers(-3, 4, n).astype(float),
            f=rng.integers(-3, 4, n).astype(float),
            r_phys=float(rng.integers(-6, 7)),
        )
        left, right, comm_r = noncommutativity_check(a, b)
        Ma = _heis_matrix(a)
        Mb = _heis_matrix(b)
        oracle = (Ma @ Mb - Mb @ Ma)[2 * n, -1]
        if comm_r != oracle:
            ok = False
        # boosts with no force and no power form an abelian family
        ia = VfrView(v=a.v, f=np.zeros(n), r_phys=0.0)
        ib = VfrView(v=b.v, f=np.zeros(n), r_phys=0.0)
        if noncommutativity_check(ia, ib)[2] != 0.0:
            ok = False
    _record(
        "translation noncommutativity matches matrix oracle",
        ok,
        "100 integer-valued pairs, exact equality; inertial pairs commute",
    )


def _heis_matrix(view):
    w = np.empty(2 * len(view.v))
    w[0::2] = view.v
    w[1::2] = view.f
    return HeisenbergElement(w=w, r=0.5 * view.r_phys).matrix()


def test_euclidean_embedding():
    rng = np.random.default_rng(109)
    tol = 1e-12
    ok = True
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        R = _rotation(n, rng)
        v = rng.uniform(-2, 2, n)
        g = euclidean_element(R, v)
        M = jacobi_matrix(g)
        worst = max(worst, form_residual(M, canonical_zeta(n)), form_residual(M, canonical_eta(n)))
        fac = jacobi_factor(M)
        if np.max(np.abs(v)) > 1e-9 and not np.max(np.abs(fac.w)) > 0.0:
            ok = False  # a moving frame must carry a translation part
        h = euclidean_element(_rotation(n, rng), rng.uniform(-2, 2, n))
        prod = g * h
        worst = max(worst, float(np.max(np.abs(prod.w[1::2]))), abs(prod.r))
    ok = ok and worst <= tol
    _record(
        "euclidean group embeds and closes",
        ok,
        f"100 elements n in 2..3, max residual {worst:.2e} (tol {tol:.0e})",
    )


def _rotation(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_lifted_symplectic_classification():
    rng = np.random.default_rng(110)
    tol = 1e-8
    c, s = np.cos(0.7), np.sin(0.7)
    c2, s2 = np.cos(0.3), np.sin(0.3)
    squeeze_rotate = np.array([[c2, s2], [-s2, c2]]) @ np.diag([1.5, 1.0 / 1.5])
    cases = [
        ("q-shear", 1, np.array([[1.0, 0.5], [0.0, 1.0]]), True),
        ("p-shear", 1, np.array([[1.0, 0.0], [0.7, 1.0]]), True),
        ("rotation", 2, None, True),  # per-pair rotation, built below
        ("scaling", 2, None, False),  # per-pair diag(2, 1/2), via differences
        ("squeeze-rotate", 1, squeeze_rotate, False),
    ]
    ok = True
    worst = 0.0
    for label, n, sigma, analytic in cases:
        d = 2 * n + 2
        M = np.eye(d)
        if sigma is not None:
            M[:2, :2] = sigma
        elif label == "rotation":
            for k in range(n):
                M[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[c, s], [-s, c]]
        else:
            for k in range(n):
                M[2 * k, 2 * k] = 2.0
                M[2 * k + 1, 2 * k + 1] = 0.5
        func = functools.partial(np.matmul, M)
        # the maps without an analytic Jacobian opt in to central differences
        jacobian = (lambda z, M=M: M) if analytic else functools.partial(numeric_jacobian, func)
        handle = MapHandle(func, n, jacobian=jacobian)
        rep = check_invariance(handle, box_probes(n, 6, rng))
        if rep.classification != "Jacobimorphism":
            ok = False
            continue
        for g in factorization(rep):
            worst = max(worst, float(np.max(np.abs(g.w))), abs(g.r))
            if g.tr != 1:
                ok = False
    ok = ok and worst <= tol
    _record(
        "lifted symplectic maps classify cleanly",
        ok,
        f"5 maps, all Jacobimorphism with |w|, |r| <= {worst:.2e} (tol {tol:.0e})",
    )
