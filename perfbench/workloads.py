"""The three benchmark workloads: inputs drawn from the seed, rounds, checks.

Every workload is a closed loop with one client in one process: the next
call starts when the previous one returns, and no thread or process is
started.  A workload runs in rounds.  A round is a fixed mix of inputs drawn
from the seed, so a rate measured per round does not depend on how a seed
happens to mix cheap and expensive inputs.

Only the program's own calls are timed (`busy`); drawing inputs, reading
outputs and the oracle checks run between the timed calls.  The program is
reached through module attributes (`jf.cli.main`, `jf.dynamics.integrate_flow`,
...) looked up at call time, so the traced run can wrap them.
"""

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import jacobiflow as jf
import jacobiflow.cli  # noqa: F401  (the package does not import its CLI)

# CLI defaults that the checks below reuse (see the README's config table).
TOL_OMEGA = 1e-5
TOL_LAMBDA = 1e-8
TOL_HAMILTON = 1e-5
TOL_LEDGER = 1e-5
# selftest thresholds: matrix_homomorphism / factor_roundtrip, commutators
TOL_ORACLE = 1e-10
TOL_COMMUTATOR = 0.0
TOL_FACTOR = 1e-9  # the --fuzz detection tolerance
FUZZ = 1e-3


@dataclass
class Round:
    units: int = 0  # checked work: certified steps, trajectory steps or group ops
    busy: float = 0.0  # seconds inside the program's calls that did that work
    calls: list = field(default_factory=list)  # wall time of each top-level call
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    # (kind, check, method) -> [largest residual, tolerance]; bounded by the
    # kinds, so the benchmark's memory does not grow with the work done
    worst: dict = field(default_factory=dict)

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def residual(self, kind, check, method, value, tol):
        entry = self.worst.setdefault((kind, check, method), [0.0, tol])
        entry[0] = max(entry[0], float(value))


def worst_residuals(rounds):
    """Merge the rounds' residuals: (kind, check, method) -> [largest residual, tolerance]."""
    out = {}
    for r in rounds:
        for key, (value, tol) in r.worst.items():
            entry = out.setdefault(key, [0.0, tol])
            entry[0] = max(entry[0], value)
    return out


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def oracle_product(A, B):
    return A @ B


def oracle_matrix(sigma, w, r, tr=1):
    """Plain-numpy realization Gamma°(Sigma, w, r) . Delta(tr) from the groups docstring."""
    k = len(w)
    z0 = np.zeros((k, k))
    z0[0::2, 1::2] = np.eye(k // 2)
    z0[1::2, 0::2] = -np.eye(k // 2)
    M = np.zeros((k + 2, k + 2))
    M[:k, :k] = sigma
    M[:k, -1] = tr * np.asarray(w)
    M[k, :k] = np.asarray(w) @ z0 @ sigma
    M[k, k] = 1.0
    M[k, -1] = tr * 2.0 * r
    M[-1, -1] = tr
    return M


def closed_form_harmonic(z0, t1, mass, freq):
    """Exact (q, p) of the harmonic oscillator at t1, from interleaved z0."""
    q0, p0, t0 = z0[0:-2:2], z0[1:-2:2], z0[-1]
    c, s = np.cos(freq * (t1 - t0)), np.sin(freq * (t1 - t0))
    return q0 * c + p0 / (mass * freq) * s, -mass * freq * q0 * s + p0 * c


def _box_state_block(rng, n):
    """q, p uniform in [-1, 1]^n, eps = t = 0, in the config's block order."""
    return np.concatenate([rng.uniform(-1.0, 1.0, 2 * n), [0.0, 0.0]])


def _quiet_call(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


class CertifyFlow:
    """CLI flow scenarios through `cli.main`, as a CLI user runs them.

    Why: every flow module does real work (variational Jacobian in dynamics,
    per-step form residuals and every 10th jacobi_factor in verify/groups,
    the rho check through numeric_jacobian, write_csv).  Bypasses nothing of
    the flow path; the group-op stream is not run.
    """

    name = "certify_flow"
    KINDS = (
        ("driven_oscillator", 1, "rk4"),
        ("harmonic_oscillator", 4, "leapfrog"),
        ("driven_oscillator", 16, "rk4"),
    )

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        self.scenarios = []
        for i in rng.permutation(len(self.KINDS)):
            system, n, method = self.KINDS[i]
            kind = f"{system}.n{n}.{method}"
            cfg = os.path.join(work_dir, f"{kind}.cfg")
            z0 = " ".join(repr(float(x)) for x in _box_state_block(rng, n))
            self._write_cfg(cfg, system, n, method, z0, int(rng.integers(0, 2**31)))
            self.scenarios.append((kind, method, cfg, os.path.join(work_dir, kind)))
        self.reference = {}
        self.inputs = {
            "scenarios": [s[0] for s in self.scenarios],
            "t_end": 5.0,
            "dt": 1e-3,
            "steps_per_scenario": 5000,
            "state_box": "q, p uniform in [-1, 1]; eps = t = 0",
        }

    @staticmethod
    def _write_cfg(path, system, n, method, z0, seed, t_end=None):
        with open(path, "w") as fh:
            fh.write(f"system = {system}\nn = {n}\nmethod = {method}\nz0 = {z0}\nseed = {seed}\n")
            if t_end is not None:
                fh.write(f"t_end = {t_end}\n")

    def warmup(self):
        for system, n, method in self.KINDS:
            cfg = os.path.join(self.work_dir, "warmup.cfg")
            z0 = " ".join(["1.0"] * n + ["0.0"] * (n + 2))
            self._write_cfg(cfg, system, n, method, z0, 0, t_end=0.2)
            _quiet_call(jf.cli.main, ["--config", cfg, "--out", os.path.join(self.work_dir, "warmup")])

    def run_round(self):
        rnd = Round()
        for kind, method, cfg, out in self.scenarios:
            rnd.attempted += 1
            t0 = perf_counter()
            try:
                rc = _quiet_call(jf.cli.main, ["--config", cfg, "--out", out])
            except Exception as e:  # a traceback is a failed scenario, not a dead benchmark
                rnd.fail(f"{kind}: {type(e).__name__}: {e}")
                continue
            dt = perf_counter() - t0
            rnd.calls.append(dt)
            rnd.busy += dt
            try:
                steps = self._check(rnd, kind, method, out, rc)
            except (OSError, ValueError, KeyError) as e:
                rnd.fail(f"{kind}: unreadable outputs: {e}")
                continue
            if steps:
                rnd.units += steps
        return rnd

    def _check(self, rnd, kind, method, out, rc):
        """Steps of a scenario that passed every check, else 0 (and the failure counted)."""
        with open(os.path.join(out, "invariance.json")) as fh:
            inv = json.load(fh)
        with open(os.path.join(out, "ledger.json")) as fh:
            led = json.load(fh)
        flow, rho = inv["flow_jacobians"], inv["rho_transform"]
        for check, value, tol in (
            ("flow_omega", flow["omega_residual_max"], TOL_OMEGA),
            ("flow_lambda", flow["lambda_residual_max"], TOL_LAMBDA),
            ("rho_omega", rho["omega_residual_max"], TOL_OMEGA),
            ("rho_lambda", rho["lambda_residual_max"], TOL_LAMBDA),
            ("hamilton", inv["hamilton_residual"], TOL_HAMILTON),
            ("ledger", led["ledger"]["residual"], TOL_LEDGER),
        ):
            rnd.residual(kind, check, method, value, tol)
        digests = tuple(
            digest(os.path.join(out, f)) for f in ("trajectory.csv", "invariance.json", "ledger.json")
        )
        ref = self.reference.setdefault(kind, digests)
        problems = [
            what
            for what, bad in (
                (f"exit code {rc}", rc != 0),
                ("not all_passed", not inv["all_passed"]),
                (f"flow {flow['classification']}", flow["classification"] != "Jacobimorphism"),
                (f"rho {rho['classification']}", rho["classification"] != "Jacobimorphism"),
                ("outputs differ from the first run with the same seed", digests != ref),
            )
            if bad
        ]
        if problems:
            rnd.fail(f"{kind}: " + ", ".join(problems))
            return 0
        with open(os.path.join(out, "trajectory.csv"), "rb") as fh:
            return sum(1 for _ in fh) - 2  # header plus steps + 1 rows


class EnsembleFlow:
    """A cloud of initial states, integrated without the variational Jacobian.

    Why: the integrator step loop and the field evaluation do almost all of
    the work; no Jacobian stack, factorization, rho or CSV is involved, so
    changes to the variational or certification code should not move it.
    Checked with hamilton_residual, energy_ledger and, for the harmonic
    oscillator, the closed-form solution.
    """

    name = "ensemble_flow"
    SYSTEMS = ("harmonic_oscillator", "driven_oscillator")
    NS = (1, 4, 16)
    METHODS = ("rk4", "leapfrog")
    SPAN = 2.0
    DT = 1e-3

    def __init__(self, seed, work_dir):
        self.rng = np.random.default_rng(seed)
        combos = [(s, n, m) for s in self.SYSTEMS for n in self.NS for m in self.METHODS]
        self.combos = [combos[i] for i in self.rng.permutation(len(combos))]
        self.systems = {(s, n): jf.systems.builtin_system(s, n=n) for s in self.SYSTEMS for n in self.NS}
        self.inputs = {
            "combos": [f"{s}.n{n}.{m}" for s, n, m in self.combos],
            "span": self.SPAN,
            "dt": self.DT,
            "steps_per_trajectory": round(self.SPAN / self.DT),
            "state_box": "q, p, eps uniform in [-1, 1]; t0 uniform in [0, 2 pi); fresh states every round",
        }

    def _state(self, n):
        z = np.empty(2 * n + 2)
        z[:-1] = self.rng.uniform(-1.0, 1.0, 2 * n + 1)
        z[-1] = self.rng.uniform(0.0, 2.0 * np.pi)
        return z

    def warmup(self):
        for s, n, m in self.combos:
            z0 = np.zeros(2 * n + 2)
            z0[0] = 1.0
            jf.dynamics.integrate_flow(self.systems[s, n], z0, 0.1, self.DT, method=m)

    def run_round(self):
        rnd = Round()
        for system, n, method in self.combos:
            kind = f"{system}.n{n}.{method}"
            sys_ = self.systems[system, n]
            z0 = self._state(n)
            t1 = z0[-1] + self.SPAN
            rnd.attempted += 1
            t0 = perf_counter()
            try:
                traj = jf.dynamics.integrate_flow(sys_, z0, t1, self.DT, method=method)
                h_res = jf.verify.hamilton_residual(traj, sys_)
                ledger = jf.verify.energy_ledger(traj, sys_)
            except Exception as e:  # a traceback is a failed trajectory, not a dead benchmark
                rnd.fail(f"{kind}: {type(e).__name__}: {e}")
                continue
            dt = perf_counter() - t0
            rnd.calls.append(dt)
            rnd.busy += dt
            checks = [("hamilton", h_res, TOL_HAMILTON), ("ledger", ledger.residual, TOL_LEDGER)]
            if system == "harmonic_oscillator":
                q, p = closed_form_harmonic(z0, traj.t[-1], sys_.params["mass"], sys_.params["frequency"])
                err = max(np.max(np.abs(traj.q[-1] - q)), np.max(np.abs(traj.p[-1] - p)))
                checks.append(("closed_form", float(err), TOL_HAMILTON))
            bad = []
            for check, value, tol in checks:
                rnd.residual(kind, check, method, value, tol)
                if not value <= tol:
                    bad.append(f"{check} {value:.3e} > {tol:.1e}")
            if bad:
                rnd.fail(f"{kind}: " + ", ".join(bad))
            else:
                rnd.units += traj.n_samples - 1
        return rnd


class GroupAlgebra:
    """`--selftest` through `cli.main` plus a stream of group ops at n = 1..3.

    Why: groups and forms do all of the work and systems/dynamics none.
    Composition (jacobi_mul, jacobi_inv, heisenberg_mul,
    noncommutativity_check) sits beside factorization (jacobi_factor, with
    one in four matrices perturbed off the group and required to be
    rejected), so speeding one up at the other's cost shows.  Every op is
    checked against the plain-matrix oracle at the selftest thresholds.
    """

    name = "group_algebra"
    OPS = ("jacobi_mul", "jacobi_inv", "heisenberg_mul", "noncommutativity_check", "jacobi_factor")
    NS = (1, 2, 3)
    REPS = 200  # per (op, n) in one round: 3000 ops

    def __init__(self, seed, work_dir):
        self.rng = np.random.default_rng(seed)
        self.out = os.path.join(work_dir, "selftest")
        self.selftest_seed = int(self.rng.integers(0, 2**31))
        self.inputs = {
            "selftest_seed": self.selftest_seed,
            "ops_per_round": len(self.OPS) * len(self.NS) * self.REPS,
            "ops": list(self.OPS),
            "n": list(self.NS),
            "factor_rejections_per_round": len(self.NS) * self.REPS // 4,
        }

    # inputs, drawn by the benchmark and handed to the program as elements

    def _sigma(self, n):
        """Random symplectic 2n x 2n matrix: pair rotations and symmetric shears."""
        S = np.eye(2 * n)
        for kind in self.rng.permutation(3):
            F = np.eye(2 * n)
            if kind == 2:
                for i in range(n):
                    th = self.rng.uniform(0.0, 2.0 * np.pi)
                    c, s = np.cos(th), np.sin(th)
                    F[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[c, -s], [s, c]]
            else:  # q += S p (kind 0) or p += S q (kind 1), S symmetric
                A = self.rng.uniform(-0.6, 0.6, (n, n))
                F[kind::2, 1 - kind :: 2] = 0.5 * (A + A.T)
            S = S @ F
        return S

    def _params(self, n, tr=None):
        if tr is None:
            tr = int(self.rng.choice([-1, 1]))
        return self._sigma(n), self.rng.uniform(-2.0, 2.0, 2 * n), float(self.rng.uniform(-2.0, 2.0)), tr

    @staticmethod
    def _element(params):
        return jf.groups.JacobiElement.from_parts(*params, tol=1e-9)

    def _ints(self, n):
        return self.rng.integers(-3, 4, n).astype(float)

    def _prepare(self, op, n, index):
        """(call, check) for one op; check(result) returns the oracle residual and its threshold."""
        g = jf.groups
        if op == "jacobi_mul":
            pa, pb = self._params(n, tr=1), self._params(n)
            a, b = self._element(pa), self._element(pb)
            want = oracle_product(oracle_matrix(*pa), oracle_matrix(*pb))
            return (lambda: g.jacobi_mul(a, b)), (lambda c: (_elem_vs(c, want), TOL_ORACLE))
        if op == "jacobi_inv":
            pa = self._params(n, tr=1)
            a = self._element(pa)
            want = np.linalg.inv(oracle_matrix(*pa))
            return (lambda: g.jacobi_inv(a)), (lambda c: (_elem_vs(c, want), TOL_ORACLE))
        if op == "heisenberg_mul":
            (wa, ra), (wb, rb) = [(self.rng.uniform(-2.0, 2.0, 2 * n), float(self.rng.uniform(-2.0, 2.0))) for _ in "ab"]
            a, b = g.HeisenbergElement(w=wa, r=ra), g.HeisenbergElement(w=wb, r=rb)
            eye = np.eye(2 * n)
            want = oracle_product(oracle_matrix(eye, wa, ra), oracle_matrix(eye, wb, rb))
            return (lambda: g.heisenberg_mul(a, b)), (
                lambda c: (_matrix_vs(oracle_matrix(eye, c.w, c.r), want), TOL_ORACLE)
            )
        if op == "noncommutativity_check":
            va, fa, vb, fb = (self._ints(n) for _ in range(4))
            ra, rb = (float(self.rng.integers(-3, 4)) for _ in "ab")
            a = g.VfrView(v=va, f=fa, r_phys=ra)
            b = g.VfrView(v=vb, f=fb, r_phys=rb)
            eye = np.eye(2 * n)
            Ma = oracle_matrix(eye, _interleave(va, fa), 0.5 * ra)
            Mb = oracle_matrix(eye, _interleave(vb, fb), 0.5 * rb)
            want = (oracle_product(Ma, Mb) - oracle_product(Mb, Ma))[2 * n, -1]
            return (lambda: jf.verify.noncommutativity_check(a, b)), (
                lambda res: (abs(res[2] - want), TOL_COMMUTATOR)
            )
        # jacobi_factor; every fourth matrix is pushed off the group and must be rejected
        pa = self._params(n)
        M = oracle_matrix(*pa)
        if index % 4 == 3:
            M[0, 2 * n] += FUZZ  # a structural zero of the normal form

            def call():
                try:
                    g.jacobi_factor(M, tol=TOL_FACTOR)
                except g.PatternViolation:
                    return True
                return False

            # an undetected perturbation counts as a residual of its size, as in the selftest
            return call, (lambda rejected: (0.0 if rejected else FUZZ, TOL_ORACLE))
        sigma, w, r, tr = pa
        return (lambda: g.jacobi_factor(M, tol=TOL_FACTOR)), (
            lambda c: (
                max(
                    np.max(np.abs(c.sigma.sigma - sigma)),
                    np.max(np.abs(c.w - w)),
                    abs(c.r - r),
                    abs(c.tr - tr),
                ),
                TOL_ORACLE,
            )
        )

    def warmup(self):
        for op in self.OPS:
            for n in self.NS:
                call, _ = self._prepare(op, n, 0)
                call()

    def run_round(self):
        rnd = Round()
        rnd.attempted += 1
        t0 = perf_counter()
        try:
            rc = _quiet_call(jf.cli.main, ["--selftest", "--seed", str(self.selftest_seed), "--out", self.out])
        except Exception as e:  # a traceback is a failed selftest, not a dead benchmark
            rnd.fail(f"selftest: {type(e).__name__}: {e}")
        else:
            rnd.calls.append(perf_counter() - t0)
            with open(os.path.join(self.out, "selftest.json")) as fh:
                passed = json.load(fh)["all_passed"]
            if rc != 0 or not passed:
                rnd.fail(f"selftest: exit code {rc}, all_passed {passed}")

        plan = [(op, n, i) for op in self.OPS for n in self.NS for i in range(self.REPS)]
        for j in self.rng.permutation(len(plan)):
            op, n, i = plan[j]
            call, check = self._prepare(op, n, i)
            rnd.attempted += 1
            t0 = perf_counter()
            try:
                result = call()
            except Exception as e:  # a traceback is a failed op, not a dead benchmark
                rnd.fail(f"{op} n={n}: {type(e).__name__}: {e}")
                continue
            rnd.busy += perf_counter() - t0
            value, tol = check(result)
            rnd.residual(f"{op}.n{n}", "oracle", None, value, tol)
            if value <= tol:
                rnd.units += 1
            else:
                rnd.fail(f"{op} n={n}: oracle residual {value:.3e} > {tol:.1e}")
        return rnd


def _interleave(v, f):
    w = np.empty(2 * len(v))
    w[0::2], w[1::2] = v, f
    return w


def _matrix_vs(M, want):
    return float(np.max(np.abs(M - want)))


def _elem_vs(c, want):
    return _matrix_vs(oracle_matrix(c.sigma.sigma, c.w, c.r, c.tr), want)


WORKLOADS = {w.name: w for w in (CertifyFlow, EnsembleFlow, GroupAlgebra)}
