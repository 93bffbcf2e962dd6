"""Per-layer metrics for the traced run: spans, counts and fixed-input timings.

Nothing under src/ is edited.  `install` replaces the module attributes that
`cli`, `verify`, `dynamics` and `groups` look up at call time (for example
`jacobiflow.cli.integrate_flow` or `jacobiflow.verify.jacobi_factor`) with
wrappers that record a span: name, start, end, parent span, and self time
(duration minus the part covered by child spans).  Every call is folded into
per-name totals; spans of the coarse stages are also kept whole.

Per-call costs (`*_us`) and the evaluation counts per step are measured on
fixed inputs by `calibrate`, so they are defined on every workload; totals
and counts from the spans are per workload round, and read 0 for a layer the
workload bypasses.  A wrapped name that no longer resolves is reported as
missing (value null), not as 0.
"""

import dataclasses
import importlib
import re
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import jacobiflow as jf

# Spans: module attribute -> span name.  The span name's prefix is the layer
# the time is charged to (field evaluation lives in dynamics.py but is the
# systems layer's cost).
WRAPPED = {
    "jacobiflow.cli.main": "cli.main",
    "jacobiflow.cli.integrate_flow": "dynamics.integrate_flow",
    "jacobiflow.cli.make_rho": "dynamics.make_rho",
    "jacobiflow.cli.write_csv": "dynamics.write_csv",
    "jacobiflow.cli.trajectory_probes": "verify.trajectory_probes",
    "jacobiflow.cli.check_invariance": "verify.check_invariance",
    "jacobiflow.cli.check_flow_jacobians": "verify.check_flow_jacobians",
    "jacobiflow.cli.hamilton_residual": "verify.hamilton_residual",
    "jacobiflow.cli.energy_ledger": "verify.energy_ledger",
    "jacobiflow.cli.noncommutativity_check": "verify.noncommutativity_check",
    "jacobiflow.cli.jacobi_factor": "groups.jacobi_factor",
    "jacobiflow.cli.igl_factor": "groups.igl_factor",
    "jacobiflow.cli.random_jacobi": "groups.random_jacobi",
    "jacobiflow.dynamics.integrate_flow": "dynamics.integrate_flow",
    "jacobiflow.dynamics.extended_vector_field": "systems.extended_vector_field",
    "jacobiflow.dynamics.field_jacobian": "systems.field_jacobian",
    "jacobiflow.verify.hamilton_residual": "verify.hamilton_residual",
    "jacobiflow.verify.energy_ledger": "verify.energy_ledger",
    "jacobiflow.verify.noncommutativity_check": "verify.noncommutativity_check",
    "jacobiflow.verify.jacobi_factor": "verify.jacobi_factor",
    "jacobiflow.verify.form_residual": "forms.form_residual",
    "jacobiflow.verify.numeric_jacobian": "forms.numeric_jacobian",
    "jacobiflow.verify.heisenberg_mul": "groups.heisenberg_mul",
    "jacobiflow.groups.jacobi_mul": "groups.jacobi_mul",
    "jacobiflow.groups.jacobi_inv": "groups.jacobi_inv",
    "jacobiflow.groups.jacobi_matrix": "groups.jacobi_matrix",
    "jacobiflow.groups.heisenberg_mul": "groups.heisenberg_mul",
    "jacobiflow.groups.jacobi_factor": "groups.jacobi_factor",
    "jacobiflow.groups.zeta_reduced": "forms.zeta_reduced",
    "jacobiflow.groups.form_residual": "forms.form_residual",
}
# spans kept whole (the rest are only folded into totals)
COARSE = {
    "cli.main", "dynamics.integrate_flow", "dynamics.make_rho", "dynamics.write_csv",
    "verify.check_invariance", "verify.check_flow_jacobians", "verify.hamilton_residual",
    "verify.energy_ledger",
}
LAYERS = ("cli", "forms", "groups", "systems", "dynamics", "verify")
NS = (1, 4, 16)
CHECKS = ("flow_omega", "flow_lambda", "rho_omega", "rho_lambda", "hamilton", "ledger", "closed_form")

CF, EF, GA = "certify_flow", "ensemble_flow", "group_algebra"
ALL = f"{CF},{EF},{GA}"

# Every per-layer metric: (name, unit, end-to-end metric it should move @ workloads).
LAYER_METRICS = (
    [
        ("import.jacobiflow_s", "s", f"setup_s@{ALL}"),
        ("import.scipy_interpolate_s", "s", f"setup_s@{ALL}"),
        ("systems.field_evals_per_step", "count", f"checked_units_per_s@{EF},{CF}"),
        ("systems.jac_evals_per_step", "count", f"checked_units_per_s@{CF}"),
        ("systems.field_eval_s", "s", f"checked_units_per_s@{EF},{CF}"),
        ("systems.field_jac_s", "s", f"checked_units_per_s@{CF}"),
    ]
    + [(f"systems.field_eval_us.n{n}", "us", f"checked_units_per_s@{EF},{CF}") for n in NS]
    + [(f"systems.field_jac_us.n{n}", "us", f"checked_units_per_s@{CF}") for n in NS]
    + [("dynamics.integrate_s", "s", f"checked_units_per_s@{CF},{EF}")]
    + [
        (f"dynamics.step_us.{v}.n{n}", "us", f"checked_units_per_s@{CF if v.endswith('jac') else EF}")
        for v in ("rk4", "rk4_jac", "leapfrog", "leapfrog_jac")
        for n in NS
    ]
    + [
        ("dynamics.jac_stack_mb", "MB", f"peak_rss_mb@{CF}"),
        ("dynamics.make_rho_s", "s", f"checked_units_per_s@{CF}"),
        ("dynamics.write_csv_s", "s", f"checked_units_per_s@{CF}"),
        ("verify.check_flow_jacobians_s", "s", f"checked_units_per_s@{CF}"),
        ("verify.factorizations", "count", f"checked_units_per_s@{CF}"),
        ("verify.check_invariance_s", "s", f"checked_units_per_s@{CF}"),
        ("verify.rho_map_evals", "count", f"checked_units_per_s@{CF}"),
        ("verify.hamilton_residual_s", "s", f"checked_units_per_s@{CF},{EF}"),
        ("verify.energy_ledger_s", "s", f"checked_units_per_s@{CF},{EF}"),
        ("verify.reports", "count", f"failed@{CF}"),
        ("verify.jacobimorphism_ratio", "ratio", f"failed@{CF}"),
    ]
    + [
        (f"groups.{op}_us", "us", f"checked_units_per_s,call_s@{GA}" + (f";checked_units_per_s@{CF}" if op == "jacobi_factor" else ""))
        for op in ("jacobi_mul", "jacobi_inv", "jacobi_factor", "heisenberg_mul", "jacobi_matrix")
    ]
    + [
        ("groups.oracle_matmul_us", "us", "base of groups.mul_over_oracle"),
        ("groups.mul_over_oracle", "ratio", f"checked_units_per_s,call_s@{GA}"),
        ("forms.form_residual_us", "us", f"checked_units_per_s@{CF}"),
        ("forms.form_residuals", "count", f"checked_units_per_s@{CF}"),
        ("forms.numeric_jacobian_us", "us", f"checked_units_per_s@{CF}"),
        ("forms.zeta_reduced_us", "us", f"checked_units_per_s@{GA}"),
        ("forms.zeta_reduced_calls", "count", f"checked_units_per_s@{GA}"),
    ]
    + [
        ("cli.self_s", "s", f"checked_units_per_s@{CF};call_s@{GA}"),
        ("forms.self_s", "s", f"checked_units_per_s@{CF},{GA}"),
        ("groups.self_s", "s", f"checked_units_per_s,call_s@{GA};checked_units_per_s@{CF}"),
        ("systems.self_s", "s", f"checked_units_per_s@{EF},{CF}"),
        ("dynamics.self_s", "s", f"checked_units_per_s@{CF},{EF}"),
        ("verify.self_s", "s", f"checked_units_per_s@{CF},{EF}"),
    ]
    + [("trace.overhead_frac", "ratio", "none: traced over untraced time per unit, minus 1")]
    + [(f"accuracy.{c}.{m}", "ratio", f"failed@{CF},{EF}") for c in CHECKS for m in ("rk4", "leapfrog")]
    + [("accuracy.oracle", "ratio", f"failed@{GA}")]
)

# span-derived metric -> wrapped attributes it needs
SOURCES = {
    "systems.field_eval_s": ["jacobiflow.dynamics.extended_vector_field"],
    "systems.field_jac_s": ["jacobiflow.dynamics.field_jacobian"],
    "dynamics.integrate_s": ["jacobiflow.cli.integrate_flow", "jacobiflow.dynamics.integrate_flow"],
    "dynamics.jac_stack_mb": ["jacobiflow.cli.integrate_flow"],
    "dynamics.make_rho_s": ["jacobiflow.cli.make_rho"],
    "dynamics.write_csv_s": ["jacobiflow.cli.write_csv"],
    "verify.check_flow_jacobians_s": ["jacobiflow.cli.check_flow_jacobians"],
    "verify.factorizations": ["jacobiflow.verify.jacobi_factor"],
    "verify.check_invariance_s": ["jacobiflow.cli.check_invariance"],
    "verify.rho_map_evals": ["jacobiflow.cli.check_invariance"],
    "verify.hamilton_residual_s": ["jacobiflow.cli.hamilton_residual", "jacobiflow.verify.hamilton_residual"],
    "verify.energy_ledger_s": ["jacobiflow.cli.energy_ledger", "jacobiflow.verify.energy_ledger"],
    "verify.reports": ["jacobiflow.cli.check_invariance", "jacobiflow.cli.check_flow_jacobians"],
    "verify.jacobimorphism_ratio": ["jacobiflow.cli.check_invariance", "jacobiflow.cli.check_flow_jacobians"],
    "forms.form_residuals": ["jacobiflow.verify.form_residual", "jacobiflow.groups.form_residual"],
    "forms.zeta_reduced_calls": ["jacobiflow.groups.zeta_reduced"],
    "cli.self_s": ["jacobiflow.cli.main"],
}


def resolve(path):
    """The object at a dotted module attribute path, or None if it no longer resolves."""
    module, _, attr = path.rpartition(".")
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [id, name, start, child time]
        self.totals = {}  # name -> [calls, total s, self s]
        self.spans = []  # coarse spans: (id, parent id, name, start, end, self s)
        self.counts = {"rho_map_evals": 0, "reports": 0, "jacobimorphism": 0}
        self.jac_stack_bytes = 0
        self.missing = []
        self._next_id = 0
        self._restore = []

    def wrap(self, name, fn, on_return=None, on_args=None):
        def traced(*args, **kwargs):
            if on_args is not None:
                args = on_args(*args)
            parent = self.stack[-1] if self.stack else None
            self._next_id += 1
            frame = [self._next_id, name, perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                dur = end - frame[2]
                if parent is not None:
                    parent[3] += dur
                tot = self.totals.setdefault(name, [0, 0.0, 0.0])
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[3]
                if name in COARSE:
                    self.spans.append((frame[0], parent and parent[0], name, frame[2], end, dur - frame[3]))
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def install(self):
        hooks = {
            "jacobiflow.cli.integrate_flow": {"on_return": self._on_traj},
            "jacobiflow.cli.check_invariance": {"on_args": self._count_map, "on_return": self._on_report},
            "jacobiflow.cli.check_flow_jacobians": {"on_return": self._on_report},
        }
        for path, name in WRAPPED.items():
            fn = resolve(path)
            if fn is None:
                self.missing.append(path)
                continue
            module, _, attr = path.rpartition(".")
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, fn, **hooks.get(path, {})))
            self._restore.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _on_traj(self, traj):
        if traj.jac is not None:
            d = traj.z.shape[1]
            self.jac_stack_bytes = max(self.jac_stack_bytes, traj.n_samples * d * d * 8)

    def _on_report(self, rep):
        self.counts["reports"] += 1
        self.counts["jacobimorphism"] += rep.classification == "Jacobimorphism"

    def _count_map(self, f, *rest):
        return (dataclasses.replace(f, func=_counted(f.func, self.counts, "rho_map_evals")), *rest)

    def total(self, name, field=1):
        return self.totals.get(name, (0, 0.0, 0.0))[field]


def _per_call_us(fn, number, repeat=5):
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        times.append((perf_counter() - t0) / number)
    return statistics.median(times) * 1e6


def _counted(fn, counter, key):
    def wrapper(*args):
        counter[key] += 1
        return fn(*args)

    return wrapper


def calibrate():
    """Per-call costs and per-step evaluation counts on fixed inputs (metric -> value or None)."""
    out = {}
    rng = np.random.default_rng(20230817)
    grp, frm = jf.groups, jf.forms

    def timed(name, fn_path, make_call, number):
        fn = resolve(fn_path)
        out[name] = None if fn is None else _per_call_us(make_call(fn), number)

    integrate = resolve("jacobiflow.dynamics.integrate_flow")
    for n in NS:
        sys_ = jf.systems.builtin_system("driven_oscillator", n=n)
        z = np.concatenate([rng.uniform(-1.0, 1.0, 2 * n + 1), [0.3]])
        timed(f"systems.field_eval_us.n{n}", "jacobiflow.dynamics.extended_vector_field",
              lambda f: lambda: f(sys_, z), 2000)
        timed(f"systems.field_jac_us.n{n}", "jacobiflow.dynamics.field_jacobian",
              lambda f: lambda: f(sys_, z), 2000)
        for method in ("rk4", "leapfrog"):
            for var in (False, True):
                name = f"dynamics.step_us.{method}{'_jac' if var else ''}.n{n}"
                out[name] = None if integrate is None else _per_call_us(
                    lambda: integrate(sys_, z, z[-1] + 0.2, 1e-3, method=method, with_variational=var),
                    1, repeat=3) / 200

    # exact counts from counting wrappers on the callables of the system passed in
    if integrate is None:
        out["systems.field_evals_per_step"] = out["systems.jac_evals_per_step"] = None
    else:
        sys_ = jf.systems.builtin_system("driven_oscillator", n=1)
        calls = {"grad_p": 0, "vf_jacobian": 0}
        counted = dataclasses.replace(
            sys_,
            grad_p=_counted(sys_.grad_p, calls, "grad_p"),
            vf_jacobian=_counted(sys_.vf_jacobian, calls, "vf_jacobian"),
        )
        # 100 steps; the trajectory's one closing field evaluation adds 0.01
        steps = len(integrate(counted, [1.0, 0.0, 0.0, 0.0], 0.1, 1e-3, with_variational=True).z) - 1
        out["systems.field_evals_per_step"] = calls["grad_p"] / steps
        out["systems.jac_evals_per_step"] = calls["vf_jacobian"] / steps

    n = 3
    a = grp.random_jacobi(n, rng, tr=1)
    b = grp.random_jacobi(n, rng)
    ha, hb = a.heisenberg_part(), b.heisenberg_part()
    Ma, Mb = a.matrix(), b.matrix()
    timed("groups.jacobi_mul_us", "jacobiflow.groups.jacobi_mul", lambda f: lambda: f(a, b), 500)
    timed("groups.jacobi_inv_us", "jacobiflow.groups.jacobi_inv", lambda f: lambda: f(a), 500)
    timed("groups.jacobi_factor_us", "jacobiflow.groups.jacobi_factor", lambda f: lambda: f(Mb, tol=1e-9), 300)
    timed("groups.heisenberg_mul_us", "jacobiflow.groups.heisenberg_mul", lambda f: lambda: f(ha, hb), 500)
    timed("groups.jacobi_matrix_us", "jacobiflow.groups.jacobi_matrix", lambda f: lambda: f(a), 500)
    out["groups.oracle_matmul_us"] = _per_call_us(lambda: Ma @ Mb, 5000)
    mul = out["groups.jacobi_mul_us"]
    out["groups.mul_over_oracle"] = None if mul is None else mul / out["groups.oracle_matmul_us"]

    J = np.eye(4) + 0.1 * rng.uniform(-1.0, 1.0, (4, 4))
    zeta = frm.canonical_zeta(1)
    M = frm.MapHandle(func=lambda z: J @ z, n=frm.as_dimension(1))
    z = rng.uniform(-1.0, 1.0, 4)
    timed("forms.form_residual_us", "jacobiflow.forms.form_residual", lambda f: lambda: f(J, zeta), 2000)
    timed("forms.numeric_jacobian_us", "jacobiflow.forms.numeric_jacobian", lambda f: lambda: f(M, z), 1000)
    timed("forms.zeta_reduced_us", "jacobiflow.forms.zeta_reduced", lambda f: lambda: f(n), 2000)
    return out


def import_seconds(src, modules, repeat=3):
    """Median cumulative import time of each module, from `python -X importtime` in fresh interpreters."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import jacobiflow"
    samples = {m: [] for m in modules}
    for _ in range(repeat):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True, text=True, timeout=120, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) * 1e-6
        for mod in modules:
            # a module that is no longer imported costs nothing to import
            samples[mod].append(cumulative.get(mod, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


def layer_metrics(tracer, rounds, calib, imports, overhead, worst):
    """Assemble every per-layer metric; span totals and counts are per round.

    `worst` maps (kind, check, method) to [largest residual, tolerance].
    """
    per = 1.0 / max(rounds, 1)
    t = tracer.total
    values = dict(calib)
    values["import.jacobiflow_s"] = imports["jacobiflow"]
    values["import.scipy_interpolate_s"] = imports["scipy.interpolate"]
    values.update({
        "systems.field_eval_s": t("systems.extended_vector_field") * per,
        "systems.field_jac_s": t("systems.field_jacobian") * per,
        "dynamics.integrate_s": t("dynamics.integrate_flow") * per,
        "dynamics.jac_stack_mb": tracer.jac_stack_bytes / 1e6,
        "dynamics.make_rho_s": t("dynamics.make_rho") * per,
        "dynamics.write_csv_s": t("dynamics.write_csv") * per,
        "verify.check_flow_jacobians_s": t("verify.check_flow_jacobians") * per,
        "verify.factorizations": t("verify.jacobi_factor", 0) * per,
        "verify.check_invariance_s": t("verify.check_invariance") * per,
        "verify.rho_map_evals": tracer.counts["rho_map_evals"] * per,
        "verify.hamilton_residual_s": t("verify.hamilton_residual") * per,
        "verify.energy_ledger_s": t("verify.energy_ledger") * per,
        "verify.reports": tracer.counts["reports"] * per,
        # share of reports that are not a Jacobimorphism, subtracted from 1;
        # a workload that makes no report has none that failed
        "verify.jacobimorphism_ratio": 1.0 - (tracer.counts["reports"] - tracer.counts["jacobimorphism"])
        / max(tracer.counts["reports"], 1),
        "forms.form_residuals": t("forms.form_residual", 0) * per,
        "forms.zeta_reduced_calls": t("forms.zeta_reduced", 0) * per,
        "trace.overhead_frac": overhead,
    })
    for layer in LAYERS:
        values[f"{layer}.self_s"] = per * sum(
            tot[2] for name, tot in tracer.totals.items() if name.split(".")[0] == layer
        )
    for check in CHECKS:
        for method in ("rk4", "leapfrog"):
            ratios = [v / tol for (_, c, m), (v, tol) in worst.items() if c == check and m == method]
            values[f"accuracy.{check}.{method}"] = max(ratios, default=0.0)
    # commutators are exact (threshold 0): their failures count in `failed`, not here
    values["accuracy.oracle"] = max(
        (v / tol for (_, c, _), (v, tol) in worst.items() if c == "oracle" and tol > 0), default=0.0
    )
    for name, paths in SOURCES.items():
        if any(p in tracer.missing for p in paths):
            values[name] = None
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    return {name: {"value": values[name], "unit": units[name]} for name, _, _ in LAYER_METRICS}
