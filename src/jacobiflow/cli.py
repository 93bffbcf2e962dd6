"""Batch front-end: argument parsing, config validation, and the report files.

Scenarios come from a flat "key = value" config file ('#' starts a comment,
unknown and duplicate keys are rejected).  Two modes:

* mode = flow: integrate a builtin system, export the trajectory CSV,
  certify the variational Jacobians and the trajectory-built shift
  transform, and write the invariance and ledger reports and the checked
  Jacobians (jacobians.npy, probe_jacobians.npy);
* mode = map: certify one of the builtin catalog maps at random probes and
  write the report and the probe Jacobians (probe_jacobians.npy).

--selftest runs the group-law suites of `selftest` from the seed and writes
their checks to selftest.json.  Every config value, system parameter and
flag is checked (a flag of the other mode is rejected), and the output
directory created, before any work starts.  Exit codes: 0 all checks pass,
1 a verification failed (reports are still written) or a flow blew up (one
"error:" line on stderr, and no report written), 2 bad configuration or
usage (one "config error:" line on stderr for a rejected value or an
unusable output directory).
"""

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .forms import MapHandle, as_dimension, block_to_interleaved
from .selftest import FACTOR_TOL, run_checks
from .systems import BUILTIN_SYSTEMS, builtin_system
from .dynamics import integrate_flow, make_rho, step_count, variational_matrices, write_csv
from .verify import (
    box_probes,
    check_flow_jacobians,
    check_invariance,
    check_matrices,
    energy_ledger,
    hamilton_residual,
    trajectory_probes,
)


class ConfigError(ValueError):
    pass


# every parameter some preset takes, in catalog order; a config holds them under "params"
_PARAM_KEYS = tuple(dict.fromkeys(k for preset in BUILTIN_SYSTEMS.values() for k in preset))
_MAP_NAMES = ("identity", "t_doubling", "rotation", "shear", "scaling")
# hamilton_residual takes interior differences, which need 5 samples
_MIN_FLOW_STEPS = 4
# size limit on the (2n+2)^2 x 8-byte matrices a run holds at once
_MAX_JACOBIAN_BYTES = 2**30
# each probe costs a map Jacobian and a membership check
_MAX_PROBES = 10_000
# the Lie-algebra suite's cost grows as --n cubed; --n 16 takes about 1.2 s
_MAX_SELFTEST_N = 16

# a value in the file parses as its default's type
_DEFAULTS = {
    "mode": "flow",
    "system": "harmonic_oscillator",
    "n": 1,
    "z0": None,  # block order: q1..qn p1..pn eps t; unit q, the rest 0, built once n fits
    "t_end": 5.0,
    "dt": 1e-3,
    "method": "rk4",
    "probes": 20,
    "seed": 0,
    "tol_omega": 1e-5,
    "tol_lambda": 1e-8,
    "tol_hamilton": 1e-5,
    "tol_ledger": 1e-5,
    "map": "identity",
}


def _parse_value(key, val, lineno):
    try:
        if key == "z0":
            return [float(x) for x in val.split()]
        return float(val) if key in _PARAM_KEYS else type(_DEFAULTS[key])(val)
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value for {key!r}: {val!r}") from None


def parse_config(path):
    """Read a config file into the defaults, with the system parameters it sets under "params"."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    cfg = {**_DEFAULTS, "params": {}}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _DEFAULTS and key not in _PARAM_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not val:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        seen.add(key)
        (cfg["params"] if key in _PARAM_KEYS else cfg)[key] = _parse_value(key, val, lineno)
    return cfg


def validate_config(cfg):
    # the library calls that own the dimension, system and flow-time checks raise
    # their ValueError; the default z0 and the system are built last, once the
    # size limit bounds n
    if cfg["mode"] not in ("flow", "map"):
        raise ConfigError(f"mode must be 'flow' or 'map', got {cfg['mode']!r}")
    if cfg["method"] not in ("rk4", "leapfrog"):
        raise ConfigError(f"method must be 'rk4' or 'leapfrog', got {cfg['method']!r}")
    for key in ("t_end", "dt"):
        if not math.isfinite(cfg[key]):
            raise ConfigError(f"{key} must be finite, got {cfg[key]}")
    if not cfg["dt"] > 0:
        raise ConfigError(f"dt must be positive, got {cfg['dt']}")
    if not 1 <= cfg["probes"] <= _MAX_PROBES:
        raise ConfigError(f"probes must lie in 1..{_MAX_PROBES}, got {cfg['probes']}")
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    for key in ("tol_omega", "tol_lambda", "tol_hamilton", "tol_ledger"):
        if not 0 < cfg[key] < math.inf:
            raise ConfigError(f"{key} must be positive and finite, got {cfg[key]}")
    if cfg["map"] not in _MAP_NAMES:
        raise ConfigError(f"map must be one of {_MAP_NAMES}, got {cfg['map']!r}")
    d = 2 * as_dimension(cfg["n"]) + 2
    if cfg["z0"] is not None:
        if len(cfg["z0"]) != d:
            raise ConfigError(f"z0 must have {d} entries (q1..qn p1..pn eps t), got {len(cfg['z0'])}")
        if not all(math.isfinite(x) for x in cfg["z0"]):
            raise ConfigError(f"z0 must be finite, got {cfg['z0']}")
    # the probes and their check; a flow's working set also covers the
    # check of its kept Jacobians, which comes after it and is smaller
    matrices = cfg["probes"] + check_matrices(cfg["probes"], d)
    if cfg["mode"] == "map":
        matrices += 1  # the catalog map's matrix
    else:
        t0 = 0.0 if cfg["z0"] is None else cfg["z0"][-1]
        steps = step_count(t0, cfg["t_end"], cfg["dt"])
        if steps < _MIN_FLOW_STEPS:
            raise ConfigError(
                f"the flow needs at least {_MIN_FLOW_STEPS} steps, got {steps}"
                f" (t_end {cfg['t_end']}, initial time {t0}, dt {cfg['dt']})"
            )
        matrices += variational_matrices(steps, cfg["method"], d)
    if matrices * d * d * 8 > _MAX_JACOBIAN_BYTES:
        # a count past the largest float cannot convert to one; only a rejected run imports this
        from decimal import Decimal

        raise ConfigError(
            f"the run's {Decimal(matrices):.3g} Jacobians of {d} x {d} exceed the size"
            f" limit of {_MAX_JACOBIAN_BYTES} bytes at 8 bytes per entry"
        )
    if cfg["z0"] is None:
        cfg["z0"] = [1.0] * cfg["n"] + [0.0] * (cfg["n"] + 2)
    builtin_system(cfg["system"], n=cfg["n"], **cfg["params"])
    return cfg


def _finite(obj):
    """obj with None (null) for each non-finite float: strict JSON has no NaN or Infinity."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        # json.dump's many small chunks go straight on instead of piling up in the text layer
        fh.reconfigure(write_through=True)
        json.dump(_finite(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_report(out_dir, name, config, **body):
    _write_json(os.path.join(out_dir, name), {"version": __version__, "config": config, **body})


def _print_check(label, rep):
    print(
        f"{label}: {rep.classification}"
        f" (omega {rep.omega_residual_max:.3e}, lambda {rep.lambda_residual_max:.3e})"
    )


def _catalog_map(n, name):
    """The linear check map `name`, its matrix its Jacobian; all but t_doubling are lifted canonical maps."""
    M = np.eye(2 * n + 2)
    q = np.arange(0, 2 * n, 2)  # the q rows and columns; p's are q + 1
    if name == "t_doubling":
        M[-1, -1] = 2.0
    elif name == "rotation":
        c, s = np.cos(0.7), np.sin(0.7)
        M[q, q], M[q, q + 1], M[q + 1, q], M[q + 1, q + 1] = c, -s, s, c
    elif name == "shear":
        M[q, q + 1] = 0.5
    elif name == "scaling":
        M[q, q], M[q + 1, q + 1] = 2.0, 0.5
    return MapHandle(func=lambda z: M @ z, n=n, jacobian=lambda z: M)


def run_flow(cfg, out_dir):
    system = builtin_system(cfg["system"], n=cfg["n"], **cfg["params"])
    z0 = block_to_interleaved(np.asarray(cfg["z0"], dtype=float))
    try:
        traj = integrate_flow(
            system, z0, cfg["t_end"], cfg["dt"],
            method=cfg["method"], with_variational=True,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    probes = trajectory_probes(traj, cfg["probes"], np.random.default_rng(cfg["seed"]))
    write_csv(traj, os.path.join(out_dir, "trajectory.csv"))
    rho = make_rho(traj, system)
    tols = {"tol_omega": cfg["tol_omega"], "tol_lambda": cfg["tol_lambda"]}
    rho_rep = check_invariance(rho.as_map(), probes, **tols)
    flow_rep = check_flow_jacobians(traj, **tols)
    np.save(os.path.join(out_dir, "jacobians.npy"), traj.jac)
    np.save(os.path.join(out_dir, "probe_jacobians.npy"), rho_rep.jacobians)
    h_res = hamilton_residual(traj, system)
    ledger = energy_ledger(traj, system)

    passed = {
        "flow_jacobians": flow_rep.classification == "Jacobimorphism",
        "rho_transform": rho_rep.classification == "Jacobimorphism",
        "hamilton_residual": h_res <= cfg["tol_hamilton"],
        "energy_ledger": ledger.residual <= cfg["tol_ledger"],
    }
    ok = all(passed.values())
    _write_report(
        out_dir, "invariance.json", cfg,
        dt_actual=traj.dt,
        flow_jacobians={**flow_rep.to_dict(), "jacobian_steps": traj.jac_steps.tolist()},
        rho_transform=rho_rep.to_dict(),
        hamilton_residual=h_res,
        passed=passed,
        all_passed=ok,
    )
    _write_report(
        out_dir, "ledger.json", cfg, ledger=ledger.to_dict(), passed=passed["energy_ledger"]
    )
    _print_check("flow jacobians", flow_rep)
    _print_check("rho transform", rho_rep)
    print(f"hamilton residual: {h_res:.3e} (tol {cfg['tol_hamilton']:.1e})")
    print(f"ledger residual: {ledger.residual:.3e} (tol {cfg['tol_ledger']:.1e})")
    print("scenario:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def run_map(cfg, out_dir):
    handle = _catalog_map(cfg["n"], cfg["map"])
    probes = box_probes(cfg["n"], cfg["probes"], np.random.default_rng(cfg["seed"]))
    rep = check_invariance(handle, probes, tol_omega=cfg["tol_omega"], tol_lambda=cfg["tol_lambda"])
    ok = rep.classification == "Jacobimorphism"
    np.save(os.path.join(out_dir, "probe_jacobians.npy"), rep.jacobians)
    _write_report(
        out_dir, "invariance.json", cfg, map=cfg["map"], check=rep.to_dict(), all_passed=ok
    )
    _print_check(f"map {cfg['map']}", rep)
    return 0 if ok else 1


def _make_out_dir(out_dir, reports):
    # before any work, so that a bad --out costs nothing and prints no traceback
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {e}") from None
    for name in reports:
        path = os.path.join(out_dir, name)
        if os.path.exists(path) and not os.path.isfile(path):
            raise ConfigError(f"cannot write report {path!r}: it exists and is not a regular file")


def run_scenario(cfg, out_dir):
    try:
        cfg = validate_config(cfg)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if cfg["mode"] == "map":
        _make_out_dir(out_dir, ("probe_jacobians.npy", "invariance.json"))
        return run_map(cfg, out_dir)
    _make_out_dir(
        out_dir,
        ("trajectory.csv", "jacobians.npy", "probe_jacobians.npy", "invariance.json", "ledger.json"),
    )
    return run_flow(cfg, out_dir)


def validate_selftest(seed, n_max, fuzz):
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not 1 <= n_max <= _MAX_SELFTEST_N:
        raise ConfigError(f"--n must lie in 1..{_MAX_SELFTEST_N}, got {n_max}")
    # a perturbation no larger than the factorization tolerance cannot be detected
    if fuzz is not None and not (math.isfinite(fuzz) and abs(fuzz) > FACTOR_TOL):
        raise ConfigError(f"--fuzz must be finite with |MAG| > {FACTOR_TOL:g}, got {fuzz}")


def run_selftest(seed, n_max, fuzz, out_dir):
    _make_out_dir(out_dir, ("selftest.json",))
    checks = run_checks(seed, n_max, fuzz)
    ok = all(c["passed"] for c in checks)
    config = {"seed": seed, "n_max": n_max, "fuzz": fuzz}
    _write_report(out_dir, "selftest.json", config, checks=checks, all_passed=ok)
    for c in checks:
        print(
            f"{c['name']}: {'PASS' if c['passed'] else 'FAIL'}"
            f" (residual {c['residual']:.3e}, threshold {c['threshold']:.3e},"
            f" {c['count']} cases)"
        )
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="jacobiflow",
        description="Integrate extended Hamiltonian flows and certify invariance.",
    )
    # argparse takes an argument for an option unless it matches this private
    # attribute, whose default pattern has no exponent, inf or nan: widen it
    # so that "--fuzz -1e-3" reads -1e-3 as the value
    parser._negative_number_matcher = re.compile(
        r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
    )
    parser.add_argument("--config", metavar="PATH", help="scenario config file")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--tol-omega", type=float, default=None, dest="tol_omega")
    parser.add_argument("--tol-lambda", type=float, default=None, dest="tol_lambda")
    parser.add_argument("--selftest", action="store_true", help="run the group-law suites")
    parser.add_argument(
        "--fuzz", type=float, default=None, metavar="MAG",
        help="selftest: perturb one matrix entry and require detection",
    )
    parser.add_argument(
        "--n", type=int, default=None, help="selftest: largest n for the algebra suite (default 3)"
    )
    args = parser.parse_args(argv)

    if not (args.selftest or args.config):
        print("error: either --config or --selftest is required", file=sys.stderr)
        return 2
    # a flag of the other mode, which this one would ignore
    other = ("config", "tol_omega", "tol_lambda") if args.selftest else ("fuzz", "n")
    try:
        for name in other:
            if getattr(args, name) is not None:
                word = "does not apply to" if args.selftest else "needs"
                raise ConfigError(f"--{name.replace('_', '-')} {word} --selftest")
        if args.selftest:
            seed = 0 if args.seed is None else args.seed
            n_max = 3 if args.n is None else args.n
            validate_selftest(seed, n_max, args.fuzz)
            return run_selftest(seed, n_max, args.fuzz, args.out)
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.tol_omega is not None:
            cfg["tol_omega"] = args.tol_omega
        if args.tol_lambda is not None:
            cfg["tol_lambda"] = args.tol_lambda
        return run_scenario(cfg, args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
