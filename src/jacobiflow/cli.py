"""Batch front-end: argument parsing, config validation, and the report files.

Scenarios come from a flat "key = value" config file ('#' starts a comment,
unknown and duplicate keys are rejected).  Two modes:

* mode = flow: integrate a builtin system, export the trajectory CSV,
  certify the variational Jacobians and the trajectory-built shift
  transform, and write the invariance and ledger reports;
* mode = map: certify one of the builtin catalog maps at random probes.

--selftest runs the group-law suites of `selftest` from the seed and writes
their checks to selftest.json.  Every config value and flag is checked
before any work starts.  Exit codes: 0 all checks pass, 1 a verification
failed (reports are still written), 2 bad configuration or usage (one
"config error:" line on stderr for a rejected value).
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .forms import MapHandle, as_dimension, block_to_interleaved
from .selftest import FACTOR_TOL, run_checks
from .systems import BUILTIN_SYSTEMS, builtin_system
from .dynamics import integrate_flow, make_rho, step_count, write_csv
from .verify import (
    box_probes,
    check_flow_jacobians,
    check_invariance,
    energy_ledger,
    hamilton_residual,
    trajectory_probes,
)


class ConfigError(ValueError):
    pass


_INT_KEYS = {"n", "probes", "seed"}
_FLOAT_KEYS = {
    "t_end", "dt",
    "mass", "frequency", "amplitude", "drive_frequency", "g",
    "tol_omega", "tol_lambda", "tol_hamilton", "tol_ledger",
}
_STR_KEYS = {"mode", "system", "method", "map"}
_PARAM_KEYS = ("mass", "frequency", "amplitude", "drive_frequency", "g")
_MAP_NAMES = ("identity", "t_doubling", "rotation", "shear", "scaling")
# hamilton_residual takes interior differences, which need 5 samples
_MIN_FLOW_STEPS = 4
# a flow stores (steps + 1) Jacobians of (2n+2)^2 floats; larger requests
# are rejected before anything is allocated
_MAX_JACOBIAN_BYTES = 2**30
# each probe costs a finite-difference Jacobian and a factorization
_MAX_PROBES = 10_000
# the Lie-algebra suite's cost grows as --n cubed; --n 16 takes about 1.2 s
_MAX_SELFTEST_N = 16

_DEFAULTS = {
    "mode": "flow",
    "system": "harmonic_oscillator",
    "n": 1,
    "z0": None,  # block order: q1..qn p1..pn eps t
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
    "mass": None,
    "frequency": None,
    "amplitude": None,
    "drive_frequency": None,
    "g": None,
}


def _parse_value(key, val, lineno):
    try:
        if key in _INT_KEYS:
            return int(val)
        if key in _FLOAT_KEYS:
            return float(val)
        if key == "z0":
            return [float(x) for x in val.split()]
        return val
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value for {key!r}: {val!r}") from None


def parse_config(path):
    """Read a config file; returns (cfg dict, set of keys present in the file)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    cfg = dict(_DEFAULTS)
    present = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in present:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not val:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        present.add(key)
        cfg[key] = _parse_value(key, val, lineno)
    return cfg, present


def validate_config(cfg, present):
    if cfg["mode"] not in ("flow", "map"):
        raise ConfigError(f"mode must be 'flow' or 'map', got {cfg['mode']!r}")
    if cfg["method"] not in ("rk4", "leapfrog"):
        raise ConfigError(f"method must be 'rk4' or 'leapfrog', got {cfg['method']!r}")
    if cfg["n"] < 1:
        raise ConfigError(f"n must be >= 1, got {cfg['n']}")
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
    if cfg["system"] not in BUILTIN_SYSTEMS:
        raise ConfigError(
            f"system must be one of {sorted(BUILTIN_SYSTEMS)}, got {cfg['system']!r}"
        )
    d = 2 * cfg["n"] + 2
    if cfg["z0"] is None:
        cfg["z0"] = [1.0] * cfg["n"] + [0.0] * cfg["n"] + [0.0, 0.0]
    elif len(cfg["z0"]) != d:
        raise ConfigError(f"z0 must have {d} entries (q1..qn p1..pn eps t), got {len(cfg['z0'])}")
    elif not all(math.isfinite(x) for x in cfg["z0"]):
        raise ConfigError(f"z0 must be finite, got {cfg['z0']}")
    if cfg["mode"] == "flow":
        t0 = cfg["z0"][-1]
        if not cfg["t_end"] > t0:
            raise ConfigError(f"t_end ({cfg['t_end']}) must exceed the initial time ({t0})")
        try:
            steps = step_count(t0, cfg["t_end"], cfg["dt"])
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if steps < _MIN_FLOW_STEPS:
            raise ConfigError(
                f"the flow needs at least {_MIN_FLOW_STEPS} steps, got {steps}"
                f" (t_end {cfg['t_end']}, initial time {t0}, dt {cfg['dt']})"
            )
        if (steps + 1) * d * d * 8 > _MAX_JACOBIAN_BYTES:
            raise ConfigError(
                f"the flow's {steps + 1:.3g} Jacobians of {d} x {d} floats exceed the"
                f" {_MAX_JACOBIAN_BYTES}-byte limit on the Jacobian stack"
            )
    return cfg


def _resolved(cfg, params):
    out = {
        k: cfg[k]
        for k in (
            "mode", "system", "n", "t_end", "dt", "method", "probes", "seed",
            "tol_omega", "tol_lambda", "tol_hamilton", "tol_ledger", "map",
        )
    }
    out["z0"] = [float(x) for x in cfg["z0"]]
    out["params"] = dict(params)
    return out


def _write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _map_catalog(n):
    """Hand-built check maps; all but t_doubling are lifted canonical maps."""
    nd = as_dimension(n)
    d = nd.extended
    k = nd.reduced

    def linear(M, name):
        return MapHandle(func=lambda z, M=M: M @ np.asarray(z, dtype=float), n=nd, name=name)

    T = np.eye(d)
    T[-1, -1] = 2.0
    c, s = np.cos(0.7), np.sin(0.7)
    R = np.eye(d)
    S = np.eye(d)
    C = np.eye(d)
    for i in range(nd.n):
        R[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[c, -s], [s, c]]
        S[2 * i, 2 * i + 1] = 0.5
        C[2 * i, 2 * i] = 2.0
        C[2 * i + 1, 2 * i + 1] = 0.5
    return {
        "identity": MapHandle(
            func=lambda z: np.asarray(z, dtype=float).copy(), n=nd, name="identity"
        ),
        "t_doubling": linear(T, "t_doubling"),
        "rotation": linear(R, "rotation"),
        "shear": linear(S, "shear"),
        "scaling": linear(C, "scaling"),
    }


def run_flow(cfg, params, out_dir):
    try:
        system = builtin_system(cfg["system"], n=cfg["n"], **params)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    z0 = block_to_interleaved(np.asarray(cfg["z0"], dtype=float))
    try:
        traj = integrate_flow(
            system, z0, cfg["t_end"], cfg["dt"],
            method=cfg["method"], with_variational=True,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    try:
        probes = trajectory_probes(traj, cfg["probes"], np.random.default_rng(cfg["seed"]))
    except ValueError as e:
        raise ConfigError(str(e)) from None
    write_csv(traj, os.path.join(out_dir, "trajectory.csv"))
    rho = make_rho(traj, system)
    rho_rep = check_invariance(
        rho.as_map(), probes, tol_omega=cfg["tol_omega"], tol_lambda=cfg["tol_lambda"]
    )
    flow_rep = check_flow_jacobians(
        traj, tol_omega=cfg["tol_omega"], tol_lambda=cfg["tol_lambda"], factor_every=10
    )
    h_res = hamilton_residual(traj, system)
    ledger = energy_ledger(traj, system)

    passed = {
        "flow_jacobians": flow_rep.classification == "Jacobimorphism",
        "rho_transform": rho_rep.classification == "Jacobimorphism",
        "hamilton_residual": h_res <= cfg["tol_hamilton"],
        "energy_ledger": ledger.residual <= cfg["tol_ledger"],
    }
    ok = all(passed.values())
    resolved = _resolved(cfg, params)
    _write_json(
        os.path.join(out_dir, "invariance.json"),
        {
            "version": __version__,
            "config": resolved,
            "dt_actual": traj.dt,
            "flow_jacobians": flow_rep.to_dict(),
            "rho_transform": rho_rep.to_dict(),
            "hamilton_residual": h_res,
            "passed": passed,
            "all_passed": ok,
        },
    )
    _write_json(
        os.path.join(out_dir, "ledger.json"),
        {
            "version": __version__,
            "config": resolved,
            "ledger": ledger.to_dict(),
            "passed": passed["energy_ledger"],
        },
    )
    print(
        f"flow jacobians: {flow_rep.classification}"
        f" (omega {flow_rep.omega_residual_max:.3e}, lambda {flow_rep.lambda_residual_max:.3e})"
    )
    print(
        f"rho transform: {rho_rep.classification}"
        f" (omega {rho_rep.omega_residual_max:.3e}, lambda {rho_rep.lambda_residual_max:.3e})"
    )
    print(f"hamilton residual: {h_res:.3e} (tol {cfg['tol_hamilton']:.1e})")
    print(f"ledger residual: {ledger.residual:.3e} (tol {cfg['tol_ledger']:.1e})")
    print("scenario:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def run_map(cfg, params, out_dir):
    handle = _map_catalog(cfg["n"])[cfg["map"]]
    rng = np.random.default_rng(cfg["seed"])
    probes = box_probes(cfg["n"], cfg["probes"], rng)
    rep = check_invariance(
        handle, probes, tol_omega=cfg["tol_omega"], tol_lambda=cfg["tol_lambda"]
    )
    ok = rep.classification == "Jacobimorphism"
    _write_json(
        os.path.join(out_dir, "invariance.json"),
        {
            "version": __version__,
            "config": _resolved(cfg, params),
            "map": cfg["map"],
            "check": rep.to_dict(),
            "all_passed": ok,
        },
    )
    print(
        f"map {cfg['map']}: {rep.classification}"
        f" (omega {rep.omega_residual_max:.3e}, lambda {rep.lambda_residual_max:.3e})"
    )
    return 0 if ok else 1


def run_scenario(cfg, present, out_dir):
    cfg = validate_config(cfg, present)
    params = {k: cfg[k] for k in _PARAM_KEYS if k in present}
    os.makedirs(out_dir, exist_ok=True)
    if cfg["mode"] == "map":
        return run_map(cfg, params, out_dir)
    return run_flow(cfg, params, out_dir)


def validate_selftest(seed, n_max, fuzz):
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not 1 <= n_max <= _MAX_SELFTEST_N:
        raise ConfigError(f"--n must lie in 1..{_MAX_SELFTEST_N}, got {n_max}")
    # a perturbation no larger than the factorization tolerance cannot be detected
    if fuzz is not None and not (math.isfinite(fuzz) and abs(fuzz) > FACTOR_TOL):
        raise ConfigError(f"--fuzz must be finite with |MAG| > {FACTOR_TOL:g}, got {fuzz}")


def run_selftest(seed, n_max, fuzz, out_dir):
    checks = run_checks(seed, n_max, fuzz)
    ok = all(c["passed"] for c in checks)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(
        os.path.join(out_dir, "selftest.json"),
        {
            "version": __version__,
            "config": {"seed": seed, "n_max": n_max, "fuzz": fuzz},
            "checks": checks,
            "all_passed": ok,
        },
    )
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
        "--n", type=int, default=3, help="selftest: largest n for the algebra suite"
    )
    args = parser.parse_args(argv)

    if not (args.selftest or args.config):
        print("error: either --config or --selftest is required", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            seed = 0 if args.seed is None else args.seed
            validate_selftest(seed, args.n, args.fuzz)
            return run_selftest(seed, args.n, args.fuzz, args.out)
        cfg, present = parse_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.tol_omega is not None:
            cfg["tol_omega"] = args.tol_omega
        if args.tol_lambda is not None:
            cfg["tol_lambda"] = args.tol_lambda
        return run_scenario(cfg, present, args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
