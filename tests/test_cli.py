import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import jacobiflow.cli as cli
from jacobiflow import (
    __version__,
    block_to_interleaved,
    builtin_system,
    check_flow_jacobians,
    check_invariance,
    energy_ledger,
    hamilton_residual,
    integrate_flow,
    jacobi_factor,
    make_rho,
    trajectory_probes,
    write_csv,
)
from jacobiflow.cli import ConfigError, main, parse_config, validate_config
from jacobiflow.dynamics import variational_matrices
from jacobiflow.verify import check_matrices
from jacobiflow.selftest import run_checks
from reference_helpers import factorization


def _write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(tmp_path, text, *extra):
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    return main(["--config", cfg, "--out", str(out), *extra]), out


FLOW_CFG = """\
# harmonic oscillator round trip
mode = flow
system = harmonic_oscillator
t_end = 2.0
dt = 1e-3
probes = 10
seed = 3
"""
MAP_CFG = "mode = map\nmap = rotation\nn = 3\nprobes = 10\nseed = 4\n"


def test_flow_scenario_passes(tmp_path, capsys):
    code, out = _run(tmp_path, FLOW_CFG)
    assert code == 0
    assert (out / "trajectory.csv").exists()
    inv = json.loads((out / "invariance.json").read_text())
    led = json.loads((out / "ledger.json").read_text())
    assert inv["all_passed"] is True
    assert inv["flow_jacobians"]["classification"] == "Jacobimorphism"
    assert inv["rho_transform"]["classification"] == "Jacobimorphism"
    assert "version" in inv and "config" in inv
    assert led["passed"] is True
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("flow jacobians: Jacobimorphism") for line in lines)
    assert "scenario: PASS" in lines


def test_flow_csv_header_and_first_row(tmp_path):
    code, out = _run(tmp_path, FLOW_CFG)
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "tau,q1,p1,eps,t,v1,f1,r"
    assert lines[1] == "0,1,0,0,0,0,-1,0"


FLOW_REPORTS = ("trajectory.csv", "jacobians.npy", "probe_jacobians.npy", "invariance.json", "ledger.json")


def _assert_deterministic(tmp_path, text, reports):
    cfg = _write(tmp_path, text)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out_a)]) == 0
    assert main(["--config", cfg, "--out", str(out_b)]) == 0
    assert sorted(p.name for p in out_a.iterdir()) == sorted(reports)
    for name in reports:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_flow_outputs_are_deterministic(tmp_path):
    _assert_deterministic(tmp_path, FLOW_CFG, FLOW_REPORTS)


def test_map_outputs_are_deterministic(tmp_path):
    _assert_deterministic(tmp_path, MAP_CFG, ("probe_jacobians.npy", "invariance.json"))


def test_jacobians_npy_is_the_kept_flow_jacobians(tmp_path):
    code, out = _run(tmp_path, FLOW_CFG)
    assert code == 0
    traj = integrate_flow(
        builtin_system("harmonic_oscillator"), np.array([1.0, 0.0, 0.0, 0.0]), 2.0, 1e-3,
        with_variational=True,
    )
    jac = np.load(out / "jacobians.npy", allow_pickle=False)
    assert jac.dtype == np.float64 and jac.shape == traj.jac.shape
    assert jac.tobytes() == traj.jac.tobytes()
    inv = json.loads((out / "invariance.json").read_text())
    assert inv["flow_jacobians"]["jacobian_steps"] == traj.jac_steps.tolist()
    assert inv["flow_jacobians"]["n_factored"] == len(jac)
    assert len(np.load(out / "probe_jacobians.npy")) == inv["rho_transform"]["n_probes"] == 10


def _read_off(J):
    """(sigma, w, r, tr) of a Jacobi matrix, read from its entries."""
    k = J.shape[0] - 2
    tr = 1 if J[-1, -1] > 0 else -1
    return J[:k, :k], tr * J[:k, -1], tr * J[k, -1] / 2, tr


@pytest.mark.parametrize("text", [FLOW_CFG, MAP_CFG], ids=["flow", "map"])
def test_npy_entries_are_the_factor_parameters(tmp_path, text):
    code, out = _run(tmp_path, text)
    assert code == 0
    stacks = [np.load(p, allow_pickle=False) for p in sorted(out.glob("*.npy"))]
    assert stacks
    for J in np.concatenate(stacks):
        g = jacobi_factor(J, tol=1e-5)
        sigma, w, r, tr = _read_off(J)
        assert g.sigma.sigma.tobytes() == sigma.tobytes()
        assert g.w.tobytes() == w.tobytes()
        assert np.float64(g.r).tobytes() == np.float64(r).tobytes() and g.tr == tr


def test_seed_override_changes_probes(tmp_path):
    cfg = _write(tmp_path, FLOW_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out_a)]) == 0
    assert main(["--config", cfg, "--out", str(out_b), "--seed", "99"]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    assert (out_a / "invariance.json").read_bytes() != (out_b / "invariance.json").read_bytes()


def test_nested_out_dir_is_created(tmp_path):
    cfg = _write(tmp_path, FLOW_CFG)
    out = tmp_path / "deep" / "nested" / "dir"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    assert (out / "invariance.json").exists()


def test_map_identity_passes(tmp_path):
    code, out = _run(tmp_path, "mode = map\nmap = identity\nprobes = 6\nseed = 1\n")
    assert code == 0
    inv = json.loads((out / "invariance.json").read_text())
    assert inv["check"]["classification"] == "Jacobimorphism"
    assert inv["map"] == "identity"


def test_map_t_doubling_fails(tmp_path, capsys):
    code, out = _run(tmp_path, "mode = map\nmap = t_doubling\nprobes = 6\nseed = 1\n")
    assert code == 1
    inv = json.loads((out / "invariance.json").read_text())
    assert inv["check"]["classification"] == "Neither"
    assert inv["all_passed"] is False
    assert abs(inv["check"]["lambda_residual_max"] - 3.0) < 1e-6
    assert "map t_doubling: Neither" in capsys.readouterr().out


def test_map_rotation_passes(tmp_path):
    code, out = _run(tmp_path, "mode = map\nmap = rotation\nn = 2\nprobes = 5\n")
    assert code == 0
    inv = json.loads((out / "invariance.json").read_text())
    assert inv["check"]["classification"] == "Jacobimorphism"


# the exit code, classification and exact residual maxima (omega, lambda) of
# each catalog map, whose Jacobian is its matrix; the rotation's omega
# residual is the round-off of cos^2 + sin^2
_MAP_OUTCOMES = {
    "identity": (0, "Jacobimorphism", 0.0, 0.0),
    "rotation": (0, "Jacobimorphism", None, 0.0),
    "shear": (0, "Jacobimorphism", 0.0, 0.0),
    "scaling": (0, "Jacobimorphism", 0.0, 0.0),
    # dt^2 becomes 4 dt^2; the symplectic form only doubles on the (eps, t) block
    "t_doubling": (1, "Neither", 1.0, 3.0),
}


@pytest.mark.parametrize("n", [1, 3, 16])
@pytest.mark.parametrize("name", cli._MAP_NAMES)
def test_every_catalog_map_through_the_cli(tmp_path, name, n):
    code, classification, omega, lam = _MAP_OUTCOMES[name]
    got, out = _run(tmp_path, f"mode = map\nmap = {name}\nn = {n}\nprobes = 10\n")
    assert got == code
    check = json.loads((out / "invariance.json").read_text())["check"]
    assert check["classification"] == classification
    if omega is None:
        assert check["omega_residual_max"] <= 1e-16
    else:
        assert check["omega_residual_max"] == omega
    assert check["lambda_residual_max"] == lam


# a harmonic oscillator whose RK4 step at dt = 100 grows the state about 4e6-fold:
# from (1, 0) it overflows at step 47; from the origin the state stays 0 while
# the variational Jacobian overflows
_BLOW_UP_CFG = "system = harmonic_oscillator\ndt = 100\nt_end = 10000\n"


def _run_recording_warnings(tmp_path, text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = _run(tmp_path, text)
    return code, out, caught


def test_a_flow_that_blows_up_exits_1_with_one_error_line_and_no_report(tmp_path, capsys):
    code, out, caught = _run_recording_warnings(tmp_path, _BLOW_UP_CFG)
    assert code == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err == "error: flow blew up: non-finite state or field at step 47 (last valid step 46)\n"
    assert list(out.iterdir()) == []


def test_an_overflowing_jacobian_fails_its_certificate_without_warnings(tmp_path, capsys):
    code, out, caught = _run_recording_warnings(tmp_path, _BLOW_UP_CFG + "z0 = 0 0 0 0\n")
    assert code == 1
    assert [str(w.message) for w in caught] == []
    assert "flow jacobians: Neither (omega nan, lambda nan)" in capsys.readouterr().out
    reports = {"trajectory.csv", "jacobians.npy", "probe_jacobians.npy", "invariance.json",
               "ledger.json"}
    assert {p.name for p in out.iterdir()} == reports


def _strict_json(path):
    # RFC 8259 JSON: json.loads reads NaN, Infinity and -Infinity only through parse_constant
    def refuse(token):
        raise ValueError(f"{path.name} holds the non-standard token {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_an_overflowing_flow_writes_strict_json_with_null_residuals(tmp_path, capsys):
    # its residuals are NaN and inf, which strict JSON cannot hold: they read null
    code, out = _run(tmp_path, _BLOW_UP_CFG + "z0 = 0 0 0 0\n")
    assert code == 1
    assert len(list(out.iterdir())) == 5
    inv = _strict_json(out / "invariance.json")
    _strict_json(out / "ledger.json")
    flow = inv["flow_jacobians"]
    assert flow["omega_residual_max"] is None and flow["lambda_residual_max"] is None
    assert flow["classification"] == "Neither"
    assert inv["passed"]["flow_jacobians"] is False and inv["all_passed"] is False
    assert "flow jacobians: Neither (omega nan, lambda nan)" in capsys.readouterr().out


def test_driven_flow_with_params(tmp_path):
    code, out = _run(
        tmp_path,
        "mode = flow\nsystem = driven_oscillator\nt_end = 5.0\ndt = 1e-3\n"
        "amplitude = 0.4\ndrive_frequency = 1.5\nseed = 2\n",
    )
    assert code == 0
    inv = json.loads((out / "invariance.json").read_text())
    assert inv["config"]["params"]["amplitude"] == 0.4
    assert inv["config"]["params"]["drive_frequency"] == 1.5
    assert inv["all_passed"] is True


def test_selftest_passes(tmp_path, capsys):
    out = tmp_path / "st"
    assert main(["--selftest", "--out", str(out), "--n", "3"]) == 0
    data = json.loads((out / "selftest.json").read_text())
    assert data["all_passed"] is True
    assert all(c["passed"] for c in data["checks"])
    text = capsys.readouterr().out
    assert "selftest: PASS" in text
    assert "lie_algebra" in text


def test_selftest_contract(tmp_path):
    # names, thresholds and counts per check at the default --n; the
    # residuals depend on the BLAS build, so they are not pinned here
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--selftest", "--seed", "0", "--out", str(a)]) == 0
    assert main(["--selftest", "--seed", "0", "--out", str(b)]) == 0
    raw = (a / "selftest.json").read_bytes()
    assert raw == (b / "selftest.json").read_bytes()
    checks = json.loads(raw)["checks"]
    assert [(c["name"], c["threshold"], c["count"]) for c in checks] == [
        ("heisenberg_axioms", 1e-12, 600),
        ("jacobi_axioms", 1e-10, 600),
        ("matrix_homomorphism", 1e-10, 600),
        ("matrix_inverse", 1e-10, 600),
        ("sp_conjugation", 1e-10, 300),
        ("factor_roundtrip", 1e-10, 600),
        ("igl_roundtrip", 1e-12, 600),
        ("lie_algebra", 0.0, 68),
        ("delta_automorphism", 0.0, 300),
        ("commutators", 0.0, 100),
        ("euclidean_subgroup", 1e-12, 100),
    ]
    # the file holds exactly the check dicts that the suites return
    assert checks == run_checks(0, 3)


def test_selftest_fuzz_below_the_factor_tolerance_is_reported_undetected():
    assert run_checks(0, 1, fuzz=1e-12)[-1] == {
        "name": "fuzz_pattern_violation", "passed": False, "residual": 1e-12,
        "threshold": 1e-9, "count": 1,
    }


def test_selftest_fuzz_detects_perturbation(tmp_path):
    out = tmp_path / "st"
    assert main(["--selftest", "--out", str(out), "--fuzz", "1e-3"]) == 0
    data = json.loads((out / "selftest.json").read_text())
    names = [c["name"] for c in data["checks"]]
    assert "fuzz_pattern_violation" in names
    fuzz = next(c for c in data["checks"] if c["name"] == "fuzz_pattern_violation")
    assert fuzz["passed"] is True


@pytest.mark.parametrize(
    "text",
    [
        "mode = flow\ndt = 0\nt_end = 1.0\n",
        "mode = flow\ndt = -1e-3\nt_end = 1.0\n",
        "mode = warp\n",
        "unknown_key = 1\n",
        "params = 1\n",  # the parameters' place in the config, not a key of the file
        "seed = 1\nseed = 2\n",
        "dt = fast\n",
        "z0 = 1 0\n",
        "method = euler\n",
        "system = pendulum\n",
        "probes = 0\n",
        "mode = map\nmap = teleport\n",
        "t_end = 0.0\n",
        "mode = flow\n\njust words\n",
        "t_end = inf\n",
        "dt = nan\n",
        "dt = 1e-320\n",
        "t_end = 0.001\n",
        "t_end = 0.003\n",
        "z0 = 1 0 inf 0\n",
        # Jacobian stacks over the byte limit, rejected before allocating
        "t_end = 1e300\n",
        "t_end = 1e305\n",
        "n = 16\nt_end = 200\n",
        "n = 1000\nt_end = 0.032\n",  # 4 x 32 RK4 stage Jacobians of one chunk
        # 35 Jacobians: 5 samples, a 4-step chunk's 24, 1 probe and its check's 5
        "n = 1234\nmethod = leapfrog\nt_end = 0.004\nprobes = 1\n",
        "mode = map\nn = 100\nprobes = 10000\n",
        # parameters must be finite and give a finite 1/m and m om^2
        "mass = nan\n",
        "mass = inf\n",
        "mass = 1e-320\n",
        "frequency = 1e200\n",
        "system = constant_force\ng = nan\n",
        "system = driven_oscillator\namplitude = inf\n",
        "system = driven_oscillator\ndrive_frequency = nan\n",
        # checked before --out is made, and in map mode too, which builds no
        # system: map mode used to write "frequency": NaN, which is not JSON
        "mass = -5\n",
        "mode = map\nmass = -5\n",
        "mode = map\nfrequency = nan\n",
        "mode = map\ng = 1\n",
        # the drive's power and Jacobian scale with A om_d and A om_d^2
        "system = driven_oscillator\namplitude = 1e200\ndrive_frequency = 1e200\nt_end = 0.01\n",
        "system = driven_oscillator\namplitude = 1e100\ndrive_frequency = 1e150\nt_end = 0.01\n",
        "tol_omega = inf\n",
        "tol_ledger = inf\n",
        "probes = 10001\n",
        "--selftest --seed -1",
        "--selftest --n 0",
        "--selftest --n 17",
        "--selftest --fuzz nan",
        "--selftest --fuzz inf",
        "--selftest --fuzz=-inf",
        "--selftest --fuzz 0",
        "--selftest --fuzz=-1e-9",
        # a flag of the other mode; CFG stands for a config file that runs
        "--config CFG --fuzz 1e-3",
        "--config CFG --n 3",
        "--config CFG --fuzz 1e-3 --n 99",
        "--selftest --config CFG",
        "--selftest --tol-omega 1e-5",
        "--selftest --tol-lambda 1e-8",
        "--selftest --tol-omega -1 --config /nonexistent.cfg",
    ],
)
def test_bad_configs_exit_2(tmp_path, text, capsys):
    # a case starting with "--" is a command line instead of a config file
    if text.startswith("--"):
        argv = [_write(tmp_path, FLOW_CFG) if arg == "CFG" else arg for arg in text.split()]
        code = main([*argv, "--out", str(tmp_path / "out")])
    else:
        code, _ = _run(tmp_path, text)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    # rejected before --out is made
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n, fits", [(964, True), (965, False)])
def test_jacobian_limit_counts_the_step_increments(tmp_path, n, fits):
    # 4 leapfrog steps and 1 probe count 5 samples; per step of the chunk, a
    # stage Jacobian, 3 increment stacks and the 2 temporaries of their
    # residual; the 19 per-sample rows, rounded up to 1 matrix; the probe and
    # the 5 matrices of its complex step: 36 Jacobians of (2n+2)^2 x 8 bytes,
    # which first exceed 1 GiB at n = 965
    path = tmp_path / "scenario.cfg"
    path.write_text(f"n = {n}\nmethod = leapfrog\nt_end = 0.004\nprobes = 1\n")
    cfg = parse_config(path)
    d = 2 * n + 2
    assert variational_matrices(4, "leapfrog", d) + 1 + check_matrices(1, d) == 5 + 6 * 4 + 1 + 1 + 5 == 36
    if fits:
        validate_config(cfg)
    else:
        with pytest.raises(ConfigError, match=r"the run's 36 Jacobians of 1932 x 1932 exceed"):
            validate_config(cfg)


def test_size_limit_rejects_a_huge_n_before_building_its_default_state(tmp_path):
    # the default z0 has 2n + 2 entries, as Python floats: built only once n fits
    path = tmp_path / "scenario.cfg"
    path.write_text("n = 10000000\n")
    cfg = parse_config(path)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"^the run's .* Jacobians of 20000002 x 20000002 exceed"):
            validate_config(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 and cfg["z0"] is None


@pytest.mark.parametrize(
    "text, message",
    [
        ("z0 = 1 0 0 1e17\nt_end = 100000000000000016\ndt = 0.5\n", "step 0.5 does not exceed the float spacing 16.0"),
        ("z0 = 1 0 0 1e15\nt_end = 1000000000000010\ndt = 0.01\n", "step 0.01 does not exceed the float spacing 0.125"),
    ],
    ids=["spacing_16", "spacing_0.125"],
)
def test_a_step_within_the_float_spacing_exits_2(tmp_path, capsys, text, message):
    # the stored clock would repeat values: a nan or a wrong rho residual and exit 1, with warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = _run(tmp_path, text)
    assert code == 2 and caught == []
    assert capsys.readouterr().err == f"config error: the {message} at the flow's times\n"
    assert not out.exists()


# short flows at n = 20 and 50, and long ones at n = 1 and 2, where the rows
# of length d that every sample keeps outweigh the (d, d) matrices
HELD_FLOWS = [
    (n, method, steps, probes)
    for probes in (1, 20)
    for steps in (4, 31, 33, 100)
    for method in ("rk4", "leapfrog")
    for n in (20, 50)
] + [(1, "rk4", 20_000, 1), (2, "rk4", 20_000, 1)]


@pytest.mark.parametrize(
    "n, method, steps, probes", HELD_FLOWS, ids=[f"{p}-{s}-{m}-{n}" for n, m, s, p in HELD_FLOWS]
)
def test_flow_run_holds_at_most_the_counted_jacobians(tmp_path, n, method, steps, probes):
    # the count the size limit applies: the flow's working set and the probes with their check
    d = 2 * n + 2
    counted = (variational_matrices(steps, method, d) + probes + check_matrices(probes, d)) * d * d * 8
    scenario = f"system = driven_oscillator\nn = {n}\nmethod = {method}\ndt = 1e-3\nprobes = {probes}\n"
    cfg = _write(tmp_path, f"{scenario}t_end = {steps * 1e-3}\n")
    # a 4-step flow of the same n, method and probes warms the shared form caches
    warm = _write(tmp_path, f"{scenario}t_end = 0.004\n", "warm.cfg")
    main(["--config", warm, "--out", str(tmp_path / "warm")])
    tracemalloc.start()
    try:
        code = main(["--config", cfg, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 1)
    assert np.load(tmp_path / "out" / "probe_jacobians.npy").shape == (probes, d, d)
    assert peak <= counted


# map runs that hold more than their matrices unless the rows of length d that
# each probe keeps are counted: many probes at n = 1, 20 and 56, a few at n = 30
HELD_MAPS = [(1, 3000), (20, 500), (56, 300), (30, 20)]


@pytest.mark.parametrize("n, probes", HELD_MAPS, ids=[f"{p}-{n}" for n, p in HELD_MAPS])
def test_map_run_holds_at_most_the_counted_jacobians(tmp_path, n, probes):
    # the count the size limit applies: the probes with their check and the catalog map
    d = 2 * n + 2
    counted = (probes + check_matrices(probes, d) + 1) * d * d * 8
    cfg = _write(tmp_path, f"mode = map\nmap = rotation\nn = {n}\nprobes = {probes}\n")
    main(["--config", cfg, "--out", str(tmp_path / "warm")])  # the form caches are shared
    tracemalloc.start()
    try:
        code = main(["--config", cfg, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= counted


@pytest.mark.parametrize(
    "text, message",
    [
        ("n = 0\n", "dimension must be a positive integer, got 0"),
        ("dt =\n", "line 1: empty value for 'dt'"),
        ("seed = -1\n", "seed must be >= 0, got -1"),
        ("system = teleporter\n", "unknown system 'teleporter'; available: ['constant_force',"
         " 'driven_oscillator', 'free_particle', 'harmonic_oscillator']"),
    ],
)
def test_config_errors_carry_the_library_message(tmp_path, capsys, text, message):
    code, out = _run(tmp_path, text)
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# the report each mode writes last, so that a late failure to write it would waste all the work
LAST_REPORT = {"selftest": "selftest.json", "flow": "ledger.json", "map": "invariance.json"}


@pytest.mark.parametrize("mode", ["selftest", "flow", "map"])
@pytest.mark.parametrize("target", ["file", "below_file", "report_is_dir"])
def test_unusable_out_dir_exits_2_before_any_work(tmp_path, monkeypatch, capsys, mode, target):
    blocker = tmp_path / "taken"
    if target == "report_is_dir":
        (blocker / LAST_REPORT[mode]).mkdir(parents=True)
        out = blocker
    else:
        blocker.write_text("not a directory\n")
        out = blocker if target == "file" else blocker / "sub"

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the output directory was checked")

    for name in ("run_checks", "integrate_flow", "check_invariance"):
        monkeypatch.setattr(cli, name, no_work)
    if mode == "selftest":
        argv = ["--selftest"]
    else:
        text = FLOW_CFG if mode == "flow" else "mode = map\nmap = rotation\n"
        argv = ["--config", _write(tmp_path, text)]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    if target == "report_is_dir":
        assert err.startswith(f"config error: cannot write report {str(out / LAST_REPORT[mode])!r}")
        assert [p.name for p in blocker.iterdir()] == [LAST_REPORT[mode]]
    else:
        assert err.startswith("config error: cannot create output directory")
        assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "text, name",
    [(FLOW_CFG, "jacobians.npy"), (FLOW_CFG, "probe_jacobians.npy"), (MAP_CFG, "probe_jacobians.npy")],
    ids=["flow-jacobians", "flow-probe_jacobians", "map-probe_jacobians"],
)
def test_npy_report_that_is_a_directory_exits_2_before_any_work(tmp_path, monkeypatch, capsys, text, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the output directory was checked")

    for work in ("integrate_flow", "check_invariance"):
        monkeypatch.setattr(cli, work, no_work)
    assert main(["--config", _write(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot write report {str(out / name)!r}: it exists and is not a regular file\n"
    assert [p.name for p in out.iterdir()] == [name]


def test_negative_flag_value_with_exponent_is_a_value(tmp_path, capsys):
    # argparse alone reads "-1e-3" as an option and fails with a usage block
    out = tmp_path / "st"
    assert main(["--selftest", "--fuzz", "-1e-3", "--out", str(out)]) == 0
    data = json.loads((out / "selftest.json").read_text())
    assert data["config"]["fuzz"] == -1e-3
    assert data["all_passed"] is True
    capsys.readouterr()
    code, out = _run(tmp_path, FLOW_CFG, "--tol-omega", "-1e-5")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: tol_omega") and err.count("\n") == 1
    assert not out.exists()


def test_tol_lambda_flag_overrides_the_config(tmp_path, capsys):
    code, out = _run(tmp_path, FLOW_CFG + "tol_lambda = 1e-8\n", "--tol-lambda", "1e-9")
    assert code == 0
    inv = json.loads((out / "invariance.json").read_text())
    assert inv["config"]["tol_lambda"] == 1e-9
    assert inv["flow_jacobians"]["tol_lambda"] == inv["rho_transform"]["tol_lambda"] == 1e-9
    capsys.readouterr()
    neg = tmp_path / "neg"
    assert main(["--config", _write(tmp_path, FLOW_CFG), "--out", str(neg), "--tol-lambda", "-1e-9"]) == 2
    assert capsys.readouterr().err == "config error: tol_lambda must be positive and finite, got -1e-09\n"
    assert not neg.exists()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"seed = 1 # caf\xe9\n")
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config file: 'utf-8' codec")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _assert_rho_is_round_off(out, stdout):
    rho = json.loads((out / "invariance.json").read_text())["rho_transform"]
    assert rho["classification"] == "Jacobimorphism"
    assert rho["omega_residual_max"] <= 1e-15 and rho["lambda_residual_max"] == 0.0
    assert "rho transform: Jacobimorphism" in stdout


# a central difference step grows with |t|; at these start times its error
# classified the shift transform as TimePreservingOnly, and the run exited 1.
# The complex step leaves Re t where it is
@pytest.mark.parametrize("t0", [1000, 10000])
def test_late_start_flows_certify_the_shift_transform(tmp_path, t0, capsys):
    code, out = _run(tmp_path, f"system = driven_oscillator\nz0 = 1 0 0 {t0}\nt_end = {t0 + 5}\n")
    assert code == 0
    _assert_rho_is_round_off(out, capsys.readouterr().out)


def test_late_start_flow_keeps_probes_inside_the_table(tmp_path, capsys):
    # at t0 = 1e5 a central difference step is about 1.0; the probes are
    # stored samples, either end included, and need no room around them
    code, out = _run(tmp_path, "z0 = 0.5 0.1 0.0 100000\nt_end = 100005\n")
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    inv = json.loads((out / "invariance.json").read_text())
    assert inv["rho_transform"]["n_probes"] == 20
    assert inv["flow_jacobians"]["classification"] == "Jacobimorphism"
    _assert_rho_is_round_off(out, captured.out)


def test_import_leaves_scipy_unloaded():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys, jacobiflow, jacobiflow.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_no_mode_arguments(capsys):
    assert main([]) == 2
    assert "--config or --selftest" in capsys.readouterr().err


def test_parse_config_grammar(tmp_path):
    path = _write(
        tmp_path,
        "# comment line\nmode = flow\n\nz0 = 0 2 0 0   # trailing comment\nt_end = 3\nmass = 2\nn = 1\n",
    )
    cfg = parse_config(path)
    # each value parses as its default's type, a system parameter as a float under "params"
    assert cfg == {**cli._DEFAULTS, "z0": [0.0, 2.0, 0.0, 0.0], "t_end": 3.0, "params": {"mass": 2.0}}
    assert type(cfg["t_end"]) is float and type(cfg["n"]) is int and type(cfg["params"]["mass"]) is float
    cfg = validate_config(cfg)
    assert cfg["system"] == "harmonic_oscillator"  # default survives


def test_param_for_wrong_system_is_rejected(tmp_path, capsys):
    # g belongs to constant_force; the oscillator constructor refuses it
    code, _ = _run(tmp_path, "mode = flow\nsystem = harmonic_oscillator\ng = 2.0\nt_end = 1.0\n")
    assert code == 2
    assert "config error" in capsys.readouterr().err


def _dumps(obj):
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


# the three flow scenarios of the benchmark's certify_flow workload, at its
# 5000 steps: the n = 16 one keeps 501 Jacobians of 34 x 34
CERTIFY_FLOW_CFGS = [
    "system = driven_oscillator\nn = 1\nmethod = rk4\nz0 = 0.4 -0.7 0.0 0.0\nseed = 11\n",
    "system = harmonic_oscillator\nn = 4\nmethod = leapfrog\n"
    "z0 = 0.1 -0.5 0.9 0.3 -0.2 0.6 -0.8 0.4 0.0 0.0\nseed = 12\n",
    "system = driven_oscillator\nn = 16\nmethod = rk4\nz0 = "
    + " ".join(f"{0.06 * i - 0.95:.2f}" for i in range(32)) + " 0.0 0.0\nseed = 13\n",
]


def test_write_json_matches_json_dumps_on_every_report(tmp_path, monkeypatch):
    written = []
    write_json = cli._write_json

    def checked(path, obj):
        write_json(path, obj)
        written.append(os.path.basename(path))
        assert pathlib.Path(path).read_bytes() == _dumps(obj)

    monkeypatch.setattr(cli, "_write_json", checked)
    for i, text in enumerate(CERTIFY_FLOW_CFGS):
        cfg = _write(tmp_path, text, name=f"flow{i}.cfg")
        assert main(["--config", cfg, "--out", str(tmp_path / f"flow{i}")]) == 0
    cfg = _write(tmp_path, "mode = map\nmap = rotation\nn = 2\n", name="map.cfg")
    assert main(["--config", cfg, "--out", str(tmp_path / "map")]) == 0
    assert main(["--selftest", "--out", str(tmp_path / "selftest")]) == 0
    assert written == ["invariance.json", "ledger.json"] * 3 + ["invariance.json", "selftest.json"]


# each check's stdout label and its key in invariance.json
FLOW_CHECKS = {"flow jacobians": "flow_jacobians", "rho transform": "rho_transform"}


@pytest.mark.parametrize(
    "text, checks",
    [
        (CERTIFY_FLOW_CFGS[0], FLOW_CHECKS),
        (_BLOW_UP_CFG + "z0 = 0 0 0 0\n", FLOW_CHECKS),
        (MAP_CFG, {"map rotation": "check"}),
    ],
    ids=["driven_n1", "overflowing_jacobians", "map"],
)
def test_check_lines_state_the_reported_values(tmp_path, capsys, text, checks):
    # each check's stdout line is its invariance.json entry, a null residual read as nan
    code, out = _run(tmp_path, text)
    lines = capsys.readouterr().out.splitlines()
    inv = json.loads((out / "invariance.json").read_text())
    nan = float("nan")
    for label, key in checks.items():
        c = inv[key]
        omega, lam = (nan if x is None else x for x in (c["omega_residual_max"], c["lambda_residual_max"]))
        assert f"{label}: {c['classification']} (omega {omega:.3e}, lambda {lam:.3e})" in lines
    if checks is FLOW_CHECKS:
        assert len(lines) == 5 and lines[-1] == ("scenario: PASS" if code == 0 else "scenario: FAIL")
    else:
        assert len(lines) == 1


# the keys of a check in invariance.json before the Jacobians moved to .npy files
OLD_CHECK_KEYS = {
    "classification", "omega_residual_max", "lambda_residual_max", "omega_residuals",
    "lambda_residuals", "tol_omega", "tol_lambda", "n_probes", "factorization",
}


@pytest.mark.parametrize("text", CERTIFY_FLOW_CFGS, ids=["driven_n1", "harmonic_n4", "driven_n16"])
def test_flow_reports_change_only_by_the_factor_list(tmp_path, text):
    # the reports as the checks through the library give them: trajectory.csv
    # and ledger.json keep every byte, invariance.json every value but the
    # factor list it carried, which README's read-off rule gives from the
    # .npy files bit for bit
    code, out = _run(tmp_path, text)
    assert code == 0
    cfg = validate_config(parse_config(str(tmp_path / "scenario.cfg")))
    system = builtin_system(cfg["system"], n=cfg["n"])
    traj = integrate_flow(
        system, block_to_interleaved(np.asarray(cfg["z0"])), cfg["t_end"], cfg["dt"],
        method=cfg["method"], with_variational=True,
    )
    write_csv(traj, str(tmp_path / "ref.csv"))
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    ledger = energy_ledger(traj, system)
    assert (out / "ledger.json").read_bytes() == _dumps(
        {"version": __version__, "config": cfg, "ledger": ledger.to_dict(), "passed": True}
    )

    tols = {"tol_omega": cfg["tol_omega"], "tol_lambda": cfg["tol_lambda"]}
    probes = trajectory_probes(traj, cfg["probes"], np.random.default_rng(cfg["seed"]))
    reps = {
        "flow_jacobians": check_flow_jacobians(traj, **tols),
        "rho_transform": check_invariance(make_rho(traj, system).as_map(), probes, **tols),
    }
    assert (out / "invariance.json").stat().st_size < 100_000
    inv = json.loads((out / "invariance.json").read_text())
    assert inv["flow_jacobians"].pop("jacobian_steps") == traj.jac_steps.tolist()
    for (key, rep), name in zip(reps.items(), ("jacobians.npy", "probe_jacobians.npy")):
        old = {k: v for k, v in rep.to_dict().items() if k in OLD_CHECK_KEYS}
        assert set(old) == OLD_CHECK_KEYS - {"factorization"}
        new = inv[key]
        assert (new.pop("n_factored"), new.pop("factor_error")) == (len(factorization(rep)), None)
        assert new == json.loads(json.dumps(old))
        stack = np.load(out / name, allow_pickle=False)
        k = stack.shape[-1] - 2
        for J, listed in zip(stack, factorization(rep), strict=True):
            # tr = sign J[-1, -1], sigma = J[:k, :k], w = tr * J[:k, -1], r = tr * J[k, -1] / 2
            tr = np.sign(J[-1, -1])
            for g in (jacobi_factor(J, tol=1e-5), listed):
                assert g.tr == tr and g.sigma.sigma.tobytes() == J[:k, :k].tobytes()
                assert g.w.tobytes() == (tr * J[:k, -1]).tobytes()
                assert np.float64(g.r).tobytes() == (tr * J[k, -1] / 2).tobytes()
    assert inv == json.loads(json.dumps({
        "version": __version__, "config": cfg, "dt_actual": traj.dt,
        "flow_jacobians": inv["flow_jacobians"], "rho_transform": inv["rho_transform"],
        "hamilton_residual": hamilton_residual(traj, system),
        "passed": dict.fromkeys(("flow_jacobians", "rho_transform", "hamilton_residual", "energy_ledger"), True),
        "all_passed": True,
    }))


def test_map_run_holds_at_most_two_and_a_half_probe_stacks(tmp_path):
    n, count = 30, 300
    stack = count * (2 * n + 2) ** 2 * 8
    cfg = _write(tmp_path, f"mode = map\nmap = rotation\nn = {n}\nprobes = {count}\n")
    main(["--config", cfg, "--out", str(tmp_path / "warm")])  # the form caches are shared
    tracemalloc.start()
    try:
        code = main(["--config", cfg, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (tmp_path / "out" / "probe_jacobians.npy").stat().st_size > stack
    assert peak <= 2.5 * stack


@pytest.mark.parametrize(
    "obj",
    [
        {"x": [0.1, float("nan"), float("inf"), -float("inf"), -0.0, 1e-310, 2**70]},
        {"empty": {}, "none": [], "deep": {"a": {"b": [[], {}, [[]]]}}},
        [[1.0, 2.0], [3, [4, [5.5]]], [[]], [{}]],
        {"tuple": (1, 2.5, (3, (4,))), "mixed": [1, "a, b", [2], {"c": None}]},
        {"text": ["ä, ö", "☃", "quote \" and \\ backslash", "tab\t"], "ключ": "значение"},
        {"lits": [None, True, False], "one": [True], "n": None, "t": True, "f": False},
        {"np": [np.float64(0.1), np.float64(-2.5e-8)], "scalar": np.float64(3.0), "i": -7},
        {"b": 1, "a": 2, "A": [3, "x"], "10": [float("nan")], "9": {}},
        {1.5: "float key", 2: "int key", True: "bool key"},
        {None: "null key"},
        [1, 2, {"x": 1}],
        [1, "a, b"],
        [float("inf"), [1, 2]],
        [],
        {},
        "top-level, string",
        0.30000000000000004,
        None,
    ],
)
def test_write_json_matches_json_dumps(tmp_path, obj):
    path = tmp_path / "out.json"
    cli._write_json(str(path), obj)
    # strict JSON has no NaN or Infinity: where json.dumps writes those tokens
    # (obj0, obj7 and obj12), the reports hold null
    assert path.read_bytes() == re.sub(rb"NaN|-?Infinity", b"null", _dumps(obj))
