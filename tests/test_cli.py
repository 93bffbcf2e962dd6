import json
import os
import pathlib
import subprocess
import sys

import pytest

from jacobiflow.cli import ConfigError, main, parse_config, validate_config
from jacobiflow.selftest import run_checks


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


def test_flow_outputs_are_deterministic(tmp_path):
    cfg = _write(tmp_path, FLOW_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out_a)]) == 0
    assert main(["--config", cfg, "--out", str(out_b)]) == 0
    for name in ("trajectory.csv", "invariance.json", "ledger.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


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
        "z0 = 0 0 0 100000\nt_end = 100001.5\ndt = 0.1\n",
        # Jacobian stacks over the byte limit, rejected before allocating
        "t_end = 1e300\n",
        "n = 16\nt_end = 200\n",
        # parameters must be finite and give a finite 1/m and m om^2
        "mass = nan\n",
        "mass = inf\n",
        "mass = 1e-320\n",
        "frequency = 1e200\n",
        "system = constant_force\ng = nan\n",
        "system = driven_oscillator\namplitude = inf\n",
        "system = driven_oscillator\ndrive_frequency = nan\n",
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
    ],
)
def test_bad_configs_exit_2(tmp_path, text, capsys):
    # a case starting with "--" is a command line instead of a config file
    if text.startswith("--"):
        code = main([*text.split(), "--out", str(tmp_path / "out")])
    else:
        code, _ = _run(tmp_path, text)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    # rejected before any report or selftest.json is written
    assert not list((tmp_path / "out").glob("*"))


def test_late_start_flow_keeps_probes_inside_the_table(tmp_path, capsys):
    # at t0 = 1e5 the probe difference step is about 1.0, so the stencil of a
    # probe near either end would leave the tabulated range
    code, out = _run(tmp_path, "z0 = 0.5 0.1 0.0 100000\nt_end = 100005\n")
    assert code in (0, 1)
    assert capsys.readouterr().err == ""
    inv = json.loads((out / "invariance.json").read_text())
    assert inv["rho_transform"]["n_probes"] == 20
    assert inv["flow_jacobians"]["classification"] == "Jacobimorphism"


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
        "# comment line\nmode = flow\n\nz0 = 0 2 0 0   # trailing comment\nt_end = 3.0\n",
    )
    cfg, present = parse_config(path)
    assert cfg["z0"] == [0.0, 2.0, 0.0, 0.0]
    assert present == {"mode", "z0", "t_end"}
    cfg = validate_config(cfg, present)
    assert cfg["system"] == "harmonic_oscillator"  # default survives


def test_param_for_wrong_system_is_rejected(tmp_path, capsys):
    # g belongs to constant_force; the oscillator constructor refuses it
    code, _ = _run(tmp_path, "mode = flow\nsystem = harmonic_oscillator\ng = 2.0\nt_end = 1.0\n")
    assert code == 2
    assert "config error" in capsys.readouterr().err
