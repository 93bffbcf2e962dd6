"""The CLI's exit-code contract over generated configs and flags.

Every run exits 0 or 1 with all of its mode's reports written, exits 1 after
one "error: flow blew up" line with nothing in --out, or exits 2 with one
"config error:" line and no --out; none raises.  A generated config starts
from a valid scenario and replaces at most one of its values with one that is
out of range, non-finite, of the wrong type or at the edge of a float.  A
generated --selftest run draws its --seed, --n and --fuzz from valid, out of
range and non-finite values, and may add a flag of the config mode.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import jacobiflow.cli as cli  # noqa: E402
from jacobiflow import BUILTIN_SYSTEMS  # noqa: E402

BAD_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-320", "-0.0", "3.5", "x", "1e308")
REPORTS = {
    "flow": {"trajectory.csv", "jacobians.npy", "probe_jacobians.npy", "invariance.json", "ledger.json"},
    "map": {"probe_jacobians.npy", "invariance.json"},
}
FLAGS = ((), ("--seed", "7"), ("--tol-omega", "1e-3"), ("--tol-lambda", "1e-12"))
TOLERANCES = ("tol_omega", "tol_lambda", "tol_hamilton", "tol_ledger")


@st.composite
def configs(draw):
    """A config as {key: text}: a valid base with at most one value replaced."""
    system = draw(st.sampled_from(sorted(BUILTIN_SYSTEMS)))
    n = draw(st.integers(1, 3))
    # a finite z0 in block order whose time entry is 0, so that every t_end lies ahead
    entry = st.sampled_from((-1.5, -0.5, 0.0, 0.3, 1.0))
    z0 = draw(st.lists(entry, min_size=2 * n + 1, max_size=2 * n + 1))
    cfg = {
        "mode": draw(st.sampled_from(("flow", "map"))),
        "system": system,
        "n": str(n),
        "method": draw(st.sampled_from(("rk4", "leapfrog"))),
        "map": draw(st.sampled_from(cli._MAP_NAMES)),
        "probes": str(draw(st.integers(1, 5))),
        "seed": str(draw(st.integers(0, 50))),
        "dt": draw(st.sampled_from(("0.01", "0.05", "0.1", "0.5", "2", "10", "100"))),
        "t_end": draw(st.sampled_from(("0.3", "1", "2", "50"))),
        "z0": " ".join(map(str, [*z0, 0.0])),
    }
    for key in TOLERANCES:
        if draw(st.booleans()):
            cfg[key] = draw(st.sampled_from(("1e-12", "1e-8", "1e-5", "1e-3")))
    for key in BUILTIN_SYSTEMS[system]:
        if draw(st.booleans()):
            cfg[key] = draw(st.sampled_from(("0.5", "1", "2")))
    # a preset parameter the base leaves out can be the one replaced too
    key = draw(st.none() | st.sampled_from(sorted({*cfg, *BUILTIN_SYSTEMS[system]})))
    if key is not None:
        cfg[key] = draw(st.sampled_from(BAD_VALUES))
    return cfg


# one replaced value that the generator draws rarely: a drive of 1e300 passes
# the config checks, and its power overflows at the first step
BLOW_UP = {"system": "driven_oscillator", "amplitude": "1e300", "t_end": "2", "dt": "0.1", "mode": "flow"}
# valid configs whose checks overflow: each exits 1 with its reports, and
# numpy's warnings, which would break the one-stream contract, stay off
OVERFLOWS = (
    {"mode": "flow", "z0": "1e300 0 0 0"},
    {"mode": "flow", "system": "driven_oscillator", "mass": "1e-300"},
    {"mode": "flow", "system": "driven_oscillator", "drive_frequency": "1e150", "amplitude": "1e-150"},
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(cfg=configs(), flags=st.sampled_from(FLAGS))
@example(cfg=BLOW_UP, flags=())
@example(cfg=OVERFLOWS[0], flags=())
@example(cfg=OVERFLOWS[1], flags=())
@example(cfg=OVERFLOWS[2], flags=())
def test_every_run_keeps_the_exit_code_contract(cfg, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.cfg")
        with open(path, "w") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in cfg.items())
        out = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["--config", path, "--out", out, *flags])
        err = stderr.getvalue().splitlines()
        assert code in (0, 1, 2)
        if code == 2:
            assert len(err) == 1 and err[0].startswith("config error: ")
            assert not os.path.exists(out)
        elif any(line.startswith("error: flow blew up") for line in err):
            assert code == 1 and len(err) == 1
            assert os.listdir(out) == []
        else:
            assert err == []
            assert set(os.listdir(out)) == REPORTS[cfg["mode"]]
            with open(os.path.join(out, "invariance.json")) as fh:
                assert json.load(fh)["all_passed"] is (code == 0)


# a flag of the config mode, which --selftest rejects; the config path need not exist
CONFIG_FLAGS = ((), ("--tol-omega", "1e-3"), ("--config", "scenario.cfg"))


# n <= 2 for the runs that get past the checks: a self-test run takes about 0.4 s
@settings(derandomize=True, deadline=None, max_examples=8)
@given(
    seed=st.sampled_from(("0", "7", "-1")),
    n=st.sampled_from(("0", "1", "2", "17")),
    fuzz=st.sampled_from((None, "1e-3", "-1e-3", "0", "1e-12", "nan", "inf")),
    flags=st.sampled_from(CONFIG_FLAGS),
)
# the generated runs rarely pass every check; these three run the self-test
@example(seed="0", n="1", fuzz=None, flags=())
@example(seed="0", n="2", fuzz="1e-3", flags=())
@example(seed="7", n="2", fuzz="-1e-3", flags=())
def test_every_selftest_run_keeps_the_exit_code_contract(seed, n, fuzz, flags):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = ["--selftest", "--seed", seed, "--n", n, "--out", out, *flags]
        if fuzz is not None:
            argv += ["--fuzz", fuzz]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        err = stderr.getvalue().splitlines()
        assert code in (0, 1, 2)
        if code == 2:
            assert len(err) == 1 and err[0].startswith("config error: ")
            assert not os.path.exists(out)
        else:
            assert err == []
            assert os.listdir(out) == ["selftest.json"]
            with open(os.path.join(out, "selftest.json")) as fh:
                assert json.load(fh)["all_passed"] is (code == 0)
