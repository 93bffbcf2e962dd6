"""The step loop's per-sample Jacobian residuals and its kept Jacobians."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from jacobiflow import (
    MapHandle,
    box_probes,
    builtin_system,
    check_flow_jacobians,
    check_invariance,
    integrate_flow,
)
from jacobiflow import groups, verify
from jacobiflow.forms import eta_residual, zeta_residual
from reference_helpers import factorization

DT = 1e-3


def _flow(steps, method, jac_every):
    sys = builtin_system("driven_oscillator", n=2)
    z0 = np.array([0.6, -0.2, 0.3, 0.5, 0.0, 0.1])
    traj = integrate_flow(
        sys, z0, 0.1 + steps * DT, DT, method=method, with_variational=True, jac_every=jac_every
    )
    assert traj.n_samples == steps + 1
    return traj


@functools.lru_cache(maxsize=None)
def _full(steps, method):
    return _flow(steps, method, 1)


@pytest.mark.parametrize("method", ["rk4", "leapfrog"])
@pytest.mark.parametrize("steps", [31, 32, 33, 255, 256, 257, 600])
@pytest.mark.parametrize("jac_every", [1, 7, 10])
def test_streamed_residuals_and_kept_jacobians_match_the_full_stack(jac_every, steps, method):
    full = _full(steps, method)
    traj = _flow(steps, method, jac_every)
    # one stacked pass over every Jacobian gives the same bits as the loop's
    # passes over its buffer
    assert traj.jac_omega.tobytes() == zeta_residual(full.jac).tobytes()
    assert traj.jac_lambda.tobytes() == eta_residual(full.jac).tobytes()
    assert traj.jac_omega.shape == traj.jac_lambda.shape == (steps + 1,)
    kept = list(range(0, steps + 1, jac_every))
    if kept[-1] != steps:
        kept.append(steps)
    assert traj.jac_steps.tolist() == kept
    assert traj.jac.tobytes() == full.jac[traj.jac_steps].tobytes()
    assert traj.z.tobytes() == full.z.tobytes()


def test_stride_one_keeps_every_jacobian():
    traj = _full(257, "rk4")
    assert traj.jac.shape == (258, 6, 6)
    assert traj.jac_steps.tolist() == list(range(258))


def test_no_variational_data_without_the_jacobian():
    traj = integrate_flow(
        builtin_system("harmonic_oscillator"), np.array([1.0, 0.0, 0.0, 0.0]), 0.1, DT
    )
    assert traj.jac is traj.jac_steps is traj.jac_omega is traj.jac_lambda is None


@pytest.mark.parametrize("jac_every", [0, -3, 2.5, None, True])
def test_bad_stride_is_rejected(jac_every):
    with pytest.raises(ValueError, match="jac_every"):
        integrate_flow(
            builtin_system("harmonic_oscillator"), np.array([1.0, 0.0, 0.0, 0.0]), 0.1, DT,
            with_variational=True, jac_every=jac_every,
        )


def test_flow_check_factors_the_kept_jacobians_and_reads_the_stored_residuals(monkeypatch):
    traj = _flow(257, "rk4", 10)
    checked = []

    def counting(M, tol):
        checked.append(M)
        return membership(M, tol)

    membership = verify._membership
    monkeypatch.setattr(verify, "_membership", counting)
    rep = check_flow_jacobians(traj)
    assert rep.classification == "Jacobimorphism"
    # one stacked membership pass per chunk of verify._CHUNK kept Jacobians
    assert [len(M) for M in checked] == [27] and len(traj.jac_steps) == 27
    assert np.concatenate(checked).tobytes() == traj.jac.tobytes()
    assert rep.n_factored == 27
    checked.clear()
    every = _full(257, "rk4")
    assert check_flow_jacobians(every).n_factored == 258
    assert [len(M) for M in checked] == [32] * 8 + [2]
    assert np.concatenate(checked).tobytes() == every.jac.tobytes()
    assert rep.omega_residual_max == traj.jac_omega.max()
    assert rep.omega_residuals == tuple(traj.jac_omega[traj.jac_steps].tolist())
    assert rep.lambda_residuals == tuple(traj.jac_lambda[traj.jac_steps].tolist())
    assert rep.n_probes == 27
    # the maxima come from the stored residuals, not from the matrices
    worse = dataclasses.replace(traj, jac_omega=np.full_like(traj.jac_omega, 1.0))
    assert check_flow_jacobians(worse).omega_residual_max == 1.0
    assert check_flow_jacobians(worse).classification == "TimePreservingOnly"


def test_checks_count_members_without_building_an_element(monkeypatch):
    built = []
    element = groups._element
    monkeypatch.setattr(groups, "_element", lambda *args: built.append(args) or element(*args))
    assert check_flow_jacobians(_flow(257, "rk4", 10)).n_factored == 27
    identity = MapHandle(lambda z: z.copy(), 2, jacobian=lambda z: np.eye(6))
    rep = check_invariance(identity, box_probes(2, 5, np.random.default_rng(3)))
    assert rep.n_factored == 5 and built == []
    # the factors are built only when asked for
    assert len(factorization(rep)) == 5 and len(built) == 5


def test_default_stride_keeps_the_flow_far_below_the_full_stack():
    # a driven n = 16 flow of 5000 steps; its full Jacobian stack is 46 MB
    sys = builtin_system("driven_oscillator", n=16)
    z0 = np.concatenate([np.linspace(-1.0, 1.0, 32), [0.0, 0.0]])
    stack_bytes = 5001 * 34 * 34 * 8
    tracemalloc.start()
    try:
        traj = integrate_flow(sys, z0, 5.0, 1e-3, with_variational=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.jac.shape == (501, 34, 34)
    assert peak < 0.5 * stack_bytes
