"""Adapted control: construction, growth bound, Phi function, trace moments."""
from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import divflow as dv


def flat_problem():
    """d = 1, U = x: zero curvature (identity propagator), finite drift."""
    return dv.CoefficientModel(
        dim=1,
        potential=lambda x: np.asarray(x, dtype=float)[..., 0],
        grad_potential=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        hess_potential=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
        antisym=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
        grad_antisym=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1, 1)),
        jac_drift=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
        name="FLAT1D",
    )


def chain(problem_model, x0, horizon, dt, seed=0, idx=0):
    n = int(round(horizon / dt))
    noise = dv.WienerGrid.generate(seed, idx, n, dt, len(x0))
    traj = dv.simulate_path(problem_model, x0, horizon, dt, noise)
    jac = dv.drift_jacobian_path(problem_model, traj)
    return traj, jac, dv.fundamental_matrix(jac)


# ---------------------------------------------------------------------------
# policy and control construction
# ---------------------------------------------------------------------------


def test_policy_range_enforced():
    dv.HorizonPolicy(t0=1.0, gamma0=2.0, r=2.0)  # t_star = 1, boundary allowed
    with pytest.raises(dv.PolicyError):
        dv.HorizonPolicy(t0=1.5, gamma0=2.0, r=2.0)
    with pytest.raises(dv.PolicyError):
        dv.HorizonPolicy(t0=0.0, gamma0=2.0, r=2.0)
    with pytest.raises(dv.ConfigError):
        dv.HorizonPolicy(t0=0.5, gamma0=-1.0, r=2.0)


def test_build_control_ou_decay(ou1d):
    _, _, c = chain(ou1d.model, [0.2], 2.0, 1e-3, seed=1)
    policy = dv.HorizonPolicy(t0=1.0, gamma0=8.0, r=2.0)
    control = dv.build_control(c, policy)
    k = 500  # t = 0.5 < t0
    assert control.values[k, 0, 0] == pytest.approx(math.exp(-0.25), abs=1e-6)
    assert_allclose(control.values[control.horizon_index :], 0.0)
    assert control.boundary[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-6)


def test_build_control_flat_model_constant():
    model = flat_problem()
    noise = dv.WienerGrid.generate(2, 0, 1000, 1e-3, 1)
    traj = dv.simulate_path(model, [0.0], 1.0, 1e-3, noise)
    jac = dv.drift_jacobian_path(model, traj)
    c = dv.fundamental_matrix(jac)
    control = dv.build_control(c, dv.HorizonPolicy(t0=0.5, gamma0=1.0, r=2.0))
    assert_allclose(control.values[:499], 2.0, atol=1e-12)
    assert_allclose(control.boundary, [[2.0]], atol=1e-12)


def test_control_reconstruction_invariant(ou1d):
    # the stored grid must reproduce propagator/t0 before the horizon, zero after
    _, _, c = chain(ou1d.model, [0.5], 1.0, 1e-3, seed=3)
    policy = dv.HorizonPolicy(t0=0.5, gamma0=8.0, r=2.0)
    control = dv.build_control(c, policy)
    n0 = control.horizon_index
    assert_allclose(control.values[:n0], c.matrices[:n0] / 0.5, atol=0)
    assert_allclose(control.values[n0:], 0.0, atol=0)


def test_control_drives_discrepancy_to_zero(ou1d):
    _, jac, c = chain(ou1d.model, [0.2], 1.0, 1e-3, seed=4)
    control = dv.build_control(c, dv.HorizonPolicy(t0=0.5, gamma0=8.0, r=2.0))
    theta = dv.theta_flow(jac, c, control)
    assert np.max(np.abs(theta.ode[control.horizon_index :])) < 1e-6


# ---------------------------------------------------------------------------
# growth bound
# ---------------------------------------------------------------------------


def test_gronwall_saturates_on_ou(ou1d):
    policy = dv.HorizonPolicy(t0=1.0, gamma0=8.0, r=2.0)
    slack, gap = dv.gronwall_sweep(ou1d.model, [[0.3]], policy, dt=1e-3, seed=5)
    assert gap < 1e-6
    assert slack <= 1e-6


def test_gronwall_tight_on_rot2d(rot2d):
    policy = dv.HorizonPolicy(t0=0.5, gamma0=8.0, r=2.0)
    _, gap = dv.gronwall_sweep(rot2d.model, [[0.1, 0.4]], policy, dt=1e-3, seed=6)
    # norm-preserving antisymmetric part: the bound is attained
    assert gap < 1e-6


@pytest.mark.parametrize("tag,t0,gamma0", [("DW1D", 0.25, 1.0), ("VARH2D", 0.25, 1.0)])
def test_gronwall_sweep_no_violations(tag, t0, gamma0, ensembles, all_problems):
    problem = next(p for p in all_problems if p.tag == tag)
    policy = dv.HorizonPolicy(t0=t0, gamma0=gamma0, r=2.0)
    starts = ensembles[tag].points[:1000]
    slack, _ = dv.gronwall_sweep(problem.model, starts, policy, dt=1e-3, seed=7)
    assert slack <= 1e-4


# ---------------------------------------------------------------------------
# exponential-ratio function
# ---------------------------------------------------------------------------


def test_e_function_values():
    assert dv.e_function(0.0) == 1.0
    assert dv.e_function(1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
    val = dv.e_function(-10.0)
    assert val == pytest.approx((1.0 - math.exp(-10.0)) / 10.0, rel=1e-12)
    assert val <= min(1.0, 0.1)


def test_e_function_bounds_and_monotonicity():
    xs = np.linspace(-10.0, 10.0, 201)
    vals = dv.e_function(xs)
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals > 0.0)
    pos = xs >= 0
    assert np.all(vals[pos] <= np.exp(xs[pos]) + 1e-12)
    neg = xs < 0
    assert np.all(vals[neg] <= np.minimum(1.0, 1.0 / np.abs(xs[neg])) + 1e-12)


def test_e_function_continuous_at_zero():
    assert abs(dv.e_function(1e-8) - 1.0) < 1e-7
    assert abs(dv.e_function(-1e-8) - 1.0) < 1e-7


# ---------------------------------------------------------------------------
# trace moment estimate
# ---------------------------------------------------------------------------


def test_trace_moment_ou_closed_form(ou1d):
    # Constant curvature -1/2 saturates the chain: with r = 2, t0 = 1 both
    # sides equal {integral_0^1 e^{-s} ds}^{1/2} = (1 - 1/e)^{1/2}.
    ens = dv.sample_stationary(ou1d, 400, seed=8)
    policy = dv.HorizonPolicy(t0=1.0, gamma0=8.0, r=2.0)
    report = dv.trace_moment_check(ou1d.model, ens, policy, paths_per_point=2, dt=1e-3, seed=9)
    expected = math.sqrt(1.0 - math.exp(-1.0))
    assert report.lhs == pytest.approx(expected, abs=1e-4)
    assert report.rhs == pytest.approx(expected, abs=1e-12)
    assert report.passed


def test_trace_moment_flat_model_identity():
    # zero curvature: g = I/t0, both sides reduce to sqrt(d)/t0 = 1/t0 in d = 1
    model = flat_problem()
    ens = dv.StationaryEnsemble(points=np.zeros((64, 1)), provenance="exact")
    policy = dv.HorizonPolicy(t0=0.5, gamma0=1.0, r=2.0)
    report = dv.trace_moment_check(model, ens, policy, paths_per_point=1, dt=1e-3, seed=10)
    assert report.lhs == pytest.approx(2.0, abs=1e-9)
    assert report.rhs == pytest.approx(2.0, abs=1e-12)
    assert report.passed


@pytest.mark.parametrize(
    "tag,t0,gamma0,r",
    [("ROT2D", 1.0, 8.0, 2.0), ("VARH2D", 0.25, 1.0, 2.0), ("DW1D", 0.25, 1.0, 2.0)],
)
def test_trace_moment_holds_empirically(tag, t0, gamma0, r, all_problems, ensembles):
    problem = next(p for p in all_problems if p.tag == tag)
    ens = ensembles[tag]
    sub = dv.StationaryEnsemble(
        points=ens.points[:2000],
        provenance=ens.provenance,
        diagnostics=ens.diagnostics,
        n_chains=ens.n_chains,
    )
    policy = dv.HorizonPolicy(t0=t0, gamma0=gamma0, r=r)
    report = dv.trace_moment_check(problem.model, sub, policy, paths_per_point=2, dt=1e-3, seed=11)
    assert report.passed


def test_trace_moment_empty_ensemble_rejected(ou1d):
    ens = dv.StationaryEnsemble(points=np.zeros((0, 1)), provenance="exact")
    with pytest.raises(dv.ConfigError):
        dv.trace_moment_check(
            ou1d.model, ens, dv.HorizonPolicy(t0=1.0, gamma0=8.0, r=2.0)
        )
