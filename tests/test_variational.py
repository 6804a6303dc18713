"""Propagator, flow derivatives and the discrepancy system along trajectories."""
from __future__ import annotations

import math

import numpy as np
import pytest
import sympy as sp
from numpy.testing import assert_allclose
from scipy.linalg import expm

import divflow as dv


def linear_potential_problem():
    """d = 1, U = x: zero curvature, so the propagator is the identity."""
    model = dv.CoefficientModel(
        dim=1,
        potential=lambda x: np.asarray(x, dtype=float)[..., 0],
        grad_potential=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        hess_potential=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
        antisym=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
        grad_antisym=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1, 1)),
        jac_drift=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
        name="FLAT1D",
    )
    return model


def make_chain(problem, x0, horizon, dt, seed=0, path_index=0):
    n = int(round(horizon / dt))
    noise = dv.WienerGrid.generate(seed, path_index, n, dt, problem.model.dim)
    traj = dv.simulate_path(problem.model, x0, horizon, dt, noise)
    jac = dv.drift_jacobian_path(problem.model, traj)
    return traj, jac, dv.fundamental_matrix(jac)


# ---------------------------------------------------------------------------
# drift jacobian path
# ---------------------------------------------------------------------------


def test_jacobian_path_ou_constant(ou1d):
    _, jac, _ = make_chain(ou1d, [0.2], 1.0, 1e-3, seed=1)
    assert_allclose(jac.matrices, -0.5, atol=1e-15)


def test_jacobian_path_rot2d_constant(rot2d):
    _, jac, _ = make_chain(rot2d, [0.1, -0.3], 0.5, 1e-3, seed=2)
    expected = 0.5 * (-np.eye(2) + np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert_allclose(jac.matrices, np.broadcast_to(expected, jac.matrices.shape), atol=1e-15)
    skew = jac.matrices[0] - np.diag(np.diag(jac.matrices[0]))
    assert_allclose(skew, 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-15)


def test_jacobian_path_dw1d_symbolic_spot_checks(dw1d):
    traj, jac, _ = make_chain(dw1d, [0.8], 0.5, 1e-3, seed=3)
    x = sp.symbols("x")
    a_sym = sp.lambdify(x, -sp.diff((x**2 - 1) ** 2, x, 2) / 2, "numpy")
    rng = np.random.default_rng(4)
    for k in rng.integers(0, traj.states.shape[0], size=10):
        assert jac.matrices[k, 0, 0] == pytest.approx(a_sym(traj.states[k, 0]), abs=1e-12)


def test_jacobian_equals_curvature_along_path(varh2d):
    traj, jac, _ = make_chain(varh2d, [0.2, 0.1], 0.25, 1e-3, seed=5)
    assert_allclose(jac.matrices, dv.curvature_matrix(varh2d.model, traj.states), atol=0)


# ---------------------------------------------------------------------------
# fundamental matrix
# ---------------------------------------------------------------------------


def test_propagator_identity_for_zero_coefficient():
    model = linear_potential_problem()
    noise = dv.WienerGrid.generate(6, 0, 500, 1e-3, 1)
    traj = dv.simulate_path(model, [0.0], 0.5, 1e-3, noise)
    jac = dv.drift_jacobian_path(model, traj)
    c = dv.fundamental_matrix(jac)
    assert_allclose(c.matrices, 1.0, atol=1e-14)


def test_propagator_ou_scalar_exponential(ou1d):
    _, _, c = make_chain(ou1d, [0.3], 1.0, 1e-3, seed=7)
    exact = np.exp(-0.5 * c.times)
    assert np.max(np.abs(c.matrices[:, 0, 0] - exact)) < 1e-6
    assert c.matrices[0, 0, 0] == 1.0


def test_propagator_rot2d_matches_matrix_exponential(rot2d):
    _, _, c = make_chain(rot2d, [0.0, 0.0], 1.0, 1e-3, seed=8)
    a = 0.5 * (-np.eye(2) + np.array([[0.0, 1.0], [-1.0, 0.0]]))
    for k in (100, 500, 1000):
        assert_allclose(c.matrices[k], expm(c.times[k] * a), atol=1e-8)


def test_propagator_determinant_stays_positive(all_problems):
    for problem in all_problems:
        _, _, c = make_chain(problem, [0.3] * problem.dim, 0.5, 1e-3, seed=9)
        assert np.all(np.linalg.det(c.matrices) > 0.0)


def test_singular_propagator_rejected(ou1d):
    _, _, c = make_chain(ou1d, [0.1], 0.2, 1e-3, seed=9)
    broken = dv.FundamentalMatrix(
        times=c.times, matrices=np.where(c.times[:, None, None] > 0.1, 0.0, c.matrices)
    )
    with pytest.raises(dv.DegeneracyError):
        dv.propagator(broken, 0.2, 0.15)
    with pytest.raises(dv.DegeneracyError):
        dv.propagator(broken, 0.2, 0.15) @ dv.propagator(broken, 0.15, 0.0)


def test_nonfinite_jacobian_raises_integration_error(ou1d):
    _, jac, _ = make_chain(ou1d, [0.1], 0.2, 1e-3, seed=9)
    huge = dv.DriftJacobianPath(
        times=jac.times, matrices=1.0e155 * np.ones_like(jac.matrices)
    )
    with pytest.raises(dv.IntegrationError):
        dv.fundamental_matrix(huge)


# ---------------------------------------------------------------------------
# cocycle composition
# ---------------------------------------------------------------------------


def test_cocycle_trivial_triple(ou1d):
    _, _, c = make_chain(ou1d, [0.4], 1.0, 1e-3, seed=10)
    assert_allclose(dv.propagator(c, 0.5, 0.5) @ dv.propagator(c, 0.5, 0.5), np.eye(1), atol=1e-12)


def test_cocycle_ou_value_independent_of_midpoint(ou1d):
    _, _, c = make_chain(ou1d, [0.4], 1.0, 1e-3, seed=11)
    for mid in (0.25, 0.5, 0.75):
        got = (dv.propagator(c, 1.0, mid) @ dv.propagator(c, mid, 0.0))[0, 0]
        assert got == pytest.approx(math.exp(-0.5), abs=1e-6)


def test_cocycle_rot2d_rotation_addition(rot2d):
    _, _, c = make_chain(rot2d, [0.2, 0.2], 1.0, 1e-3, seed=12)
    lhs = dv.propagator(c, 1.0, 0.5) @ dv.propagator(c, 0.5, 0.0)
    assert_allclose(lhs, dv.propagator(c, 1.0, 0.0), atol=1e-8)


@pytest.mark.parametrize("tag,tol", [("OU1D", 1e-6), ("ROT2D", 1e-6), ("DW1D", 1e-4)])
def test_cocycle_identity_on_subgrid(tag, tol, all_problems):
    problem = next(p for p in all_problems if p.tag == tag)
    x0 = [0.5] * problem.dim
    _, _, c = make_chain(problem, x0, 0.5, 1e-3, seed=13)
    times = [0.0, 0.1, 0.25, 0.4, 0.5]
    for u in times:
        for t in times:
            for s in times:
                assert_allclose(
                    dv.propagator(c, u, t) @ dv.propagator(c, t, s), dv.propagator(c, u, s), atol=tol
                )


# ---------------------------------------------------------------------------
# flow derivatives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tag", ["OU1D", "ROT2D", "VARH2D", "DW1D"])
def test_frechet_matches_bumped_flow(tag, all_problems):
    # common-noise sensitivity: (X(t; x+eps e_j) - X(t; x-eps e_j)) / (2 eps)
    problem = next(p for p in all_problems if p.tag == tag)
    model = problem.model
    eps, dt, horizon = 1e-4, 1e-3, 0.5
    x0 = np.full(model.dim, 0.3)
    n = int(round(horizon / dt))
    noise = dv.WienerGrid.generate(15, 0, n, dt, model.dim)
    traj = dv.simulate_path(model, x0, horizon, dt, noise)
    xi = dv.fundamental_matrix(dv.drift_jacobian_path(model, traj)).matrices
    for j in range(model.dim):
        e = np.zeros(model.dim)
        e[j] = eps
        up = dv.simulate_path(model, x0 + e, horizon, dt, noise).states[-1]
        dn = dv.simulate_path(model, x0 - e, horizon, dt, noise).states[-1]
        fd = (up - dn) / (2.0 * eps)
        assert_allclose(xi[-1, :, j], fd, rtol=1e-2, atol=1e-8)


def test_malliavin_zero_control_is_zero(ou1d):
    _, jac, c = make_chain(ou1d, [0.1], 0.5, 1e-3, seed=16)
    control = dv.ControlPath(
        times=c.times,
        values=np.zeros_like(c.matrices),
        t0=0.25,
        horizon_index=250,
        boundary=np.zeros((1, 1)),
    )
    zeta = dv.malliavin_flow(jac, control)
    assert_allclose(zeta, 0.0, atol=1e-15)


def test_malliavin_reaches_frechet_at_horizon(ou1d):
    _, jac, c = make_chain(ou1d, [0.2], 1.0, 1e-3, seed=17)
    policy = dv.HorizonPolicy(t0=1.0, gamma0=8.0, r=2.0)
    control = dv.build_control(c, policy)
    zeta = dv.malliavin_flow(jac, control)
    assert zeta[-1, 0, 0] == pytest.approx(math.exp(-0.5), abs=1e-5)
    assert zeta[-1, 0, 0] == pytest.approx(c.matrices[-1, 0, 0], abs=1e-5)


@pytest.mark.parametrize("tag", ["OU1D", "ROT2D", "VARH2D", "DW1D"])
def test_linearity_identity_exact(tag, all_problems):
    problem = next(p for p in all_problems if p.tag == tag)
    x0 = [0.4] * problem.dim
    _, jac, c = make_chain(problem, x0, 0.5, 1e-3, seed=18)
    policy = dv.HorizonPolicy(t0=0.25, gamma0=1.0, r=2.0)
    control = dv.build_control(c, policy)
    zeta = dv.malliavin_flow(jac, control)
    theta = dv.theta_flow(jac, c, control).ode
    assert np.max(np.abs(c.matrices - zeta - theta)) < 1e-12


def test_theta_without_control_equals_propagator(ou1d):
    _, jac, c = make_chain(ou1d, [0.3], 0.5, 1e-3, seed=19)
    control = dv.ControlPath(
        times=c.times,
        values=np.zeros_like(c.matrices),
        t0=0.25,
        horizon_index=250,
        boundary=np.zeros((1, 1)),
    )
    theta = dv.theta_flow(jac, c, control)
    assert_allclose(theta.ode, c.matrices, atol=1e-14)


@pytest.mark.parametrize("tag,dt", [("OU1D", 1e-3), ("ROT2D", 1e-3), ("VARH2D", 5e-4), ("DW1D", 5e-4)])
def test_theta_vanishes_after_horizon(tag, dt, all_problems):
    problem = next(p for p in all_problems if p.tag == tag)
    t0 = 1.0 if tag in ("OU1D", "ROT2D") else 0.25
    gamma0 = 8.0 if tag in ("OU1D", "ROT2D") else 1.0
    policy = dv.HorizonPolicy(t0=t0, gamma0=gamma0, r=2.0)
    for k in range(3):
        _, jac, c = make_chain(problem, [0.3] * problem.dim, 2.0 * t0, dt, seed=20, path_index=k)
        control = dv.build_control(c, policy)
        theta = dv.theta_flow(jac, c, control)
        n0 = control.horizon_index
        assert np.max(np.abs(theta.ode[n0:])) < 1e-5


def test_duhamel_route_agreement_ou(ou1d):
    _, jac, c = make_chain(ou1d, [0.2], 2.0, 1e-3, seed=21)
    policy = dv.HorizonPolicy(t0=1.0, gamma0=8.0, r=2.0)
    control = dv.build_control(c, policy)
    theta = dv.theta_flow(jac, c, control)
    assert theta.route_mismatch < 1e-6


@pytest.mark.parametrize("tag,tol", [("VARH2D", 1e-4), ("DW1D", 1e-4)])
def test_duhamel_route_agreement_variable_coefficients(tag, tol, all_problems):
    problem = next(p for p in all_problems if p.tag == tag)
    policy = dv.HorizonPolicy(t0=0.25, gamma0=1.0, r=2.0)
    _, jac, c = make_chain(problem, [0.3] * problem.dim, 0.5, 5e-4, seed=22)
    control = dv.build_control(c, policy)
    theta = dv.theta_flow(jac, c, control)
    assert theta.route_mismatch < tol


def test_control_grid_mismatch_rejected(ou1d):
    _, jac, c = make_chain(ou1d, [0.0], 0.5, 1e-3, seed=23)
    control = dv.ControlPath(
        times=c.times[::2],
        values=np.zeros((c.times[::2].shape[0], 1, 1)),
        t0=0.25,
        horizon_index=125,
        boundary=np.zeros((1, 1)),
    )
    with pytest.raises(dv.ConfigError):
        dv.malliavin_flow(jac, control)


def test_theta_rejects_a_propagator_from_another_grid(ou1d):
    _, jac, c = make_chain(ou1d, [0.2], 1.0, 1e-3, seed=24)
    control = dv.build_control(c, dv.HorizonPolicy(t0=0.5, gamma0=8.0, r=2.0))
    _, _, c_coarse = make_chain(ou1d, [0.2], 1.0, 2e-3, seed=24)
    shifted = dv.FundamentalMatrix(times=c.times + 1.0, matrices=c.matrices)
    for wrong in (c_coarse, shifted):
        with pytest.raises(dv.ConfigError, match="propagator"):
            dv.theta_flow(jac, wrong, control)
