"""Path integration, exit times, stationary sampling and the semigroup."""
from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

import divflow as dv
from divflow import engine, model


# ---------------------------------------------------------------------------
# simulate_path
# ---------------------------------------------------------------------------


def test_zero_noise_ou_decays_like_ode(ou1d):
    dt = 1.0e-4
    noise = dv.WienerGrid.zeros(10_000, dt, 1)
    traj = dv.simulate_path(ou1d.model, [1.0], 1.0, dt, noise)
    assert traj.states[-1, 0] == pytest.approx(math.exp(-0.5), abs=1e-3)
    assert not traj.exited


def test_critical_point_with_zero_noise_is_constant(dw1d):
    noise = dv.WienerGrid.zeros(500, 1e-3, 1)
    traj = dv.simulate_path(dw1d.model, [1.0], 0.5, 1e-3, noise)
    assert_allclose(traj.states, 1.0, atol=1e-14)


def test_long_horizon_variance_matches_stationary(ou1d):
    # sample variance of X(20) over 1e5 paths from a fixed start
    dt, horizon, n_paths = 0.02, 20.0, 100_000
    n = engine.steps_for(horizon, dt)
    ends = []
    for off, size in engine.batch_sizes(n_paths, n, 1):
        inc = engine.increments_block(77, off, size, n, dt, 1)
        for _, end, _ in engine.sweep(ou1d.model, np.zeros((size, 1)), dt, inc):
            pass
        ends.append(end[:, 0])
    var = float(np.var(np.concatenate(ends), ddof=1))
    assert var == pytest.approx(1.0, abs=0.02)


def test_wiener_increment_law():
    grid = dv.WienerGrid.generate(55, 0, 100_000, 0.004, 2)
    assert grid.count == 100_000
    assert grid.dim == 2
    mean = grid.increments.mean(axis=0)
    var = grid.increments.var(axis=0, ddof=1)
    assert np.all(np.abs(mean) < 3.0 * np.sqrt(0.004 / 100_000))
    assert_allclose(var, 0.004, rtol=0.02)
    cross = np.mean(grid.increments[:, 0] * grid.increments[:, 1])
    assert abs(cross) < 3.0 * 0.004 / np.sqrt(100_000)


def test_trajectory_determinism(ou1d):
    a = dv.WienerGrid.generate(42, 3, 200, 1e-3, 1)
    b = dv.WienerGrid.generate(42, 3, 200, 1e-3, 1)
    assert_array_equal(a.increments, b.increments)
    ta = dv.simulate_path(ou1d.model, [0.5], 0.2, 1e-3, a)
    tb = dv.simulate_path(ou1d.model, [0.5], 0.2, 1e-3, b)
    assert_array_equal(ta.states, tb.states)
    c = dv.WienerGrid.generate(42, 4, 200, 1e-3, 1)
    assert not np.array_equal(a.increments, c.increments)


def test_guard_stops_and_flags(dw1d):
    noise = dv.WienerGrid.zeros(10, 10.0, 1)
    traj = dv.simulate_path(dw1d.model, [1.1], 100.0, 10.0, noise, r_guard=1e6)
    assert traj.exited
    assert traj.exit_step is not None
    assert np.all(np.abs(traj.states[:-1, 0]) <= 1e6)
    assert abs(traj.states[-1, 0]) > 1e6


def test_grid_mismatch_rejected(ou1d):
    noise = dv.WienerGrid.zeros(100, 1e-3, 1)
    with pytest.raises(dv.ConfigError):
        dv.simulate_path(ou1d.model, [0.0], 1.0, 1e-3, noise)  # too few increments
    with pytest.raises(dv.ConfigError):
        dv.simulate_path(ou1d.model, [0.0], 0.05, 2e-3, noise)  # dt mismatch


# ---------------------------------------------------------------------------
# exit time
# ---------------------------------------------------------------------------


def test_exit_time_deterministic_decay(ou1d):
    dt = 1e-3
    noise = dv.WienerGrid.zeros(1000, dt, 1)
    traj = dv.simulate_path(ou1d.model, [2.0], 1.0, dt, noise)
    # exit downwards through radius 1.5: 2 e^{-t/2} = 1.5
    expected = 2.0 * math.log(4.0 / 3.0)
    # grid time of the last state with |x| >= 1.5
    below = np.nonzero(np.abs(traj.states[:, 0]) < 1.5)[0]
    t_cross = traj.times[below[0] - 1]
    assert t_cross == pytest.approx(expected, abs=2 * dt)


# ---------------------------------------------------------------------------
# sample_stationary
# ---------------------------------------------------------------------------


def test_exact_sampler_ou_moments(ou_ensemble):
    pts = ou_ensemble.points[:, 0]
    assert abs(pts.mean()) < 0.01
    assert pts.var(ddof=1) == pytest.approx(1.0, abs=0.02)


def test_exact_sampler_rot2d_covariance(rot_ensemble):
    cov = np.cov(rot_ensemble.points.T)
    assert_allclose(cov, np.eye(2), atol=0.02)


def test_exact_sampler_dw1d_moments(dw_ensemble):
    z, _ = quad(lambda s: math.exp(-((s * s - 1.0) ** 2)), -12, 12)
    x = dw_ensemble.points[:, 0]
    for k in (2, 4):
        ref, _ = quad(lambda s: s**k * math.exp(-((s * s - 1.0) ** 2)) / z, -12, 12)
        mean, se = engine.mean_and_se(x**k)
        assert abs(mean - ref) <= 3.0 * se


def test_dw1d_rejection_envelope_is_a_tight_bound():
    x = np.linspace(-6.0, 6.0, 1_200_001)
    log_ratio = model._dw1d_log_acceptance(x)
    assert log_ratio.max() <= 1.0e-12
    assert log_ratio.max() == pytest.approx(0.0, abs=1.0e-6)
    peak = 1.0 + 1.0 / (4.0 * model.DW1D_PROPOSAL_SD**2)
    assert x[np.argmax(log_ratio)] ** 2 == pytest.approx(peak, abs=1.0e-4)


@pytest.mark.parametrize("count", [1, 7, 5000])
def test_dw1d_sampler_returns_count_points_reproducibly(dw1d, count):
    first = dw1d.stationary_sampler(np.random.default_rng(12), count)
    again = dw1d.stationary_sampler(np.random.default_rng(12), count)
    assert first.shape == (count, 1)
    assert first.tobytes() == again.tobytes()
    # the accepted stream does not depend on the count asked for
    longer = dw1d.stationary_sampler(np.random.default_rng(12), count + 100)
    assert first.tobytes() == longer[:count].tobytes()
    ensemble = dv.sample_stationary(dw1d, count, seed=4)
    assert ensemble.points.tobytes() == dv.sample_stationary(dw1d, count, seed=4).points.tobytes()


def test_nonfinite_state_raises_with_step_index(dw1d):
    noise = dv.WienerGrid.zeros(50, 10.0, 1)
    with pytest.raises(dv.IntegrationError) as err:
        dv.simulate_path(dw1d.model, [1.1], 500.0, 10.0, noise, r_guard=np.inf)
    assert err.value.step > 0


# ---------------------------------------------------------------------------
# invariants: stationarity, weak order, exit monotonicity
# ---------------------------------------------------------------------------


def test_stationarity_of_flow_averages(ou1d, ou_ensemble):
    report = dv.stationarity_check(
        ou1d.model,
        dv.battery_for(ou1d)[:6],
        ou_ensemble,
        t_grid=(1.0, 5.0),
        n_paths=8000,
        dt=5e-3,
        seed=9,
    )
    assert report.passed


def test_weak_error_first_order(ou1d):
    # common Brownian paths across refinement levels via block aggregation
    x0, n_paths = 50.0, 100_000
    dts = [0.1, 0.01, 0.001]
    n_fine = 1000
    sums = np.zeros(3)
    for off, size in engine.batch_sizes(n_paths, n_fine, 1):
        inc_fine = engine.increments_block(303, off, size, n_fine, 0.001, 1)
        for lev, dt in enumerate(dts):
            factor = int(round(dt / 0.001))
            inc = inc_fine.reshape(size, n_fine // factor, factor, 1).sum(axis=2)
            for _, end, _ in engine.sweep(ou1d.model, np.full((size, 1), x0), dt, inc):
                pass
            sums[lev] += float(np.sum(end[:, 0]))
    errors = np.abs(sums / n_paths - x0 * math.exp(-0.5))
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.3)


def test_exit_probability_monotone_dw1d(dw1d, dw_ensemble):
    report = dv.moment_bound_check(
        dw1d.model,
        dv.MomentTestConfig(rho=0.4, radii=(1.5, 3.0), horizon=5.0),
        dw_ensemble,
        n_paths=3000,
        dt=2e-3,
        seed=15,
    )
    probs = [row.exit_probability for row in report.rows]
    assert probs[1] <= probs[0]
    assert report.monotone_exits
