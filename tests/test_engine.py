"""The shared Euler sweep: one radius guard for every path simulation."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import divflow as dv
from divflow import engine

# DW1D started at x = 3 with dt = 0.5 explodes within a horizon of 2.
_POLICY = dv.HorizonPolicy(t0=2.0, gamma0=8.0, r=4.0)
_CHECKS = {
    "decay": lambda model, ens: dv.decay_check(
        model, dv.coordinate(0, 1), (0.0, 2.0), ens, n_outer=20, inner_paths=5, dt=0.5, seed=1
    ),
    "stationarity": lambda model, ens: dv.stationarity_check(
        model, [dv.coordinate(0, 1)], ens, t_grid=(2.0,), n_paths=20, dt=0.5, seed=1
    ),
    "moment_bound": lambda model, ens: dv.moment_bound_check(
        model, dv.MomentTestConfig(rho=0.4, radii=(3.0, 5.0), horizon=2.0), ens,
        n_paths=20, dt=0.5, seed=1,
    ),
    "gronwall": lambda model, ens: dv.gronwall_sweep(model, ens.points, _POLICY, dt=0.5, seed=1),
    "trace_moment": lambda model, ens: dv.trace_moment_check(model, ens, _POLICY, dt=0.5, seed=1),
}


@pytest.mark.parametrize("name", list(_CHECKS))
def test_checks_raise_at_the_first_guard_exit(dw1d, name):
    ensemble = dv.StationaryEnsemble(points=np.full((20, 1), 3.0), provenance="exact")
    with pytest.raises(dv.IntegrationError) as err:
        _CHECKS[name](dw1d.model, ensemble)
    assert err.value.step >= 1


# Each sweeps 30 paths of 20 steps.  On OU1D the curvature is constant, so
# gronwall and trace_moment see no noise; on DW1D they do.
_SPLIT_PATHS, _SPLIT_STEPS = 30, 20
_SPLIT_POLICY = dv.HorizonPolicy(t0=1.0, gamma0=8.0, r=4.0)
_SPLIT = {
    "decay": lambda model, ens: dv.decay_check(
        model, dv.coordinate(0, 1), (0.0, 0.5, 1.0), ens, n_outer=10, inner_paths=3, dt=0.05, seed=2
    ),
    "stationarity": lambda model, ens: dv.stationarity_check(
        model, [dv.coordinate(0, 1)], ens, t_grid=(0.5, 1.0), n_paths=30, dt=0.05, seed=2
    ),
    "moment_bound": lambda model, ens: dv.moment_bound_check(
        model, dv.MomentTestConfig(rho=0.4, radii=(1.0, 2.0), horizon=1.0), ens,
        n_paths=30, dt=0.05, seed=2,
    ),
    "gronwall": lambda model, ens: dv.gronwall_sweep(model, ens.points[:30], _SPLIT_POLICY, dt=0.05, seed=2),
    "trace_moment": lambda model, ens: dv.trace_moment_check(
        model, dv.StationaryEnsemble(ens.points[:15], "exact"), _SPLIT_POLICY,
        paths_per_point=2, dt=0.05, seed=2,
    ),
}


@pytest.mark.parametrize("name", list(_SPLIT))
@pytest.mark.parametrize("tag", ["OU1D", "DW1D"])
def test_checks_do_not_depend_on_batching(all_problems, ensembles, monkeypatch, tag, name):
    model = next(p.model for p in all_problems if p.tag == tag)
    assert len(engine.batch_sizes(_SPLIT_PATHS, _SPLIT_STEPS, 1)) == 1
    whole = _SPLIT[name](model, ensembles[tag])
    monkeypatch.setattr(engine, "_BLOCK_BUDGET", _SPLIT_STEPS * _SPLIT_PATHS // 3)
    assert len(engine.batch_sizes(_SPLIT_PATHS, _SPLIT_STEPS, 1)) == 3
    assert _SPLIT[name](model, ensembles[tag]) == whole


def test_mean_and_se_is_nan_below_two_samples():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, se = engine.mean_and_se(np.array([[2.0, -1.0]]))
    assert_array_equal(mean, [2.0, -1.0])
    assert np.isnan(se).all() and se.shape == (2,)
    mean, se = engine.mean_and_se([1.0, 2.0, 6.0])
    assert mean == 3.0
    assert se == pytest.approx(np.sqrt(7.0 / 3.0))


def test_flow_summary_and_euler_sweep_share_the_guard(ou1d):
    x, t_end, dt, n_paths, seed = 0.5, 1.0, 0.01, 400, 3
    n = engine.steps_for(t_end, dt)
    inc = engine.increments_block(seed, 0, n_paths, n, dt, 1)
    _, exit_step = engine.euler_sweep(ou1d.model, np.full((n_paths, 1), x), dt, inc, r_guard=1.0)
    summary = dv.flow_summary(ou1d.model, [x], t_end, dt, n_paths, seed=seed, r_guard=1.0)
    assert 0 < np.count_nonzero(exit_step >= 0) < n_paths
    assert_array_equal(summary.alive, exit_step < 0)
