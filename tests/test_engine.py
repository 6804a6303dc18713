"""The shared Euler sweep: one radius guard for every path simulation."""
from __future__ import annotations

import warnings
import weakref

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import divflow as dv
from divflow import engine

# DW1D started at x = 3 with dt = 0.5 explodes within a horizon of 2.
_POLICY = dv.HorizonPolicy(t0=2.0, gamma0=8.0, r=4.0)
_CHECKS = {
    "decay": lambda model, ens, **kw: dv.decay_check(
        model, dv.coordinate(0, 1), (0.0, 2.0), ens, n_outer=20, inner_paths=5, dt=0.5, seed=1, **kw
    ),
    "stationarity": lambda model, ens, **kw: dv.stationarity_check(
        model, [dv.coordinate(0, 1)], ens, t_grid=(2.0,), n_paths=20, dt=0.5, seed=1, **kw
    ),
    "moment_bound": lambda model, ens, **kw: dv.moment_bound_check(
        model, dv.MomentTestConfig(rho=0.4, radii=(3.0, 5.0), horizon=2.0), ens,
        n_paths=20, dt=0.5, seed=1, **kw,
    ),
    "gronwall": lambda model, ens, **kw: dv.gronwall_sweep(model, ens.points, _POLICY, dt=0.5, seed=1, **kw),
    "trace_moment": lambda model, ens, **kw: dv.trace_moment_check(model, ens, _POLICY, dt=0.5, seed=1, **kw),
}


@pytest.mark.parametrize("name", list(_CHECKS))
def test_checks_raise_at_the_first_guard_exit(dw1d, name):
    ensemble = dv.StationaryEnsemble(points=np.full((20, 1), 3.0), provenance="exact")
    with pytest.raises(dv.IntegrationError) as err:
        _CHECKS[name](dw1d.model, ensemble)
    assert err.value.step >= 1


@pytest.mark.parametrize("name", list(_CHECKS))
def test_checks_honour_the_given_guard(ou1d, name):
    """OU1D from the origin stays well inside the default radius, but not inside 0.5."""
    ensemble = dv.StationaryEnsemble(points=np.zeros((20, 1)), provenance="exact")
    _CHECKS[name](ou1d.model, ensemble)
    with pytest.raises(dv.IntegrationError, match="radius guard") as err:
        _CHECKS[name](ou1d.model, ensemble, r_guard=0.5)
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


@pytest.mark.parametrize("start", [0, 12345])
@pytest.mark.parametrize("seed", [0, 1, 2043, 2**32 - 1, 2**32 + 5, 2**64 + 3])
def test_noise_is_the_per_path_generator_stream_bit_for_bit(seed, start):
    """Path p's increments are default_rng(SeedSequence((seed, p))).normal(0, sqrt(dt), ...)."""
    for count in (1, 7, 1000):
        for dim in (1, 2, 3):
            for dt in (1e-3, 0.5):
                ref = [
                    np.random.default_rng(np.random.SeedSequence((seed, start + i))).normal(
                        0.0, np.sqrt(dt), (count, dim)
                    )
                    for i in range(3)
                ]
                block = engine.increments_block(seed, start, 3, count, dt, dim)
                assert block.tobytes() == np.stack(ref).tobytes()
                single = engine.normal_increments(seed, start + 2, count, dt, dim)
                assert single.tobytes() == ref[2].tobytes()


def test_noise_rejects_a_path_index_beyond_32_bits():
    last = engine.increments_block(5, 2**32 - 1, 1, 4, 0.1, 1)
    assert last.tobytes() == np.random.default_rng((5, 2**32 - 1)).normal(0.0, np.sqrt(0.1), (4, 1)).tobytes()
    with pytest.raises(dv.ConfigError, match="32 bits"):
        engine.increments_block(5, 2**32 - 1, 2, 4, 0.1, 1)
    with pytest.raises(dv.ConfigError, match="32 bits"):
        engine.normal_increments(5, 2**32, 4, 0.1, 1)


@pytest.mark.parametrize("kernel", ["sweep", "propagator_sweep"])
def test_ensemble_sweep_releases_each_block_before_the_next(ou1d, monkeypatch, kernel):
    """At most one noise block is alive at a time."""
    monkeypatch.setattr(engine, "_BLOCK_BUDGET", 40 * 40)
    assert len(engine.batch_sizes(120, 40, 1)) == 3
    blocks = []
    draw = engine.increments_block

    def watched(*args):
        assert all(block() is None for block in blocks), "an earlier noise block is still alive"
        inc = draw(*args)
        blocks.append(weakref.ref(inc))
        return inc

    monkeypatch.setattr(engine, "increments_block", watched)
    starts = np.zeros((120, 1))
    for _ in engine.ensemble_sweep(getattr(engine, kernel), ou1d.model, starts, 0.01, 40, seed=3):
        pass
    assert len(blocks) == 3


@pytest.mark.parametrize("kernel", ["sweep", "propagator_sweep"])
@pytest.mark.parametrize("tag", ["OU1D", "ROT2D"])
def test_sweep_never_mutates_its_inputs_or_what_it_yields(all_problems, kernel, tag):
    """OU1D's grad_potential returns its own argument; ROT2D has an H.

    Every path starts inside the guard and some leave it, so both the
    unmasked and the masked step run.
    """
    model = next(p.model for p in all_problems if p.tag == tag)
    d = model.dim
    x0 = 0.2 * np.random.default_rng(4).normal(size=(50, d))
    increments = engine.increments_block(4, 0, 50, 200, 0.01, d)
    x0_copy, inc_copy = x0.copy(), increments.copy()
    yielded, copies = [], []
    for item in getattr(engine, kernel)(model, x0, 0.01, increments, r_guard=1.0):
        yielded.append(item[1:])
        copies.append([a.copy() for a in item[1:]])
    assert yielded[0][1].all() and not yielded[-1][1].all()
    assert x0.tobytes() == x0_copy.tobytes()
    assert increments.tobytes() == inc_copy.tobytes()
    for arrays, saved in zip(yielded, copies):
        for a, b in zip(arrays, saved):
            assert a.tobytes() == b.tobytes()
