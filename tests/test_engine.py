"""The shared Euler sweep: one radius guard for every path simulation."""
from __future__ import annotations

import ast
import dataclasses
import itertools
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import divflow as dv
from divflow import cli, engine
from divflow.model import constant_curvature

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
    ensemble = dv.StationaryEnsemble(points=np.full((20, 1), 3.0))
    with pytest.raises(dv.IntegrationError) as err:
        _CHECKS[name](dw1d.model, ensemble)
    assert err.value.step >= 1


@pytest.mark.parametrize("name", list(_CHECKS))
def test_checks_honour_the_given_guard(ou1d, name):
    """OU1D from the origin stays well inside the default radius, but not inside 0.5."""
    ensemble = dv.StationaryEnsemble(points=np.zeros((20, 1)))
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
        model, dv.StationaryEnsemble(ens.points[:15]), _SPLIT_POLICY,
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


def test_cells_pass_at_exactly_three_se_and_fail_above_it_or_on_a_nan_se():
    edge = 3.0 * 0.5 + 1.0e-12
    assert engine.Cells(("a", "b"), (edge, -edge), (0.5, 0.5)).passed
    assert not engine.Cells(("a", "b"), (0.0, np.nextafter(edge, np.inf)), (0.5, 0.5)).passed
    assert not engine.Cells(("a",), (0.0,), (np.nan,)).passed


def test_cells_worst_is_the_largest_residual_in_units_of_three_se():
    cells = engine.Cells(("a", "b", "c"), (0.3, -1.2, 0.0), (0.1, 0.2, 0.0))
    assert cells.worst == pytest.approx(max(0.3 / 0.3, 1.2 / 0.6), rel=1e-15)


def test_cells_with_the_same_values_are_equal():
    assert engine.Cells(("a",), (1.0,), (0.5,)) == engine.Cells(("a",), (1.0,), (0.5,))
    assert engine.Cells(("a",), (1.0,), (0.5,)) != engine.Cells(("a",), (1.0,), (0.25,))
    samples = np.array([1.0, 2.0, 6.0])
    mean, se = engine.mean_and_se(samples)
    assert engine.Cells.of([("a", samples)]) == engine.Cells(("a",), (float(mean),), (float(se),))


def test_symmetry_cells_come_two_per_pair_in_pair_order(ou1d):
    ensemble = dv.sample_stationary(ou1d, 500, seed=3)
    f, g, h = dv.battery_for(ou1d)[:3]
    cells = dv.operator_symmetry_check(ou1d.model, [(f, g), (h, h)], ensemble)
    assert cells.names == (
        f"{f.name}|{g.name} sym",
        f"{f.name}|{g.name} antisym",
        f"{h.name}|{h.name} sym",
        f"{h.name}|{h.name} antisym",
    )
    pts = ensemble.points
    sym = dv.apply_L(ou1d.model, f, pts) * g.value(pts) - f.value(pts) * dv.apply_L(ou1d.model, g, pts)
    assert cells.residual[0] == float(engine.mean_and_se(sym)[0])
    assert cells.residual[1::2] == (0.0, 0.0)  # H = 0: A vanishes on OU1D


def test_stationarity_cells_come_in_battery_then_time_order(ou1d):
    ensemble = dv.sample_stationary(ou1d, 20, seed=3)
    f, g = dv.battery_for(ou1d)[:2]
    cells = dv.stationarity_check(ou1d.model, [f, g], ensemble, t_grid=(2.0, 0.5), n_paths=20, dt=0.5, seed=1)
    assert cells.names == (f"{f.name} t=0.5", f"{f.name} t=2", f"{g.name} t=0.5", f"{g.name} t=2")
    assert len(cells.residual) == len(cells.se) == 4


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


def _simulate(model, tmp_path):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(
        f"[problem]\ntag = {model.name}\n[simulation]\npaths = 120\nhorizon = 0.4\ndt = 0.01\nseed = 3\n"
        f"[output]\ndir = {tmp_path / 'out'}\n"
    )
    assert cli.cmd_simulate(cli.parse_config(cfg)) == cli.EXIT_OK


# Each caller sweeps 120 paths of 40 steps through `engine.ensemble_sweep`,
# and each with its own kernel, by which the cases are named.
_CALLERS = {
    "sweep": lambda model, tmp_path: dv.stationarity_check(
        model, [dv.coordinate(0, 1)], dv.StationaryEnsemble(np.zeros((120, 1))), t_grid=(0.4,), n_paths=120,
        dt=0.01, seed=3,
    ),
    "propagator_sweep": lambda model, tmp_path: dv.flow_summary(model, [0.0], 0.4, 0.01, 120, seed=3),
    "euler_sweep": _simulate,
}


@pytest.mark.parametrize("kernel", list(_CALLERS))
def test_ensemble_sweep_releases_each_block_before_the_next(ou1d, monkeypatch, tmp_path, kernel):
    """At most one noise block is alive at a time, in a check, in `flow_summary` and in `simulate`."""
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
    _CALLERS[kernel](ou1d.model, tmp_path)
    assert len(blocks) == 3


def test_ensemble_sweep_does_not_depend_on_the_thread_count(ou1d, monkeypatch):
    """The same arrays at one and two threads, and the same guard exit: the first in batch order."""
    monkeypatch.setattr(engine, "_BLOCK_BUDGET", 40 * 40)
    starts, dt, n_steps, seed = np.zeros((120, 1)), 0.01, 40, 3

    def last_step(part, inc, steps):
        for _, x, alive, a, c in steps:
            pass
        return x, alive, a, c

    serial, threaded = (
        engine.ensemble_sweep(last_step, engine.propagator_sweep, ou1d.model, starts, dt, n_steps, seed, threads=t)
        for t in (1, 2)
    )
    assert [a.tobytes() for a in serial] == [a.tobytes() for a in threaded]

    # The second batch leaves the guard after step 0 and the third at step 0.
    starts[40:80], starts[80:] = 1.9, 3.0
    inc = engine.increments_block(seed, 40, 40, n_steps, dt, 1)
    _, exit_step = engine.euler_sweep(ou1d.model, starts[40:80], dt, inc, r_guard=2.0)
    first_exit = int(exit_step[exit_step >= 0].min())

    def guarded(part, inc, steps):
        return tuple(x for k, x, _ in engine.require_alive(steps) if k == n_steps)

    for threads in (1, 2):
        with pytest.raises(dv.IntegrationError, match="radius guard") as err:
            engine.ensemble_sweep(guarded, engine.sweep, ou1d.model, starts, dt, n_steps, seed, 2.0, threads)
        assert err.value.step == first_exit >= 1


# Each caller with no path to sweep; the ensemble itself is not empty.
_EMPTY = {
    "decay": lambda model, ens: dv.decay_check(model, dv.coordinate(0, 1), (0.0, 1.0), ens, n_outer=0, dt=0.5),
    "stationarity": lambda model, ens: dv.stationarity_check(
        model, [dv.coordinate(0, 1)], ens, t_grid=(1.0,), n_paths=0, dt=0.5
    ),
    "moment_bound": lambda model, ens: dv.moment_bound_check(
        model, dv.MomentTestConfig(rho=0.4, radii=(3.0,), horizon=1.0), ens, n_paths=0, dt=0.5
    ),
    "gronwall": lambda model, ens: dv.gronwall_sweep(model, ens.points[:0], _POLICY, dt=0.5),
    "trace_moment": lambda model, ens: dv.trace_moment_check(model, ens, _POLICY, paths_per_point=0, dt=0.5),
    "flow_summary": lambda model, ens: dv.flow_summary(model, [0.0], 1.0, 0.5, 0),
}


@pytest.mark.parametrize("name", list(_EMPTY))
def test_an_empty_path_set_is_a_config_error(ou1d, name):
    """Not a crash, a nan report or gronwall's (-inf, 0.0), which would read as a pass."""
    ensemble = dv.StationaryEnsemble(points=np.zeros((20, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dv.ConfigError, match="no paths to sweep"):
            _EMPTY[name](ou1d.model, ensemble)


def test_only_the_batch_driver_splits_paths_and_draws_noise_blocks():
    """One batch loop decides how paths are batched and which stream drives a path.

    `increments_block`, `batch_sizes` and `map_batches` are called in
    `engine.ensemble_sweep` alone, anywhere in the package.
    """
    names = {"increments_block", "batch_sizes", "map_batches"}
    calls = set()
    for path in sorted(Path(dv.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name in names:
                        calls.add((path.name, getattr(top, "name", None), name))
    assert calls == {("engine.py", "ensemble_sweep", name) for name in names}


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


def _rk4_reference(y, dt, a0, a_half, a1, f0=0.0, f_half=0.0, f1=0.0):
    """rk4_step in plain Python floats, each product summed over k in index order."""
    arrays = (y, a0, a_half, a1, f0, f_half, f1)
    batch = np.broadcast_shapes(*(np.shape(v)[:-2] for v in arrays if np.ndim(v)))
    n, m = a0.shape[-2], y.shape[-1]
    out = np.empty(batch + (n, m))

    def entries(v, idx):
        if not np.ndim(v):
            return [[v] * m for _ in range(n)]
        return np.broadcast_to(v, batch + v.shape[-2:])[idx].tolist()

    def product(a, b):
        rows = []
        for i in range(n):
            row = []
            for j in range(m):
                acc = a[i][0] * b[0][j]
                for k in range(1, len(b)):
                    acc = acc + a[i][k] * b[k][j]
                row.append(acc)
            rows.append(row)
        return rows

    def combine(fn, *mats):
        return [[fn(*vals) for vals in zip(*rows)] for rows in zip(*mats)]

    for idx in np.ndindex(*batch):
        yy, p0, ph, p1, g0, gh, g1 = (entries(v, idx) for v in arrays)
        k1 = combine(lambda p, g: p + g, product(p0, yy), g0)
        k2 = combine(lambda p, g: p + g, product(ph, combine(lambda u, k: u + (0.5 * dt) * k, yy, k1)), gh)
        k3 = combine(lambda p, g: p + g, product(ph, combine(lambda u, k: u + (0.5 * dt) * k, yy, k2)), gh)
        k4 = combine(lambda p, g: p + g, product(p1, combine(lambda u, k: u + dt * k, yy, k3)), g1)
        out[idx] = combine(
            lambda u, q1, q2, q3, q4: u + (dt / 6.0) * (q1 + 2.0 * (q2 + q3) + q4), yy, k1, k2, k3, k4
        )
    return out


def _batch_axes_last_in_memory(c):
    """A (..., n, m) array laid out as a C-ordered (n, m, ...) array."""
    return np.moveaxis(c, (-2, -1), (0, 1)).flags.c_contiguous


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("batch", [(), (5,), (4000,)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_rk4_step_is_the_fixed_order_sum_bit_for_bit(d, batch, forced):
    """Also with a broadcast (1, d, d) A, an unbatched y, a transposed, non-contiguous y, a d x 1 y and signed zeros."""
    rng = np.random.default_rng(d * 100 + len(batch))
    y, a0, a_half, a1, f0, f1 = (rng.normal(size=batch + (d, d)) for _ in range(6))
    forcing = (f0, 0.5 * (f0 + f1), f1) if forced else ()
    y_t = np.swapaxes(rng.normal(size=batch + (d, d)), -1, -2)
    assert d == 1 or not y_t.flags.c_contiguous
    cases = [
        (y, 0.01, a0, a_half, a1),
        (y, 0.01, a0.reshape(-1, d, d)[:1], a_half, a1.reshape(-1, d, d)[:1]),
        (y_t, 0.01, a0, a_half, a1),
    ]
    if batch:
        cases.append((y[0], 0.01, a0, a_half, a1))  # one y for the whole batch of A
    if not forced:
        cases.append((y[..., :1], 0.01, a0, a_half, a1))
        if batch in ((), (5,)):
            # Signed zeros: +-0.0 in y, zero and negative entries in A, so some products are -0.0.
            y0, a00, a0h, a01 = (rng.choice([0.0, -0.0, -1.5, 2.0], size=batch + (d, d)) for _ in range(4))
            y0[..., 0, :] = np.copysign(0.0, rng.choice([1.0, -1.0], size=batch + (d,)))
            neg = np.full_like(y, -0.0)  # with a positive A, every stage and the sum stay -0.0
            cases += [
                (y0, 0.01, a00, a0h, a01),
                (y0, 0.01, -np.abs(a00), a0h, a01),
                (neg, 0.01, np.abs(a00) + 1.0, np.abs(a0h) + 1.0, np.abs(a01) + 1.0),
            ]
    for args in cases:
        got = engine.rk4_step(*args, *forcing)
        ref = _rk4_reference(*args, *forcing)
        assert got.shape == ref.shape and _batch_axes_last_in_memory(got)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rk4_step_matches_matmul_in_exact_arithmetic(d):
    """Small integers and dt = 2^-4: every product and sum is exact, so the order cannot matter."""
    rng = np.random.default_rng(d)
    y, a0, a_half, a1, f0, f1 = (rng.integers(-3, 4, size=(50, d, d)).astype(float) for _ in range(6))
    f_half = 0.5 * (f0 + f1)
    dt = 2.0**-4
    k1 = a0 @ y + f0
    k2 = a_half @ (y + (0.5 * dt) * k1) + f_half
    k3 = a_half @ (y + (0.5 * dt) * k2) + f_half
    k4 = a1 @ (y + dt * k3) + f1
    expected = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    assert engine.rk4_step(y, dt, a0, a_half, a1, f0, f_half, f1).tobytes() == expected.tobytes()


@pytest.mark.parametrize("tag, r_guard", [("ROT2D", engine.DEFAULT_R_GUARD), ("VARH2D", engine.DEFAULT_R_GUARD), ("VARH2D", 1.2)])
def test_propagator_does_not_depend_on_the_batch(all_problems, tag, r_guard):
    """A path's C is the same alone, in a batch of 7 and in a batch of 300."""
    model = next(p.model for p in all_problems if p.tag == tag)
    x0 = 0.5 * np.random.default_rng(6).normal(size=(300, 2))
    increments = engine.increments_block(6, 0, 300, 100, 0.01, 2)

    def propagators(rows):
        steps = list(engine.propagator_sweep(model, x0[rows], 0.01, increments[rows], r_guard))
        return np.stack([c for *_, c in steps], axis=1), steps[-1][2]

    whole, alive = propagators(slice(0, 300))
    if r_guard < engine.DEFAULT_R_GUARD:
        assert 0 < np.count_nonzero(~alive) < 300 and not alive[:7].all()
    seven, _ = propagators(slice(0, 7))
    assert seven.tobytes() == whole[:7].tobytes()
    for i in (0, 3, 6, 299):
        alone, _ = propagators(slice(i, i + 1))
        assert alone.tobytes() == whole[i : i + 1].tobytes()


@pytest.mark.parametrize("tag, r_guard", [("OU1D", 1.0), ("ROT2D", 1.2)])
def test_constant_curvature_sweep_is_the_pointwise_sweep_bit_for_bit(all_problems, tag, r_guard):
    """The shared K and the midpoint A give the C of the per-point K and (A + A) / 2.

    The same model with its Hessian as a plain function is not found
    constant, so it takes the pointwise route; paths exit on the way.
    """
    problem = next(p for p in all_problems if p.tag == tag)
    model, d = problem.model, problem.dim
    pointwise = dataclasses.replace(model, hess_potential=lambda x: np.array(model.hess_potential(x)))
    assert constant_curvature(model) is not None and constant_curvature(pointwise) is None
    x0 = 0.6 * np.random.default_rng(15).normal(size=(200, d))
    increments = engine.increments_block(15, 0, 200, 120, 0.01, d)
    runs = [list(engine.propagator_sweep(m, x0, 0.01, increments, r_guard)) for m in (model, pointwise)]
    assert 0 < np.count_nonzero(~runs[0][-1][2]) < 200
    for ours, theirs in zip(*runs):
        assert ours[3].tobytes() == theirs[3].tobytes() and ours[4].tobytes() == theirs[4].tobytes()


@pytest.mark.parametrize("tag", ["ROT2D", "VARH2D"])
def test_interleaved_propagator_sweeps_keep_their_bytes(all_problems, tag):
    """Two sweeps advanced in turn yield the C bytes each yields alone, and keep them.

    On ROT2D C is the same on every path, so there the two sweeps agree.
    """
    model = next(p.model for p in all_problems if p.tag == tag)
    runs = [
        (0.5 * np.random.default_rng(seed).normal(size=(50, 2)), engine.increments_block(seed, 0, 50, 80, 0.01, 2))
        for seed in (12, 13)
    ]
    alone = [[c.tobytes() for *_, c in engine.propagator_sweep(model, x0, 0.01, inc)] for x0, inc in runs]
    assert tag == "ROT2D" or alone[0] != alone[1]
    kept = list(zip(*(engine.propagator_sweep(model, x0, 0.01, inc) for x0, inc in runs)))
    assert len(kept) == 81
    for k, pair in enumerate(kept):
        assert [item[-1].tobytes() for item in pair] == [alone[0][k], alone[1][k]]


def _layout_sensitive_results(problems, ensembles):
    """Outputs of every consumer of the noise block, as bytes or exact reprs."""
    rot, varh, dw = problems["ROT2D"].model, problems["VARH2D"].model, problems["DW1D"].model
    policy = dv.HorizonPolicy(t0=0.5, gamma0=8.0, r=4.0)
    out = {}
    for name, model, r_guard in [("ROT2D", rot, engine.DEFAULT_R_GUARD), ("VARH2D", varh, 1.2)]:
        s = dv.flow_summary(model, [0.3, -0.2], 0.5, 0.01, 200, seed=9, r_guard=r_guard)
        out[f"flow_summary {name}"] = [a.tobytes() for a in (s.states, s.frechet, s.ito, s.alive)]
        out[f"exited {name}"] = s.exited_fraction
    for name, model in [("DW1D", dw), ("VARH2D", varh)]:
        points = ensembles[name].points[:40]
        out[f"gronwall {name}"] = repr(dv.gronwall_sweep(model, points, policy, dt=0.01, seed=9))
        ens = dv.StationaryEnsemble(points)
        out[f"trace_moment {name}"] = repr(dv.trace_moment_check(model, ens, policy, dt=0.01, seed=9))
    for name in ("stationarity", "decay", "moment_bound"):
        out[name] = repr(_SPLIT[name](dw, ensembles["DW1D"]))
    increments = engine.increments_block(9, 0, 60, 150, 0.01, 2)
    states, exit_step = engine.euler_sweep(varh, np.full((60, 2), 0.4), 0.01, increments, r_guard=1.5)
    out["euler_sweep"] = [states.tobytes(), exit_step.tobytes()]
    out["euler exits"] = int(np.count_nonzero(exit_step >= 0))
    return out


def test_results_do_not_depend_on_the_noise_layout(all_problems, ensembles, monkeypatch):
    """The step-major block and a path-major copy of it give the same bits everywhere."""
    problems = {p.tag: p for p in all_problems}
    step_major = _layout_sensitive_results(problems, ensembles)
    assert 0 < step_major["exited VARH2D"] < 1 and step_major["euler exits"] > 0
    draw = engine.increments_block
    assert not draw(9, 0, 60, 150, 0.01, 2).flags.c_contiguous

    def path_major(*args):
        return np.ascontiguousarray(draw(*args))

    monkeypatch.setattr(engine, "increments_block", path_major)
    assert engine.increments_block(9, 0, 60, 150, 0.01, 2).flags.c_contiguous
    assert _layout_sensitive_results(problems, ensembles) == step_major


def test_noise_steps_and_propagator_entries_are_contiguous_across_paths(rot2d):
    increments = engine.increments_block(5, 0, 300, 50, 0.01, 2)
    assert all(increments[:, k].flags.c_contiguous for k in range(50))
    steps = 0
    for _, _, alive, _, c in engine.propagator_sweep(rot2d.model, np.zeros((300, 2)), 0.01, increments):
        assert alive.all() and c.shape == (300, 2, 2) and _batch_axes_last_in_memory(c)
        steps += 1
    assert steps == 51


@pytest.mark.parametrize("n_paths, count, dim", [(1500, 500, 2), (3000, 5000, 1), (2, 10, 3)])
def test_noise_block_peak_memory_is_the_block_plus_a_tile(n_paths, count, dim):
    engine.increments_block(1, 0, 2, 3, 0.1, 1)  # numpy's one-off allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        block = engine.increments_block(1, 0, n_paths, count, 0.01, dim)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= block.nbytes + 1.1 * 2**20


@pytest.mark.parametrize("d", [1, 2, 3])
def test_guard_norm_is_the_old_reduction_bit_for_bit(d):
    """At random points, at every sign pattern of zero coordinates and at the origin."""
    zeros = np.array(list(itertools.product([0.0, -0.0], repeat=d)))
    mixed = np.array(list(itertools.product([0.0, -0.0, 1.5, -2.5e-160, 3e200], repeat=d)))
    with np.errstate(over="ignore"):
        for x in (np.random.default_rng(d).normal(size=(1000, d)), zeros, mixed, np.zeros((1, d))):
            assert engine._squared_norm(x).tobytes() == np.sum(x * x, axis=-1).tobytes()
