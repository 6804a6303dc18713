"""Empirical norms, integrability constants and the structural checks."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

import divflow as dv
from divflow import engine
from divflow.norms import MomentRadiusRow


OU_POLICY = dv.HorizonPolicy(t0=1.0, gamma0=8.0, r=4.0)


def check_inputs(model, battery, ensemble, p, q, gamma0=None):
    """The battery's norm profiles and, given gamma0, E(gamma0): what the checks read."""
    profiles = [dv.norm_profile(model, f, ensemble, p, q) for f in battery]
    integ = dv.exp_integrability(model, ensemble, gamma0) if gamma0 is not None else None
    return profiles, integ


def dw_density():
    z, _ = quad(lambda s: math.exp(-((s * s - 1.0) ** 2)), -12, 12)
    return lambda s: math.exp(-((s * s - 1.0) ** 2)) / z


# ---------------------------------------------------------------------------
# lp_norm
# ---------------------------------------------------------------------------


def test_lp_norm_constant(ou_ensemble):
    vals = np.ones(ou_ensemble.count)
    est = dv.lp_norm(vals, 3.0)
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_lp_norm_gaussian_moments(ou_ensemble):
    x = ou_ensemble.points[:, 0]
    l2 = dv.lp_norm(x, 2.0)
    assert l2.value == pytest.approx(1.0, abs=0.02)
    l4 = dv.lp_norm(x, 4.0)
    assert l4.value == pytest.approx(3.0**0.25, abs=0.03)
    # 3 SE consistency of the reported uncertainty
    assert abs(l4.value - 3.0**0.25) <= 3.0 * l4.std_error


def test_lp_norm_rejects_bad_p():
    with pytest.raises(dv.ConfigError):
        dv.lp_norm(np.ones(10), 0.5)


def test_holder_consistency_on_battery(ou1d, ou_ensemble):
    for f in dv.battery_for(ou1d):
        vals = np.abs(f.value(ou_ensemble.points))
        for p, q in ((1.0, 2.0), (1.5, 3.0), (2.0, 4.0)):
            lo = dv.lp_norm(vals, p).value
            hi = dv.lp_norm(vals, q).value
            assert lo <= hi * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# exponential integrability and the constant
# ---------------------------------------------------------------------------


def test_exp_integrability_exactly_one_for_nonpositive_curvature(ou1d, rot2d, ensembles):
    for problem, key in ((ou1d, "OU1D"), (rot2d, "ROT2D")):
        est = dv.exp_integrability(problem.model, ensembles[key], 8.0)
        assert est.value == 1.0
        assert est.std_error == 0.0
        assert not est.heavy_tail


def test_exp_integrability_dw1d_quadrature(dw1d, dw_ensemble):
    gamma0 = 0.1
    est = dv.exp_integrability(dw1d.model, dw_ensemble, gamma0)
    dens = dw_density()
    ref, _ = quad(lambda s: math.exp(gamma0 * max(2.0 - 6.0 * s * s, 0.0)) * dens(s), -12, 12)
    assert abs(est.value - ref) <= 3.0 * est.std_error


def test_exp_integrability_heavy_tail_flagged(varh2d, varh_ensemble):
    # unbounded curvature: for a large parameter the exponential moment is
    # dominated by the few largest samples and the diagnostic must fire
    est = dv.exp_integrability(varh2d.model, varh_ensemble, 12.0)
    assert est.heavy_tail
    mild = dv.exp_integrability(varh2d.model, varh_ensemble, 0.5)
    assert not mild.heavy_tail


def test_constant_c_scaling():
    base = dv.constant_c(1, 4.0, 1.0)
    assert base == pytest.approx(dv.bdg_constant(1, 4.0))
    assert dv.constant_c(1, 4.0, 2.0) == pytest.approx(base * 2.0 ** (1.0 / 4.0))
    assert dv.constant_c(1, 4.0, 1.0) > 0.0
    with pytest.raises(dv.ConfigError):
        dv.constant_c(1, 1.5, 1.0)


def test_r_exponent_pairs():
    assert dv.r_exponent(1.0, 2.0) == pytest.approx(2.0)
    assert dv.r_exponent(2.0, 4.0) == pytest.approx(4.0)
    assert dv.r_exponent(1.5, 3.0) == pytest.approx(3.0)
    assert dv.r_exponent(3.0, 4.0) == pytest.approx(12.0)
    with pytest.raises(dv.ConfigError):
        dv.r_exponent(2.0, 2.0)  # p must be strictly below q
    with pytest.raises(dv.ConfigError):
        dv.r_exponent(0.5, 2.0)  # p below one
    with pytest.raises(dv.ConfigError):
        dv.r_exponent(1.0, 3.0)  # r = 3/2 outside the supported range
    with pytest.raises(dv.ConfigError):
        dv.r_exponent(2.0, math.inf)  # r = inf/inf is nan



# ---------------------------------------------------------------------------
# inequality reports
# ---------------------------------------------------------------------------


def test_gradient_inequality_zero_function(ou1d, ou_ensemble):
    zero = dv.constant(0.0, 1)
    profiles, integ = check_inputs(ou1d.model, [zero], ou_ensemble, 2.0, 4.0, OU_POLICY.gamma0)
    rep = dv.check_gradient_inequality(ou1d.model, profiles, 2.0, 4.0, OU_POLICY, integ)
    assert rep.rows[0].ratio == 0.0
    assert rep.passed


def test_gradient_inequality_ou_battery(ou1d, ou_ensemble):
    profiles, integ = check_inputs(
        ou1d.model, dv.battery_for(ou1d), ou_ensemble, 2.0, 4.0, OU_POLICY.gamma0
    )
    rep = dv.check_gradient_inequality(ou1d.model, profiles, 2.0, 4.0, OU_POLICY, integ)
    assert rep.passed
    assert rep.constant == pytest.approx(dv.constant_c(1, 4.0, 1.0))


def test_gradient_inequality_dw_battery(dw1d, dw_ensemble):
    policy = dv.HorizonPolicy(t0=0.25, gamma0=1.0, r=3.0)
    profiles, integ = check_inputs(
        dw1d.model, dv.battery_for(dw1d), dw_ensemble, 1.5, 3.0, policy.gamma0
    )
    rep = dv.check_gradient_inequality(dw1d.model, profiles, 1.5, 3.0, policy, integ)
    assert rep.passed


def test_gradient_inequality_rejects_bad_exponents(ou1d, ou_ensemble):
    profiles, integ = check_inputs(
        ou1d.model, dv.battery_for(ou1d), ou_ensemble, 4.0, 2.0, OU_POLICY.gamma0
    )
    with pytest.raises(dv.ConfigError):
        dv.check_gradient_inequality(ou1d.model, profiles, 4.0, 2.0, OU_POLICY, integ)


def test_hessian_inequality_zero_function(ou1d, ou_ensemble):
    profiles, _ = check_inputs(ou1d.model, [dv.constant(0.0, 1)], ou_ensemble, 2.0, 4.0)
    rep = dv.check_hessian_inequality(ou1d.model, profiles, 2.0, 4.0, ou_ensemble)
    assert rep.rows[0].ratio == 0.0
    assert rep.passed


def test_hessian_inequality_stability(ou1d, ou_ensemble):
    bat = dv.battery_for(ou1d)
    small = dv.StationaryEnsemble(points=ou_ensemble.points[:10_000])
    small_profiles, _ = check_inputs(ou1d.model, bat, small, 2.0, 4.0)
    big_profiles, _ = check_inputs(ou1d.model, bat, ou_ensemble, 2.0, 4.0)
    rep_small = dv.check_hessian_inequality(ou1d.model, small_profiles, 2.0, 4.0, small)
    rep_big = dv.check_hessian_inequality(ou1d.model, big_profiles, 2.0, 4.0, ou_ensemble)
    assert rep_small.passed and rep_big.passed
    assert rep_big.constant == pytest.approx(rep_small.constant, rel=0.10)
    assert set(rep_big.ell_2_star) == {2.0, 3.0, 4.0}
    assert all(np.isfinite(v) for v in rep_big.ell_2_star.values())


def test_hessian_inequality_stability_dw(dw1d, dw_ensemble):
    bat = dv.battery_for(dw1d)
    small = dv.StationaryEnsemble(points=dw_ensemble.points[:10_000])
    small_profiles, _ = check_inputs(dw1d.model, bat, small, 2.0, 4.0)
    big_profiles, _ = check_inputs(dw1d.model, bat, dw_ensemble, 2.0, 4.0)
    rep_small = dv.check_hessian_inequality(dw1d.model, small_profiles, 2.0, 4.0, small)
    rep_big = dv.check_hessian_inequality(dw1d.model, big_profiles, 2.0, 4.0, dw_ensemble)
    assert rep_big.constant == pytest.approx(rep_small.constant, rel=0.10)


def test_norm_profile_sobolev_ordering(ou1d, ou_ensemble):
    prof = dv.norm_profile(ou1d.model, dv.bump([0.0], 1.0), ou_ensemble, 2.0, 4.0)
    f_lp = dv.lp_norm(np.abs(dv.bump([0.0], 1.0).value(ou_ensemble.points)), 2.0)
    assert prof.sobolev_1p.value >= f_lp.value
    assert prof.sobolev_2p.value >= prof.sobolev_1p.value


# ---------------------------------------------------------------------------
# operator symmetry
# ---------------------------------------------------------------------------


def test_antisymmetry_diagonal_pair(rot2d, rot_ensemble):
    f = dv.bump([0.0, 0.0], 1.5)
    rep = dv.operator_symmetry_check(rot2d.model, [(f, f)], rot_ensemble)
    row = rep.rows[0]
    assert abs(row.antisym_residual) <= 3.0 * row.antisym_se + 1e-12


@pytest.mark.parametrize("tag", ["OU1D", "ROT2D", "VARH2D", "DW1D"])
def test_symmetry_pairs(tag, all_problems, ensembles):
    problem = next(p for p in all_problems if p.tag == tag)
    bat = dv.battery_for(problem)
    pairs = [(bat[0], bat[1]), (bat[1], bat[2]), (bat[0], bat[0])]
    rep = dv.operator_symmetry_check(problem.model, pairs, ensembles[tag])
    assert rep.passed


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------


def test_decay_zero_function(ou1d, ou_ensemble):
    rep = dv.decay_check(
        ou1d.model, dv.constant(0.0, 1), (0.0, 1.0), ou_ensemble, n_outer=200, inner_paths=10, dt=1e-2, seed=40
    )
    assert all(pt.norm == 0.0 for pt in rep.points)


def test_decay_ou_rate(ou1d, ou_ensemble):
    rep = dv.decay_check(
        ou1d.model,
        dv.coordinate(0, 1),
        (0.0, 1.0, 2.0, 4.0),
        ou_ensemble,
        n_outer=1000,
        inner_paths=100,
        dt=1e-2,
        seed=41,
    )
    for pt in rep.points:
        assert abs(pt.norm - math.exp(-pt.t / 2.0)) <= 3.0 * pt.std_error
    assert rep.monotone


def test_decay_dw_centered_bump(dw1d, dw_ensemble):
    f0 = dv.bump([0.0], 1.0)
    dens = dw_density()
    mean, _ = quad(lambda s: float(f0.value(np.array([s]))) * dens(s), -12, 12)
    rep = dv.decay_check(
        dw1d.model,
        dv.shifted(f0, mean),
        (0.0, 2.0, 10.0),
        dw_ensemble,
        n_outer=1000,
        inner_paths=100,
        dt=1e-2,
        seed=42,
    )
    assert rep.monotone


# ---------------------------------------------------------------------------
# moment bound
# ---------------------------------------------------------------------------


def test_moment_bound_horizon_zero_is_stationary_moment(ou1d, ou_ensemble):
    cfg = dv.MomentTestConfig(rho=0.4, radii=(3.0,), horizon=0.0)
    rep = dv.moment_bound_check(ou1d.model, cfg, ou_ensemble, n_paths=2000, dt=1e-3, seed=43)
    pts = ou_ensemble.points[:2000]
    stationary = np.mean((np.sum(pts * pts, axis=-1) + 1.0) ** 0.4)
    assert rep.rows[0].moment == pytest.approx(stationary, rel=1e-12)
    assert rep.rows[0].moment <= rep.c_hat + 3.0 * rep.rows[0].moment_se
    assert rep.passed


def test_moment_bound_ou_exit_probabilities_decrease(ou1d, ou_ensemble):
    cfg = dv.MomentTestConfig(rho=0.4, radii=(3.0, 5.0, 8.0), horizon=5.0)
    rep = dv.moment_bound_check(ou1d.model, cfg, ou_ensemble, n_paths=4000, dt=2e-3, seed=44)
    probs = [row.exit_probability for row in rep.rows]
    assert probs[0] >= probs[1] >= probs[2]
    assert rep.passed


def test_moment_bound_dw_margin(dw1d, dw_ensemble):
    cfg = dv.MomentTestConfig(rho=0.4, radii=(3.0, 5.0, 8.0), horizon=5.0)
    rep = dv.moment_bound_check(dw1d.model, cfg, dw_ensemble, n_paths=3000, dt=1e-3, seed=45)
    assert rep.passed
    assert all(row.moment < rep.bound for row in rep.rows)


def reference_moment_rows(model, cfg, ensemble, n_paths, dt, seed, bound):
    """moment_bound_check's rows from stored Euler paths and plain-Python stopping."""
    starts = ensemble.points[:n_paths]
    n_steps = engine.steps_for(cfg.horizon, dt)
    inc = engine.increments_block(seed, 0, n_paths, n_steps, dt, model.dim)
    states, exit_step = engine.euler_sweep(model, starts, dt, inc)
    assert (exit_step < 0).all()
    radii = sorted(cfg.radii)
    stop_state = {r: [] for r in radii}  # the state at the first hit of r, else the final one
    exits = {r: 0 for r in radii}
    for path in states.tolist():
        for r in radii:
            hit = next((x for x in path if math.hypot(*x) >= r), None)
            exits[r] += hit is not None
            stop_state[r].append(path[-1] if hit is None else hit)
    rows = []
    for r in radii:
        x = np.array(stop_state[r])
        vals = (np.sum(x * x, axis=-1) + 1.0) ** cfg.rho
        rows.append(
            MomentRadiusRow(
                radius=r,
                moment=float(np.mean(vals)),
                moment_se=float(np.std(vals, ddof=1) / math.sqrt(n_paths)),
                exit_probability=exits[r] / n_paths,
                envelope=bound / r ** (2.0 * cfg.rho),
            )
        )
    return rows


@pytest.mark.parametrize(
    "tag, radii, horizon, n_paths, some_exit",
    [
        ("OU1D", (1.0, 0.5, 2.0), 1.0, 400, True),
        # Few paths far out: steps where no path reaches 2 alternate with hits.
        ("OU1D", (2.0, 2.5, 3.0), 2.0, 20, True),
        ("DW1D", (3.0, 5.0, 8.0), 2.0, 400, False),
    ],
)
def test_moment_bound_rows_equal_a_plain_reference(
    tag, radii, horizon, n_paths, some_exit, all_problems, ensembles
):
    model = next(pb.model for pb in all_problems if pb.tag == tag)
    cfg = dv.MomentTestConfig(rho=0.4, radii=radii, horizon=horizon)
    dt, seed = 1.0e-2, 47
    rep = dv.moment_bound_check(model, cfg, ensembles[tag], n_paths=n_paths, dt=dt, seed=seed)
    expected = reference_moment_rows(model, cfg, ensembles[tag], n_paths, dt, seed, rep.bound)
    assert rep.rows == expected
    assert any(row.exit_probability > 0 for row in rep.rows) == some_exit


def test_moment_config_validation():
    with pytest.raises(dv.ConfigError):
        dv.MomentTestConfig(rho=1.5, radii=(3.0,), horizon=1.0)
    with pytest.raises(dv.ConfigError):
        dv.MomentTestConfig(rho=0.4, radii=(-1.0,), horizon=1.0)
    with pytest.raises(dv.ConfigError):  # no row, so the report could never fail
        dv.MomentTestConfig(rho=0.4, radii=(), horizon=1.0)
