"""Gradient estimators: Ito integrals, both routes and the identity check."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import divflow as dv
from divflow.control import constant_control


OU_POLICY = dv.HorizonPolicy(t0=1.0, gamma0=8.0, r=2.0)


def ou_deterministic_control(ou1d, t0, dt, horizon):
    """Control built on the noise-free propagator e^{-t/2} (state independent)."""
    n = int(round(horizon / dt))
    noise = dv.WienerGrid.zeros(n, dt, 1)
    traj = dv.simulate_path(ou1d.model, [0.0], horizon, dt, noise)
    jac = dv.drift_jacobian_path(ou1d.model, traj)
    c = dv.fundamental_matrix(jac)
    return dv.build_control(c, dv.HorizonPolicy(t0=t0, gamma0=8.0, r=2.0))


# ---------------------------------------------------------------------------
# ito_integral
# ---------------------------------------------------------------------------


def test_ito_integral_zero_control():
    control = constant_control(np.zeros((1, 1)), t0=1.0, n_steps=100, dt=0.01)
    noise = dv.WienerGrid.generate(1, 0, 100, 0.01, 1)
    assert_allclose(dv.ito_integral(control, noise), 0.0)


def test_ito_integral_identity_control_recovers_endpoint():
    # g = I on [0,1): the integral is w(1); variance 1 over many draws
    dt, n = 0.01, 100
    control = constant_control(np.eye(1), t0=1.0, n_steps=n, dt=dt)
    draws = np.empty(100_000)
    for i in range(draws.shape[0]):
        noise = dv.WienerGrid.generate(12, i, n, dt, 1)
        value = dv.ito_integral(control, noise)
        draws[i] = value[0]
        if i < 100:
            assert value[0] == pytest.approx(noise.increments.sum(), abs=1e-12)
    assert draws.var(ddof=1) == pytest.approx(1.0, abs=0.02)


def test_ito_integral_ou_control_isometry(ou1d):
    # deterministic integrand: Var = integral of e^{-s} over [0, 1)
    dt, n = 0.01, 100
    control = ou_deterministic_control(ou1d, t0=1.0, dt=dt, horizon=1.0)
    draws = np.empty(100_000)
    for i in range(draws.shape[0]):
        noise = dv.WienerGrid.generate(13, i, n, dt, 1)
        draws[i] = dv.ito_integral(control, noise)[0]
    assert draws.var(ddof=1) == pytest.approx(1.0 - math.exp(-1.0), abs=0.02)


def test_ito_integral_grid_mismatch():
    control = constant_control(np.eye(1), t0=1.0, n_steps=100, dt=0.01)
    with pytest.raises(dv.ConfigError):
        dv.ito_integral(control, dv.WienerGrid.zeros(100, 0.02, 1))
    with pytest.raises(dv.ConfigError):
        dv.ito_integral(control, dv.WienerGrid.zeros(50, 0.01, 1))


# ---------------------------------------------------------------------------
# pathwise route
# ---------------------------------------------------------------------------


def test_grad_frechet_constant_function_exact_zero(ou1d):
    summary = dv.flow_summary(ou1d.model, [0.5], 0.5, 1e-3, 500, seed=14)
    est = dv.frechet_from_summary(dv.constant(4.0, 1), summary)
    assert_allclose(est.estimate, 0.0)
    assert_allclose(est.std_error, 0.0)


def test_grad_frechet_ou_linear(ou1d):
    summary = dv.flow_summary(ou1d.model, [1.0], 1.0, 1e-3, 20_000, seed=15)
    est = dv.frechet_from_summary(dv.coordinate(0, 1), summary)
    # deterministic pathwise derivative: the estimate is exact up to solver error
    assert est.estimate[0] == pytest.approx(math.exp(-0.5), abs=1e-5)


def test_grad_frechet_ou_quadratic(ou1d):
    summary = dv.flow_summary(ou1d.model, [1.0], 1.0, 1e-3, 50_000, seed=16)
    est = dv.frechet_from_summary(dv.square(1), summary)
    assert abs(est.estimate[0] - 2.0 * math.exp(-1.0)) <= 3.0 * est.std_error[0] + 2e-3


# ---------------------------------------------------------------------------
# integration-by-parts route
# ---------------------------------------------------------------------------


def test_grad_malliavin_constant_function(ou1d):
    est = dv.grad_malliavin(ou1d.model, dv.constant(2.0, 1), [0.3], OU_POLICY, 20_000, 1e-3, seed=17)
    assert abs(est.estimate[0]) <= 3.0 * est.std_error[0]


def test_grad_malliavin_ou_linear(ou1d):
    est = dv.grad_malliavin(ou1d.model, dv.coordinate(0, 1), [1.0], OU_POLICY, 100_000, 1e-3, seed=18)
    assert abs(est.estimate[0] - math.exp(-0.5)) <= 3.0 * est.std_error[0]


def test_grad_malliavin_even_function_at_origin(ou1d):
    est = dv.grad_malliavin(ou1d.model, dv.square(1), [0.0], OU_POLICY, 50_000, 1e-3, seed=19)
    assert abs(est.estimate[0]) <= 3.0 * est.std_error[0]


def test_variance_scaling_with_sample_size(ou1d):
    f = dv.bump([0.3], 1.0)
    small = dv.grad_malliavin(ou1d.model, f, [0.3], OU_POLICY, 10_000, 2e-3, seed=20)
    large = dv.grad_malliavin(ou1d.model, f, [0.3], OU_POLICY, 40_000, 2e-3, seed=20)
    ratio = large.std_error[0] / small.std_error[0]
    assert ratio == pytest.approx(0.5, abs=0.125)


# ---------------------------------------------------------------------------
# identity check
# ---------------------------------------------------------------------------


def test_ibp_identity_ou(ou1d):
    summary = dv.flow_summary(ou1d.model, [0.3], OU_POLICY.t0, 1e-3, 100_000, seed=21)
    rep = dv.ibp_from_summary(dv.bump([0.3], 1.0), summary)
    assert rep.passed
    assert rep.frechet.route == "frechet"
    assert rep.malliavin.route == "malliavin"


def test_ibp_identity_rot2d(rot2d):
    policy = dv.HorizonPolicy(t0=0.5, gamma0=8.0, r=2.0)
    summary = dv.flow_summary(rot2d.model, [0.2, -0.1], policy.t0, 1e-3, 50_000, seed=22)
    rep = dv.ibp_from_summary(dv.bump([0.0, 0.0], 1.0), summary)
    assert rep.passed


def test_ibp_identity_dw1d(dw1d):
    policy = dv.HorizonPolicy(t0=0.25, gamma0=1.0, r=2.0)
    summary = dv.flow_summary(dw1d.model, [0.0], policy.t0, 1e-3, 100_000, seed=23)
    rep = dv.ibp_from_summary(dv.bump([0.0], 1.0), summary)
    assert rep.passed


def test_ibp_from_summary_evaluates_f_once_per_route(ou1d):
    """One value and one gradient call serve both routes and the residual."""
    summary = dv.flow_summary(ou1d.model, [0.3], 0.5, 1e-2, 200, seed=25)
    f = dv.battery_for(ou1d)[0]
    calls = {"value": 0, "grad": 0}

    def counted(name):
        def call(x):
            calls[name] += 1
            return getattr(f, name)(x)

        return call

    rep = dv.ibp_from_summary(dataclasses.replace(f, value=counted("value"), grad=counted("grad")), summary)
    assert calls == {"value": 1, "grad": 1}
    for route, est in (("frechet", rep.frechet), ("malliavin", rep.malliavin)):
        alone = getattr(dv, f"{route}_from_summary")(f, summary)
        assert est.route == route
        assert_allclose(est.estimate, alone.estimate, rtol=0, atol=0)
        assert_allclose(est.std_error, alone.std_error, rtol=0, atol=0)


def test_ibp_identity_fails_with_negated_control(ou1d):
    summary = dv.flow_summary(ou1d.model, [0.3], OU_POLICY.t0, 1e-3, 50_000, seed=24)
    negated = dataclasses.replace(summary, ito=-summary.ito)
    rep = dv.ibp_from_summary(dv.bump([0.3], 1.0), negated)
    assert not rep.passed


def test_estimators_reject_empty_path_count(ou1d):
    with pytest.raises(dv.ConfigError):
        dv.flow_summary(ou1d.model, [0.0], 1.0, 1e-3, 0)


def test_threaded_batches_match_serial(ou1d, rot2d):
    for model, x, n_paths in ((ou1d.model, [0.3], 40_000), (rot2d.model, [0.3, -0.1], 20_000)):
        assert len(dv.engine.batch_sizes(n_paths, 500, model.dim)) > 1
        serial = dv.flow_summary(model, x, 0.5, 1e-3, n_paths, seed=30)
        threaded = dv.flow_summary(model, x, 0.5, 1e-3, n_paths, seed=30, threads=4)
        for name in ("states", "frechet", "ito", "alive"):
            assert getattr(serial, name).tobytes() == getattr(threaded, name).tobytes()


def test_fused_kernel_matches_per_path_reference(ou1d, dw1d):
    # the streaming kernel must agree with the single-trajectory machinery
    for problem, t0 in ((ou1d, 0.5), (dw1d, 0.25)):
        model = problem.model
        policy = dv.HorizonPolicy(t0=t0, gamma0=8.0 if t0 == 0.5 else 1.0, r=2.0)
        dt = 1e-3
        n = int(round(t0 / dt))
        summary = dv.flow_summary(model, [0.2], t0, dt, 3, seed=25)
        for i in range(3):
            noise = dv.WienerGrid.generate(25, i, n, dt, 1)
            traj = dv.simulate_path(model, [0.2], t0, dt, noise)
            jac = dv.drift_jacobian_path(model, traj)
            c = dv.fundamental_matrix(jac)
            control = dv.build_control(c, policy)
            assert_allclose(summary.states[i], traj.states[-1], atol=1e-12)
            assert_allclose(summary.frechet[i], c.matrices[-1], atol=1e-10)
            assert_allclose(summary.ito[i], dv.ito_integral(control, noise), atol=1e-10)


# ---------------------------------------------------------------------------
# moment-chain sanity on common samples
# ---------------------------------------------------------------------------


def test_moment_chain_holds_on_samples(ou1d, ou_ensemble):
    """Empirical Hoelder chain: ||G||_p <= ||f||_q (E|I|^r)^{1/r} on shared draws."""
    p, q = 2.0, 4.0
    r = dv.r_exponent(p, q)
    t0, dt = 0.5, 2e-3
    policy = dv.HorizonPolicy(t0=t0, gamma0=8.0, r=r)
    f = dv.bump([0.0], 1.5)
    n_starts, m_paths = 200, 500
    starts = ou_ensemble.points[:n_starts]
    grads = np.empty(n_starts)
    f_pow = np.empty((n_starts, m_paths))
    i_pow = np.empty((n_starts, m_paths))
    for n_idx in range(n_starts):
        # Every start reuses one noise block: Jensen and Hoelder hold for any samples.
        summary = dv.flow_summary(ou1d.model, starts[n_idx], t0, dt, m_paths, seed=29)
        est = dv.malliavin_from_summary(f, summary)
        grads[n_idx] = abs(est.estimate[0])
        f_pow[n_idx] = np.abs(f.value(summary.states)) ** q
        i_pow[n_idx] = np.abs(summary.ito[:, 0]) ** r
    lhs = float(np.mean(grads**p)) ** (1.0 / p)
    rhs = float(np.mean(f_pow)) ** (1.0 / q) * float(np.mean(i_pow)) ** (1.0 / r)
    assert lhs <= rhs * (1.0 + 1e-10)
