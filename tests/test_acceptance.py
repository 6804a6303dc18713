"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; the statistical
checks run at fixed seeds, so outcomes are reproducible.
"""
from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest

import divflow as dv
from divflow.cli import EXIT_OK, main

SEED = 7_700

# (reference point, control horizon, gamma0) per problem
PLANS = {
    "OU1D": ([0.3], 1.0, 8.0),
    "ROT2D": ([0.2, -0.1], 0.5, 8.0),
    "VARH2D": ([0.2, -0.1], 0.25, 1.0),
    "DW1D": ([0.0], 0.25, 1.0),
}


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def problem_by(all_problems, tag):
    return next(p for p in all_problems if p.tag == tag)


def test_criterion_01_route_agreement(all_problems):
    """Both gradient routes agree on the battery with common random numbers."""
    worst = 0.0
    ok = True
    for tag in ("OU1D", "ROT2D", "DW1D"):
        problem = problem_by(all_problems, tag)
        x, t0, gamma0 = PLANS[tag]
        policy = dv.HorizonPolicy(t0=t0, gamma0=gamma0, r=2.0)
        summary = dv.flow_summary(problem.model, x, t0, 1e-3, 100_000, seed=SEED + 1)
        for f in dv.battery_for(problem):
            rep = dv.ibp_from_summary(f, summary)
            ok &= rep.passed
            with np.errstate(invalid="ignore", divide="ignore"):
                z = np.abs(rep.residual) / np.where(rep.residual_se > 0, 3 * rep.residual_se, 1.0)
            worst = max(worst, float(np.nanmax(z)))
    report(1, "route agreement at N=1e5, 3 problems x 12 functions", ok, f"worst |res|/3SE {worst:.2f}")


def test_criterion_02_analytic_gradient_anchor(ou1d):
    """Derivative-free route reproduces the closed-form value at N=1e6."""
    policy = dv.HorizonPolicy(t0=1.0, gamma0=8.0, r=2.0)
    est = dv.grad_malliavin(
        ou1d.model, dv.coordinate(0, 1), [1.0], policy, 1_000_000, 1e-3, seed=SEED + 2
    )
    target = math.exp(-0.5)
    gap = abs(est.estimate[0] - target)
    ok = gap <= 3.0 * est.std_error[0]
    report(2, "analytic anchor 0.60653 at N=1e6", ok, f"{est.estimate[0]:.5f} +- {est.std_error[0]:.5f}")


def test_criterion_03_control_correctness(all_problems):
    """Discrepancy vanishes after the horizon; two integration routes agree."""
    theta_worst = 0.0
    mismatch = {}
    ok = True
    for tag, (x, t0, gamma0) in PLANS.items():
        problem = problem_by(all_problems, tag)
        policy = dv.HorizonPolicy(t0=t0, gamma0=gamma0, r=2.0)
        dt = 1e-3 if tag in ("OU1D", "ROT2D") else 5e-4
        tol = 1e-6 if tag in ("OU1D", "ROT2D") else 1e-4
        n = int(round(2.0 * t0 / dt))
        for k in range(3):
            noise = dv.WienerGrid.generate(SEED + 3, k, n, dt, problem.dim)
            traj = dv.simulate_path(problem.model, x, 2.0 * t0, dt, noise)
            jac = dv.drift_jacobian_path(problem.model, traj)
            c = dv.fundamental_matrix(jac)
            control = dv.build_control(c, policy)
            theta = dv.theta_flow(jac, c, control)
            theta_worst = max(theta_worst, float(np.max(np.abs(theta.ode[control.horizon_index :]))))
            mismatch[tag] = max(mismatch.get(tag, 0.0), theta.route_mismatch)
            ok &= theta.route_mismatch < tol
    ok &= theta_worst < 1e-5
    report(3, "discrepancy < 1e-5 after horizon; route agreement", ok, f"max |T| {theta_worst:.2e}")


def test_criterion_04_growth_bound(all_problems, ensembles):
    """Pathwise exponential bound: no violations above 1e-4 over 1e3 paths each."""
    ok = True
    ou_gap = None
    for tag, (_, t0, gamma0) in PLANS.items():
        problem = problem_by(all_problems, tag)
        policy = dv.HorizonPolicy(t0=t0, gamma0=gamma0, r=2.0)
        starts = ensembles[tag].points[:1000]
        slack, gap = dv.gronwall_sweep(problem.model, starts, policy, dt=1e-3, seed=SEED + 4)
        ok &= slack <= 1e-4
        if tag == "OU1D":
            ou_gap = gap
            ok &= gap <= 1e-6  # constant curvature saturates the bound
    report(4, "growth bound holds on 4 x 1e3 paths; saturation on OU1D", ok, f"OU gap {ou_gap:.2e}")


def test_criterion_05_trace_moment(all_problems, ensembles):
    """Time-averaged trace moments stay below the integrability bound."""
    ok = True
    detail = []
    for tag, (_, t0, gamma0) in PLANS.items():
        problem = problem_by(all_problems, tag)
        policy = dv.HorizonPolicy(t0=t0, gamma0=gamma0, r=2.0)
        ens = ensembles[tag]
        sub = dv.StationaryEnsemble(points=ens.points[:2000])
        rep = dv.trace_moment_check(problem.model, sub, policy, paths_per_point=2, dt=1e-3, seed=SEED + 5)
        ok &= rep.passed
        detail.append(f"{tag} {rep.lhs:.3f}<={rep.rhs:.3f}")
        if tag == "OU1D":
            # constant curvature: both sides equal (1 - 1/e)^{1/2} ~ 0.7951
            target = math.sqrt(1.0 - math.exp(-1.0))
            ok &= abs(rep.lhs - target) <= 3.0 * rep.lhs_se + 1e-4
            ok &= abs(rep.rhs - target) <= 3.0 * rep.rhs_se + 1e-12
    report(5, "trace moment estimate on all problems", ok, "; ".join(detail))


def test_criterion_06_gradient_inequality(all_problems, ensembles):
    """First-derivative bound for three exponent pairs on every problem."""
    ok = True
    worst = 0.0
    for tag, (_, t0, gamma0) in PLANS.items():
        problem = problem_by(all_problems, tag)
        for p, q in ((1.0, 2.0), (2.0, 4.0), (1.5, 3.0)):
            r = dv.r_exponent(p, q)
            policy = dv.HorizonPolicy(
                t0=min(t0, gamma0 / r), gamma0=gamma0, r=r
            )
            ens = ensembles[tag]
            profiles = [dv.norm_profile(problem.model, f, ens, p, q) for f in dv.battery_for(problem)]
            integ = dv.exp_integrability(problem.model, ens, policy.gamma0)
            rep = dv.check_gradient_inequality(problem.model, profiles, p, q, policy, integ)
            ok &= rep.passed
            worst = max(worst, max(row.ratio / rep.constant for row in rep.rows))
            print(
                f"    {tag} (p,q)=({p:g},{q:g}): moment constant {dv.bdg_constant(problem.dim, r):.3f}, "
                f"C = {rep.constant:.3f}, max ratio {max(row.ratio for row in rep.rows):.3f}"
            )
    report(6, "gradient bound, (p,q) in {(1,2),(2,4),(1.5,3)}, 4 problems", ok, f"worst ratio/C {worst:.3f}")


def test_criterion_07_operator_structure(all_problems, ensembles):
    """Symmetry of the reversible part, antisymmetry of the drift part."""
    ok = True
    for tag in PLANS:
        problem = problem_by(all_problems, tag)
        bat = dv.battery_for(problem)
        pairs = [
            (bat[0], bat[0]),
            (bat[0], bat[1]),
            (bat[1], bat[2]),
            (bat[2], bat[3]),
            (bat[3], bat[0]),
            (bat[1], bat[1]),
        ]
        rep = dv.operator_symmetry_check(problem.model, pairs, ensembles[tag])
        ok &= rep.passed
    report(7, "operator (anti)symmetry, 6 pairs per problem", ok)


def test_criterion_08_ergodicity(all_problems, ensembles, ou1d, ou_ensemble):
    """Stationary averages constant in time; decay rate matches on OU1D."""
    ok = True
    for tag in PLANS:
        problem = problem_by(all_problems, tag)
        rep = dv.stationarity_check(
            problem.model,
            dv.battery_for(problem)[:6],
            ensembles[tag],
            t_grid=(1.0, 5.0),
            n_paths=8000,
            dt=5e-3,
            seed=SEED + 8,
        )
        ok &= rep.passed
    decay = dv.decay_check(
        ou1d.model,
        dv.coordinate(0, 1),
        (0.0, 1.0, 2.0, 4.0),
        ou_ensemble,
        n_outer=1000,
        inner_paths=100,
        dt=1e-2,
        seed=SEED + 80,
    )
    gaps = []
    for pt in decay.points:
        gaps.append(abs(pt.norm - math.exp(-pt.t / 2.0)) / max(pt.std_error, 1e-12))
        ok &= abs(pt.norm - math.exp(-pt.t / 2.0)) <= 3.0 * pt.std_error
    report(8, "stationarity at t in {0,1,5}; OU decay rate e^{-t/2}", ok, f"max z {max(gaps):.2f}")


def test_criterion_09_moment_bound(dw1d, dw_ensemble):
    """Stopped moments bounded and exit probabilities monotone on DW1D."""
    cfg = dv.MomentTestConfig(rho=0.4, radii=(3.0, 5.0, 8.0), horizon=5.0)
    rep = dv.moment_bound_check(
        dw1d.model, cfg, dw_ensemble, n_paths=5000, dt=1e-3, seed=SEED + 9
    )
    ok = rep.passed and rep.monotone_exits
    ok &= all(row.moment <= rep.bound for row in rep.rows)
    report(
        9,
        "stopped moment <= C(1+T); exits monotone over R in {3,5,8}",
        ok,
        f"moment {rep.rows[0].moment:.3f} <= {rep.bound:.3f}",
    )


def test_criterion_10_determinism_and_runtime(tmp_path):
    """Full verification reruns byte-identically and finishes quickly."""
    cfg = tmp_path / "verify.ini"
    cfg.write_text(
        "[problem]\ntag = OU1D\n\n[simulation]\ndt = 0.001\npaths = 20000\nseed = 2026\n\n"
        "[inequality]\np = 2.0\nq = 4.0\nt0 = auto\nensemble = 40000\n\n"
        f"[output]\ndir = {tmp_path / 'r1'}\n"
    )
    start = time.time()
    assert main(["verify", "--config", str(cfg)]) == EXIT_OK
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r2")]) == EXIT_OK
    elapsed = time.time() - start
    identical = True
    files1 = sorted((tmp_path / "r1").iterdir())
    files2 = sorted((tmp_path / "r2").iterdir())
    identical &= [f.name for f in files1] == [f.name for f in files2]
    for f1, f2 in zip(files1, files2):
        identical &= f1.read_bytes() == f2.read_bytes()
    ok = identical and elapsed < 900.0
    report(10, "byte-identical verify reruns within the time budget", ok, f"{elapsed:.0f}s for two runs")
