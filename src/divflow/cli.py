"""Command-line entry point: configuration, orchestration and CSV emission.

Three subcommands:

  simulate   integrate paths from stationary starts and dump trajectory CSVs
  gradient   run both gradient routes for one test function at one point
  verify     run the full verification harness and write a consolidated report

Configuration is a strict INI file (unknown sections or keys are rejected)
with sections [problem], [simulation], [inequality] and [output]; the
--seed/--out/--problem/--threads flags override individual entries.  `_KEYS`
gives each key its section, admissible range and default.  Exit
codes are stable: 0 success, 1 at least one verification check failed,
2 configuration error, 3 runtime or numeric failure.  All emitted files are
deterministic functions of the configuration and seed.
"""
from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import engine
from .control import HorizonPolicy, build_control, gronwall_sweep, trace_moment_check
from .errors import (
    ConfigError,
    DegeneracyError,
    DivflowError,
    EvaluationError,
    IntegrationError,
    PolicyError,
)
from .estimator import IbpReport, flow_summary, ibp_from_summary
from .functions import TestFunction, battery_for, by_name, coordinate, shifted
from .model import TestProblem, consistency_report, make_problem
from .norms import (
    ExpIntegrability,
    MomentTestConfig,
    NormProfile,
    balanced_horizon,
    check_gradient_inequality,
    check_hessian_inequality,
    decay_check,
    exp_integrability,
    moment_bound_check,
    norm_profile,
    operator_symmetry_check,
    r_exponent,
    stationarity_check,
)
from .sde import StationaryEnsemble, WienerGrid, sample_stationary, simulate_path
from .variational import drift_jacobian_path, fundamental_matrix, theta_flow

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _number(kind, admissible, rule: str):
    """Caster: `kind(raw)`, rejected with ValueError unless `admissible` accepts it."""

    def cast(raw):
        value = kind(raw)
        if not admissible(value):
            raise ValueError(f"need {rule}")
        return value

    return cast


_POSITIVE = _number(float, lambda v: 0.0 < v < math.inf, "a finite value > 0")
_COUNT = _number(int, lambda v: v >= 1, "an integer >= 1")


def _t0(raw) -> str | float:
    return "auto" if str(raw).strip().lower() == "auto" else _POSITIVE(raw)


# Every config key: its INI section (None: set by its flag only), the caster
# that converts a raw value and enforces the key's range, and its default.
# Values from the file and from the flags go through the same caster.
_KEYS = {
    "tag": ("problem", str.upper, "OU1D"),
    "h": ("problem", _number(float, math.isfinite, "a finite value"), None),
    "dt": ("simulation", _POSITIVE, 1.0e-3),
    "horizon": ("simulation", _POSITIVE, 1.0),
    "paths": ("simulation", _COUNT, 20000),
    "seed": ("simulation", _number(int, lambda v: v >= 0, "an integer >= 0"), 2026),
    "r_guard": ("simulation", _number(float, lambda v: v > 0.0, "a value > 0, or inf"), engine.DEFAULT_R_GUARD),
    "p": ("inequality", float, 2.0),  # 1 <= p < q and r >= 2 are checked by r_exponent
    "q": ("inequality", float, 4.0),
    "gamma0": ("inequality", _POSITIVE, None),  # None: the problem's default
    "t0": ("inequality", _t0, "auto"),
    "ensemble": ("inequality", _COUNT, 40000),
    "dir": ("output", str, "out"),
    "threads": (None, _COUNT, 1),
}


# Fixed offsets keep the random streams of independent checks disjoint.
_SEED_TAGS = {
    "ensemble": 11,
    "simulate": 13,
    "gradient": 17,
    "stationarity": 19,
    "control": 23,
    "gronwall": 29,
    "trace": 31,
    "decay": 37,
    "moment": 41,
}


_NUM = "%.12g"


def _fmt(value: float) -> str:
    return _NUM % value


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters; see the README for the file format."""

    tag: str
    problem_params: dict
    dt: float
    horizon: float
    paths: int
    seed: int
    r_guard: float
    p: float
    q: float
    gamma0: Optional[float]  # None: use the problem default
    t0: str | float  # "auto" or a positive float
    ensemble: int
    out_dir: str
    threads: int = 1

    @property
    def r(self) -> float:
        return r_exponent(self.p, self.q)

    def gamma0_for(self, problem: TestProblem) -> float:
        return self.gamma0 if self.gamma0 is not None else problem.gamma0_default

    def policy_for(self, problem: TestProblem, t0: Optional[float] = None) -> HorizonPolicy:
        if t0 is None:
            if isinstance(self.t0, str):
                raise ConfigError("t0 is 'auto'; resolve it before building a policy")
            t0 = float(self.t0)
        return HorizonPolicy(t0=t0, gamma0=self.gamma0_for(problem), r=self.r)


def parse_config(path: str | Path, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read and validate the INI configuration, applying CLI overrides.

    Every value, from the file or an override, goes through its key's caster
    in `_KEYS`; a rejected value raises ConfigError naming the key.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    if not parser.read(str(path)):
        raise ConfigError(f"cannot read config file {path}")
    raw: dict = {}
    for section in parser.sections():
        keys = [key for key, spec in _KEYS.items() if spec[0] == section]
        if not keys:
            raise ConfigError(f"unknown config section [{section}]")
        for key, text in parser[section].items():
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            raw[key] = text
    raw.update((key, val) for key, val in (overrides or {}).items() if val is not None)
    values = {}
    for key, (_, cast, default) in _KEYS.items():
        try:
            values[key] = cast(raw[key]) if key in raw else default
        except ValueError as exc:
            raise ConfigError(f"bad value {raw[key]!r} for {key}: {exc}") from None
    h = values.pop("h")
    if h is not None and values["tag"] != "ROT2D":
        raise ConfigError("parameter 'h' applies to ROT2D only")
    cfg = ExperimentConfig(problem_params={} if h is None else {"h": h}, out_dir=values.pop("dir"), **values)
    cfg.r  # validates 1 <= p < q and r >= 2
    if not isinstance(cfg.t0, str):
        try:
            engine.steps_for(cfg.t0, cfg.dt)  # t0 lies on the simulation grid
        except ConfigError as exc:
            raise ConfigError(f"bad value {raw['t0']!r} for t0: {exc}") from None
        cfg.policy_for(_build_problem(cfg))  # validates t0 <= t_star
    return cfg


def _build_problem(config: ExperimentConfig) -> TestProblem:
    return make_problem(config.tag, **config.problem_params)


def _battery_profiles(
    config: ExperimentConfig, problem: TestProblem, battery: Sequence[TestFunction]
) -> tuple[StationaryEnsemble, list[NormProfile]]:
    """The invariant-law ensemble and the norms of every battery function on it."""
    ensemble = sample_stationary(problem, config.ensemble, config.seed + _SEED_TAGS["ensemble"])
    profiles = [norm_profile(problem.model, f, ensemble, config.p, config.q) for f in battery]
    return ensemble, profiles


def resolve_t0(
    config: ExperimentConfig, problem: TestProblem, profiles: Sequence[NormProfile]
) -> float:
    """Pick the control horizon: fixed value, or the balanced-form minimiser.

    For "auto", take the battery-wide minimiser from `balanced_horizon` over
    the battery's norm profiles; a fixed t0 reads no profile.
    """
    if not isinstance(config.t0, str):
        return float(config.t0)
    t_star = config.gamma0_for(problem) / config.r
    t0 = balanced_horizon(
        [prof.gen_lq.value for prof in profiles], [prof.f_lq.value for prof in profiles], t_star
    )
    # Snap onto the simulation grid without crossing the admissible range.
    steps = max(1, int(round(t0 / config.dt)))
    while steps * config.dt > t_star and steps > 1:
        steps -= 1
    return steps * config.dt


def _write_lines(path: Path, lines: Sequence[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_header(config: ExperimentConfig, extra: Optional[dict] = None) -> list[str]:
    meta = {"problem": config.tag, "seed": config.seed, "dt": _fmt(config.dt)}
    meta.update(extra or {})
    return [f"# {key}={val}" for key, val in meta.items()]


def _point(x) -> str:
    return ";".join(_fmt(v) for v in x)


_ROUTE_COLUMNS = "problem,f,x,route,t0,component,estimate,se,N,seed"


def _both_routes(rep: IbpReport) -> list[tuple[str, np.ndarray, np.ndarray]]:
    return [
        ("frechet", rep.frechet.estimate, rep.frechet.std_error),
        ("malliavin", rep.malliavin.estimate, rep.malliavin.std_error),
    ]


def _route_rows(config: ExperimentConfig, name: str, rep: IbpReport, routes) -> list[str]:
    """`_ROUTE_COLUMNS` rows, one per (route, estimate, se) triple and component.

    The point, horizon and path count are those of the kernel pass behind `rep`.
    """
    est = rep.frechet
    head = [config.tag, name, _point(est.x)]
    tail = [str(est.n_paths), str(config.seed)]
    return [
        ",".join(head + [route, _fmt(est.horizon), str(j), _fmt(value[j]), _fmt(se[j])] + tail)
        for route, value, se in routes
        for j in range(len(value))
    ]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(config: ExperimentConfig) -> int:
    """Integrate config.paths trajectories and write one CSV per path.

    Paths are stepped in batches (`engine.batch_sizes`): one noise block and
    one Euler sweep per batch, whose CSVs are written before the next batch
    is stepped.  Path i is driven by noise stream i of the master seed and
    stops at its guard exit, so the files do not depend on the batching.
    """
    problem = _build_problem(config)
    model = problem.model
    d = model.dim
    out = Path(config.out_dir)
    n = engine.steps_for(config.horizon, config.dt)

    ensemble = sample_stationary(problem, config.paths, config.seed + _SEED_TAGS["simulate"])
    columns = ",".join(["t"] + [f"x_{j + 1}" for j in range(d)] + ["exited"])
    # one row template per step, so a path's body is one `%` call over its states
    rows = [_fmt(t) + ("," + _NUM) * d + ",0" for t in (config.dt * np.arange(n + 1)).tolist()]
    failures: list[tuple[int, int]] = []
    stats_rows = []
    for offset, size in engine.batch_sizes(config.paths, n, d):
        noise = engine.increments_block(config.seed, offset, size, n, config.dt, d)
        states, exit_steps = engine.euler_sweep(
            model, ensemble.points[offset : offset + size], config.dt, noise, r_guard=config.r_guard
        )
        del noise  # at most one noise block and one state block are held at a time
        for b, step in enumerate(exit_steps.tolist()):
            i = offset + b
            exited = step >= 0
            end = step + 1 if exited else n + 1
            body = "\n".join(rows[:end]) % tuple(states[b, :end].ravel().tolist())
            if exited:
                body = body[:-1] + "1"
            lines = _csv_header(config, {"path_index": i, "horizon": _fmt(config.horizon)})
            _write_lines(out / f"path_{i:05d}.csv", lines + [columns, body])
            stats_rows.append(f"{i},{int(exited)},{step if exited else ''}")
            if exited:
                failures.append((i, step))
        del states
    stats = _csv_header(config) + ["path_index,exited,exit_step"] + stats_rows
    _write_lines(out / "exit_stats.csv", stats)
    if failures:
        i, step = failures[0]
        cause = (
            f"its start lies outside r_guard = {_fmt(config.r_guard)}"
            if step == 0
            else "dt likely too large"
        )
        print(
            f"error: {len(failures)} path(s) hit the radius guard "
            f"(first: path {i} at step {step}); {cause}",
            file=sys.stderr,
        )
        return EXIT_RUNTIME
    print(f"wrote {config.paths} trajectories to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def _parse_point(text: str, dim: int):
    try:
        vals = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"cannot parse point {text!r}") from None
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"point {text!r} has a non-finite coordinate")
    if len(vals) != dim:
        raise ConfigError(f"point {text!r} has {len(vals)} coordinates, expected {dim}")
    return np.asarray(vals)


def cmd_gradient(config: ExperimentConfig, f_id: str, x_text: str) -> int:
    """Run both gradient routes plus the identity check for one function."""
    problem = _build_problem(config)
    battery = battery_for(problem)
    f = by_name(battery, f_id)
    x = _parse_point(x_text, problem.model.dim)
    # Only t0 = auto reads the battery norms; the ensemble has its own stream.
    profiles = _battery_profiles(config, problem, battery)[1] if isinstance(config.t0, str) else []
    policy = config.policy_for(problem, t0=resolve_t0(config, problem, profiles))

    summary = flow_summary(
        problem.model,
        x,
        policy.t0,
        config.dt,
        config.paths,
        seed=config.seed + _SEED_TAGS["gradient"],
        r_guard=config.r_guard,
        threads=config.threads,
    )
    report = ibp_from_summary(f, summary)

    lines = _csv_header(config, {"f": f.name, "x": " ".join(_fmt(v) for v in x)})
    lines.append(_ROUTE_COLUMNS)
    routes = _both_routes(report) + [("residual", report.residual, report.residual_se)]
    lines += _route_rows(config, f.name, report, routes)
    lines.append(f"# identity_check={'pass' if report.passed else 'FAIL'}")
    _write_lines(Path(config.out_dir) / "gradient.csv", lines)
    print(
        f"{config.tag} {f.name} at {_point(x)}: identity check "
        f"{'pass' if report.passed else 'FAIL'}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    report: object = None  # what the check computed; the output writers read it


@dataclass(frozen=True)
class VerifyContext:
    """What the verify checks share, built once per run."""

    config: ExperimentConfig
    problem: TestProblem
    battery: list[TestFunction]
    ensemble: StationaryEnsemble
    profiles: list[NormProfile]  # norms of each battery function, aligned with battery
    policy: HorizonPolicy
    integrability: ExpIntegrability  # E(gamma0) on the ensemble

    @property
    def model(self):
        return self.problem.model


def _verify_context(config: ExperimentConfig) -> VerifyContext:
    problem = _build_problem(config)
    battery = battery_for(problem)
    ensemble, profiles = _battery_profiles(config, problem, battery)
    policy = config.policy_for(problem, t0=resolve_t0(config, problem, profiles))
    integ = exp_integrability(problem.model, ensemble, policy.gamma0)
    return VerifyContext(config, problem, battery, ensemble, profiles, policy, integ)


# Where the ibp_identity check evaluates both gradient routes.
_REFERENCE_POINTS = {"OU1D": [0.3], "ROT2D": [0.2, -0.1], "VARH2D": [0.2, -0.1], "DW1D": [0.0]}


def _mu_mean_1d(problem: TestProblem, f: TestFunction) -> float:
    """Mean of f under the invariant law (one-dimensional models), by the trapezoid rule.

    The rule converges geometrically on smooth, fast-decaying integrands
    (Trefethen and Weideman, SIAM Review 56, 2014).  e^{-U} is an exact zero
    at both ends of [-12, 12], so the end weights drop out of both sums.
    """
    x = np.linspace(-12.0, 12.0, 24001)[:, None]
    dens = np.exp(-problem.model.potential(x))
    return float(np.sum(f.value(x) * dens) / np.sum(dens))


# The twelve checks, in report order.  Each reads the shared context and
# calls the library directly, so a trace attributes its work to the check.


def _coefficients(ctx: VerifyContext) -> CheckResult:
    """Structural coefficient identities on sampled points."""
    rep = consistency_report(ctx.model, ctx.ensemble.points[:100])
    worst = max(rep.values())
    return CheckResult("coefficients", worst < 1.0e-6, f"max structural deviation {worst:.2e}", rep)


def _operator_symmetry(ctx: VerifyContext) -> CheckResult:
    """L symmetric and A antisymmetric under mu, on six battery pairs."""
    b = ctx.battery
    pairs = [(b[0], b[0]), (b[0], b[1]), (b[1], b[2]), (b[2], b[3]), (b[3], b[0]), (b[1], b[1])]
    sym = operator_symmetry_check(ctx.model, pairs, ctx.ensemble)
    return CheckResult("operator_symmetry", sym.passed, f"worst residual {sym.worst:.2f} x 3SE", sym)


def _stationarity(ctx: VerifyContext) -> CheckResult:
    """Ensemble averages stay put along the flow."""
    stat = stationarity_check(
        ctx.model,
        ctx.battery[:6],
        ctx.ensemble,
        t_grid=(1.0, 5.0),
        n_paths=min(ctx.config.paths, 8000),
        dt=5.0e-3,
        seed=ctx.config.seed + _SEED_TAGS["stationarity"],
        r_guard=ctx.config.r_guard,
    )
    return CheckResult("stationarity", stat.passed, f"{len(stat.names)} (f, t) cells at 3 SE", stat)


def _control_discrepancy(ctx: VerifyContext) -> CheckResult:
    """The discrepancy T vanishes after the horizon, and its two routes agree."""
    config, model, policy = ctx.config, ctx.model, ctx.policy
    dt_flow = config.dt / math.ceil(config.dt / 5.0e-4)  # <= 5e-4 and divides dt, so 2 t0 is on its grid
    route_tol = 1.0e-6 if config.tag in ("OU1D", "ROT2D") else 1.0e-4
    theta_max = 0.0
    mismatch_max = 0.0
    n_flow = engine.steps_for(2.0 * policy.t0, dt_flow)
    for k in range(min(3, ctx.ensemble.count)):
        noise = WienerGrid.generate(config.seed + _SEED_TAGS["control"], k, n_flow, dt_flow, model.dim)
        traj = simulate_path(
            model, ctx.ensemble.points[k], 2.0 * policy.t0, dt_flow, noise, r_guard=config.r_guard
        )
        if traj.exited:  # the control needs the whole path
            raise IntegrationError(f"a path left the radius guard at step {traj.exit_step}", step=traj.exit_step)
        jac = drift_jacobian_path(model, traj)
        c = fundamental_matrix(jac)
        control = build_control(c, policy)
        theta = theta_flow(jac, c, control)
        theta_max = max(theta_max, float(np.max(np.abs(theta.ode[control.horizon_index :]))))
        mismatch_max = max(mismatch_max, theta.route_mismatch)
    return CheckResult(
        "control_discrepancy",
        theta_max < 1.0e-5 and mismatch_max < route_tol,
        f"max |T| after horizon {theta_max:.2e}, route mismatch {mismatch_max:.2e}",
    )


def _gronwall(ctx: VerifyContext) -> CheckResult:
    """Pathwise exponential growth bound on the control."""
    slack, gap = gronwall_sweep(
        ctx.model,
        ctx.ensemble.points[:1000],
        ctx.policy,
        dt=ctx.config.dt,
        seed=ctx.config.seed + _SEED_TAGS["gronwall"],
        r_guard=ctx.config.r_guard,
    )
    return CheckResult("gronwall", slack <= 1.0e-4, f"max slack {slack:.2e}, max gap {gap:.2e}", (slack, gap))


def _trace_moment(ctx: VerifyContext) -> CheckResult:
    """Time-averaged trace moment estimate."""
    trace = trace_moment_check(
        ctx.model,
        replace(ctx.ensemble, points=ctx.ensemble.points[:2000]),
        ctx.policy,
        paths_per_point=2,
        dt=ctx.config.dt,
        seed=ctx.config.seed + _SEED_TAGS["trace"],
        r_guard=ctx.config.r_guard,
    )
    return CheckResult(
        "trace_moment",
        trace.passed,
        f"lhs {trace.lhs:.4f} <= rhs {trace.rhs:.4f} (margin {trace.margin:.4f})",
        trace,
    )


def _ibp_identity(ctx: VerifyContext) -> CheckResult:
    """Both gradient routes agree over the battery at the reference point."""
    config, policy = ctx.config, ctx.policy
    summary = flow_summary(
        ctx.model,
        _REFERENCE_POINTS[config.tag],
        policy.t0,
        config.dt,
        min(config.paths, 20000),
        seed=config.seed + _SEED_TAGS["gradient"],
        r_guard=config.r_guard,
        threads=config.threads,
    )
    reports = {f.name: ibp_from_summary(f, summary) for f in ctx.battery}
    return CheckResult(
        "ibp_identity",
        all(rep.passed for rep in reports.values()),
        f"{len(reports)} functions at 3 SE, common noise",
        reports,
    )


def _gradient_inequality(ctx: VerifyContext) -> CheckResult:
    """First-derivative bound with the theoretical constant."""
    c = ctx.config
    rep = check_gradient_inequality(ctx.model, ctx.profiles, c.p, c.q, ctx.integrability)
    return CheckResult(
        "gradient_inequality",
        rep.passed,
        f"max ratio {max(r.ratio for r in rep.rows):.3f} vs C={rep.constant:.3f}",
        rep,
    )


def _hessian_inequality(ctx: VerifyContext) -> CheckResult:
    """Second-derivative bound with a fitted constant."""
    rep = check_hessian_inequality(ctx.profiles)
    return CheckResult(
        "hessian_inequality",
        rep.passed and math.isfinite(rep.constant),
        f"fitted constant {rep.constant:.3f}",
        rep,
    )


def _exp_integrability(ctx: VerifyContext) -> CheckResult:
    """E(gamma0) is finite and not carried by a heavy tail."""
    integ = ctx.integrability
    return CheckResult(
        "exp_integrability",
        math.isfinite(integ.value) and not integ.heavy_tail,
        f"E(gamma0={ctx.policy.gamma0:g}) = {integ.value:.4f} +- {integ.std_error:.4f}",
        integ,
    )


def _decay(ctx: VerifyContext) -> CheckResult:
    """Semigroup decay of a centred function."""
    model, dw1d = ctx.model, ctx.config.tag == "DW1D"
    if dw1d:
        f_dec = shifted(ctx.battery[0], _mu_mean_1d(ctx.problem, ctx.battery[0]))
    else:
        f_dec = coordinate(0, model.dim)
    decay = decay_check(
        model,
        f_dec,
        (0.0, 2.0, 10.0) if dw1d else (0.0, 1.0, 5.0),
        ctx.ensemble,
        n_outer=1000,
        inner_paths=100,
        dt=1.0e-2,
        seed=ctx.config.seed + _SEED_TAGS["decay"],
        r_guard=ctx.config.r_guard,
    )
    return CheckResult(
        "decay",
        decay.passed,
        "norms "
        + " -> ".join(f"{pt.norm:.4f}" for pt in decay.points)
        + f" (final ratio {decay.final_ratio:.3f})",
        decay,
    )


# The moment_bound check's fixed horizon; `cmd_verify` requires dt to divide it.
_MOMENT_HORIZON = 5.0


def _moment_bound(ctx: VerifyContext) -> CheckResult:
    """Stopped-moment bound and exit probabilities."""
    mom = moment_bound_check(
        ctx.model,
        MomentTestConfig(rho=0.4, radii=(3.0, 5.0, 8.0), horizon=_MOMENT_HORIZON),
        ctx.ensemble,
        n_paths=min(ctx.config.paths, 5000),
        dt=ctx.config.dt,
        seed=ctx.config.seed + _SEED_TAGS["moment"],
        r_guard=ctx.config.r_guard,
    )
    return CheckResult(
        "moment_bound",
        mom.passed,
        f"moments <= {mom.bound:.3f}, exits "
        + " >= ".join(f"{r.exit_probability:.4f}" for r in mom.rows),
        mom,
    )


CHECKS = (
    _coefficients,
    _operator_symmetry,
    _stationarity,
    _control_discrepancy,
    _gronwall,
    _trace_moment,
    _ibp_identity,
    _gradient_inequality,
    _hessian_inequality,
    _exp_integrability,
    _decay,
    _moment_bound,
)


def run_verify(config: ExperimentConfig) -> tuple[list[CheckResult], VerifyContext]:
    """Build the shared context and run every check in `CHECKS` order."""
    ctx = _verify_context(config)
    return [check(ctx) for check in CHECKS], ctx


def _write_verify_outputs(ctx: VerifyContext, results: list[CheckResult]) -> None:
    config, policy = ctx.config, ctx.policy
    out = Path(config.out_dir)
    reports = {res.name: res.report for res in results}
    grad_rep = reports["gradient_inequality"]

    lines = _csv_header(config, {"t0": _fmt(policy.t0), "r": _fmt(policy.r)})
    lines.append("f,p,q,t0,f_lq,gen_lq,grad_lp,hess_lp,sobolev_1p,sobolev_2p,C,ratio,verdict")
    for row, prof in zip(grad_rep.rows, ctx.profiles):
        norms = (prof.f_lq, prof.gen_lq, prof.grad_lp, prof.hess_lp, prof.sobolev_1p, prof.sobolev_2p)
        lines.append(
            ",".join(
                [row.name, _fmt(config.p), _fmt(config.q), _fmt(policy.t0)]
                + [_fmt(n.value) for n in norms]
                + [_fmt(grad_rep.constant), _fmt(row.ratio), "pass" if row.passed else "FAIL"]
            )
        )
    _write_lines(out / "norms.csv", lines)

    trace = reports["trace_moment"]
    tlines = _csv_header(config)
    tlines.append("problem,t0,r,lhs,rhs,margin,se")
    values = (trace.t0, trace.r, trace.lhs, trace.rhs, trace.margin, trace.combined_se)
    tlines.append(",".join([trace.tag] + [_fmt(v) for v in values]))
    _write_lines(out / "trace.csv", tlines)

    glines = _csv_header(config)
    glines.append(_ROUTE_COLUMNS)
    for name, rep in reports["ibp_identity"].items():
        glines += _route_rows(config, name, rep, _both_routes(rep))
    _write_lines(out / "gradient_routes.csv", glines)

    md = [
        f"# Verification report: {config.tag}",
        "",
        f"- seed: {config.seed}",
        f"- dt: {_fmt(config.dt)}",
        f"- horizon policy: t0 = {_fmt(policy.t0)}, gamma0 = {_fmt(policy.gamma0)}, r = {_fmt(policy.r)}",
        f"- (p, q) = ({_fmt(config.p)}, {_fmt(config.q)})",
        f"- theoretical constant C = {_fmt(grad_rep.constant)} "
        f"(E(gamma0) = {_fmt(reports['exp_integrability'].value)})",
        "",
        "| check | verdict | detail |",
        "|---|---|---|",
    ]
    for res in results:
        md.append(f"| {res.name} | {'pass' if res.passed else 'FAIL'} | {res.detail} |")
    md += ["", "## Gradient-bound ratios", "", "| f | ratio | C | verdict |", "|---|---|---|---|"]
    for row in grad_rep.rows:
        md.append(
            f"| {row.name} | {_fmt(row.ratio)} | {_fmt(grad_rep.constant)} | "
            f"{'pass' if row.passed else 'FAIL'} |"
        )
    _write_lines(out / "report.md", md)


def cmd_verify(config: ExperimentConfig) -> int:
    try:  # before any check runs, not when the last one starts
        engine.steps_for(_MOMENT_HORIZON, config.dt)
    except ConfigError as exc:
        raise ConfigError(f"moment_bound check: {exc}") from None
    results, ctx = run_verify(config)
    _write_verify_outputs(ctx, results)
    failures = [r for r in results if not r.passed]
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    if failures:
        print(
            "verification failed: " + ", ".join(r.name for r in failures), file=sys.stderr
        )
        return EXIT_CHECK_FAILED
    print(f"all {len(results)} checks passed; report written to {config.out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divflow",
        description="Monte-Carlo gradient estimation and verification for "
        "divergence-form diffusions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("simulate", "integrate trajectories and write CSV dumps"),
        ("gradient", "estimate a gradient by both routes"),
        ("verify", "run the full verification harness"),
    ):
        cmd = sub.add_parser(name, help=desc)
        cmd.add_argument("--config", required=True, help="path to the INI config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the master seed")
        cmd.add_argument("--out", default=None, help="override the output directory")
        cmd.add_argument("--problem", default=None, help="override the problem tag")
        cmd.add_argument("--threads", type=int, default=1, help="batch fan-out width")
        if name == "gradient":
            cmd.add_argument("--function", required=True, help="test function id")
            cmd.add_argument("--x", required=True, help="evaluation point, comma separated")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = {"seed": args.seed, "dir": args.out, "tag": args.problem, "threads": args.threads}
        config = parse_config(args.config, overrides)
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "gradient":
            return cmd_gradient(config, args.function, args.x)
        return cmd_verify(config)
    except (ConfigError, PolicyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"integration error at step {exc.step}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (EvaluationError, DegeneracyError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except DivflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
