"""Empirical norms under the invariant law and the a priori estimate checks.

Everything here is an ensemble average: L^p norms, Sobolev norms, the
exponential-integrability constant E(gamma0) = int exp(gamma0 max(u, 0)) dmu
and the resulting theoretical constant

    C = C(d, r) E(gamma0)^{1/r},   C(d, r) = 2 sqrt(d r)   (r >= 2),

against which the gradient bound

    ||grad f||_{L^p(mu)} <= C ( ||G f||_{L^q(mu)} + ||f||_{L^q(mu)} )

is tested battery-wide, with 1/p = 1/q + 1/r.  The second-derivative bound
has no explicit constant, so its check fits the constant (largest observed
ratio) and tests stability instead.  The module also hosts the structural
checks: operator (anti)symmetry under mu, stationarity in time, semigroup
decay for centred functions, and the exit-time moment bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import engine
from .control import HorizonPolicy
from .errors import ConfigError
from .functions import TestFunction
from .model import (
    CoefficientModel,
    apply_A,
    apply_generator,
    apply_L,
    antisym_field,
    curvature_sup,
    drift_b,
)
from .sde import StationaryEnsemble

Array = np.ndarray


@dataclass(frozen=True)
class NormEstimate:
    value: float
    std_error: float


def lp_norm(values: Array, p: float) -> NormEstimate:
    """Empirical L^p norm (mean |v|^p)^{1/p} over ensemble values, with a delta-method SE."""
    if p < 1:
        raise ConfigError(f"p must be at least 1, got {p}")
    values = np.abs(np.asarray(values, dtype=float))
    powered = values**p
    mean, se_mean = map(float, engine.mean_and_se(powered))
    if mean <= 0.0:
        return NormEstimate(value=0.0, std_error=0.0)
    norm = mean ** (1.0 / p)
    return NormEstimate(value=norm, std_error=se_mean * norm / (p * mean))


def r_exponent(p: float, q: float) -> float:
    """r from 1/p = 1/q + 1/r; rejects pairs outside the supported range."""
    if not (1.0 <= p < q):
        raise ConfigError(f"need 1 <= p < q, got p={p}, q={q}")
    r = p * q / (q - p)
    if not r >= 2.0 - 1.0e-12:  # also rejects q = inf, where r is nan
        raise ConfigError(
            f"(p, q)=({p}, {q}) gives r={r:g}, outside the supported range r >= 2"
        )
    return r


def bdg_constant(d: int, r: float) -> float:
    """Concrete admissible moment constant 2 sqrt(d r), defined for r >= 2."""
    if r < 2.0 - 1.0e-12:
        raise ConfigError(f"moment order r={r:g} < 2 is unsupported")
    return 2.0 * math.sqrt(d * r)


def constant_c(d: int, r: float, e_gamma0: float) -> float:
    """Theoretical constant C(d, r) E(gamma0)^{1/r} of the gradient bound."""
    if e_gamma0 <= 0:
        raise ConfigError(f"integrability constant must be positive, got {e_gamma0}")
    return bdg_constant(d, r) * e_gamma0 ** (1.0 / r)


@dataclass(frozen=True)
class ExpIntegrability:
    """Empirical E(gamma0) with a heavy-tail diagnostic."""

    value: float
    std_error: float
    gamma0: float
    heavy_tail: bool  # top 0.1% of summands carry more than half the mean


def exp_integrability(
    model: CoefficientModel, ensemble: StationaryEnsemble, gamma0: float
) -> ExpIntegrability:
    """Mean of exp(gamma0 max(u, 0)) over the ensemble."""
    if gamma0 <= 0:
        raise ConfigError(f"gamma0 must be positive, got {gamma0}")
    u = curvature_sup(model, ensemble.points)
    summands = np.exp(gamma0 * np.maximum(u, 0.0))
    mean, se = map(float, engine.mean_and_se(summands))
    k = max(1, summands.shape[0] // 1000)
    top = np.sort(summands)[-k:]
    heavy = float(np.sum(top)) > 0.5 * float(np.sum(summands))
    return ExpIntegrability(value=mean, std_error=se, gamma0=gamma0, heavy_tail=heavy)


@dataclass(frozen=True)
class NormProfile:
    """Empirical norms sized for the gradient and Hessian bounds."""

    name: str
    f_lq: NormEstimate
    gen_lq: NormEstimate
    grad_lp: NormEstimate
    hess_lp: NormEstimate
    sobolev_1p: NormEstimate
    sobolev_2p: NormEstimate
    p: float
    q: float


def norm_profile(
    model: CoefficientModel,
    f: TestFunction,
    ensemble: StationaryEnsemble,
    p: float,
    q: float,
) -> NormProfile:
    """All norms of one test function on the ensemble."""
    pts = ensemble.points
    fv = np.abs(f.value(pts))
    gv = np.linalg.norm(f.grad(pts), axis=-1)
    hv = np.linalg.norm(f.hess(pts), axis=(-2, -1))
    lf = np.abs(apply_generator(model, f, pts))

    f_lp = lp_norm(fv, p)
    grad_lp = lp_norm(gv, p)
    hess_lp = lp_norm(hv, p)
    sob1 = (f_lp.value**p + grad_lp.value**p) ** (1.0 / p)
    sob2 = (f_lp.value**p + grad_lp.value**p + hess_lp.value**p) ** (1.0 / p)
    sob_se = math.hypot(f_lp.std_error, grad_lp.std_error)
    sob2_se = math.hypot(sob_se, hess_lp.std_error)
    return NormProfile(
        name=f.name,
        f_lq=lp_norm(fv, q),
        gen_lq=lp_norm(lf, q),
        grad_lp=grad_lp,
        hess_lp=hess_lp,
        sobolev_1p=NormEstimate(sob1, sob_se),
        sobolev_2p=NormEstimate(sob2, sob2_se),
        p=p,
        q=q,
    )


@dataclass(frozen=True)
class InequalityRow:
    """One battery function's empirical ratio against the constant."""

    name: str
    lhs: float
    lhs_se: float
    denom: float
    denom_se: float
    ratio: float
    rel_se: float
    passed: bool


@dataclass(frozen=True)
class InequalityReport:
    """Battery-wide outcome of one of the a priori bounds."""

    kind: str  # "gradient" | "hessian"
    p: float
    q: float
    r: float
    constant: float  # theoretical for gradient, fitted for hessian
    constant_kind: str  # "theoretical" | "fitted"
    e_gamma0: float
    t0: float
    rows: list[InequalityRow] = field(default_factory=list)
    profiles: list[NormProfile] = field(default_factory=list)  # gradient: aligned with rows
    ell_2_star: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


def _ratio_row(
    name: str,
    num: NormEstimate,
    den_gen: NormEstimate,
    den_f: NormEstimate,
    constant: float,
) -> InequalityRow:
    denom = den_gen.value + den_f.value
    denom_se = math.hypot(den_gen.std_error, den_f.std_error)
    if denom <= 0.0:
        ratio = 0.0 if num.value <= 0.0 else math.inf
        rel = 0.0
    else:
        ratio = num.value / denom
        rel = 0.0
        if num.value > 0:
            rel = math.hypot(num.std_error / num.value, denom_se / denom)
    passed = ratio <= constant * (1.0 + 3.0 * rel) + 1.0e-12
    return InequalityRow(
        name=name,
        lhs=num.value,
        lhs_se=num.std_error,
        denom=denom,
        denom_se=denom_se,
        ratio=ratio,
        rel_se=rel,
        passed=passed,
    )


def balanced_horizon(gen_lq, f_lq, t_star: float) -> float:
    """Horizon minimising the battery mean of sqrt(t0) ||G f||_q + ||f||_q / sqrt(t0).

    gen_lq and f_lq hold the norms of the battery's functions, in one order;
    the scan runs over 8 log-spaced horizons in [t_star / 100, t_star].
    """
    grid = np.exp(np.linspace(math.log(t_star / 100.0), math.log(t_star), 8))
    root = np.sqrt(grid)[:, None]
    scores = np.mean(root * np.asarray(gen_lq) + np.asarray(f_lq) / root, axis=1)
    return float(grid[int(np.argmin(scores))])


def check_gradient_inequality(
    model: CoefficientModel,
    profiles: Sequence[NormProfile],
    p: float,
    q: float,
    policy: HorizonPolicy,
    integ: ExpIntegrability,
) -> InequalityReport:
    """Test the first-derivative bound on each battery function's norm profile.

    `integ` is E(gamma0) on the ensemble behind the profiles.
    """
    r = r_exponent(p, q)
    constant = constant_c(model.dim, r, integ.value)
    rows = [_ratio_row(prof.name, prof.grad_lp, prof.gen_lq, prof.f_lq, constant) for prof in profiles]
    return InequalityReport(
        kind="gradient",
        p=p,
        q=q,
        r=r,
        constant=constant,
        constant_kind="theoretical",
        e_gamma0=integ.value,
        t0=policy.t0,
        rows=rows,
        profiles=list(profiles),
    )


def _ell_2_star(model: CoefficientModel, ensemble: StationaryEnsemble, r: float) -> float:
    """Coefficient Sobolev size: sum of W^{1,r} norms of H entries plus W^{2,r} of U."""
    pts = ensemble.points
    d = model.dim
    h = antisym_field(model, pts)
    gh = model.grad_antisym(pts)
    total = 0.0
    for i in range(d):
        for j in range(d):
            val = lp_norm(h[..., i, j], r).value
            grad = lp_norm(np.linalg.norm(gh[..., :, i, j], axis=-1), r).value
            total += (val**r + grad**r) ** (1.0 / r)
    u_val = lp_norm(model.potential(pts), r).value
    u_grad = lp_norm(np.linalg.norm(model.grad_potential(pts), axis=-1), r).value
    u_hess = lp_norm(np.linalg.norm(model.hess_potential(pts), axis=(-2, -1)), r).value
    total += (u_val**r + u_grad**r + u_hess**r) ** (1.0 / r)
    return total


def check_hessian_inequality(
    model: CoefficientModel,
    profiles: Sequence[NormProfile],
    p: float,
    q: float,
    ensemble: StationaryEnsemble,
) -> InequalityReport:
    """Second-derivative bound with a fitted constant, on norms already computed.

    The constant here is not explicit (it enters through flat-measure
    elliptic regularity), so the check records the largest observed ratio
    and the coefficient Sobolev sizes; stability of the fitted constant
    under ensemble growth is asserted by the test suite.
    """
    if not p < q:
        raise ConfigError(f"need p < q, got p={p}, q={q}")
    ratios = []
    for prof in profiles:
        denom = prof.gen_lq.value + prof.f_lq.value
        ratios.append(prof.hess_lp.value / denom if denom > 0 else 0.0)
    fitted = max(ratios) if ratios else 0.0
    rows = [_ratio_row(prof.name, prof.hess_lp, prof.gen_lq, prof.f_lq, fitted) for prof in profiles]
    ell = {r: _ell_2_star(model, ensemble, r) for r in (2.0, 3.0, 4.0)}
    return InequalityReport(
        kind="hessian",
        p=p,
        q=q,
        r=0.0,
        constant=fitted,
        constant_kind="fitted",
        e_gamma0=math.nan,
        t0=0.0,
        rows=rows,
        ell_2_star=ell,
    )


@dataclass(frozen=True)
class SymmetryRow:
    pair: str
    sym_residual: float
    sym_se: float
    antisym_residual: float
    antisym_se: float

    @property
    def passed(self) -> bool:
        return abs(self.sym_residual) <= 3.0 * self.sym_se + 1.0e-12 and abs(
            self.antisym_residual
        ) <= 3.0 * self.antisym_se + 1.0e-12


@dataclass(frozen=True)
class SymmetryReport:
    rows: list[SymmetryRow]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


def operator_symmetry_check(
    model: CoefficientModel,
    pairs: Sequence[tuple[TestFunction, TestFunction]],
    ensemble: StationaryEnsemble,
) -> SymmetryReport:
    """Empirical check that L is symmetric and A antisymmetric under mu.

    Per pair (f, g) the residual samples Lf.g - f.Lg and Af.g + f.Ag both
    have zero mean; the test is |mean| <= 3 SE.
    """
    pts = ensemble.points
    rows = []
    for f, g in pairs:
        lf, lg = apply_L(model, f, pts), apply_L(model, g, pts)
        af, ag = apply_A(model, f, pts), apply_A(model, g, pts)
        fv, gv = f.value(pts), g.value(pts)
        sym_mean, sym_se = map(float, engine.mean_and_se(lf * gv - fv * lg))
        anti_mean, anti_se = map(float, engine.mean_and_se(af * gv + fv * ag))
        rows.append(
            SymmetryRow(
                pair=f"{f.name}|{g.name}",
                sym_residual=sym_mean,
                sym_se=sym_se,
                antisym_residual=anti_mean,
                antisym_se=anti_se,
            )
        )
    return SymmetryReport(rows=rows)


@dataclass(frozen=True)
class DecayPoint:
    t: float
    norm: float
    std_error: float


@dataclass(frozen=True)
class DecayReport:
    """Empirical L^2(mu) norm of the semigroup applied to a centred function."""

    points: list[DecayPoint]
    monotone: bool
    final_ratio: float

    @property
    def passed(self) -> bool:
        return self.monotone and self.final_ratio < 0.1


def decay_check(
    model: CoefficientModel,
    f: TestFunction,
    t_grid: Sequence[float],
    ensemble: StationaryEnsemble,
    n_outer: int = 1000,
    inner_paths: int = 100,
    dt: float = 1.0e-2,
    seed: int = 0,
    r_guard: float = engine.DEFAULT_R_GUARD,
) -> DecayReport:
    """Nested Monte Carlo for ||P_t f||_{L^2(mu)} over a time grid.

    Inner paths continue through the whole grid, so all grid points share
    random numbers.  The squared norm is debiased by the inner sampling
    variance before the square root.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if t_grid[0] < 0:
        raise ConfigError("decay grid times must be nonnegative")
    starts = ensemble.points[:n_outer]
    n = starts.shape[0]
    m = inner_paths
    t_max = t_grid[-1]
    n_steps = engine.steps_for(t_max, dt) if t_max > 0 else 0
    grid_idx = [engine.steps_for(t, dt) if t > 0 else 0 for t in t_grid]

    rep = np.repeat(starts, m, axis=0)
    values = {k: np.empty(n * m) for k in grid_idx}
    for part, (k, x, _) in engine.ensemble_sweep(engine.sweep, model, rep, dt, n_steps, seed, r_guard):
        if k in values:
            values[k][part] = f.value(x)

    points = []
    for t, k in zip(t_grid, grid_idx):
        vals = values[k].reshape(n, m)
        a = vals.mean(axis=1)
        s2 = vals.var(axis=1, ddof=1) / m if m > 1 else np.zeros(n)
        sq_mean, sq_se = map(float, engine.mean_and_se(a * a - s2))
        norm = math.sqrt(max(sq_mean, 0.0))
        se = sq_se / (2.0 * norm) if norm > 1.0e-12 else math.sqrt(max(sq_se, 0.0))
        points.append(DecayPoint(t=t, norm=norm, std_error=se))

    monotone = all(
        points[i + 1].norm
        <= points[i].norm + 3.0 * math.hypot(points[i].std_error, points[i + 1].std_error)
        for i in range(len(points) - 1)
    )
    initial = points[0].norm
    final_ratio = points[-1].norm / initial if initial > 0 else 0.0
    return DecayReport(points=points, monotone=monotone, final_ratio=final_ratio)


@dataclass(frozen=True)
class MomentTestConfig:
    """Exit-time moment test: exponent in (0, 1), radius list, horizon."""

    rho: float
    radii: tuple[float, ...]
    horizon: float

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ConfigError(f"rho must lie in (0, 1), got {self.rho}")
        if not self.radii or any(r <= 0 for r in self.radii):
            raise ConfigError("radii must be a nonempty list of positive values")
        if self.horizon < 0:
            raise ConfigError(f"horizon must be nonnegative, got {self.horizon}")


@dataclass(frozen=True)
class MomentRadiusRow:
    radius: float
    moment: float
    moment_se: float
    exit_probability: float
    envelope: float


@dataclass(frozen=True)
class MomentBoundReport:
    rows: list[MomentRadiusRow]
    c_hat: float
    bound: float  # c_hat * (1 + T)
    monotone_exits: bool

    @property
    def passed(self) -> bool:
        ok_bound = all(r.moment <= self.bound + 3.0 * r.moment_se for r in self.rows)
        ok_env = all(
            r.exit_probability <= r.envelope + 1.0e-12 for r in self.rows
        )
        return ok_bound and ok_env and self.monotone_exits


def moment_bound_check(
    model: CoefficientModel,
    cfg: MomentTestConfig,
    ensemble: StationaryEnsemble,
    n_paths: int = 5000,
    dt: float = 1.0e-3,
    seed: int = 0,
    r_guard: float = engine.DEFAULT_R_GUARD,
) -> MomentBoundReport:
    """Stopped-moment bound E[(|X(T ^ tau_R)|^2 + 1)^rho] <= C_hat (1 + T).

    C_hat comes from the empirical ingredients of the moment assumption:
    the stationary value of (|x|^2+1)^rho and the averaged drift term, plus
    the curvature-free Laplacian bound 2 rho d.  Exit probabilities use
    common paths across radii, so monotonicity in R is exact.
    """
    if ensemble.count == 0:
        raise ConfigError("empty stationary ensemble")
    rho, horizon = cfg.rho, cfg.horizon
    radii = sorted(cfg.radii)
    d = model.dim
    pts = ensemble.points

    def f_mom(x):
        return (np.sum(x * x, axis=-1) + 1.0) ** rho

    drift_term = np.abs(
        np.einsum(
            "...i,...i->...",
            2.0 * rho * pts * (np.sum(pts * pts, axis=-1) + 1.0)[..., None] ** (rho - 1.0),
            drift_b(model, pts) - model.grad_potential(pts),
        )
    )
    c1, _ = map(float, engine.mean_and_se(f_mom(pts)))
    c2_half, _ = map(float, engine.mean_and_se(drift_term))
    c_hat = max(c1, 0.5 * c2_half + 2.0 * rho * d)
    bound = c_hat * (1.0 + horizon)

    starts = pts[: min(n_paths, pts.shape[0])]
    n = starts.shape[0]
    n_steps = engine.steps_for(horizon, dt) if horizon > 0 else 0
    frozen = {r: np.full(n, np.nan) for r in radii}
    stopped = {r: np.zeros(n, dtype=bool) for r in radii}
    final = np.empty((n, d))
    for part, (k, x, _) in engine.ensemble_sweep(engine.sweep, model, starts, dt, n_steps, seed, r_guard):
        if k == n_steps:
            final[part] = x
        nrm = np.linalg.norm(x, axis=-1)
        if not (nrm >= radii[0]).any():  # no path reaches even the smallest radius
            continue
        for r in radii:
            hit = ~stopped[r][part] & (nrm >= r)
            stopped[r][part] |= hit
            frozen[r][part][hit] = f_mom(x[hit])

    rows = []
    exit_probs = []
    for r in radii:
        mean, se = map(float, engine.mean_and_se(np.where(stopped[r], frozen[r], f_mom(final))))
        prob = float(np.count_nonzero(stopped[r])) / n
        envelope = bound / r ** (2.0 * rho)
        rows.append(
            MomentRadiusRow(
                radius=r, moment=mean, moment_se=se, exit_probability=prob, envelope=envelope
            )
        )
        exit_probs.append(prob)
    monotone = all(exit_probs[i + 1] <= exit_probs[i] + 1.0e-15 for i in range(len(exit_probs) - 1))
    return MomentBoundReport(rows=rows, c_hat=c_hat, bound=bound, monotone_exits=monotone)


@dataclass(frozen=True)
class StationarityRow:
    name: str
    t: float
    drift: float  # mean of f(X_t) - f(X_0)
    std_error: float

    @property
    def passed(self) -> bool:
        return abs(self.drift) <= 3.0 * self.std_error + 1.0e-12


@dataclass(frozen=True)
class StationarityReport:
    rows: list[StationarityRow]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


def stationarity_check(
    model: CoefficientModel,
    battery: Sequence[TestFunction],
    ensemble: StationaryEnsemble,
    t_grid: Sequence[float] = (1.0, 5.0),
    n_paths: int = 10000,
    dt: float = 5.0e-3,
    seed: int = 0,
    r_guard: float = engine.DEFAULT_R_GUARD,
) -> StationarityReport:
    """With stationary starts, E f(X(t)) is constant in t.

    The residual f(X_t) - f(X_0) is evaluated on common paths, so the
    comparison at 3 SE is sharp.
    """
    t_grid = sorted(float(t) for t in t_grid if t > 0)
    starts = ensemble.points[: min(n_paths, ensemble.count)]
    n = starts.shape[0]
    n_steps = engine.steps_for(t_grid[-1], dt)
    marks = {0, *(engine.steps_for(t, dt) for t in t_grid)}
    values = {(f.name, k): np.empty(n) for f in battery for k in marks}
    for part, (k, x, _) in engine.ensemble_sweep(engine.sweep, model, starts, dt, n_steps, seed, r_guard):
        if k in marks:
            for f in battery:
                values[(f.name, k)][part] = f.value(x)

    rows = []
    for f in battery:
        for t in t_grid:
            diff = values[(f.name, engine.steps_for(t, dt))] - values[(f.name, 0)]
            mean, se = map(float, engine.mean_and_se(diff))
            rows.append(StationarityRow(name=f.name, t=t, drift=mean, std_error=se))
    return StationarityReport(rows=rows)
