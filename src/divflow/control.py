"""The adapted control, its pathwise growth bound and the trace moment check.

The control g(t) = C(t, 0) / t0 on [0, t0), zero afterwards, is adapted by
construction (it depends only on the path up to t) and drives the noise
derivative onto the pathwise derivative at the horizon: the discrepancy
vanishes identically from t0 on.  Each column obeys the pathwise bound

    |g_i(t)|^2 <= t0^{-2} exp{ 2 int_0^t u(X(s)) ds },   t in [0, t0],

where u is the numerical-range supremum of the curvature matrix; the bound
follows from a Gronwall argument and saturates when the curvature is a
constant scalar.  Averaging over stationary starts yields the trace moment
estimate

    { t0^{-1} int_0^{t0} E[ tr(g^T g)^{r/2} ] ds }^{1/r}
        <= (sqrt(d)/t0) { int Phi(r t0 u(x)) mu(dx) }^{1/r},

with Phi(x) = (e^x - 1)/x, which certifies the moment finiteness the
estimator relies on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .errors import ConfigError, PolicyError
from .model import CoefficientModel, curvature_sup, numerical_range_sup
from .sde import StationaryEnsemble
from .variational import FundamentalMatrix

Array = np.ndarray


@dataclass(frozen=True)
class HorizonPolicy:
    """Control horizon t0 together with the certificate parameters.

    The admissible range is 0 < t0 <= t_star = gamma0 / r: beyond t_star the
    exponential-integrability constant no longer certifies the moment bound.
    """

    t0: float
    gamma0: float
    r: float

    @property
    def t_star(self) -> float:
        return self.gamma0 / self.r

    def __post_init__(self):
        if self.gamma0 <= 0 or self.r < 1:
            raise ConfigError(
                f"need gamma0 > 0 and r >= 1, got gamma0={self.gamma0}, r={self.r}"
            )
        if not (0.0 < self.t0 <= self.t_star + 1.0e-12):
            raise PolicyError(
                f"horizon t0={self.t0} outside (0, t_star={self.t_star:g}]"
            )


@dataclass(frozen=True)
class ControlPath:
    """Adapted matrix control on a uniform grid, zero from the horizon on.

    values[k] holds g(t_k); by convention values at and after the horizon
    are zero, while `boundary` keeps the left limit at the horizon for
    quadrature and for the final integration step that lands on it.
    """

    times: Array  # (m+1,)
    values: Array  # (m+1, d, d)
    t0: float
    horizon_index: int
    boundary: Array  # (d, d) left limit of g at t0

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dim(self) -> int:
        return self.values.shape[-1]


def build_control(c: FundamentalMatrix, policy: HorizonPolicy) -> ControlPath:
    """Control g = C(., 0)/t0 on [0, t0), zero afterwards."""
    t0 = policy.t0
    n0 = c.index_of(t0)
    values = c.matrices / t0
    values[n0:] = 0.0
    boundary = c.matrices[n0] / t0
    return ControlPath(
        times=c.times,
        values=values,
        t0=t0,
        horizon_index=n0,
        boundary=boundary,
    )


def constant_control(matrix: Array, t0: float, n_steps: int, dt: float) -> ControlPath:
    """Time-constant control on [0, t0); useful for direct integral checks."""
    matrix = np.asarray(matrix, dtype=float)
    d = matrix.shape[0]
    times = dt * np.arange(n_steps + 1)
    n0 = int(round(t0 / dt))
    if n0 <= 0 or abs(n0 * dt - t0) > 1.0e-9:
        raise ConfigError(f"t0 {t0} is not a positive multiple of dt {dt}")
    values = np.zeros((n_steps + 1, d, d))
    values[: min(n0, n_steps + 1)] = matrix
    return ControlPath(
        times=times,
        values=values,
        t0=t0,
        horizon_index=min(n0, n_steps),
        boundary=matrix.copy(),
    )


def gronwall_sweep(
    model: CoefficientModel,
    starts: Array,
    policy: HorizonPolicy,
    dt: float = 1.0e-3,
    seed: int = 0,
    r_guard: float = engine.DEFAULT_R_GUARD,
) -> tuple[float, float]:
    """Exponential column bound over a batch of fresh paths.

    Returns (max_slack, max_gap): the worst signed excess of |g_i(t)|^2 over
    the bound, and the worst absolute difference (which measures saturation
    for scalar or norm-preserving curvature).
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    t0 = policy.t0
    n0 = engine.steps_for(t0, dt)
    max_slack = -np.inf
    max_gap = 0.0
    steps = engine.ensemble_sweep(engine.propagator_sweep, model, starts, dt, n0, seed, r_guard)
    for _, (k, _, _, a, c) in steps:
        u = numerical_range_sup(a)
        integral = integral + 0.5 * (u + u_prev) * dt if k > 0 else np.zeros(u.shape)
        u_prev = u
        bound = np.exp(2.0 * integral) / t0**2
        slack = np.sum((c / t0) ** 2, axis=1) - bound[:, None]
        max_slack = max(max_slack, float(np.max(slack)))
        max_gap = max(max_gap, float(np.max(np.abs(slack))))
    return max_slack, max_gap


def e_function(x):
    """(e^x - 1) / x with the removable singularity filled at zero.

    Near zero the series 1 + x/2 + x^2/6 is used, keeping the evaluation
    stable to full precision.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1.0e-4
    x_safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 + x / 2.0 + x * x / 6.0, np.expm1(x_safe) / x_safe)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TraceMomentReport:
    """Empirical two-sided evaluation of the trace moment estimate."""

    tag: str
    t0: float
    r: float
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def combined_se(self) -> float:
        return math.hypot(self.lhs_se, self.rhs_se)

    @property
    def passed(self) -> bool:
        # Constant curvature saturates the estimate; leave room for the
        # O(dt^2) quadrature bias of the time integral in that case.
        tol = 1.0e-6 * (1.0 + abs(self.rhs))
        return self.lhs <= self.rhs + 3.0 * self.combined_se + tol


def trace_moment_check(
    model: CoefficientModel,
    ensemble: StationaryEnsemble,
    policy: HorizonPolicy,
    paths_per_point: int = 1,
    dt: float = 1.0e-3,
    seed: int = 0,
    r_guard: float = engine.DEFAULT_R_GUARD,
) -> TraceMomentReport:
    """Monte-Carlo check of the trace moment estimate over stationary starts.

    The left side integrates tr(g^T g)^{r/2} in time along each path,
    averages a start's paths_per_point paths, and takes the mean and its
    SE over the starts; the right side evaluates the exponential-ratio
    integral on the same ensemble.
    """
    if ensemble.count == 0:
        raise ConfigError("empty stationary ensemble")
    t0, r = policy.t0, policy.r
    n0 = engine.steps_for(t0, dt)
    d = model.dim
    starts = np.repeat(ensemble.points, paths_per_point, axis=0)

    samples = np.empty(starts.shape[0])
    steps = engine.ensemble_sweep(engine.propagator_sweep, model, starts, dt, n0, seed, r_guard)
    for part, (k, _, _, _, c) in steps:
        # tr(g^T g)^{r/2} with g = C / t0, integrated by the trapezoid rule;
        # C's squared entries are added in index order, whatever C's layout
        integrand = (engine._squared_norm(c.reshape(c.shape[0], -1)) / t0**2) ** (r / 2.0)
        integral = integral + 0.5 * (integrand + prev) * dt if k > 0 else np.zeros(integrand.shape)
        prev = integrand
        if k == n0:
            samples[part] = integral / t0

    # a start's paths share it, so the SE is taken over the starts' own means
    per_start = samples.reshape(ensemble.count, paths_per_point).mean(axis=1)
    mean, se_mean = map(float, engine.mean_and_se(per_start))
    lhs = mean ** (1.0 / r)
    lhs_se = se_mean * lhs / (r * mean) if mean > 0 else 0.0

    phi = e_function(r * t0 * curvature_sup(model, ensemble.points))
    phi_mean, phi_se = map(float, engine.mean_and_se(phi))
    rhs = math.sqrt(d) / t0 * phi_mean ** (1.0 / r)
    rhs_se = math.sqrt(d) / t0 * phi_se * phi_mean ** (1.0 / r) / (r * phi_mean)

    return TraceMomentReport(
        tag=model.name,
        t0=t0,
        r=r,
        lhs=lhs,
        lhs_se=lhs_se,
        rhs=rhs,
        rhs_se=rhs_se,
    )
