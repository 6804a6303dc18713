"""Monte-Carlo gradient estimators: pathwise and integration-by-parts routes.

Two unbiased routes to the gradient of the semigroup value P_t f(x):

  * pathwise ("frechet"): d_j P_t f(x) = E[ grad f(X(t;x)) . C_{.,j}(t) ]
    where C is the pathwise derivative of the flow;
  * integration by parts ("malliavin"): with the adapted control g on
    [0, t0), d_j P_{t0} f(x) = E[ f(X(t0;x)) (int g dw)_j ] with the Ito
    integral summed at left endpoints: (int g dw)_j = sum_i int g_ij dw_i.
    No derivative of f is evaluated.

Both are driven by a fused streaming kernel that advances the state, the
propagator and the Ito accumulator together over batches of paths, so the
identity check can run the two routes on common random numbers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .control import ControlPath, HorizonPolicy
from .errors import ConfigError, EvaluationError
from .functions import TestFunction
from .model import CoefficientModel
from .sde import WienerGrid

Array = np.ndarray


@dataclass(frozen=True)
class GradientEstimate:
    """Componentwise gradient estimate with standard errors."""

    estimate: Array  # (d,)
    std_error: Array  # (d,)
    n_paths: int
    route: str  # "frechet" | "malliavin"
    horizon: float
    x: Array
    exited_fraction: float = 0.0


def ito_integral(control: ControlPath, noise: WienerGrid) -> Array:
    """Left-endpoint Ito sum of the control against one Wiener path.

    Column j receives sum_i sum_k g_ij(t_k) dw_i(t_k) over grid points
    strictly before the horizon; evaluating g at the left endpoint keeps
    the integrand adapted, which is what makes the estimator unbiased.
    """
    if abs(noise.dt - control.dt) > 1.0e-12 * max(1.0, control.dt):
        raise ConfigError(
            f"noise grid dt {noise.dt} does not match control dt {control.dt}"
        )
    n0 = control.horizon_index
    if noise.count < n0:
        raise ConfigError(f"noise grid has {noise.count} increments, need {n0}")
    if noise.dim != control.dim:
        raise ConfigError("noise dimension does not match control dimension")
    g = control.values[:n0]
    dw = noise.increments[:n0]
    return np.einsum("kij,ki->j", g, dw)


@dataclass(frozen=True)
class PathSummary:
    """Per-path terminal data shared by both estimator routes.

    Produced by one pass of the fused kernel: terminal states, pathwise
    derivative matrices, Ito integrals of the control, and the guard mask.
    All arrays are aligned on the path axis, so any functional evaluated on
    them uses common random numbers across routes.
    """

    x: Array
    t_end: float
    dt: float
    seed: int
    states: Array  # (N, d) terminal states
    frechet: Array  # (N, d, d) pathwise derivative at t_end
    ito: Array  # (N, d) control Ito integrals
    alive: Array  # (N,) guard mask

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def exited_fraction(self) -> float:
        return 1.0 - float(np.count_nonzero(self.alive)) / self.n_paths


def flow_summary(
    model: CoefficientModel,
    x,
    t_end: float,
    dt: float,
    n_paths: int,
    seed: int = 0,
    r_guard: float = engine.DEFAULT_R_GUARD,
    threads: int = 1,
) -> PathSummary:
    """Run the fused kernel: state, propagator and Ito accumulator together.

    The control C(., 0)/t_end on [0, t_end) is accumulated against the
    increments (left endpoints), matching the single-path construction in
    the control module step for step.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (model.dim,):
        raise ConfigError(f"x has shape {x.shape}, expected ({model.dim},)")
    if n_paths < 1:
        raise ConfigError(f"n_paths must be positive, got {n_paths}")
    n = engine.steps_for(t_end, dt)
    d = model.dim

    def worker(spec):
        off, size = spec
        inc = engine.increments_block(seed, off, size, n, dt, d)
        x0 = np.broadcast_to(x, (size, d))
        ito = np.zeros((d, size))  # entry-major: ito[j] holds column j of every path
        contrib, product = np.empty((d, size)), np.empty(size)  # refilled every step
        for k, xs, alive, _, c in engine.propagator_sweep(model, x0, dt, inc, r_guard):
            if k < n:
                # (w^T C)_j = w_0 C_0j + w_1 C_1j + ..., added in index order
                w = inc[:, k]
                for j in range(d):
                    entry = np.multiply(c[:, 0, j], w[:, 0], out=contrib[j])
                    for i in range(1, d):
                        entry += np.multiply(c[:, i, j], w[:, i], out=product)
                contrib *= 1.0 / t_end
                if alive.all():
                    ito += contrib
                else:
                    ito = np.where(alive, ito + contrib, ito)
        return xs, c, ito.T, alive

    specs = engine.batch_sizes(n_paths, n, d)
    parts = engine.map_batches(worker, specs, threads)
    states = np.concatenate([p[0] for p in parts], axis=0)
    frechet = np.concatenate([p[1] for p in parts], axis=0)
    ito = np.concatenate([p[2] for p in parts], axis=0)
    alive = np.concatenate([p[3] for p in parts], axis=0)
    return PathSummary(
        x=x, t_end=t_end, dt=dt, seed=seed, states=states, frechet=frechet, ito=ito, alive=alive
    )


def _component_stats(samples: Array, alive: Array) -> tuple[Array, Array, int]:
    kept = samples[alive]
    n = kept.shape[0]
    if n == 0:
        raise EvaluationError("all paths hit the radius guard")
    mean, se = engine.mean_and_se(kept)
    return mean, se, n


def _estimate(samples: Array, summary: PathSummary, route: str) -> GradientEstimate:
    mean, se, _ = _component_stats(samples, summary.alive)
    return GradientEstimate(
        estimate=mean,
        std_error=se,
        n_paths=summary.n_paths,
        route=route,
        horizon=summary.t_end,
        x=summary.x,
        exited_fraction=summary.exited_fraction,
    )


def _frechet_samples(f: TestFunction, summary: PathSummary) -> Array:
    return np.einsum("bi,bij->bj", f.grad(summary.states), summary.frechet)


def _malliavin_samples(f: TestFunction, summary: PathSummary) -> Array:
    return f.value(summary.states)[:, None] * summary.ito


def frechet_from_summary(f: TestFunction, summary: PathSummary) -> GradientEstimate:
    """Pathwise route evaluated on an existing kernel pass."""
    return _estimate(_frechet_samples(f, summary), summary, "frechet")


def malliavin_from_summary(f: TestFunction, summary: PathSummary) -> GradientEstimate:
    """Integration-by-parts route evaluated on an existing kernel pass."""
    return _estimate(_malliavin_samples(f, summary), summary, "malliavin")


def grad_malliavin(
    model: CoefficientModel,
    f: TestFunction,
    x,
    policy: HorizonPolicy,
    n_paths: int,
    dt: float,
    seed: int = 0,
) -> GradientEstimate:
    """Estimate grad P_{t0} f(x) by integration by parts; f is never differentiated."""
    summary = flow_summary(model, x, policy.t0, dt, n_paths, seed=seed)
    return malliavin_from_summary(f, summary)


@dataclass(frozen=True)
class IbpReport:
    """Common-random-number comparison of the two gradient routes."""

    frechet: GradientEstimate
    malliavin: GradientEstimate
    residual: Array  # (d,) componentwise mean difference on common paths
    residual_se: Array  # (d,)

    @property
    def passed(self) -> bool:
        return bool(np.all(np.abs(self.residual) <= 3.0 * self.residual_se + 1.0e-12))


def ibp_from_summary(f: TestFunction, summary: PathSummary) -> IbpReport:
    """Both routes and their per-path residual from one kernel pass."""
    fre = _frechet_samples(f, summary)
    mal = _malliavin_samples(f, summary)
    res_mean, res_se, _ = _component_stats(fre - mal, summary.alive)
    return IbpReport(
        frechet=_estimate(fre, summary, "frechet"),
        malliavin=_estimate(mal, summary, "malliavin"),
        residual=res_mean,
        residual_se=res_se,
    )
