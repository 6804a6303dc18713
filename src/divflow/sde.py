"""Path simulation and stationary sampling.

The diffusion dX = (-grad U + b)/2 dt + dw is integrated with the explicit
Euler scheme (the noise is additive, so the first-order Milstein correction
vanishes).  Explosion is precluded by the model assumptions; a radius guard
only catches misuse such as grossly oversized steps.  The invariant law
exp(-U)/Z is sampled either exactly (Gaussian benchmarks) or with a
Metropolis-adjusted Langevin chain on the reversible part of the dynamics,
for which it is also invariant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import engine
from .errors import ConfigError, EvaluationError
from .model import CoefficientModel, TestProblem

Array = np.ndarray

# Metropolis-adjusted Langevin settings (times in time units, not steps).
MALA_BURN_IN = 1.0e3
MALA_THIN = 1.0
MALA_STEP = 0.1
MALA_CHAINS = 64


@dataclass(frozen=True)
class WienerGrid:
    """Increments of a single driving Wiener path on a uniform grid."""

    dt: float
    increments: Array  # (count, dim)

    @property
    def count(self) -> int:
        return self.increments.shape[0]

    @property
    def dim(self) -> int:
        return self.increments.shape[1]

    @classmethod
    def generate(
        cls, master_seed: int, path_index: int, count: int, dt: float, dim: int
    ) -> "WienerGrid":
        inc = engine.normal_increments(master_seed, path_index, count, dt, dim)
        return cls(dt=dt, increments=inc)

    @classmethod
    def zeros(cls, count: int, dt: float, dim: int) -> "WienerGrid":
        return cls(dt=dt, increments=np.zeros((count, dim)))


@dataclass(frozen=True)
class Trajectory:
    """A discretised path together with the noise that produced it."""

    x0: Array
    times: Array  # (n+1,)
    states: Array  # (n+1, d)
    noise: WienerGrid
    exited: bool = False
    exit_step: Optional[int] = None

    @property
    def dt(self) -> float:
        return self.noise.dt

    @property
    def dim(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class StationaryEnsemble:
    """Draws from the invariant law with provenance and sampler diagnostics.

    For chain-based provenance the points are interleaved across independent
    chains, and standard errors of ensemble means use the between-chain
    spread rather than the (optimistic) iid formula.
    """

    points: Array  # (N, d)
    provenance: str  # "exact" | "burn-in"
    diagnostics: dict = field(default_factory=dict)
    n_chains: Optional[int] = None

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def mean_and_se(self, values: Array) -> tuple[float, float]:
        """Mean of per-point values and its SE: between chain means for chain draws, else iid."""
        values = np.asarray(values, dtype=float)
        m = self.n_chains
        if m and m > 1 and values.shape[0] >= 2 * m:
            rounds = values.shape[0] // m
            _, se = engine.mean_and_se(values[: rounds * m].reshape(rounds, m).mean(axis=0))
            return float(np.mean(values)), float(se)
        mean, se = engine.mean_and_se(values)
        return float(mean), float(se)


def simulate_path(
    model: CoefficientModel,
    x0,
    horizon: float,
    dt: float,
    noise: WienerGrid,
    r_guard: float = engine.DEFAULT_R_GUARD,
) -> Trajectory:
    """Integrate one path to the horizon, stopping early at the radius guard."""
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    if abs(noise.dt - dt) > 1.0e-12 * max(1.0, dt):
        raise ConfigError(f"noise grid dt {noise.dt} does not match dt {dt}")
    n = engine.steps_for(horizon, dt)
    if noise.count < n:
        raise ConfigError(f"noise grid has {noise.count} increments, need {n}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (model.dim,):
        raise ConfigError(f"x0 has shape {x0.shape}, expected ({model.dim},)")
    if not np.all(np.isfinite(x0)):
        raise EvaluationError("non-finite initial state", point=x0)
    states, exit_step = engine.euler_sweep(
        model, x0[None, :], dt, noise.increments[None, :n], r_guard=r_guard
    )
    states = states[0]
    step = int(exit_step[0])
    exited = step >= 0
    if exited:
        states = states[: step + 1]
    times = dt * np.arange(states.shape[0])
    return Trajectory(
        x0=x0,
        times=times,
        states=states,
        noise=noise,
        exited=exited,
        exit_step=step if exited else None,
    )


def _mala_chain_sample(
    model: CoefficientModel, count: int, step: float, rng: np.random.Generator
) -> tuple[Array, float, int]:
    """Vectorised Metropolis-adjusted Langevin on the reversible part.

    The proposal is one Euler step of dX = -grad U / 2 dt + dw with time
    step `step`, accepted against the target exp(-U).  Returns interleaved
    draws (count, d), the overall acceptance rate and the chain count.
    """
    d = model.dim
    m = min(MALA_CHAINS, count)
    # Start inside the bulk: far tail starts can freeze the chain when the
    # potential grows steeply (every proposal overshoots and is rejected).
    x = 0.8 * rng.standard_normal((m, d))
    logp = -model.potential(x)
    grad = model.grad_potential(x)
    accepted = 0
    proposed = 0

    def advance(n_steps: int):
        nonlocal x, logp, grad, accepted, proposed
        for _ in range(n_steps):
            noise = rng.standard_normal((m, d))
            mean_fwd = x - 0.5 * step * grad
            prop = mean_fwd + math.sqrt(step) * noise
            logp_prop = -model.potential(prop)
            grad_prop = model.grad_potential(prop)
            mean_bwd = prop - 0.5 * step * grad_prop
            fwd = np.sum((prop - mean_fwd) ** 2, axis=-1)
            bwd = np.sum((x - mean_bwd) ** 2, axis=-1)
            log_alpha = logp_prop - logp + (fwd - bwd) / (2.0 * step)
            accept = np.log(rng.uniform(size=m)) < log_alpha
            x = np.where(accept[:, None], prop, x)
            logp = np.where(accept, logp_prop, logp)
            grad = np.where(accept[:, None], grad_prop, grad)
            accepted += int(np.count_nonzero(accept))
            proposed += m

    advance(max(1, int(round(MALA_BURN_IN / step))))
    thin_steps = max(1, int(round(MALA_THIN / step)))
    rounds = (count + m - 1) // m
    draws = np.empty((rounds, m, d))
    for r in range(rounds):
        advance(thin_steps)
        draws[r] = x
    rate = accepted / proposed if proposed else 0.0
    return draws.reshape(rounds * m, d)[:count], rate, m


def sample_stationary(
    problem: TestProblem, count: int, seed: int = 0, step: float = MALA_STEP
) -> StationaryEnsemble:
    """Draw an ensemble from the invariant law exp(-U)/Z.

    A problem with a closed-form sampler is sampled exactly.  Otherwise the
    Metropolis-adjusted chain runs on the reversible part (dropping b, for
    which the law is equally invariant), so no correction beyond the
    accept/reject step is needed; `step` is its proposal time step.
    """
    if count < 1:
        raise ConfigError(f"ensemble size must be positive, got {count}")
    # Tag keeps the ensemble stream disjoint from per-path noise streams.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 0xE25E3B1E)))
    if problem.stationary_sampler is not None:
        points = problem.stationary_sampler(rng, count)
        return StationaryEnsemble(
            points=points, provenance="exact", diagnostics={"seed": int(seed)}
        )
    points, rate, m = _mala_chain_sample(problem.model, count, step, rng)
    diagnostics = {
        "seed": int(seed),
        "acceptance_rate": rate,
        "step": step,
        "low_acceptance": rate < 0.10,
    }
    return StationaryEnsemble(
        points=points, provenance="burn-in", diagnostics=diagnostics, n_chains=m
    )
