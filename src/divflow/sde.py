"""Path simulation and stationary sampling.

The diffusion dX = (-grad U + b)/2 dt + dw is integrated with the explicit
Euler scheme (the noise is additive, so the first-order Milstein correction
vanishes).  Explosion is precluded by the model assumptions; a radius guard
only catches misuse such as grossly oversized steps.  The invariant law
exp(-U)/Z is sampled exactly, by each problem's own iid sampler.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine
from .errors import ConfigError, EvaluationError
from .model import CoefficientModel, TestProblem

Array = np.ndarray


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
    """iid draws from the invariant law."""

    points: Array  # (N, d)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


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


def sample_stationary(problem: TestProblem, count: int, seed: int = 0) -> StationaryEnsemble:
    """Draw an iid ensemble from the invariant law exp(-U)/Z with the problem's sampler."""
    if count < 1:
        raise ConfigError(f"ensemble size must be positive, got {count}")
    # Tag keeps the ensemble stream disjoint from per-path noise streams.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 0xE25E3B1E)))
    return StationaryEnsemble(points=problem.stationary_sampler(rng, count))
