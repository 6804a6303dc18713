"""Batched numerical kernels shared by the simulation and estimator layers.

Noise is reproducible per path: the increments of path p under master seed s
are a pure function of (s, p), independent of batching, thread count or
which estimator consumes them.  Path sweeps are vectorised over a batch
axis; linear matrix systems along a path are advanced with the classical
4-stage Runge-Kutta step, evaluating the (piecewise-linearly interpolated)
coefficient at the half point.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, EvaluationError, IntegrationError
from .model import CoefficientModel, curvature_matrix, total_drift


Array = np.ndarray

DEFAULT_R_GUARD = 1.0e6

# Cap on the number of stored doubles per noise block; keeps batch memory
# in the low hundreds of MB.
_BLOCK_BUDGET = 16_000_000


def path_seed_sequence(master_seed: int, path_index: int) -> np.random.SeedSequence:
    """Seed material for a single path; the (seed, index) pair is the identity."""
    return np.random.SeedSequence(entropy=(int(master_seed), int(path_index)))


def normal_increments(
    master_seed: int, path_index: int, count: int, dt: float, dim: int
) -> Array:
    """Wiener increments of one path: count x dim draws from N(0, dt I)."""
    rng = np.random.default_rng(path_seed_sequence(master_seed, path_index))
    return rng.normal(0.0, np.sqrt(dt), size=(count, dim))


def increments_block(
    master_seed: int, start_index: int, n_paths: int, count: int, dt: float, dim: int
) -> Array:
    """Increments for paths [start_index, start_index + n_paths), stacked."""
    out = np.empty((n_paths, count, dim))
    scale = np.sqrt(dt)
    for i in range(n_paths):
        rng = np.random.default_rng(path_seed_sequence(master_seed, start_index + i))
        out[i] = rng.normal(0.0, scale, size=(count, dim))
    return out


def batch_sizes(n_paths: int, count: int, dim: int) -> list[tuple[int, int]]:
    """(offset, size) chunks keeping each noise block under the memory budget."""
    per_path = max(1, count * dim)
    size = max(1, min(n_paths, _BLOCK_BUDGET // per_path))
    return [(off, min(size, n_paths - off)) for off in range(0, n_paths, size)]


def map_batches(worker: Callable[[tuple[int, int]], object], specs: Sequence[tuple[int, int]], threads: int = 1) -> list:
    """Run a batch worker over (offset, size) specs, preserving order."""
    if threads <= 1 or len(specs) <= 1:
        return [worker(spec) for spec in specs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, specs))


def sweep(
    model: CoefficientModel,
    x0: Array,
    dt: float,
    increments: Array,
    r_guard: float = DEFAULT_R_GUARD,
) -> Iterator[tuple[int, Array, Array]]:
    """Explicit Euler over a batch of paths: the package's only state update.

    x0 is (B, d) and increments (B, n, d).  Yields (k, x, alive) at k = 0 and
    after each step.  A path leaves `alive` at the first step where
    |x| > r_guard and is frozen there.  A non-finite live state raises
    IntegrationError with its step.  Yielded arrays are never mutated, and
    `alive` is replaced by a new array exactly when some path exits.
    """
    x = np.array(x0, dtype=float, copy=True)
    r2 = float(r_guard) * float(r_guard)
    cap = min(r2, np.finfo(float).max)  # so that an infinite state fails the fast test
    alive = np.sum(x * x, axis=-1) <= r2
    everyone = bool(alive.all())
    yield 0, x, alive
    for k in range(1, increments.shape[1] + 1):
        try:
            drift = total_drift(model, x if everyone else np.where(alive[:, None], x, 0.0))
        except EvaluationError as exc:
            raise IntegrationError(
                f"drift evaluation failed at step {k} (state exploded or dt too large)", step=k
            ) from exc
        x_new = x + (drift * dt + increments[:, k - 1])
        if not everyone:
            x_new = np.where(alive[:, None], x_new, x)
        sq = np.sum(x_new * x_new, axis=-1)
        if not (sq <= cap).all():
            if np.any(alive & ~np.all(np.isfinite(x_new), axis=-1)):
                raise IntegrationError(
                    f"non-finite state at step {k} (dt too large or model misuse)", step=k
                )
            exited = alive & (sq > r2)
            if exited.any():
                alive, everyone = alive & ~exited, False
        x = x_new
        yield k, x, alive


def propagator_sweep(
    model: CoefficientModel,
    x0: Array,
    dt: float,
    increments: Array,
    r_guard: float = DEFAULT_R_GUARD,
) -> Iterator[tuple[int, Array, Array, Array, Array]]:
    """`sweep` that also carries the curvature A = K(X) and the propagator C.

    Yields (k, x, alive, a, c), where C' = A C, C(0) = I takes one RK4 step
    per Euler step.  Exited paths keep their C and see A at the origin.
    """
    steps = sweep(model, x0, dt, increments, r_guard)
    _, x, alive = next(steps)
    a = curvature_matrix(model, np.where(alive[:, None], x, 0.0))
    c = np.broadcast_to(np.eye(x.shape[-1]), a.shape).copy()
    yield 0, x, alive, a, c
    for k, x, alive_new in steps:
        a_new = curvature_matrix(model, np.where(alive_new[:, None], x, 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            c_new = rk4_step(c, dt, a, 0.5 * (a + a_new), a_new)
        c = np.where(alive[:, None, None], c_new, c)
        a, alive = a_new, alive_new
        yield k, x, alive, a, c


def ensemble_sweep(
    sweep: Callable, model: CoefficientModel, starts: Array, dt: float, n_steps: int, seed: int
) -> Iterator[tuple[slice, tuple]]:
    """Run `sweep` from every start, in batches within the noise budget.

    Path i is driven by noise stream (seed, i), so nothing depends on the
    batching.  Yields (part, (k, x, alive[, a, c])): the batch's slice of
    `starts` and each step of its sweep.  Raises IntegrationError at the
    first step where a path is outside the radius guard.
    """
    n, d = starts.shape
    for off, size in batch_sizes(n, max(n_steps, 1), d):
        part = slice(off, off + size)
        inc = increments_block(seed, off, size, n_steps, dt, d)
        for item in sweep(model, starts[part], dt, inc):
            if not item[2].all():
                raise IntegrationError(f"a path left the radius guard at step {item[0]}", step=item[0])
            yield part, item


def mean_and_se(values) -> tuple[Array, Array]:
    """Mean over axis 0 and its iid standard error, which is nan below two samples."""
    values = np.asarray(values, dtype=float)
    mean = values.mean(axis=0)
    n = values.shape[0]
    if n < 2:
        return mean, np.full_like(mean, np.nan)
    return mean, values.std(axis=0, ddof=1) / np.sqrt(n)


def euler_sweep(
    model: CoefficientModel,
    x0: Array,
    dt: float,
    increments: Array,
    r_guard: float = DEFAULT_R_GUARD,
) -> tuple[Array, Array]:
    """Run `sweep` to the end and keep every state.

    Returns (states, exit_step) where states is (B, n+1, d) and exit_step[i]
    is the step at which path i left the guard radius, or -1.
    """
    n_paths, n_steps, dim = increments.shape
    exit_step = np.full(n_paths, -1, dtype=np.int64)
    states = np.empty((n_paths, n_steps + 1, dim))
    last = None
    for k, x, alive in sweep(model, x0, dt, increments, r_guard):
        states[:, k] = x
        if alive is not last:
            exit_step[(exit_step < 0) & ~alive] = k
            last = alive
    return states, exit_step


def rk4_step(
    y: Array,
    dt: float,
    a0: Array,
    a_half: Array,
    a1: Array,
    f0: Array | float = 0.0,
    f_half: Array | float = 0.0,
    f1: Array | float = 0.0,
) -> Array:
    """One classical Runge-Kutta step for dY/dt = A(t) Y + F(t).

    A and F are supplied at the step endpoints and midpoint; matmul
    broadcasts over leading batch axes.
    """
    k1 = a0 @ y + f0
    k2 = a_half @ (y + (0.5 * dt) * k1) + f_half
    k3 = a_half @ (y + (0.5 * dt) * k2) + f_half
    k4 = a1 @ (y + dt * k3) + f1
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def trapezoid_prefix(values: Array, dt: float, axis: int = -1) -> Array:
    """Cumulative trapezoid integral along an axis, starting at zero."""
    values = np.asarray(values, dtype=float)
    values = np.moveaxis(values, axis, -1)
    mids = 0.5 * (values[..., 1:] + values[..., :-1]) * dt
    out = np.concatenate(
        [np.zeros(values.shape[:-1] + (1,)), np.cumsum(mids, axis=-1)], axis=-1
    )
    return np.moveaxis(out, -1, axis)


def steps_for(horizon: float, dt: float) -> int:
    """Number of grid steps in a horizon; rejects off-grid combinations."""
    n = int(round(horizon / dt))
    if n <= 0 or abs(n * dt - horizon) > 1.0e-9 * max(1.0, horizon):
        raise ConfigError(f"horizon {horizon} is not a positive multiple of dt {dt}")
    return n
