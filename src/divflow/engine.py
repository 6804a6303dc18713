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


# numpy's SeedSequence hash constants and PCG64's LCG multiplier
# (numpy/random/bit_generator.pyx, pcg64.h), from which `_pcg64_states`
# derives, for a chunk of paths at once, the generator states that
# `np.random.default_rng(np.random.SeedSequence((seed, p)))` would build.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Paths whose states are derived in one vectorised pass; bounds the
# temporaries next to the noise block.
_STATE_CHUNK = 1024


def _uint32_words(n: int) -> list[int]:
    """The little-endian uint32 words SeedSequence splits a nonnegative int into."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pcg64_states(master_seed: int, first: int, n: int) -> Iterator[tuple[int, int]]:
    """(state, inc) of the PCG64 seeded from SeedSequence((master_seed, p)), p = first, ..., first + n - 1.

    SeedSequence's entropy mix and `generate_state(4, uint64)` are run on
    uint32 arrays over p; the seed's words are shared by every path, so a
    seed of any size takes the same route.  PCG64's seeding then takes two
    128-bit LCG steps per path.
    """
    if master_seed < 0 or first < 0:
        raise ConfigError(f"seed and path index must be nonnegative, got ({master_seed}, {first})")
    if first + n > 1 << 32:
        raise ConfigError(f"path index {first + n - 1} does not fit in 32 bits")
    entropy = [np.full(n, w, dtype=np.uint32) for w in _uint32_words(master_seed)]
    entropy.append(np.arange(first, first + n, dtype=np.uint32))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(n, dtype=np.uint32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        words.append((value ^ (value >> 16)).astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (words[2 * j] | (words[2 * j + 1] << np.uint64(32))).tolist() for j in range(4)
    )
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        yield ((((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc) & _MASK128, inc


def _fill_increments(out: Array, master_seed: int, start_index: int, dt: float) -> Array:
    """Fill out[i] (count x dim) with the N(0, dt I) increments of path start_index + i.

    Path p's draws are those of
    `np.random.default_rng(np.random.SeedSequence((master_seed, p))).normal(0, sqrt(dt), ...)`,
    bit for bit: one PCG64 is set to each path's state in turn and fills
    its row with standard normals, and the block is then scaled once.
    numpy's `normal` returns 0.0 + scale * z, hence the final + 0.0 (it
    turns a -0.0 into 0.0).
    """
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    n = out.shape[0]
    for chunk in range(0, n, _STATE_CHUNK):
        states = _pcg64_states(int(master_seed), int(start_index) + chunk, min(_STATE_CHUNK, n - chunk))
        for i, (s, inc) in enumerate(states, chunk):
            state["state"] = {"state": s, "inc": inc}
            bitgen.state = state
            gen.standard_normal(out=out[i])
    out *= np.sqrt(dt)
    out += 0.0
    return out


def normal_increments(
    master_seed: int, path_index: int, count: int, dt: float, dim: int
) -> Array:
    """Wiener increments of one path: count x dim draws from N(0, dt I)."""
    return _fill_increments(np.empty((1, count, dim)), master_seed, path_index, dt)[0]


def increments_block(
    master_seed: int, start_index: int, n_paths: int, count: int, dt: float, dim: int
) -> Array:
    """Increments for paths [start_index, start_index + n_paths), stacked."""
    return _fill_increments(np.empty((n_paths, count, dim)), master_seed, start_index, dt)


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
        # x + (drift * dt + dw), built in the fresh drift array
        drift *= dt
        drift += increments[:, k - 1]
        drift += x
        x_new = drift
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
    While every path is alive, no mask is applied.
    """
    steps = sweep(model, x0, dt, increments, r_guard)
    _, x, alive = next(steps)
    a = curvature_matrix(model, _live(x, alive))
    c = np.broadcast_to(np.eye(x.shape[-1]), a.shape).copy()
    yield 0, x, alive, a, c
    for k, x, alive_new in steps:
        a_new = curvature_matrix(model, _live(x, alive_new))
        with np.errstate(over="ignore", invalid="ignore"):
            c_new = rk4_step(c, dt, a, 0.5 * (a + a_new), a_new)
        c = c_new if alive.all() else np.where(alive[:, None, None], c_new, c)
        a, alive = a_new, alive_new
        yield k, x, alive, a, c


def _live(x: Array, alive: Array) -> Array:
    """x with exited paths moved to the origin; x itself while every path is alive."""
    return x if alive.all() else np.where(alive[:, None], x, 0.0)


def ensemble_sweep(
    sweep: Callable,
    model: CoefficientModel,
    starts: Array,
    dt: float,
    n_steps: int,
    seed: int,
    r_guard: float = DEFAULT_R_GUARD,
) -> Iterator[tuple[slice, tuple]]:
    """Run `sweep` from every start, in batches within the noise budget.

    Path i is driven by noise stream (seed, i), so nothing depends on the
    batching.  Yields (part, (k, x, alive[, a, c])): the batch's slice of
    `starts` and each step of its sweep.  Raises IntegrationError at the
    first step where a path is outside the radius guard r_guard.  A batch's
    noise block is released before the next one is drawn.
    """
    n, d = starts.shape
    for off, size in batch_sizes(n, max(n_steps, 1), d):
        part = slice(off, off + size)
        inc = increments_block(seed, off, size, n_steps, dt, d)
        for item in sweep(model, starts[part], dt, inc, r_guard):
            if not item[2].all():
                raise IntegrationError(f"a path left the radius guard at step {item[0]}", step=item[0])
            yield part, item
        del inc


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
