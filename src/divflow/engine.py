"""Batched numerical kernels shared by the simulation and estimator layers.

Noise is reproducible per path: the increments of path p under master seed s
are a pure function of (s, p), independent of batching, thread count or
which estimator consumes them.  Path sweeps are vectorised over a batch
axis; linear matrix systems along a path are advanced with the classical
4-stage Runge-Kutta step, evaluating the (piecewise-linearly interpolated)
coefficient at the half point.
"""
from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, EvaluationError, IntegrationError
from .model import CoefficientModel, constant_curvature, curvature_matrix, total_drift


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
# Doubles in the tile that each path's draws are made in before they are
# copied into the (step-major) noise block: 512 KiB.
_TILE_DOUBLES = 2**16


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
    its row of a tile with standard normals, and each tile is scaled and
    copied into out, which may have any layout.  numpy's `normal` returns
    0.0 + scale * z, hence the + 0.0 (it turns a -0.0 into 0.0).  A single
    path takes numpy's own seeding (about 15 us), which costs less than the
    vectorised pass's fixed cost (about 170 us), and is drawn into out[0]
    directly; both give the same stream.
    """
    master_seed, start_index, n = int(master_seed), int(start_index), out.shape[0]
    if master_seed < 0 or start_index < 0:
        raise ConfigError(f"seed and path index must be nonnegative, got ({master_seed}, {start_index})")
    if start_index + n > 1 << 32:
        raise ConfigError(f"path index {start_index + n - 1} does not fit in 32 bits")
    scale = np.sqrt(dt)
    if n == 1:
        np.random.default_rng(np.random.SeedSequence((master_seed, start_index))).standard_normal(out=out[0])
        out *= scale
        out += 0.0
        return out
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    states = itertools.chain.from_iterable(
        _pcg64_states(master_seed, start_index + chunk, min(_STATE_CHUNK, n - chunk))
        for chunk in range(0, n, _STATE_CHUNK)
    )
    tile = np.empty((min(n, max(1, _TILE_DOUBLES // max(1, out[0].size))),) + out.shape[1:])
    # Each step's dim draws move as one item, so that the copy's inner loop
    # runs along the paths rather than along a short last axis.
    step = np.dtype((np.void, out.itemsize * out.shape[-1]))
    for first in range(0, n, tile.shape[0]):
        part = tile[: n - first]
        for row, (s, inc) in zip(part, itertools.islice(states, part.shape[0])):
            state["state"] = {"state": s, "inc": inc}
            bitgen.state = state
            gen.standard_normal(out=row)
        part *= scale
        part += 0.0
        out[first : first + part.shape[0]].view(step)[...] = part.view(step)
    return out


def normal_increments(
    master_seed: int, path_index: int, count: int, dt: float, dim: int
) -> Array:
    """Wiener increments of one path: count x dim draws from N(0, dt I)."""
    return _fill_increments(np.empty((1, count, dim)), master_seed, path_index, dt)[0]


def increments_block(
    master_seed: int, start_index: int, n_paths: int, count: int, dt: float, dim: int
) -> Array:
    """Increments for paths [start_index, start_index + n_paths), stacked.

    The (n_paths, count, dim) result is a view of a step-major block, so
    each step's row [:, k] is contiguous across the paths.
    """
    block = np.empty((count, n_paths, dim))
    return _fill_increments(block.transpose(1, 0, 2), master_seed, start_index, dt)


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
    alive = _squared_norm(x) <= r2
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
        sq = _squared_norm(x_new)
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


def _squared_norm(x: Array) -> Array:
    """x[..., 0]^2 + x[..., 1]^2 + ..., added in index order."""
    sq = x[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        sq += x[..., i] * x[..., i]
    return sq


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
    While every path is alive, no mask is applied, and C is a (B, d, d)
    view of an entry-major (d, d, B) array, the layout `rk4_step` computes in.
    Where `constant_curvature` finds K, the midpoint matrix is A itself,
    which (A + A) / 2 equals bit for bit wherever A + A does not overflow;
    that saves forming a whole-batch midpoint at every step.  Every
    yielded C is a fresh array.
    """
    steps = sweep(model, x0, dt, increments, r_guard)
    _, x, alive = next(steps)
    a = curvature_matrix(model, _live(x, alive))
    d = x.shape[-1]
    c = np.broadcast_to(np.eye(d)[:, :, None], (d, d, x.shape[0])).copy().transpose(2, 0, 1)
    constant = constant_curvature(model) is not None
    yield 0, x, alive, a, c
    for k, x, alive_new in steps:
        a_new = curvature_matrix(model, _live(x, alive_new))
        a_half = a_new if constant else 0.5 * (a + a_new)
        with np.errstate(over="ignore", invalid="ignore"):
            c_new = rk4_step(c, dt, a, a_half, a_new)
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


@dataclass(frozen=True)
class Cells:
    """Named residuals whose null mean is 0, each tested at 3 SE.

    Tuples rather than arrays, so that two results compare with ==.  A nan
    SE (one sample) fails its cell.
    """

    names: tuple[str, ...]
    residual: tuple[float, ...]
    se: tuple[float, ...]

    @classmethod
    def of(cls, samples) -> "Cells":
        """One cell per (name, 1-D residual samples) pair: the mean and its SE."""
        names, residual, se = [], [], []
        for name, values in samples:
            mean, err = map(float, mean_and_se(values))
            names.append(name)
            residual.append(mean)
            se.append(err)
        return cls(tuple(names), tuple(residual), tuple(se))

    @property
    def passed(self) -> bool:
        return all(abs(r) <= 3.0 * s + 1.0e-12 for r, s in zip(self.residual, self.se))

    @property
    def worst(self) -> float:
        """The largest |residual| in units of 3 SE."""
        return max(abs(r) / (3.0 * s + 1.0e-300) for r, s in zip(self.residual, self.se))


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

    A and F are supplied at the step endpoints and midpoint; leading batch
    axes broadcast as in matmul.  The products A Y are `_product`'s
    fixed-order sums, so the bits of a path depend neither on the BLAS
    build nor on the batch it runs in.  Y and F are copied entry-major,
    unless they are already laid out so, so that every sum runs over
    contiguous whole-batch rows; A is only read, through an entry-major
    view.  The stages k1..k4 and the stage points are formed in place in
    one scratch array, and every sum keeps the order of
    y + dt/6 (k1 + 2 (k2 + k3) + k4).  The (..., n, m) result is a view of
    a new entry-major array: its batch axes are last in memory, and it
    passes back in without a copy.
    """
    batch_ndim = max(map(np.ndim, (y, a0, a_half, a1, f0, f_half, f1))) - 2
    a0, a_half, a1 = (_entry_major(v, batch_ndim) for v in (a0, a_half, a1))
    y, f0, f_half, f1 = (
        np.ascontiguousarray(_entry_major(v, batch_ndim)) if np.ndim(v) else v for v in (y, f0, f_half, f1)
    )
    shape = np.broadcast(y, a0[:, :1], a_half[:, :1], a1[:, :1], f0, f_half, f1).shape  # (n, m, *batch)
    k1, k2, k3, z, tmp = np.empty((5,) + shape)
    _product(a0, y, k1, tmp)
    k1 += f0
    np.multiply(k1, 0.5 * dt, out=z)
    z += y
    _product(a_half, z, k2, tmp)
    k2 += f_half
    np.multiply(k2, 0.5 * dt, out=z)
    z += y
    _product(a_half, z, k3, tmp)
    k3 += f_half
    np.multiply(k3, dt, out=z)
    z += y
    k2 += k3
    k4 = _product(a1, z, k3, tmp)
    k4 += f1
    k2 *= 2.0
    k2 += k1
    k2 += k4
    k2 *= dt / 6.0
    out = y + k2
    return out.transpose(tuple(range(2, out.ndim)) + (0, 1))


def _entry_major(x, batch_ndim: int) -> Array:
    """A (..., n, m) array viewed as (n, m, ...) with batch_ndim batch axes.

    Missing batch axes become leading axes of length one, so batches
    broadcast from the right as in matmul.
    """
    x = np.asarray(x, dtype=float)
    x = x.reshape((1,) * (batch_ndim + 2 - x.ndim) + x.shape)
    return x.transpose((batch_ndim, batch_ndim + 1) + tuple(range(batch_ndim)))


def _product(a: Array, y: Array, out: Array, tmp: Array) -> Array:
    """The matrix product of entry-major stacks, (n, l, ...) by (l, m, ...), into out.

    Entry (i, j) is a[i, 0] y[0, j] + a[i, 1] y[1, j] + ..., each product
    rounded and added in index order; each term is formed for every entry
    and path in one operation, in tmp.
    """
    np.multiply(a[:, 0, None], y[None, 0], out=out)
    for k in range(1, y.shape[0]):
        out += np.multiply(a[:, k, None], y[None, k], out=tmp)
    return out


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
