"""Coefficient fields of the generator and their derived analytic objects.

The generator acts on smooth f as

    G f = (1/2) exp(U) div[ exp(-U) (I + H) grad f ]
        = L f + A f,

with a scalar potential U and an antisymmetric matrix field H.  The two
pieces are

    L f = (1/2) Lap f - (1/2) grad U . grad f          (symmetric part)
    A f = (1/2) b . grad f,   b_j = sum_i (d_i H_ij - d_i U H_ij),

so the associated diffusion is dX = (-grad U + b)/2 dt + dw.  This module
holds the coefficient container, the built-in benchmark problems, and the
pointwise operations: drift b, curvature matrix K = (-hess U + jac b)/2
with its numerical-range supremum, and application of L, A and the full
generator to a test function.

All coefficient callables broadcast over leading axes, i.e. they accept
points of shape (..., d).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, EvaluationError

Array = np.ndarray

# Step scale for finite-difference Jacobians of the drift (used when a model
# carries no analytic jac_drift routine).
FD_DRIFT_STEP = 1.0e-5
# Absolute step of consistency_report's central differences of H.
FD_ANTISYM_STEP = 1.0e-5


@dataclass(frozen=True)
class CoefficientModel:
    """Potential, antisymmetric field and the derivatives the engine needs.

    grad_antisym returns the tensor of first derivatives of H with axis
    order (..., k, i, j) = (derivative index, row, column).  antisym None
    declares H = 0: the drift is then -grad U / 2 and neither field is
    evaluated on a sweep, while consistency_report still tests grad_antisym
    against finite differences of the zero H.  jac_drift, when
    present, returns the Jacobian of b with entries [..., j, j'] = d b_j / d x_j';
    otherwise it is zero when antisym is None (b = 0), and approximated by
    central differences of the drift with step FD_DRIFT_STEP * (1 + |x|)
    when H is given.
    """

    dim: int
    potential: Callable[[Array], Array]
    grad_potential: Callable[[Array], Array]
    hess_potential: Callable[[Array], Array]
    antisym: Optional[Callable[[Array], Array]]
    grad_antisym: Callable[[Array], Array]
    jac_drift: Optional[Callable[[Array], Array]] = None
    name: str = "custom"

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"dimension must be positive, got {self.dim}")


@dataclass(frozen=True)
class TestProblem:
    """A concrete coefficient model plus analytic reference data.

    stationary_sampler(rng, n) returns n iid draws (n, d) from the invariant
    law exp(-U)/Z, using only rng; a custom problem supplies its own.
    """

    tag: str
    model: CoefficientModel
    stationary_sampler: Callable[[np.random.Generator, int], Array]
    # Default exponential-integrability parameter; any value is admissible
    # for the built-ins, chosen so that unit control horizons stay feasible
    # where the curvature allows it.
    gamma0_default: float = 8.0

    @property
    def dim(self) -> int:
        return self.model.dim


def _finite_or_raise(value: Array, what: str, x: Array) -> Array:
    if not np.all(np.isfinite(value)):
        raise EvaluationError(f"non-finite {what} evaluation", point=np.asarray(x))
    return value


def drift_b(model: CoefficientModel, x: Array) -> Array:
    """Antisymmetric-part drift b_j = sum_i (d_i H_ij - d_i U H_ij)."""
    x = np.asarray(x, dtype=float)
    if model.antisym is None:
        return np.zeros(x.shape)
    grad_h = model.grad_antisym(x)
    grad_u = model.grad_potential(x)
    h = model.antisym(x)
    # each sum over i added in index order, one batch-wide operation per term
    b = np.empty(x.shape)
    for j in range(x.shape[-1]):
        div_h = grad_h[..., 0, 0, j]
        u_h = grad_u[..., 0] * h[..., 0, j]
        for i in range(1, x.shape[-1]):
            div_h = div_h + grad_h[..., i, i, j]
            u_h += grad_u[..., i] * h[..., i, j]
        np.subtract(div_h, u_h, out=b[..., j])
    return _finite_or_raise(b, "drift", x)


def total_drift(model: CoefficientModel, x: Array) -> Array:
    """Drift of the associated diffusion, (-grad U + b) / 2.

    Returns a fresh array, which `engine.sweep` updates in place.  Its
    finiteness is not checked here: `engine.sweep`, the one caller, raises
    on the non-finite state a non-finite drift makes.
    """
    x = np.asarray(x, dtype=float)
    if model.antisym is None:
        # b = 0 as a scalar, not a zeros array: the same bits, down to the
        # sign of the zero drift at a critical point of U
        return 0.5 * (0.0 - model.grad_potential(x))
    return 0.5 * (drift_b(model, x) - model.grad_potential(x))


def _fd_jac_drift(model: CoefficientModel, x: Array) -> Array:
    """Central-difference Jacobian of the drift b, step scaled by 1 + |x|."""
    x = np.asarray(x, dtype=float)
    d = model.dim
    step = FD_DRIFT_STEP * (1.0 + np.linalg.norm(x, axis=-1))
    out = np.empty(x.shape[:-1] + (d, d), dtype=float)
    for j in range(d):
        shift = np.zeros(d)
        shift[j] = 1.0
        h = step[..., None] * shift
        out[..., :, j] = (drift_b(model, x + h) - drift_b(model, x - h)) / (
            2.0 * step[..., None]
        )
    return out


def antisym_field(model: CoefficientModel, x: Array) -> Array:
    """H at x, shape (..., d, d); zeros when the model declares H = 0."""
    x = np.asarray(x, dtype=float)
    if model.antisym is None:
        return np.zeros(x.shape[:-1] + (model.dim, model.dim))
    return model.antisym(x)


def jac_drift(model: CoefficientModel, x: Array) -> Array:
    """Jacobian of b: analytic when the model carries it, zero when H = 0, else central FD."""
    if model.jac_drift is not None:
        return np.asarray(model.jac_drift(np.asarray(x, dtype=float)), dtype=float)
    if model.antisym is None:
        return np.zeros(np.shape(x)[:-1] + (model.dim, model.dim))
    return _fd_jac_drift(model, x)


def constant_curvature(model: CoefficientModel) -> Optional[Array]:
    """K as one (d, d) matrix when hess U and jac b are constant fields, else None.

    A field is constant when it comes from `_constant_field`; jac b is also
    constant when the model has neither jac_drift nor H (b = 0).
    """
    hess = getattr(model.hess_potential, "constant_value", None)
    if model.jac_drift is not None:
        jac = getattr(model.jac_drift, "constant_value", None)
    else:
        jac = np.zeros((model.dim, model.dim)) if model.antisym is None else None
    if hess is None or jac is None:
        return None
    return 0.5 * (jac - hess)


def curvature_matrix(model: CoefficientModel, x: Array) -> Array:
    """Curvature matrix K = (-hess U + jac b) / 2, shape (..., d, d).

    Where `constant_curvature` finds K, it is returned as a read-only view
    broadcast over x's points, with the bits of the pointwise form.
    """
    x = np.asarray(x, dtype=float)
    k = constant_curvature(model)
    if k is not None:
        return np.broadcast_to(_finite_or_raise(k, "curvature", x), x.shape[:-1] + k.shape)
    k = 0.5 * (jac_drift(model, x) - model.hess_potential(x))
    return _finite_or_raise(k, "curvature", x)


def numerical_range_sup(matrix: Array) -> Array:
    """Largest eigenvalue of the symmetric part; max of <K l, l> over |l| = 1."""
    sym = 0.5 * (matrix + np.swapaxes(matrix, -1, -2))
    return np.linalg.eigvalsh(sym)[..., -1]


def curvature_sup(model: CoefficientModel, x: Array) -> Array:
    """Vectorised numerical-range supremum of the curvature along points."""
    return numerical_range_sup(curvature_matrix(model, x))


def apply_L(model: CoefficientModel, f, x: Array) -> Array:
    """Symmetric part: (1/2) Lap f - (1/2) grad U . grad f."""
    x = np.asarray(x, dtype=float)
    lap = np.einsum("...ii->...", f.hess(x))
    adv = np.einsum("...i,...i->...", model.grad_potential(x), f.grad(x))
    out = 0.5 * (lap - adv)
    return _finite_or_raise(out, "L application", x)


def apply_A(model: CoefficientModel, f, x: Array) -> Array:
    """Antisymmetric part: (1/2) b . grad f."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * np.einsum("...i,...i->...", drift_b(model, x), f.grad(x))
    return _finite_or_raise(out, "A application", x)


def apply_generator(model: CoefficientModel, f, x: Array) -> Array:
    """Full generator, the sum of the symmetric and antisymmetric parts."""
    return apply_L(model, f, x) + apply_A(model, f, x)


def consistency_report(model: CoefficientModel, points: Array) -> dict:
    """Max deviations of the structural coefficient identities on a point set.

    Returns entrywise maxima of |H + H^T|, |hess U - (hess U)^T| and the
    mismatch between grad_antisym and central differences of antisym.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = model.dim
    h = antisym_field(model, points)
    antisym_dev = float(np.max(np.abs(h + np.swapaxes(h, -1, -2))))
    hess = model.hess_potential(points)
    hess_dev = float(np.max(np.abs(hess - np.swapaxes(hess, -1, -2))))
    fd_dev = 0.0
    for k in range(d):
        shift = np.zeros(d)
        shift[k] = FD_ANTISYM_STEP
        fd = (antisym_field(model, points + shift) - antisym_field(model, points - shift)) / (
            2.0 * FD_ANTISYM_STEP
        )
        fd_dev = max(fd_dev, float(np.max(np.abs(fd - model.grad_antisym(points)[..., k, :, :]))))
    return {
        "antisym_max_dev": antisym_dev,
        "hess_sym_max_dev": hess_dev,
        "grad_antisym_fd_max_dev": fd_dev,
    }


# ---------------------------------------------------------------------------
# Built-in benchmark problems
# ---------------------------------------------------------------------------


def _constant_field(value) -> Callable[[Array], Array]:
    """A field equal to value at every point, as a read-only broadcast view.

    The field carries its value as `constant_value`, which
    `constant_curvature` reads.
    """
    value = np.array(value, dtype=float)
    value.flags.writeable = False

    def fn(x):
        return np.broadcast_to(value, np.shape(x)[:-1] + value.shape)

    fn.constant_value = value
    return fn


def _zeros_tensor(d: int):
    return _constant_field(np.zeros((d, d, d)))


def _gaussian_sampler(d: int):
    def sample(rng: np.random.Generator, n: int) -> Array:
        return rng.standard_normal((n, d))

    return sample


def make_ou1d() -> TestProblem:
    """d = 1, U = x^2 / 2, H = 0: unit-variance mean-reverting benchmark."""
    model = CoefficientModel(
        dim=1,
        potential=lambda x: 0.5 * np.asarray(x, dtype=float)[..., 0] ** 2,
        grad_potential=lambda x: np.asarray(x, dtype=float),
        hess_potential=_constant_field(np.eye(1)),
        antisym=None,
        grad_antisym=_zeros_tensor(1),
        name="OU1D",
    )
    return TestProblem(
        tag="OU1D",
        model=model,
        stationary_sampler=_gaussian_sampler(1),
        gamma0_default=8.0,
    )


def make_rot2d(h: float = 1.0) -> TestProblem:
    """d = 2, U = |x|^2 / 2 with a constant antisymmetric field of strength h."""

    antisym = _constant_field([[0.0, h], [-h, 0.0]])
    model = CoefficientModel(
        dim=2,
        potential=lambda x: 0.5 * np.sum(np.asarray(x, dtype=float) ** 2, axis=-1),
        grad_potential=lambda x: np.asarray(x, dtype=float),
        hess_potential=_constant_field(np.eye(2)),
        antisym=antisym,
        grad_antisym=_zeros_tensor(2),
        jac_drift=antisym,  # b = -H^T x = H x, so the Jacobian of b is H
        name="ROT2D",
    )
    return TestProblem(
        tag="ROT2D",
        model=model,
        stationary_sampler=_gaussian_sampler(2),
        gamma0_default=8.0,
    )


def make_varh2d() -> TestProblem:
    """d = 2, U = |x|^2 / 2 with state-dependent H_12(x) = x_1."""

    def antisym(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 1] = x[..., 0]
        out[..., 1, 0] = -x[..., 0]
        return out

    def grad_antisym(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 1] = 1.0
        out[..., 0, 1, 0] = -1.0
        return out

    def jac(x):
        # b = (x1 x2, 1 - x1^2)
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = x[..., 1]
        out[..., 0, 1] = x[..., 0]
        out[..., 1, 0] = -2.0 * x[..., 0]
        return out

    model = CoefficientModel(
        dim=2,
        potential=lambda x: 0.5 * np.sum(np.asarray(x, dtype=float) ** 2, axis=-1),
        grad_potential=lambda x: np.asarray(x, dtype=float),
        hess_potential=_constant_field(np.eye(2)),
        antisym=antisym,
        grad_antisym=grad_antisym,
        jac_drift=jac,
        name="VARH2D",
    )
    return TestProblem(
        tag="VARH2D",
        model=model,
        stationary_sampler=_gaussian_sampler(2),
        gamma0_default=2.0,
    )


# Proposal standard deviation of DW1D's rejection sampler.
DW1D_PROPOSAL_SD = 1.1


def _dw1d_log_acceptance(x: Array) -> Array:
    """Log acceptance ratio exp(-U(x)) / (M exp(-x^2 / (2 s^2))), s = DW1D_PROPOSAL_SD.

    With y = x^2 the exponent -(y - 1)^2 + y / (2 s^2) peaks at
    y = 1 + 1 / (4 s^2), where it equals log M = 1 / (2 s^2) + 1 / (16 s^4),
    so the ratio is at most 1 and reaches 1 there.
    """
    inv = 1.0 / (2.0 * DW1D_PROPOSAL_SD**2)
    y = x * x
    return -((y - 1.0) ** 2) + y * inv - (inv + 0.25 * inv * inv)


def _dw1d_sampler(rng: np.random.Generator, n: int) -> Array:
    """Rejection from N(0, s^2) (Robert and Casella 2004, sec. 2.3); about 45 % accepted.

    Proposals and their uniforms come from two child streams of rng, and
    the first n accepted proposals are kept, so the draws depend neither on
    the round size nor on n: a smaller ensemble is a prefix of a larger one.
    """
    normals, uniforms = rng.spawn(2)
    kept, have = [], 0
    while have < n:
        x = DW1D_PROPOSAL_SD * normals.standard_normal(3 * (n - have))
        accepted = x[np.log(uniforms.uniform(size=x.size)) < _dw1d_log_acceptance(x)]
        kept.append(accepted)
        have += accepted.size
    return np.concatenate(kept)[:n, None]


def make_dw1d() -> TestProblem:
    """d = 1, double-well potential U = (x^2 - 1)^2, H = 0."""

    def grad(x):
        x = np.asarray(x, dtype=float)
        # x * x * x, not x**3: numpy sends an exponent of 3 to libm pow.
        return 4.0 * (x * x * x) - 4.0 * x

    def hess(x):
        x = np.asarray(x, dtype=float)
        return (12.0 * x[..., 0] ** 2 - 4.0)[..., None, None]

    model = CoefficientModel(
        dim=1,
        potential=lambda x: (np.asarray(x, dtype=float)[..., 0] ** 2 - 1.0) ** 2,
        grad_potential=grad,
        hess_potential=hess,
        antisym=None,
        grad_antisym=_zeros_tensor(1),
        name="DW1D",
    )
    return TestProblem(
        tag="DW1D", model=model, stationary_sampler=_dw1d_sampler, gamma0_default=1.0
    )


_BUILDERS = {
    "OU1D": make_ou1d,
    "ROT2D": make_rot2d,
    "VARH2D": make_varh2d,
    "DW1D": make_dw1d,
}

PROBLEM_TAGS = tuple(_BUILDERS)


def make_problem(tag: str, **params) -> TestProblem:
    """Instantiate a built-in benchmark problem by tag."""
    key = tag.upper()
    if key not in _BUILDERS:
        raise ConfigError(f"unknown problem tag {tag!r}; known: {', '.join(PROBLEM_TAGS)}")
    try:
        return _BUILDERS[key](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {key}: {exc}") from None
