"""Smooth compactly supported test functions with analytic derivatives.

The building block is the standard mollifier-style bump

    sigma(x) = exp(1 / (|z|^2 - 1)),   z = (x - c) / rho,  |z| < 1,

extended by zero outside the ball of radius rho around the centre c.  It is
infinitely smooth, and its gradient and Hessian are available in closed
form, which keeps norm and estimator checks free of differentiation error.
The battery for a given problem combines bumps at a few centres and widths
with coordinate-times-bump products.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError

Array = np.ndarray

# Exponents below this value underflow exp() to an exact zero anyway; cutting
# early avoids 0 * inf in the derivative prefactors near the support edge.
_EXP_FLOOR = -600.0


@dataclass(frozen=True)
class TestFunction:
    """Scalar test function with analytic gradient and Hessian.

    All three callables broadcast over leading axes: value maps (..., d) to
    (...,), grad to (..., d) and hess to (..., d, d).
    """

    name: str
    dim: int
    value: Callable[[Array], Array]
    grad: Callable[[Array], Array]
    hess: Callable[[Array], Array]


def _bump_pieces(x: Array, center: Array, width: float):
    """Common intermediates: z, w = |z|^2 - 1, sigma, and the inside mask."""
    x = np.asarray(x, dtype=float)
    z = (x - center) / width
    w = np.sum(z * z, axis=-1) - 1.0
    inside = w < -1.0e-12
    w_safe = np.where(inside, w, -1.0)
    expo = 1.0 / w_safe
    live = inside & (expo > _EXP_FLOOR)
    sigma = np.where(live, np.exp(np.where(live, expo, _EXP_FLOOR)), 0.0)
    return z, w_safe, sigma, live


def bump(center: Sequence[float], width: float, name: str | None = None) -> TestFunction:
    """Bump of the given width centred at the given point."""
    center = np.asarray(center, dtype=float)
    d = center.shape[0]
    label = name or f"bump_c{'_'.join(f'{c:g}' for c in center)}_w{width:g}"

    def value(x):
        _, _, sigma, _ = _bump_pieces(x, center, width)
        return sigma

    def grad(x):
        z, w, sigma, live = _bump_pieces(x, center, width)
        v = 2.0 * z / width
        g = -v / (w * w)[..., None]
        return np.where(live[..., None], sigma[..., None] * g, 0.0)

    def hess(x):
        z, w, sigma, live = _bump_pieces(x, center, width)
        v = 2.0 * z / width
        vv = v[..., :, None] * v[..., None, :]
        w2 = (w * w)[..., None, None]
        w3 = (w * w * w)[..., None, None]
        eye = np.eye(d)
        h = vv / (w2 * w2) + 2.0 * vv / w3 - (2.0 / width**2) * eye / w2
        return np.where(live[..., None, None], sigma[..., None, None] * h, 0.0)

    return TestFunction(name=label, dim=d, value=value, grad=grad, hess=hess)


def coordinate_bump(
    center: Sequence[float], width: float, axis: int, name: str | None = None
) -> TestFunction:
    """Product x_axis * bump(center, width)."""
    base = bump(center, width)
    d = base.dim
    label = name or f"x{axis}{base.name}"
    e = np.zeros(d)
    e[axis] = 1.0

    def value(x):
        x = np.asarray(x, dtype=float)
        return x[..., axis] * base.value(x)

    def grad(x):
        x = np.asarray(x, dtype=float)
        return e * base.value(x)[..., None] + x[..., axis, None] * base.grad(x)

    def hess(x):
        x = np.asarray(x, dtype=float)
        g = base.grad(x)
        cross = e[:, None] * g[..., None, :] + g[..., :, None] * e[None, :]
        return cross + x[..., axis, None, None] * base.hess(x)

    return TestFunction(name=label, dim=d, value=value, grad=grad, hess=hess)


def constant(c: float, dim: int) -> TestFunction:
    """Constant function; gradient and Hessian vanish identically."""

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], float(c))

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (dim,))

    def hess(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (dim, dim))

    return TestFunction(name=f"const_{c:g}", dim=dim, value=value, grad=grad, hess=hess)


def coordinate(axis: int, dim: int) -> TestFunction:
    """Linear coordinate function f(x) = x_axis."""
    e = np.zeros(dim)
    e[axis] = 1.0

    def value(x):
        return np.asarray(x, dtype=float)[..., axis]

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(e, x.shape[:-1] + (dim,)).copy()

    def hess(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (dim, dim))

    return TestFunction(name=f"x{axis}", dim=dim, value=value, grad=grad, hess=hess)


def square(dim: int, axis: int = 0) -> TestFunction:
    """Quadratic f(x) = x_axis^2, handy against closed-form moments."""

    def value(x):
        return np.asarray(x, dtype=float)[..., axis] ** 2

    def grad(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (dim,))
        out[..., axis] = 2.0 * x[..., axis]
        return out

    def hess(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (dim, dim))
        out[..., axis, axis] = 2.0
        return out

    return TestFunction(name=f"x{axis}^2", dim=dim, value=value, grad=grad, hess=hess)


def shifted(f: TestFunction, offset: float, name: str | None = None) -> TestFunction:
    """f minus a constant; derivatives unchanged (used to centre under mu)."""
    label = name or f"{f.name}-{offset:g}"

    def value(x):
        return f.value(x) - offset

    return TestFunction(name=label, dim=f.dim, value=value, grad=f.grad, hess=f.hess)


_BATTERY_CENTERS = {
    1: [(0.0,), (0.8,), (-0.8,)],
    2: [(0.0, 0.0), (0.8, 0.0), (-0.8, 0.4)],
}

_DW_CENTERS = [(0.0,), (1.0,), (-1.0,)]

_BATTERY_WIDTHS = (1.0, 2.0)


def battery_for(problem) -> list[TestFunction]:
    """Standard 12-function battery for a TestProblem: 6 bumps and 6 coordinate products.

    Centres are placed in the bulk of the invariant law; the double-well
    problem gets centres at the origin and both wells.
    """
    dim = problem.dim
    if problem.tag.upper() == "DW1D":
        centers = _DW_CENTERS
    elif dim in _BATTERY_CENTERS:
        centers = _BATTERY_CENTERS[dim]
    else:
        centers = [tuple(np.zeros(dim)), tuple(0.8 * np.eye(dim)[0]), tuple(-0.8 * np.eye(dim)[0])]
    out: list[TestFunction] = []
    for width in _BATTERY_WIDTHS:
        for ci, c in enumerate(centers):
            out.append(bump(c, width, name=f"bump{ci}_w{width:g}"))
    for wi, width in enumerate(_BATTERY_WIDTHS):
        for ci, c in enumerate(centers):
            axis = (ci + wi) % dim
            out.append(coordinate_bump(c, width, axis, name=f"xbump{ci}_w{width:g}_a{axis}"))
    return out


def by_name(functions: Sequence[TestFunction], name: str) -> TestFunction:
    for f in functions:
        if f.name == name:
            return f
    raise ConfigError(f"no test function named {name!r}")
