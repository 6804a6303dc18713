"""Linearised flow along a trajectory: propagator, pathwise and noise derivatives.

Along a realised path X(t) the coefficient A(t) = K(X(t)) (the curvature
matrix, i.e. the Jacobian of the total drift) drives three linear systems:

    C' = A C,           C(0) = I     propagator / pathwise derivative of the flow
    Z' = A Z + g,       Z(0) = 0     derivative w.r.t. a perturbation of the noise
    T' = A T - g,       T(0) = I     their discrepancy, T = C - Z

with g a matrix-valued forcing (the control).  All three are advanced with
the same 4-stage Runge-Kutta step on the grid coefficients (midpoints use
linear interpolation), so the linear identity C = Z + T survives to
floating-point accuracy.  T is additionally reconstructed through the
Duhamel representation T(t) = C(t,0) - int_0^t C(t,s) g(s) ds, giving an
independent route for cross-validation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import engine
from .errors import ConfigError, DegeneracyError, IntegrationError
from .model import CoefficientModel, curvature_matrix
from .sde import Trajectory

if TYPE_CHECKING:
    from .control import ControlPath

Array = np.ndarray


@dataclass(frozen=True)
class DriftJacobianPath:
    """Grid of drift Jacobians A_k = K(X_k) along one trajectory."""

    times: Array  # (n+1,)
    matrices: Array  # (n+1, d, d)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]


@dataclass(frozen=True)
class FundamentalMatrix:
    """Grid of propagators C_k ~ C(t_k, 0) with positive determinant."""

    times: Array
    matrices: Array  # (n+1, d, d)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    def index_of(self, t: float) -> int:
        dt = self.dt
        k = int(round((t - self.times[0]) / dt))
        if k < 0 or k >= self.times.shape[0] or abs(self.times[k] - t) > 1.0e-9 * max(1.0, abs(t)):
            raise ConfigError(f"time {t} is not on the grid")
        return k


def drift_jacobian_path(model: CoefficientModel, traj: Trajectory) -> DriftJacobianPath:
    """Evaluate the drift Jacobian (curvature matrix) along a trajectory."""
    matrices = curvature_matrix(model, traj.states)
    return DriftJacobianPath(times=traj.times, matrices=matrices)


def _forcing_grid(control: "ControlPath", n_steps: int, sign: float) -> tuple[Array, Array]:
    """Stage forcings (left, right) per step, honouring the horizon jump.

    The control is zero from the horizon onwards; the step that lands
    exactly on the horizon uses the left-limit boundary value on its right
    stage, since the single jump point does not affect the integral.
    """
    d = control.values.shape[-1]
    n0 = control.horizon_index
    left = np.zeros((n_steps, d, d))
    right = np.zeros((n_steps, d, d))
    upto = min(n_steps, n0)
    left[:upto] = control.values[:upto]
    if upto >= 1:
        right[: upto - 1] = control.values[1:upto]
        right[upto - 1] = control.boundary
    return sign * left, sign * right


def _propagate_grid(
    a: Array, dt: float, y0: Array, forcing: tuple[Array, Array] | None = None
) -> Array:
    """Solve dY = A(t) Y + F(t) on the grid; A, Y batched over leading axes."""
    n_steps = a.shape[-3] - 1
    batch = a.shape[:-3]
    d = a.shape[-1]
    y = np.broadcast_to(y0, batch + (d, d)).copy()
    grids = np.empty(batch + (n_steps + 1, d, d))
    grids[..., 0, :, :] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            a0 = a[..., k, :, :]
            a1 = a[..., k + 1, :, :]
            a_half = 0.5 * (a0 + a1)
            if forcing is None:
                y = engine.rk4_step(y, dt, a0, a_half, a1)
            else:
                f0 = forcing[0][..., k, :, :]
                f1 = forcing[1][..., k, :, :]
                y = engine.rk4_step(y, dt, a0, a_half, a1, f0, 0.5 * (f0 + f1), f1)
            grids[..., k + 1, :, :] = y
    return grids


def fundamental_matrix(jac: DriftJacobianPath) -> FundamentalMatrix:
    """Propagator grid C(t_k, 0) from the identity, by the Runge-Kutta scheme."""
    grids = _propagate_grid(jac.matrices, jac.dt, np.eye(jac.dim))
    finite = np.all(np.isfinite(grids), axis=(-2, -1))
    if not np.all(finite):
        step = int(np.argmin(finite.reshape(-1, finite.shape[-1]).all(axis=0)))
        raise IntegrationError(
            f"propagator integration produced non-finite entries at step {step}",
            step=step,
        )
    dets = np.linalg.det(grids)
    if np.any(dets <= 0.0):
        raise DegeneracyError(
            "propagator determinant lost positivity; step size too large"
        )
    return FundamentalMatrix(times=jac.times, matrices=grids)


def propagator(c: FundamentalMatrix, t: float, s: float) -> Array:
    """Two-time propagator C(t, s) = C(t, 0) C(s, 0)^{-1}."""
    kt, ks = c.index_of(t), c.index_of(s)
    cs = c.matrices[ks]
    det = np.linalg.det(cs)
    if not np.isfinite(det) or abs(det) < 1.0e-300:
        raise DegeneracyError(f"propagator at time {s} is numerically singular")
    return c.matrices[kt] @ np.linalg.inv(cs)


def malliavin_flow(jac: DriftJacobianPath, control: "ControlPath") -> Array:
    """Noise-direction derivative grid: dZ = A Z + g, Z(0) = 0."""
    _check_alignment(jac, control)
    n_steps = jac.matrices.shape[0] - 1
    zero = np.zeros((jac.dim, jac.dim))
    return _propagate_grid(jac.matrices, jac.dt, zero, _forcing_grid(control, n_steps, +1.0))


@dataclass(frozen=True)
class ThetaResult:
    """Discrepancy grid from the direct system and its Duhamel reconstruction."""

    times: Array
    ode: Array  # (n+1, d, d)
    duhamel: Array  # (n+1, d, d)

    @property
    def route_mismatch(self) -> float:
        return float(np.max(np.abs(self.ode - self.duhamel)))


def theta_flow(jac: DriftJacobianPath, c: FundamentalMatrix, control: "ControlPath") -> ThetaResult:
    """Discrepancy grid: dT = A T - g, T(0) = I, plus the Duhamel route.

    The reconstruction uses T(t) = C(t,0) [I - int_0^{min(t,t0)} C(s,0)^{-1} g(s) ds]
    with the integral taken by the trapezoid rule on the grid; c must be
    `fundamental_matrix(jac)`, the propagator the control was built from.
    """
    dt = jac.dt
    _check_alignment(jac, control)
    if c.matrices.shape != jac.matrices.shape or not np.array_equal(c.times, jac.times):
        raise ConfigError("the propagator c is not on the grid of the jacobian path")
    n_steps = jac.matrices.shape[0] - 1
    eye = np.eye(jac.dim)
    ode = _propagate_grid(jac.matrices, dt, eye, _forcing_grid(control, n_steps, -1.0))

    n0 = min(control.horizon_index, n_steps)
    g_closed = control.values[: n0 + 1].copy()
    g_closed[n0] = control.boundary
    integrand = np.linalg.inv(c.matrices[: n0 + 1]) @ g_closed
    prefix = engine.trapezoid_prefix(integrand, dt, axis=0)
    full = np.empty_like(ode)
    full[: n0 + 1] = prefix
    full[n0 + 1 :] = prefix[n0]
    duhamel = c.matrices @ (eye - full)
    return ThetaResult(times=jac.times, ode=ode, duhamel=duhamel)


def _check_alignment(jac: DriftJacobianPath, control: "ControlPath") -> None:
    if control.values.shape[-1] != jac.dim:
        raise ConfigError(
            f"control dimension {control.values.shape[-1]} does not match flow dimension {jac.dim}"
        )
    if abs(control.dt - jac.dt) > 1.0e-12 * max(1.0, jac.dt):
        raise ConfigError(f"control grid dt {control.dt} does not match dt {jac.dt}")
