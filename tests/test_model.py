"""Coefficient model: drift, curvature, generator pieces against oracles."""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from numpy.testing import assert_allclose, assert_array_equal

import divflow as dv
from divflow import engine
from divflow.model import constant_curvature, jac_drift

from conftest import random_points


# ---------------------------------------------------------------------------
# finite-difference oracle for the raw divergence form
# ---------------------------------------------------------------------------


def divergence_form_fd(model, f, x, h=1.0e-4):
    """Central-difference evaluation of (1/2) e^U div[e^{-U}(I+H) grad f].

    Only f's analytic gradient enters; the outer divergence is numerical, so
    this is independent of the split into symmetric and drift parts.  The
    weight is taken relative to the centre point (e^{U(x) - U(y)}), which is
    algebraically identical and keeps the differences well conditioned for
    fast-growing potentials.
    """
    x = np.asarray(x, dtype=float)
    d = model.dim
    u_center = model.potential(x)
    # Truncation error carries |grad U|^3; shrink the step accordingly.
    step = h / (1.0 + np.linalg.norm(model.grad_potential(x), axis=-1))

    def flux(y):
        weight = np.exp(u_center - model.potential(y))
        grad = f.grad(y)
        if model.antisym is None:  # H = 0
            return weight[..., None] * grad
        skew = np.einsum("...ij,...j->...i", model.antisym(y), grad)
        return weight[..., None] * (grad + skew)

    total = np.zeros(x.shape[:-1])
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        offset = step[..., None] * e
        total = total + (flux(x + offset)[..., i] - flux(x - offset)[..., i]) / (2.0 * step)
    return 0.5 * total


def drift_fd_oracle(model, x, h=1.0e-4):
    """b_j recovered from the divergence form applied to coordinates."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(model.dim):
        f = dv.coordinate(j, model.dim)
        cols.append(2.0 * divergence_form_fd(model, f, x, h) + model.grad_potential(x)[..., j])
    return np.stack(cols, axis=-1)


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------


def test_drift_ou_vanishes(ou1d):
    assert_allclose(dv.drift_b(ou1d.model, [0.7]), [0.0], atol=1e-14)


def test_drift_rot2d_constant_field(rot2d):
    assert_allclose(dv.drift_b(rot2d.model, [1.0, 2.0]), [2.0, -1.0], atol=1e-14)


def test_drift_varh2d_symbolic_oracle(varh2d):
    x1, x2 = sp.symbols("x1 x2")
    u_sym = (x1**2 + x2**2) / 2
    h_sym = sp.Matrix([[0, x1], [-x1, 0]])
    coords = [x1, x2]
    b_sym = [
        sum(
            sp.diff(h_sym[i, j], coords[i]) - sp.diff(u_sym, coords[i]) * h_sym[i, j]
            for i in range(2)
        )
        for j in range(2)
    ]
    b_fn = sp.lambdify((x1, x2), b_sym, "numpy")
    assert_allclose(dv.drift_b(varh2d.model, [1.0, 1.0]), [1.0, 0.0], atol=1e-14)
    for pt in random_points(2, 25, seed=1):
        assert_allclose(dv.drift_b(varh2d.model, pt), np.array(b_fn(*pt), dtype=float), atol=1e-12)


@pytest.mark.parametrize("tag", ["OU1D", "ROT2D", "VARH2D", "DW1D"])
def test_drift_matches_divergence_form_fd(tag, all_problems):
    problem = next(p for p in all_problems if p.tag == tag)
    pts = random_points(problem.dim, 100, seed=7, scale=1.0)
    fd = drift_fd_oracle(problem.model, pts)
    assert_allclose(dv.drift_b(problem.model, pts), fd, atol=5e-6, rtol=1e-5)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_curvature_ou_constant(ou1d):
    for x in ([0.0], [1.3], [-2.0]):
        assert_allclose(dv.curvature_matrix(ou1d.model, x), [[-0.5]], atol=1e-14)
        assert dv.curvature_sup(ou1d.model, x) == pytest.approx(-0.5, abs=1e-14)


def test_curvature_rot2d_sup_independent_of_h():
    for h in (0.0, 1.0, 10.0):
        problem = dv.make_rot2d(h)
        assert dv.curvature_sup(problem.model, [0.4, -1.1]) == -0.5


def test_curvature_dw1d(dw1d):
    assert dv.curvature_sup(dw1d.model, [0.0]) == pytest.approx(2.0, abs=1e-14)
    for x in (-1.5, -0.2, 0.9):
        assert dv.curvature_sup(dw1d.model, [x]) == pytest.approx(2.0 - 6.0 * x * x, abs=1e-12)


@pytest.mark.parametrize("tag", ["ROT2D", "VARH2D"])
def test_curvature_sup_dominates_sampled_directions(tag, all_problems):
    problem = next(p for p in all_problems if p.tag == tag)
    rng = np.random.default_rng(5)
    for pt in random_points(problem.dim, 5, seed=11):
        k = dv.curvature_matrix(problem.model, pt)
        dirs = rng.standard_normal((1000, problem.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sampled = np.einsum("ni,ij,nj->n", dirs, k, dirs).max()
        assert sampled <= dv.curvature_sup(problem.model, pt) + 1e-6


def test_fd_jacobian_fallback_matches_analytic(varh2d):
    bare = dv.CoefficientModel(
        dim=2,
        potential=varh2d.model.potential,
        grad_potential=varh2d.model.grad_potential,
        hess_potential=varh2d.model.hess_potential,
        antisym=varh2d.model.antisym,
        grad_antisym=varh2d.model.grad_antisym,
        jac_drift=None,
    )
    for pt in random_points(2, 20, seed=3):
        assert_allclose(
            dv.curvature_matrix(bare, pt), dv.curvature_matrix(varh2d.model, pt), atol=1e-8
        )


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------


def test_apply_l_examples(ou1d, dw1d):
    f1 = dv.coordinate(0, 1)
    f2 = dv.square(1)
    assert dv.apply_L(ou1d.model, f1, np.array([1.0])) == pytest.approx(-0.5)
    assert dv.apply_L(ou1d.model, f2, np.array([1.0])) == pytest.approx(0.0, abs=1e-14)
    # symbolic: (1/2) f'' - (1/2) U' f' with U = (x^2-1)^2 at x = 1/2
    x = sp.symbols("x")
    lf = sp.diff(x, x, 2) / 2 - sp.diff((x**2 - 1) ** 2, x) * sp.diff(x, x) / 2
    expected = float(lf.subs(x, sp.Rational(1, 2)))
    assert expected == pytest.approx(0.75)
    assert dv.apply_L(dw1d.model, f1, np.array([0.5])) == pytest.approx(expected)


def test_apply_a_examples(ou1d, rot2d, varh2d):
    f = dv.bump([0.0], 1.0)
    assert dv.apply_A(ou1d.model, f, np.array([0.3])) == pytest.approx(0.0, abs=1e-15)
    assert dv.apply_A(rot2d.model, dv.coordinate(0, 2), np.array([1.0, 2.0])) == pytest.approx(1.0)
    assert dv.apply_A(varh2d.model, dv.coordinate(1, 2), np.array([1.0, 1.0])) == pytest.approx(
        0.0, abs=1e-15
    )


def test_apply_generator_examples(ou1d, rot2d):
    assert dv.apply_generator(ou1d.model, dv.square(1), np.array([0.0])) == pytest.approx(1.0)
    assert dv.apply_generator(rot2d.model, dv.coordinate(0, 2), np.array([1.0, 2.0])) == pytest.approx(0.5)


@pytest.mark.parametrize("tag", ["OU1D", "ROT2D", "VARH2D", "DW1D"])
def test_generator_equals_l_plus_a_and_divergence_form(tag, all_problems):
    problem = next(p for p in all_problems if p.tag == tag)
    f = dv.bump(np.zeros(problem.dim), 2.0)
    pts = random_points(problem.dim, 100, seed=13, scale=1.0)
    total = dv.apply_generator(problem.model, f, pts)
    split = dv.apply_L(problem.model, f, pts) + dv.apply_A(problem.model, f, pts)
    assert_allclose(total, split, rtol=0, atol=1e-15)
    fd = divergence_form_fd(problem.model, f, pts)
    assert_allclose(total, fd, atol=5e-6)


def test_total_drift_examples(ou1d, rot2d, dw1d):
    assert_allclose(dv.total_drift(ou1d.model, [1.0]), [-0.5])
    assert_allclose(dv.total_drift(rot2d.model, [1.0, 2.0]), [0.5, -1.5])
    assert_allclose(dv.total_drift(dw1d.model, [1.0]), [0.0], atol=1e-14)


def test_dw1d_derivatives_match_exact_arithmetic(dw1d):
    """U' = 4x^3 - 4x and U'' = 12x^2 - 4 against rational evaluation.

    The error is measured in ulp of the sum of the terms' magnitudes, which
    bounds a few roundings of any order of evaluation, also where the terms
    cancel (x = +-1).
    """
    special = [0.0, 1.0, -1.0, 3.0, -3.0, 50.0, -50.0, 1.0e-3, 0.5, 1.0 + 2.0**-30]
    grid = np.concatenate([special, random_points(1, 200, 9)[:, 0]])
    grad = dw1d.model.grad_potential(grid[:, None])[:, 0]
    hess = dw1d.model.hess_potential(grid[:, None])[:, 0, 0]
    for x, g, h in zip(grid.tolist(), grad.tolist(), hess.tolist()):
        q, a = Fraction(x), abs(x)
        assert abs(Fraction(g) - (4 * q**3 - 4 * q)) <= 4 * math.ulp(4 * a**3 + 4 * a), x
        assert abs(Fraction(h) - (12 * q**2 - 4)) <= 4 * math.ulp(12 * a * a + 4), x


# ---------------------------------------------------------------------------
# structural invariants and errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tag", ["OU1D", "ROT2D", "VARH2D", "DW1D"])
def test_coefficient_consistency(tag, all_problems):
    problem = next(p for p in all_problems if p.tag == tag)
    pts = random_points(problem.dim, 50, seed=17)
    report = dv.consistency_report(problem.model, pts)
    assert report["antisym_max_dev"] == 0.0
    assert report["hess_sym_max_dev"] == 0.0
    assert report["grad_antisym_fd_max_dev"] < 1e-6


def test_non_finite_coefficient_raises(ou1d):
    evil = dv.CoefficientModel(
        dim=1,
        potential=ou1d.model.potential,
        grad_potential=lambda x: np.full_like(np.asarray(x, dtype=float), np.nan),
        hess_potential=ou1d.model.hess_potential,
        antisym=ou1d.model.antisym,
        grad_antisym=ou1d.model.grad_antisym,
    )
    # the sweep's finiteness test catches the drift's NaN and names the step
    with pytest.raises(dv.IntegrationError) as err:
        for _ in engine.sweep(evil, np.ones((1, 1)), 1e-3, np.zeros((1, 3, 1))):
            pass
    assert err.value.step == 1


def test_make_problem_registry():
    assert dv.make_problem("ou1d").tag == "OU1D"
    assert dv.make_problem("ROT2D", h=3.0).model.antisym(np.zeros(2))[0, 1] == 3.0
    with pytest.raises(dv.ConfigError):
        dv.make_problem("NOPE")


# ---------------------------------------------------------------------------
# antisym None is an exact zero H
# ---------------------------------------------------------------------------


def _assert_bits_equal(actual, expected):
    assert_array_equal(actual, expected)
    assert_array_equal(np.signbit(actual), np.signbit(expected))


@pytest.mark.parametrize("tag", ["OU1D", "DW1D"])
def test_antisym_none_is_bit_identical_to_an_explicit_zero_h(tag, all_problems):
    problem = next(p for p in all_problems if p.tag == tag)
    model, d = problem.model, problem.dim
    assert model.antisym is None
    zeros = dataclasses.replace(model, antisym=lambda x: np.zeros(np.asarray(x).shape[:-1] + (d, d)))
    # random points plus the stationary points of U, where the drift is a signed zero
    pts = np.concatenate(
        [random_points(d, 200, seed=31), np.zeros((1, d)), np.ones((1, d)), -np.ones((1, d))]
    )
    for fn in (dv.drift_b, dv.total_drift):
        _assert_bits_equal(fn(model, pts), fn(zeros, pts))
    for f in (dv.coordinate(0, d), dv.square(d), dv.bump(np.full(d, 0.3), 1.0)):
        _assert_bits_equal(dv.apply_generator(model, f, pts), dv.apply_generator(zeros, f, pts))
    assert dv.consistency_report(model, pts) == dv.consistency_report(zeros, pts)
    rng = np.random.default_rng(7)
    x0 = np.concatenate([np.zeros((1, d)), rng.standard_normal((63, d))])
    increments = np.sqrt(1e-3) * rng.standard_normal((64, 200, d))
    ours = [x for _, x, _ in engine.sweep(model, x0, 1e-3, increments)]
    theirs = [x for _, x, _ in engine.sweep(zeros, x0, 1e-3, increments)]
    _assert_bits_equal(np.stack(ours), np.stack(theirs))
    # with no jac_drift, H = 0 gives the zero Jacobian an explicit one would
    assert model.jac_drift is None
    zero_jac = dataclasses.replace(model, jac_drift=lambda x: np.zeros(np.asarray(x).shape[:-1] + (d, d)))
    _assert_bits_equal(dv.curvature_matrix(model, pts), dv.curvature_matrix(zero_jac, pts))
    ours = [c for *_, c in engine.propagator_sweep(model, x0, 1e-3, increments)]
    theirs = [c for *_, c in engine.propagator_sweep(zero_jac, x0, 1e-3, increments)]
    _assert_bits_equal(np.stack(ours), np.stack(theirs))


@pytest.mark.parametrize("tag", ["OU1D", "ROT2D", "VARH2D", "DW1D"])
def test_drift_b_is_the_old_einsum_form_bit_for_bit(tag, all_problems):
    """At random points, at every sign pattern of zero coordinates and at the origin.

    OU1D and DW1D (H = 0) run with an explicit zero H, so that the sums run.
    """
    problem = next(p for p in all_problems if p.tag == tag)
    model, d = problem.model, problem.dim
    if model.antisym is None:
        model = dataclasses.replace(model, antisym=lambda x: np.zeros(np.asarray(x).shape[:-1] + (d, d)))

    def einsum_form(x):
        grad_h, grad_u, h = model.grad_antisym(x), model.grad_potential(x), model.antisym(x)
        return np.einsum("...iij->...j", grad_h) - np.einsum("...i,...ij->...j", grad_u, h)

    zeros = np.array(list(itertools.product([0.0, -0.0], repeat=d)))
    mixed = np.array(list(itertools.product([0.0, -0.0, 1.5, -2.0], repeat=d)))
    for x in (random_points(d, 500, seed=3), zeros, mixed, np.zeros((1, d)), np.full(d, -0.7)):
        assert dv.drift_b(model, x).tobytes() == einsum_form(x).tobytes()


@pytest.mark.parametrize("problem", [dv.make_ou1d(), dv.make_rot2d(1.0), dv.make_rot2d(0.0), dv.make_rot2d(-2.5)],
                         ids=["OU1D", "ROT2D-1", "ROT2D-0", "ROT2D-neg2.5"])
def test_constant_curvature_is_the_pointwise_form_bit_for_bit(problem):
    """At random points and at every sign pattern of zero coordinates."""
    model, d = problem.model, problem.dim
    assert constant_curvature(model) is not None
    zeros = np.array(list(itertools.product([0.0, -0.0], repeat=d)))
    for x in (random_points(d, 500, seed=8), zeros, np.full(d, -0.7)):
        pointwise = 0.5 * (jac_drift(model, x) - model.hess_potential(x))
        got = dv.curvature_matrix(model, x)
        assert got.shape == pointwise.shape and got.tobytes() == pointwise.tobytes()
        assert not got.flags.writeable


def test_curvature_is_constant_only_where_both_fields_are():
    """Only fields built as constants count; a constant Hessian beside a varying jac b does not."""
    assert constant_curvature(dv.make_varh2d().model) is None
    assert constant_curvature(dv.make_dw1d().model) is None
    rot = dv.make_rot2d(1.0).model
    swirl = lambda x: np.asarray(x)[..., 0, None, None] * np.array([[0.0, 1.0], [-1.0, 0.0]])  # noqa: E731
    plain_hess = lambda x: np.broadcast_to(np.eye(2), np.shape(x)[:-1] + (2, 2))  # noqa: E731
    for model in (
        dataclasses.replace(rot, jac_drift=swirl),  # K varies with x_0
        dataclasses.replace(rot, jac_drift=None),  # finite differences of the drift
        dataclasses.replace(rot, hess_potential=plain_hess),  # constant, but not built as one
    ):
        assert constant_curvature(model) is None
    varying = dataclasses.replace(rot, jac_drift=swirl)
    x = np.array([[0.0, 0.0], [2.0, 0.0]])
    k = dv.curvature_matrix(varying, x)
    assert k[0].tobytes() != k[1].tobytes()
    assert k.tobytes() == (0.5 * (swirl(x) - rot.hess_potential(x))).tobytes()


def _read_only_outputs(model):
    """model with every coefficient callable returning a read-only copy of its output."""

    def read_only(fn):
        if fn is None:
            return None

        @functools.wraps(fn)  # keeps a constant field's constant_value
        def wrapped(x):
            out = np.array(fn(x), dtype=float)
            out.flags.writeable = False
            return out

        return wrapped

    names = ("potential", "grad_potential", "hess_potential", "antisym", "grad_antisym", "jac_drift")
    return dataclasses.replace(model, **{name: read_only(getattr(model, name)) for name in names})


@pytest.mark.parametrize("tag", ["OU1D", "ROT2D", "VARH2D", "DW1D"])
def test_nothing_writes_into_coefficient_outputs(tag, all_problems):
    """The built-ins may return read-only views, so every consumer must only read."""
    problem = next(p for p in all_problems if p.tag == tag)
    model, d = _read_only_outputs(problem.model), problem.dim
    pts = random_points(d, 300, seed=14)
    dv.total_drift(model, pts)
    dv.curvature_matrix(model, pts)
    dv.consistency_report(model, pts)
    ens = dv.StationaryEnsemble(pts)
    profiles = [dv.norm_profile(model, f, ens, 2.0, 4.0) for f in dv.battery_for(problem)[:3]]
    dv.check_hessian_inequality(profiles)
    summary = dv.flow_summary(model, np.full(d, 0.3), 0.5, 0.01, 40, seed=14, r_guard=1.2)
    assert 0 < summary.exited_fraction < 1
    increments = engine.increments_block(14, 0, 40, 50, 0.01, d)
    engine.euler_sweep(model, np.full((40, d), 0.3), 0.01, increments, r_guard=1.2)
