"""Output checks against computations made apart from divflow.

Nothing here imports divflow.  Each check returns a list of problems; an
empty list means the output is correct.  The references are closed forms,
quadratures or properties every correct run must have, never a stored copy
of an earlier output.
"""
from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

# ROT2D (U = |x|^2 / 2, constant H of strength 1) is linear: X_t is Gaussian
# with mean e^{Mt} x, M = (H - I) / 2, and covariance (1 - e^{-t}) I.
ROT2D_H = 1.0
ROT2D_T0 = 0.5
ROT2D_X = (0.2, -0.1)
GRADIENT_SE_LIMIT = 4.0

# DW1D norms in norms.csv are L^q / L^p norms over a Metropolis-adjusted
# Langevin ensemble; see the README for how the tolerance was set.
DW1D_P = 2.0
DW1D_Q = 4.0
DW1D_NORM_RTOL = 0.04
DW1D_CENTERS = (0.0, 1.0, -1.0)
DW1D_WIDTHS = (1.0, 2.0)
VERIFY_CHECKS = 12

SIMULATE_SE_LIMIT = 4.0


def _bump(x, center, width):
    """exp(1 / (z^2 - 1)) on |z| < 1, z = (x - c) / w, and its x-derivative."""
    z = (x - center) / width
    w = z * z - 1.0
    inside = w < 0.0
    ws = np.where(inside, w, -1.0)
    val = np.where(inside, np.exp(1.0 / ws), 0.0)
    der = np.where(inside, val * (-2.0 * z / (ws * ws)) / width, 0.0)
    return val, der


def rot2d_reference(t=ROT2D_T0, x=ROT2D_X, h=ROT2D_H, n=1001):
    """grad P_t f(x) for f the unit bump at the origin, by grid quadrature.

    grad P_t f(x) = e^{M^T t} E[grad f(X_t)], with E taken against the
    Gaussian density on a uniform grid over the bump's support.  Gauss-
    Hermite rules converge poorly on a compactly supported integrand.
    """
    x = np.asarray(x, dtype=float)
    # e^{Mt} = e^{-t/2} R(ht/2), R the rotation generated by [[0, 1], [-1, 0]].
    ang = 0.5 * h * t
    rot = np.array([[math.cos(ang), math.sin(ang)], [-math.sin(ang), math.cos(ang)]])
    flow = math.exp(-0.5 * t) * rot
    mean = flow @ x
    var = 1.0 - math.exp(-t)
    g = np.linspace(-1.0, 1.0, n)
    step = g[1] - g[0]
    y0, y1 = np.meshgrid(g, g, indexing="ij")
    w = y0 * y0 + y1 * y1 - 1.0
    inside = w < 0.0
    ws = np.where(inside, w, -1.0)
    sigma = np.where(inside, np.exp(1.0 / ws), 0.0)
    dens = np.exp(-((y0 - mean[0]) ** 2 + (y1 - mean[1]) ** 2) / (2.0 * var)) / (2.0 * math.pi * var)
    weight = sigma * dens * (-2.0 / (ws * ws)) * step * step
    expected_grad = np.array([np.sum(weight * y0), np.sum(weight * y1)])
    return flow.T @ expected_grad


def _read_csv(path):
    """Data rows of a divflow CSV (comment lines start with '#')."""
    text = Path(path).read_text()
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def check_gradient(out_dir, seed, paths, reference):
    """Both routes within 4 SE of the quadrature; identity check passes.

    Returns (problems, se) with se the larger SE of the malliavin route.
    """
    problems = []
    path = Path(out_dir) / "gradient.csv"
    if not path.exists():
        return ["gradient.csv missing"], float("nan")
    rows = _read_csv(path)
    seen = {}
    for row in rows:
        seen[(row["route"], int(row["component"]))] = (float(row["estimate"]), float(row["se"]))
        if int(row["N"]) != paths or int(row["seed"]) != seed:
            problems.append(f"row {row} has wrong N or seed")
    for route in ("frechet", "malliavin"):
        for j in range(2):
            if (route, j) not in seen:
                problems.append(f"{route} component {j} missing")
                continue
            est, se = seen[(route, j)]
            if not (se > 0 and abs(est - reference[j]) <= GRADIENT_SE_LIMIT * se):
                problems.append(
                    f"{route}[{j}] = {est:.6g} +- {se:.3g} is not within "
                    f"{GRADIENT_SE_LIMIT:g} SE of {reference[j]:.6g}"
                )
    if "# identity_check=pass" not in path.read_text().splitlines():
        problems.append("identity check does not read pass")
    se = max(seen.get(("malliavin", j), (0.0, float("nan")))[1] for j in range(2))
    return problems, se


def dw1d_norms(p=DW1D_P, q=DW1D_Q, n=400_001):
    """L^q norm of f and L^p norm of f' under e^{-U}/Z, U = (x^2 - 1)^2."""
    x = np.linspace(-4.0, 4.0, n)
    dens = np.exp(-((x * x - 1.0) ** 2))
    dens /= np.sum(dens)
    out = {}
    for width in DW1D_WIDTHS:
        for ci, center in enumerate(DW1D_CENTERS):
            val, der = _bump(x, center, width)
            out[f"bump{ci}_w{width:g}"] = (val, der)
            # In one dimension the coordinate-times-bump functions all use x_0.
            out[f"xbump{ci}_w{width:g}_a0"] = (x * val, val + x * der)
    return {
        name: (
            float(np.sum(np.abs(val) ** q * dens) ** (1.0 / q)),
            float(np.sum(np.abs(der) ** p * dens) ** (1.0 / p)),
        )
        for name, (val, der) in out.items()
    }


def check_verify(out_dir, reference):
    """Twelve passing checks and norms that match the quadrature.

    A run that exits non-zero is a failed operation and is not checked.
    """
    problems = []
    report = Path(out_dir) / "report.md"
    norms = Path(out_dir) / "norms.csv"
    if not report.exists() or not norms.exists():
        return problems + ["report.md or norms.csv missing"]
    lines = report.read_text().splitlines()
    start = lines.index("| check | verdict | detail |") + 2
    table = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        table.append([cell.strip() for cell in line.strip("|").split("|")])
    passed = [cells[0] for cells in table if cells[1] == "pass"]
    if len(table) != VERIFY_CHECKS or len(passed) != VERIFY_CHECKS:
        problems.append(f"{len(passed)} of {len(table)} check rows pass, want {VERIFY_CHECKS}")
    rows = _read_csv(norms)
    if sorted(r["f"] for r in rows) != sorted(reference):
        problems.append("norms.csv does not hold the twelve battery functions")
    for row in rows:
        ref = reference.get(row["f"])
        if ref is None:
            continue
        for col, want in zip(("f_lq", "grad_lp"), ref):
            got = float(row[col])
            if not abs(got - want) <= DW1D_NORM_RTOL * want:
                problems.append(f"{row['f']} {col} = {got:.6g}, quadrature {want:.6g}")
    return problems


def check_simulate(out_dir, paths, steps, dt):
    """Path files on the time grid, no exits, increments that are N(0, dt).

    OU1D's Euler step is x' = (1 - dt/2) x + dw, so the increments implied by
    consecutive rows must be centred, of variance dt and uncorrelated, for
    any correct noise generator.
    """
    problems = []
    out = Path(out_dir)
    increments = []
    for i in range(paths):
        path = out / f"path_{i:05d}.csv"
        if not path.exists():
            problems.append(f"{path.name} missing")
            continue
        rows = _read_csv(path)
        if len(rows) != steps + 1:
            problems.append(f"{path.name} has {len(rows)} rows, want {steps + 1}")
            continue
        t = np.array([float(r["t"]) for r in rows])
        x = np.array([float(r["x_1"]) for r in rows])
        if np.max(np.abs(t - dt * np.arange(steps + 1))) > 1e-9:
            problems.append(f"{path.name} is off the time grid")
        if any(r["exited"] != "0" for r in rows):
            problems.append(f"{path.name} reports an exit")
        increments.append(x[1:] - (1.0 - 0.5 * dt) * x[:-1])
    stats = _read_csv(out / "exit_stats.csv") if (out / "exit_stats.csv").exists() else []
    if len(stats) != paths or any(r["exited"] != "0" for r in stats):
        problems.append("exit_stats.csv does not list every path as not exited")
    if problems:
        return problems
    dw = np.concatenate(increments)
    n = dw.size
    mean = float(np.mean(dw))
    var = float(np.var(dw))
    if abs(mean) > SIMULATE_SE_LIMIT * math.sqrt(dt / n):
        problems.append(f"increment mean {mean:.3g} is not 0 within 4 SE")
    if abs(var - dt) > SIMULATE_SE_LIMIT * dt * math.sqrt(2.0 / n):
        problems.append(f"increment variance {var:.4g} is not dt = {dt:g} within 4 SE")
    # Lag-1 correlation within each path, pooled.
    num = sum(float(np.dot(d[1:] - mean, d[:-1] - mean)) for d in increments)
    pairs = sum(d.size - 1 for d in increments)
    corr = num / (pairs * var)
    if abs(corr) > SIMULATE_SE_LIMIT / math.sqrt(pairs):
        problems.append(f"increment lag-1 correlation {corr:.3g} is not 0 within 4/sqrt(N)")
    return problems

