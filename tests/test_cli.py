"""Command-line contract: config validation, outputs, exit codes, determinism."""
from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import divflow as dv
from divflow import cli, engine
from divflow.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    main,
    parse_config,
)


SECTION_OF = {
    "tag": "problem",
    "h": "problem",
    "dt": "simulation",
    "horizon": "simulation",
    "paths": "simulation",
    "seed": "simulation",
    "r_guard": "simulation",
    "p": "inequality",
    "q": "inequality",
    "gamma0": "inequality",
    "t0": "inequality",
    "ensemble": "inequality",
    "dir": "output",
}


def write_config(path: Path, **overrides) -> Path:
    """An INI file with these keys, each in its section."""
    values = {
        "tag": "OU1D",
        "dt": "0.001",
        "horizon": "1.0",
        "paths": "2000",
        "seed": "2026",
        "p": "2.0",
        "q": "4.0",
        "t0": "auto",
        "ensemble": "4000",
        "dir": str(path.parent / "out"),
    }
    values.update(overrides)
    sections: dict = {}
    for key, value in values.items():
        sections.setdefault(SECTION_OF[key], []).append(f"{key} = {value}")
    path.write_text("\n".join(f"[{name}]\n" + "".join(line + "\n" for line in lines) for name, lines in sections.items()))
    return path


def read(path: Path) -> str:
    return path.read_text()


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_config_defaults_and_overrides(tmp_path):
    cfg_path = write_config(tmp_path / "a.ini")
    cfg = parse_config(cfg_path)
    assert cfg.tag == "OU1D"
    assert cfg.r == pytest.approx(4.0)
    cfg2 = parse_config(cfg_path, {"seed": 7, "tag": "DW1D"})
    assert cfg2.seed == 7
    assert cfg2.tag == "DW1D"


def test_parse_config_rotation_parameter(tmp_path):
    path = tmp_path / "rot.ini"
    path.write_text("[problem]\ntag = ROT2D\nh = 3.0\n")
    cfg = parse_config(path)
    assert cfg.problem_params == {"h": 3.0}
    bad = tmp_path / "bad.ini"
    bad.write_text("[problem]\ntag = OU1D\nh = 3.0\n")
    with pytest.raises(dv.ConfigError):
        parse_config(bad)


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[simulation]\nwibble = 3\n")
    with pytest.raises(dv.ConfigError):
        parse_config(path)


def test_parse_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[mystery]\nx = 1\n")
    with pytest.raises(dv.ConfigError):
        parse_config(path)


def test_parse_config_rejects_bad_exponents(tmp_path):
    cfg_path = write_config(tmp_path / "a.ini", p="2.0", q="1.5")
    with pytest.raises(dv.ConfigError):
        parse_config(cfg_path)


def test_parse_config_rejects_low_r(tmp_path):
    cfg_path = write_config(tmp_path / "a.ini", p="1.0", q="3.0")
    with pytest.raises(dv.ConfigError):
        parse_config(cfg_path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("dt", "nan"),
        ("horizon", "nan"),
        ("horizon", "inf"),
        ("r_guard", "0"),
        ("r_guard", "-1"),
        ("r_guard", "nan"),
        ("gamma0", "0"),
        ("gamma0", "-1"),
        ("gamma0", "nan"),
        ("seed", "-5"),
        ("h", "nan"),
        ("paths", "0"),
        ("t0", "0.5005"),  # off the dt = 0.001 grid
    ],
)
def test_parse_config_rejects_out_of_range_values(tmp_path, key, value):
    cfg_path = write_config(tmp_path / "a.ini", tag="ROT2D", **{key: value})
    with pytest.raises(dv.ConfigError, match=f"bad value '{value}' for {key}"):
        parse_config(cfg_path)


def test_infinite_guard_radius_means_no_guard(tmp_path):
    cfg_path = write_config(tmp_path / "a.ini", paths=2, r_guard="inf")
    assert parse_config(cfg_path).r_guard == math.inf
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK


@pytest.mark.parametrize(
    "command, overrides",
    [
        (["simulate", "--seed", "-5"], {}),
        (["gradient", "--function", "bump0_w1", "--x", "0.3"], {"gamma0": 0, "ensemble": 2000}),  # t0 = auto
    ],
)
def test_out_of_range_value_exits_config(tmp_path, capsys, command, overrides):
    cfg_path = write_config(tmp_path / "a.ini", paths=5, **overrides)
    assert main(command[:1] + ["--config", str(cfg_path)] + command[1:]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "nope.ini")]) == EXIT_CONFIG


def test_threads_below_one_is_config_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "t.ini", paths=5)
    assert main(["simulate", "--config", str(cfg_path), "--threads", "0"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_csv_per_path(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "sim.ini", paths=10)
    code = main(["simulate", "--config", str(cfg_path)])
    assert code == EXIT_OK
    out = tmp_path / "out"
    files = sorted(out.glob("path_*.csv"))
    assert len(files) == 10
    body = read(files[0])
    assert "# seed=2026" in body
    assert "# dt=0.001" in body
    header = [line for line in body.splitlines() if line.startswith("t,")][0]
    assert header == "t,x_1,exited"
    assert (out / "exit_stats.csv").exists()


def test_simulate_exit_code_on_bad_config(tmp_path):
    cfg_path = write_config(tmp_path / "sim.ini", p="3.0", q="2.0")
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG


def test_simulate_unstable_step_exits_runtime(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "sim.ini", tag="DW1D", dt="10.0", horizon="100.0", paths=3
    )
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "step" in err


def test_simulate_start_outside_guard_names_the_radius(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "sim.ini", paths=2, r_guard="0.01")
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "at step 0" in err
    assert "r_guard = 0.01" in err
    assert "dt" not in err


def test_fmt_and_the_simulate_row_template_spell_numbers_alike():
    """`_NUM` in a row template, `_fmt` and the `.12g` format spec give the same text."""
    edge = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 999999999999.5, -999999999999.5, math.inf, -math.inf, math.nan]
    bits = np.random.default_rng(22).integers(0, 2**64, size=100_000, dtype=np.uint64)
    values = edge + bits.view(np.float64).tolist()
    expected = [f"{v:.12g}" for v in values]
    assert [cli._fmt(v) for v in values] == expected
    assert ",".join([cli._NUM] * len(values)) % tuple(values) == ",".join(expected)


def reference_simulate(config) -> dict:
    """`simulate`'s files built path by path from `simulate_path` and `WienerGrid.generate`."""
    problem = cli._build_problem(config)
    ensemble = dv.sample_stationary(problem, config.paths, config.seed + cli._SEED_TAGS["simulate"])
    n = engine.steps_for(config.horizon, config.dt)
    d = problem.model.dim
    files, stats = {}, []
    for i in range(config.paths):
        noise = dv.WienerGrid.generate(config.seed, i, n, config.dt, d)
        traj = dv.simulate_path(problem.model, ensemble.points[i], config.horizon, config.dt, noise, r_guard=config.r_guard)
        lines = cli._csv_header(config, {"path_index": i, "horizon": cli._fmt(config.horizon)})
        lines.append(",".join(["t"] + [f"x_{j + 1}" for j in range(d)] + ["exited"]))
        for k, (t, x) in enumerate(zip(traj.times, traj.states)):
            flag = int(traj.exited and k == len(traj.times) - 1)
            lines.append(",".join([cli._fmt(t)] + [cli._fmt(v) for v in x] + [str(flag)]))
        files[f"path_{i:05d}.csv"] = "\n".join(lines) + "\n"
        stats.append(f"{i},{int(traj.exited)},{traj.exit_step if traj.exited else ''}")
    files["exit_stats.csv"] = "\n".join(cli._csv_header(config) + ["path_index,exited,exit_step"] + stats) + "\n"
    return files


SIMULATE_CASES = {
    "OU1D": dict(tag="OU1D"),
    "DW1D": dict(tag="DW1D"),
    "ROT2D": dict(tag="ROT2D"),
    "VARH2D": dict(tag="VARH2D"),
    "OU1D-guard": dict(tag="OU1D", paths=20, horizon="2.0", r_guard="2.5"),  # path 0 exits at step 1965
    "ROT2D-guard": dict(tag="ROT2D", r_guard="2.0"),  # path 4 exits at step 412 of 500
}


def simulate_against_reference(tmp_path, case):
    values = dict(paths=6, horizon="0.5")
    values.update(SIMULATE_CASES[case])
    config = parse_config(write_config(tmp_path / "sim.ini", **values))
    expected = reference_simulate(config)
    exited = ",1," in expected["exit_stats.csv"]  # a row "i,1,step"
    assert main(["simulate", "--config", str(tmp_path / "sim.ini")]) == (EXIT_RUNTIME if exited else EXIT_OK)
    out = Path(config.out_dir)
    assert sorted(path.name for path in out.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (out / name).read_text() == text, name
    return exited


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_simulate_matches_the_path_by_path_reference(tmp_path, case):
    """One batched sweep writes the files that one `simulate_path` per path writes."""
    assert simulate_against_reference(tmp_path, case) == case.endswith("guard")


def test_simulate_output_does_not_depend_on_batching(tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "_BLOCK_BUDGET", 3 * 2000)  # 20 paths of 2000 steps: 7 batches
    assert len(engine.batch_sizes(20, 2000, 1)) == 7
    assert simulate_against_reference(tmp_path, "OU1D-guard")


def test_simulate_nonfinite_state_names_the_earliest_step_of_the_batch(tmp_path, capsys):
    """With no guard, DW1D at dt = 10 overflows; the error names the first step any path fails at."""
    cfg_path = write_config(tmp_path / "sim.ini", tag="DW1D", dt="10.0", horizon="100.0", paths=3, r_guard="inf")
    config = parse_config(cfg_path)
    problem = cli._build_problem(config)
    ensemble = dv.sample_stationary(problem, 3, config.seed + cli._SEED_TAGS["simulate"])
    steps = []
    for i in range(3):
        noise = dv.WienerGrid.generate(config.seed, i, 10, 10.0, 1)
        with pytest.raises(dv.IntegrationError) as exc, np.errstate(over="ignore"):
            dv.simulate_path(problem.model, ensemble.points[i], 100.0, 10.0, noise, r_guard=math.inf)
        steps.append(exc.value.step)
    with np.errstate(over="ignore"):
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_RUNTIME
    assert f"integration error at step {min(steps)}:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def test_gradient_writes_rows_per_component_and_route(tmp_path):
    cfg_path = write_config(tmp_path / "g.ini", paths=4000)
    code = main(
        ["gradient", "--config", str(cfg_path), "--function", "bump0_w1", "--x", "0.3"]
    )
    assert code == EXIT_OK
    body = read(tmp_path / "out" / "gradient.csv")
    assert "frechet" in body and "malliavin" in body and "residual" in body
    assert "# identity_check=pass" in body


def test_gradient_unknown_function(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "g.ini")
    code = main(["gradient", "--config", str(cfg_path), "--function", "nope", "--x", "0.0"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "point, code, message",
    [
        ("nan,0", EXIT_CONFIG, "config error"),
        ("0,inf", EXIT_CONFIG, "config error"),
        ("1e200,0", EXIT_RUNTIME, "radius guard"),  # finite but outside the guard
    ],
)
def test_gradient_point_exit_codes(tmp_path, capsys, point, code, message):
    cfg_path = write_config(tmp_path / "g.ini", tag="ROT2D", paths=200, t0="0.5")
    assert main(["gradient", "--config", str(cfg_path), "--function", "bump0_w1", "--x", point]) == code
    assert message in capsys.readouterr().err


def test_gradient_policy_violation_is_config_error(tmp_path):
    cfg_path = write_config(tmp_path / "g.ini", t0="9.0")  # t_star = 8/4 = 2
    code = main(
        ["gradient", "--config", str(cfg_path), "--function", "bump0_w1", "--x", "0.3"]
    )
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def verify_config(tmp_path, **overrides):
    values = dict(paths=3000, ensemble=6000)
    values.update(overrides)
    return write_config(tmp_path / "v.ini", **values)


def test_verify_ou_passes_and_reports(tmp_path, capsys):
    cfg_path = verify_config(tmp_path)
    code = main(["verify", "--config", str(cfg_path)])
    assert code == EXIT_OK
    out = tmp_path / "out"
    report = read(out / "report.md")
    assert "theoretical constant C" in report
    assert "| gradient_inequality | pass" in report
    norms = read(out / "norms.csv")
    header = next(line for line in norms.splitlines() if line.startswith("f,"))
    assert header.endswith("C,ratio,verdict")
    assert (out / "trace.csv").exists()
    assert (out / "gradient_routes.csv").exists()


def test_verify_rejects_a_dt_off_the_moment_horizon_before_any_check(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_verify", lambda *args, **kwargs: pytest.fail("a check ran"))
    cfg_path = verify_config(tmp_path, dt="3e-4")
    assert main(["verify", "--config", str(cfg_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: moment_bound check: horizon 5.0 is not a positive multiple of dt 0.0003" in captured.err


def test_verify_on_one_sample_fails_without_warnings(tmp_path, capsys):
    """One sample has no standard error: each 3-SE check on it fails, and numpy stays quiet."""
    cfg_path = verify_config(tmp_path, paths=1, ensemble=2000, t0=0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", "--config", str(cfg_path)])
    assert code == EXIT_CHECK_FAILED
    assert "verification failed: stationarity, ibp_identity, moment_bound\n" in capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_verify_on_a_one_point_ensemble_fails_without_a_traceback(tmp_path, capsys):
    """The control check runs as many paths as the ensemble has points, up to three."""
    cfg_path = verify_config(tmp_path, paths=200, ensemble=1, t0=0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", "--config", str(cfg_path)])
    assert code == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.endswith(
        "verification failed: operator_symmetry, stationarity, trace_moment, gradient_inequality, "
        "hessian_inequality, exp_integrability, decay, moment_bound\n"
    )
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_verify_rot2d_passes(tmp_path):
    cfg_path = verify_config(tmp_path, tag="ROT2D")
    assert main(["verify", "--config", str(cfg_path)]) == EXIT_OK


def test_verify_rerun_is_byte_identical(tmp_path):
    cfg_path = verify_config(tmp_path)
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "r1")]) == EXIT_OK
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "r2")]) == EXIT_OK
    files1 = sorted((tmp_path / "r1").iterdir())
    files2 = sorted((tmp_path / "r2").iterdir())
    assert [f.name for f in files1] == [f.name for f in files2]
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes()


def test_seed_override_changes_outputs(tmp_path):
    cfg_path = write_config(tmp_path / "s.ini", paths=5)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "a"), "--seed", "1"]) == EXIT_OK
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "2"]) == EXIT_OK
    assert (tmp_path / "a" / "path_00000.csv").read_bytes() != (
        tmp_path / "b" / "path_00000.csv"
    ).read_bytes()


# The rows of report.md's verdict table, in order; perfbench/checks.py reads it.
REPORT_ROWS = [
    "coefficients",
    "operator_symmetry",
    "stationarity",
    "control_discrepancy",
    "gronwall",
    "trace_moment",
    "ibp_identity",
    "gradient_inequality",
    "hessian_inequality",
    "exp_integrability",
    "decay",
    "moment_bound",
]


def test_check_tuple_matches_the_report_rows(tmp_path):
    assert [check.__name__ for check in cli.CHECKS] == ["_" + name for name in REPORT_ROWS]
    cfg_path = verify_config(tmp_path, paths=200, ensemble=500)
    main(["verify", "--config", str(cfg_path)])
    lines = read(tmp_path / "out" / "report.md").splitlines()
    rows = []
    for line in lines[lines.index("| check | verdict | detail |") + 2 :]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip())
    assert rows == REPORT_ROWS


def test_verify_context_computes_each_battery_norm_once(tmp_path, monkeypatch):
    """Context and the checks that read norms: one norm profile per battery function, one E(gamma0).

    The control-discrepancy check solves one propagator per path and reuses it for the Duhamel route.
    """
    calls = {"norm_profile": 0, "apply_generator": 0, "exp_integrability": 0, "fundamental_matrix": 0}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "divflow"]
    for name in calls:
        original = getattr(dv, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    ctx = cli._verify_context(parse_config(verify_config(tmp_path, ensemble=2000)))
    checks = [cli._gradient_inequality, cli._hessian_inequality, cli._exp_integrability, cli._control_discrepancy]
    results = [check(ctx) for check in checks]
    assert [res.name for res in results] == [check.__name__[1:] for check in checks]
    assert len(ctx.battery) == 12
    assert calls == {"norm_profile": 12, "apply_generator": 12, "exp_integrability": 1, "fundamental_matrix": 3}


@pytest.mark.parametrize("radius", [0.01, 0.5])
def test_control_discrepancy_stops_at_a_guard_exit(tmp_path, radius):
    """The control needs the whole path, so a guard exit is an integration error, not a short grid."""
    ctx = cli._verify_context(parse_config(verify_config(tmp_path, ensemble=2000, t0=0.5, r_guard=radius)))
    with pytest.raises(dv.IntegrationError):
        cli._control_discrepancy(ctx)


def test_verify_checks_use_the_configured_guard(tmp_path, capsys):
    """About 0.3 % of the N(0, 1) starts lie beyond 3, so the first ensemble check stops at step 0."""
    cfg_path = verify_config(tmp_path, r_guard="3")
    assert main(["verify", "--config", str(cfg_path)]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "integration error at step 0: a path left the radius guard at step 0\n"


def test_control_discrepancy_runs_on_a_finer_dt(tmp_path):
    """An auto t0 is a multiple of dt, so the single-path grid must divide dt."""
    ctx = cli._verify_context(parse_config(verify_config(tmp_path, dt=1e-4, ensemble=2000)))
    assert cli._control_discrepancy(ctx).passed


def test_coefficients_check_fails_on_a_wrong_h_declaration():
    """A false "H = 0" (antisym None) or "H constant" (zero grad H) on VARH2D is caught, not trusted."""
    varh2d = dv.make_varh2d()
    ensemble = dv.sample_stationary(varh2d, 100, seed=3)
    assert cli._coefficients(SimpleNamespace(model=varh2d.model, ensemble=ensemble)).passed
    for wrong in (
        dataclasses.replace(varh2d.model, antisym=None),
        dataclasses.replace(varh2d.model, grad_antisym=lambda x: np.zeros(x.shape[:-1] + (2, 2, 2))),
    ):
        res = cli._coefficients(SimpleNamespace(model=wrong, ensemble=ensemble))
        assert not res.passed
        assert res.report["grad_antisym_fd_max_dev"] > 1.0e-6


def _mpmath_mu_mean_1d(f_value, center: float, width: float, coordinate: bool):
    """E_mu f on DW1D, U = (x^2 - 1)^2, by 30-digit quadrature split at the bump's support ends."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        dens = lambda s: mpmath.exp(-((s * s - 1) ** 2))
        lo, hi = mpmath.mpf(center) - width, mpmath.mpf(center) + width

        def integrand(s):
            z = (s - center) / width
            sigma = mpmath.exp(1 / (z * z - 1)) if abs(z) < 1 else mpmath.mpf(0)
            return (s if coordinate else 1) * sigma * dens(s)

        # The integrand is the battery function itself.
        for s in (lo + 0.3 * width, mpmath.mpf(center), hi - 0.1 * width):
            assert abs(float(integrand(s) / dens(s)) - float(f_value(np.array([[float(s)]]))[0])) < 1.0e-15
        num = mpmath.quad(integrand, [lo, center, hi])
        z = mpmath.quad(dens, [-mpmath.inf, -1, 0, 1, mpmath.inf])
        return float(num / z)


def test_mu_mean_1d_matches_a_30_digit_reference_on_the_dw1d_battery():
    """The trapezoid rule on [-12, 12] is within 1e-14 of mpmath on all 12 DW1D functions."""
    problem = dv.make_problem("DW1D")
    centers = {"0": 0.0, "1": 1.0, "2": -1.0}
    battery = dv.battery_for(problem)
    assert len(battery) == 12
    for f in battery:
        kind, width = f.name.split("_")[:2]
        coordinate = kind.startswith("x")
        reference = _mpmath_mu_mean_1d(f.value, centers[kind[-1]], float(width[1:]), coordinate)
        assert abs(cli._mu_mean_1d(problem, f) - reference) < 1.0e-14, f.name


@pytest.mark.parametrize("tag", ["DW1D", "OU1D"])
def test_decay_check_centres_the_dw1d_bump_and_uses_the_coordinate_elsewhere(tag, monkeypatch):
    """DW1D's decay function is bump0_w1 minus its mean under mu, whatever its sampler; OU1D's is x0."""
    captured = []

    def capture(model, f, *args, **kwargs):
        captured.append(f)
        return SimpleNamespace(passed=True, points=[], final_ratio=1.0)

    monkeypatch.setattr(cli, "decay_check", capture)
    problem = dv.make_problem(tag)
    battery = dv.battery_for(problem)
    ctx = SimpleNamespace(
        config=SimpleNamespace(tag=tag, seed=2026, r_guard=math.inf),
        problem=problem,
        model=problem.model,
        battery=battery,
        ensemble=None,
    )
    assert cli._decay(ctx).passed
    (f,) = captured
    x = np.linspace(-2.0, 2.0, 41)[:, None]
    if tag == "DW1D":
        assert battery[0].name == "bump0_w1"
        expected = battery[0].value(x) - cli._mu_mean_1d(problem, battery[0])
    else:
        assert f.name == "x0"
        expected = x[:, 0]
    assert np.array_equal(f.value(x), expected)


def test_verify_dw1d_imports_no_scipy(tmp_path):
    """verify needs numpy alone.  A fresh process, since this one has scipy through other tests."""
    cfg_path = verify_config(tmp_path, tag="DW1D", paths=200, ensemble=500)
    script = (
        "import sys\n"
        "from divflow.cli import main\n"
        f"code = main(['verify', '--config', {str(cfg_path)!r}])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.exit(code)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode in (EXIT_OK, EXIT_CHECK_FAILED), proc.stderr
    assert "| decay |" in read(tmp_path / "out" / "report.md")
    assert proc.stdout.splitlines()[-1] == "[]"
