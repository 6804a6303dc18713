"""Every divflow name that perfbench/tracing.py wraps still exists.

The tracer looks its layer functions up by name, and reads its work counts
off their arguments by parameter name, so a rename in divflow would break
`perfbench/run.py --trace 1` without failing any other divflow test.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_layer_names_resolve():
    tracing = _tracing()
    wrapped = [(mod, name) for mod, names in tracing.LAYERS.items() for name in names]
    wrapped.append(("engine", "map_batches"))
    missing = [
        f"{mod}.{name}"
        for mod, name in wrapped
        if not callable(getattr(importlib.import_module(f"divflow.{mod}"), name, None))
    ]
    assert missing == []


def test_verify_calls_the_functions_that_open_check_spans():
    # A check's span opens only when `run_verify` calls the wrapped function
    # through `cli`, so `cli` must bind each one by its traced name; a check
    # that calls an unwrapped helper instead would read 0 in the trace.
    tracing = _tracing()
    cli = importlib.import_module("divflow.cli")
    unbound = []
    for name in tracing.CHECK_OF:
        mod, fn = name.split(".")
        if name in tracing.RENAMES.values() or mod == "cli":
            continue
        if getattr(cli, fn, None) is not getattr(importlib.import_module(f"divflow.{mod}"), fn):
            unbound.append(name)
    assert unbound == []


def _launch(tmp_path, divflow_args):
    """Run one divflow command traced through perfbench/launch.py; returns its per-layer metrics."""
    report, spans = tmp_path / "report.json", tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "perfbench" / "launch.py"), "--report", str(report), "--trace", str(spans)]
    proc = subprocess.run(cmd + ["--", *divflow_args], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode in (0, 1) and report.exists(), proc.stderr
    assert json.loads(report.read_text())["code"] == proc.returncode
    return _tracing().layer_metrics(json.loads(spans.read_text()), 0.0)


def test_traced_gradient_gives_the_counts_the_benchmark_pins(tmp_path):
    """The five ROT2D gradient counts that perfbench/test_perfbench.py asserts."""
    cfg = tmp_path / "g.ini"
    cfg.write_text("[problem]\ntag = ROT2D\nh = 1.0\n[simulation]\npaths = 300\n[inequality]\nt0 = 0.5\n")
    metrics = _launch(
        tmp_path,
        ["gradient", "--config", str(cfg), "--out", str(tmp_path / "out"), "--function", "bump0_w1",
         "--x", "0.2,-0.1", "--threads", "1"],
    )
    n, steps = 300, 500  # t0 / dt = 0.5 / 1e-3
    expected = {
        "estimator.flow_summary.path_steps": n * steps,
        "engine.rk4_step.matrix_steps": n * steps,
        "engine.noise.draws": n * steps * 2,
        "model.total_drift.points": n * steps,
        "model.curvature_matrix.points": n * (steps + 1),
    }
    assert {name: metrics[name]["value"] for name in expected} == expected


def test_traced_verify_counts_the_norms_checks_and_times_every_check(tmp_path):
    paths, ensemble = 200, 500
    cfg = tmp_path / "v.ini"
    cfg.write_text(
        f"[problem]\ntag = OU1D\n[simulation]\npaths = {paths}\n[inequality]\nensemble = {ensemble}\n"
    )
    metrics = _launch(tmp_path, ["verify", "--config", str(cfg), "--out", str(tmp_path / "out")])
    tracing = _tracing()
    # n x steps from the config and the sizes `cli` gives each check (OU1D, dt = 1e-3).
    expected = {
        "stationarity_check": min(paths, 8000) * round(5.0 / 5.0e-3),
        "decay_check": min(1000, ensemble) * 100 * round(5.0 / 1.0e-2),
        "moment_bound_check": min(paths, 5000) * round(5.0 / 1.0e-3),
    }
    assert {name: metrics[f"norms.{name}.path_steps"]["value"] for name in expected} == expected
    assert len(tracing.CHECKS) == 12
    untimed = [name for name in tracing.CHECKS if not metrics[f"cli.check.{name}.total_s"]["value"] > 0]
    assert untimed == []
