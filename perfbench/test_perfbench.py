"""Tests of the benchmark itself: its checks can fail, its counts are exact.

Run from the root of the source tree:

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from divflow import cli  # noqa: E402


def _write(path, text):
    path.write_text(text)
    return path


def _gradient(tmp_path, tag, paths, threads):
    cfg = _write(
        tmp_path / f"{tag}.ini",
        f"[problem]\ntag = ROT2D\nh = 1.0\n[simulation]\npaths = {paths}\n[inequality]\nt0 = 0.5\n",
    )
    out = tmp_path / tag
    args = ["gradient", "--config", str(cfg), "--seed", "5", "--out", str(out)]
    args += ["--function", "bump0_w1", "--x", "0.2,-0.1", "--threads", str(threads)]
    assert cli.main(args) == 0
    return out


def test_rot2d_reference_is_converged():
    coarse = checks.rot2d_reference()
    fine = checks.rot2d_reference(n=2001)
    np.testing.assert_allclose(coarse, fine, rtol=1e-6)
    np.testing.assert_allclose(fine, [-0.02997, 0.01499], atol=1e-5)


def test_gradient_check_passes_and_fails_when_perturbed(tmp_path):
    out = _gradient(tmp_path, "g", 4000, 1)
    ref = checks.rot2d_reference()
    problems, se = checks.check_gradient(out, 5, 4000, ref)
    assert problems == [] and se > 0
    shifted = ref + np.array([10.0 * se, 0.0])
    assert checks.check_gradient(out, 5, 4000, shifted)[0]
    csv = out / "gradient.csv"
    csv.write_text(csv.read_text().replace("identity_check=pass", "identity_check=FAIL"))
    assert checks.check_gradient(out, 5, 4000, ref)[0]


def test_gradient_is_the_same_on_one_and_two_threads(tmp_path):
    # 16400 paths of 500 steps in d = 2 make two noise blocks, one per thread.
    one = _gradient(tmp_path, "t1", 16400, 1)
    two = _gradient(tmp_path, "t2", 16400, 2)
    assert (one / "gradient.csv").read_bytes() == (two / "gradient.csv").read_bytes()


def _fake_verify(out, reference, verdicts=None):
    out.mkdir()
    names = ["coefficients", "operator_symmetry", "stationarity", "control_discrepancy",
             "gronwall", "trace_moment", "ibp_identity", "gradient_inequality",
             "hessian_inequality", "exp_integrability", "decay", "moment_bound"]
    verdicts = verdicts or ["pass"] * len(names)
    md = ["# Verification report: DW1D", "", "| check | verdict | detail |", "|---|---|---|"]
    md += [f"| {n} | {v} | x |" for n, v in zip(names, verdicts)]
    md += ["", "## Gradient-bound ratios"]
    (out / "report.md").write_text("\n".join(md) + "\n")
    rows = ["# problem=DW1D", "f,f_lq,grad_lp"]
    rows += [f"{name},{f:.12g},{g:.12g}" for name, (f, g) in reference.items()]
    (out / "norms.csv").write_text("\n".join(rows) + "\n")


def test_verify_check_fails_on_each_perturbation(tmp_path):
    ref = checks.dw1d_norms()
    _fake_verify(tmp_path / "good", ref)
    assert checks.check_verify(tmp_path / "good", ref) == []
    _fake_verify(tmp_path / "fail", ref, ["pass"] * 11 + ["FAIL"])
    assert checks.check_verify(tmp_path / "fail", ref)
    _fake_verify(tmp_path / "short", ref, ["pass"] * 11)
    assert checks.check_verify(tmp_path / "short", ref)
    off = dict(ref)
    name = next(iter(off))
    off[name] = (off[name][0] * (1 + 2.5 * checks.DW1D_NORM_RTOL), off[name][1])
    _fake_verify(tmp_path / "off", off)
    assert checks.check_verify(tmp_path / "off", ref)
    dropped = dict(ref)
    dropped.pop(name)
    _fake_verify(tmp_path / "dropped", dropped)
    assert checks.check_verify(tmp_path / "dropped", ref)


def test_simulate_check_fails_on_a_dropped_row_and_on_scaled_noise(tmp_path):
    cfg = _write(tmp_path / "s.ini", "[problem]\ntag = OU1D\n[simulation]\npaths = 4\nhorizon = 2.0\n")
    out = tmp_path / "s"
    assert cli.main(["simulate", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    assert checks.check_simulate(out, 4, 2000, 1e-3) == []

    scaled = tmp_path / "scaled"
    shutil.copytree(out, scaled)
    for path in scaled.glob("path_*.csv"):
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line[0].isdigit():
                t, x, flag = line.split(",")
                lines[i] = f"{t},{1.1 * float(x):.12g},{flag}"
        path.write_text("\n".join(lines) + "\n")
    assert any("variance" in p for p in checks.check_simulate(scaled, 4, 2000, 1e-3))

    path = out / "path_00002.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_simulate(out, 4, 2000, 1e-3)


def test_self_time_excludes_children_and_counts_continuations():
    spans = [
        [0, None, "outer", 0.0, 10.0, False, {"path_steps": 7}],
        [1, 0, "child", 1.0, 4.0, False, None],
        [2, 0, "child", 3.0, 5.0, False, None],
        [3, 0, "outer", 2.0, 8.0, True, None],  # worker thread, overlapping
        [4, 3, "child", 6.0, 7.0, False, None],
    ]
    st = tracing.aggregate(spans)
    assert st["outer"]["calls"] == 1
    assert st["outer"]["total_s"] == pytest.approx(10.0)
    # outer: 10 - |[1, 8]| = 3; its continuation: 6 - 1 = 5.
    assert st["outer"]["s"] == pytest.approx(8.0)
    assert st["outer"]["counts"]["path_steps"] == 7
    assert st["child"]["calls"] == 3
    assert st["child"]["s"] == pytest.approx(6.0)


def _traced_gradient(tmp_path, tag):
    cfg = _write(
        tmp_path / "tr.ini",
        "[problem]\ntag = ROT2D\nh = 1.0\n[simulation]\npaths = 300\n[inequality]\nt0 = 0.5\n",
    )
    report, spans = tmp_path / f"{tag}.json", tmp_path / f"{tag}.spans"
    cmd = [sys.executable, str(HERE / "launch.py"), "--report", str(report), "--trace", str(spans), "--"]
    cmd += ["gradient", "--config", str(cfg), "--out", str(tmp_path / tag), "--function", "bump0_w1"]
    cmd += ["--x", "0.2,-0.1", "--threads", "2"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(cmd, check=True, env=env, capture_output=True, timeout=120)
    metrics = tracing.layer_metrics(json.loads(spans.read_text()), 1.0)
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def test_traced_counts_are_exact_and_repeat(tmp_path):
    first = _traced_gradient(tmp_path, "a")
    assert first == _traced_gradient(tmp_path, "b")
    assert first["estimator.flow_summary.path_steps"] == 300 * 500
    assert first["engine.rk4_step.matrix_steps"] == 300 * 500
    assert first["engine.noise.draws"] == 300 * 500 * 2
    assert first["model.total_drift.points"] == 300 * 500
    assert first["model.curvature_matrix.points"] == 300 * 501


def test_run_refuses_a_tree_without_divflow(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate_ou1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
