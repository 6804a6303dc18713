"""Benchmark of divflow's three commands, timed from outside the process.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds `src/divflow`.  Each round
starts a fresh process (perfbench/launch.py) that imports divflow from
`src`, parses the workload's config and runs one divflow command on it;
rounds repeat until S seconds have passed.  Every round's outputs are
checked against computations made apart from divflow (checks.py) and must
be byte-identical to the first round's.  With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics (medians over rounds);
with --trace 1 it holds the per-layer metrics of traced rounds instead.
Outputs go to a temporary directory under perfbench/_work, removed at exit.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / "_work"

# time_to_se_s scales wall time to this standard error of the malliavin route.
SE_REF = 1.0e-3
SETUP_PROBES = 5
# No round starts once this much of a run has passed; a round is killed at
# CHILD_LIMIT_S.  Both keep a run under three minutes.
LAST_START_S = 110.0
CHILD_LIMIT_S = 165.0

# Master seed of the two workloads whose outputs carry statistical verdicts
# (divflow's default).  Each verdict fails on some seeds (see the README),
# and a run must fail the same share of operations whatever its seed.
MASTER_SEED = 2026
GRADIENT_PATHS = 16000
SIMULATE_PATHS = 20
SIMULATE_HORIZON = 2.0
SIMULATE_DT = 1.0e-3


dw1d_norms = functools.cache(checks.dw1d_norms)
rot2d_reference = functools.cache(checks.rot2d_reference)


def check_verify(out_dir):
    return checks.check_verify(out_dir, dw1d_norms()), None


def check_gradient(out_dir):
    return checks.check_gradient(out_dir, MASTER_SEED, GRADIENT_PATHS, rot2d_reference())


def check_simulate(out_dir):
    steps = int(round(SIMULATE_HORIZON / SIMULATE_DT))
    return checks.check_simulate(out_dir, SIMULATE_PATHS, steps, SIMULATE_DT), None


# name: (config file, divflow command and flags, output check).  The
# benchmark seed is the master seed of simulate only.
WORKLOADS = {
    # The longest built-in verify, and the only problem sampled by MALA.
    "verify_dw1d": (
        f"[problem]\ntag = DW1D\n[simulation]\nseed = {MASTER_SEED}\n",
        ("verify", "--threads", "1"),
        check_verify,
    ),
    # The fused flow_summary kernel in d = 2 at large batch: one noise block
    # of 16000 paths.  One thread, as two threads on two shared cores made
    # wall time swing by a third from round to round.
    "gradient_rot2d": (
        f"[problem]\ntag = ROT2D\nh = {checks.ROT2D_H}\n"
        f"[simulation]\npaths = {GRADIENT_PATHS}\nseed = {MASTER_SEED}\n"
        f"[inequality]\nt0 = {checks.ROT2D_T0}\n",
        (
            "gradient",
            "--function",
            "bump0_w1",
            "--x",
            ",".join(str(v) for v in checks.ROT2D_X),
            "--threads",
            "1",
        ),
        check_gradient,
    ),
    # One path per sweep: per-step Python overhead and CSV output.
    "simulate_ou1d": (
        f"[problem]\ntag = OU1D\n[simulation]\npaths = {SIMULATE_PATHS}\n"
        f"horizon = {SIMULATE_HORIZON}\ndt = {SIMULATE_DT}\n",
        ("simulate", "--seed", "{seed}"),
        check_simulate,
    ),
}


def _child_env(work):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(work)
    return env


def invoke(work, tag, divflow_args, trace=False, setup_only=False):
    """Start one child, wait for it, and return its timings and exit code."""
    report = work / f"{tag}.report.json"
    cmd = [sys.executable, str(HERE / "launch.py"), "--report", str(report)]
    trace_file = work / f"{tag}.spans.json"
    if trace:
        cmd += ["--trace", str(trace_file)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--", *divflow_args]
    with open(work / f"{tag}.log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, env=_child_env(work), stdout=log, stderr=log)
        killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"code": proc.returncode, "cpu_s": usage.ru_utime + usage.ru_stime, "ok": False}
    if report.exists():
        info = json.loads(report.read_text())
        src = (ROOT / "src").resolve()
        if src not in Path(info["divflow_file"]).resolve().parents:
            raise SystemExit(f"divflow was imported from {info['divflow_file']}, not {src}")
        result.update(setup_s=info["ready"] - start, wall_s=end - info["ready"], ok=True)
        if "peak_rss_kb" in info:
            result["rss_mb"] = info["peak_rss_kb"] / 1024.0
        report.unlink()
    if trace and trace_file.exists():
        result["spans"] = json.loads(trace_file.read_text())
        trace_file.unlink()
    if not result["ok"] or proc.returncode != 0:
        tail = (work / f"{tag}.log").read_text()[-2000:]
        print(f"{tag}: exit {proc.returncode}\n{tail}", file=sys.stderr)
    return result


def digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(p for p in Path(out_dir).rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run(name, seed, seconds, trace):
    config_text, command, check = WORKLOADS[name]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        config = work / "config.ini"
        config.write_text(config_text)
        base = [command[0], "--config", str(config), *(a.format(seed=seed) for a in command[1:])]
        setups = []
        if not trace:
            for i in range(SETUP_PROBES):
                probe = invoke(work, f"setup{i}", base, setup_only=True)
                if not probe["ok"]:
                    raise SystemExit("set-up probe failed")
                setups.append(probe["setup_s"])

        rounds, problems = [], []
        attempted = failed = 0
        first_digest = None
        start = time.monotonic()
        while attempted == 0 or time.monotonic() - start < min(seconds, LAST_START_S):
            out = work / f"out{attempted}"
            res = invoke(work, f"round{attempted}", base + ["--out", str(out)], trace=trace)
            attempted += 1
            if res["ok"]:
                rounds.append(res)
                setups.append(res["setup_s"])
            if not res["ok"] or res["code"] != 0:
                failed += 1
                shutil.rmtree(out, ignore_errors=True)
                continue
            found, res["se"] = check(out)
            problems += [f"round {attempted}: {p}" for p in found]
            current = digest(out)
            if first_digest is None:
                first_digest = current
            elif current != first_digest:
                problems.append(f"round {attempted}: outputs differ from round 1")
            shutil.rmtree(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    metrics = {}
    if rounds and not trace:
        wall = statistics.median(r["wall_s"] for r in rounds)
        scaled = [r["wall_s"] * (r["se"] / SE_REF) ** 2 for r in rounds if r.get("se")]
        if scaled:
            tts = statistics.median(scaled)
        else:
            # No single estimate to scale by: the factor is taken as 1.
            tts = wall
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in rounds), "unit": "MiB"},
            "time_to_se_s": {"value": tts, "unit": "s"},
        }
    elif rounds:
        per_round = [tracing.layer_metrics(r["spans"], r["cpu_s"]) for r in rounds]
        metrics = {
            key: {"value": statistics.median(m[key]["value"] for m in per_round), "unit": unit["unit"]}
            for key, unit in per_round[0].items()
        }
        traced_wall = statistics.median(r["wall_s"] for r in rounds)
        print(f"{name} traced wall_s {traced_wall:.6g} s", file=sys.stderr)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "divflow" / "cli.py").is_file():
        print(f"no divflow sources under {ROOT / 'src'}; run from a full source tree", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload} attempted {result['attempted']} failed {result['failed']}")
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
