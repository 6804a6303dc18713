"""Span tracing of divflow's layers, installed from outside the package.

`install` replaces selected divflow functions by wrappers that record one
span per call: name, start, end, parent and the work counts read off the
arguments.  A function is replaced in every divflow namespace that binds
it, since modules import each other's functions by name (`total_drift` is
bound in `model`, `engine` and `norms`; the checks are bound in `cli`).
Span stacks are thread-local.  Workers that `engine.map_batches` runs on
pool threads get a continuation span under the span that launched them, so
their time is charged to that layer.  Spans are kept in memory and written
out once, when the command has returned; `aggregate` turns them into the
per-layer metrics.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

# Span names of the wrapped layer functions.  Helpers inside a layer
# (`drift_b`, `jac_drift`, `apply_L`, ...) are left unwrapped, so their
# time is the layer's own time.
LAYERS = {
    "model": ["total_drift", "curvature_matrix", "apply_generator", "consistency_report"],
    "engine": ["euler_sweep", "rk4_step", "increments_block", "normal_increments"],
    "sde": ["sample_stationary", "simulate_path"],
    "variational": ["drift_jacobian_path", "fundamental_matrix", "theta_flow"],
    "control": ["build_control", "gronwall_sweep", "trace_moment_check"],
    "estimator": ["flow_summary", "ibp_from_summary"],
    "norms": [
        "operator_symmetry_check",
        "stationarity_check",
        "decay_check",
        "moment_bound_check",
        "check_gradient_inequality",
        "check_hessian_inequality",
        "exp_integrability",
        "norm_profile",
    ],
    "cli": [
        "cmd_simulate",
        "cmd_gradient",
        "cmd_verify",
        "run_verify",
        "resolve_t0",
        "_mu_mean_1d",
        "_write_lines",
        "_write_verify_outputs",
    ],
}

# Both noise generators form one layer.
RENAMES = {
    "engine.increments_block": "engine.noise",
    "engine.normal_increments": "engine.noise",
    "cli._write_lines": "cli.output",
    "cli._write_verify_outputs": "cli.output",
}

# The verify checks as `cli.run_verify` runs them: a call made directly
# from `run_verify` opens the span of the check it belongs to.  The
# control-discrepancy check is inline code, so it is the sum of its calls.
CHECK_OF = {
    "model.consistency_report": "coefficients",
    "norms.operator_symmetry_check": "operator_symmetry",
    "norms.stationarity_check": "stationarity",
    "engine.noise": "control_discrepancy",
    "sde.simulate_path": "control_discrepancy",
    "variational.drift_jacobian_path": "control_discrepancy",
    "variational.fundamental_matrix": "control_discrepancy",
    "control.build_control": "control_discrepancy",
    "variational.theta_flow": "control_discrepancy",
    "control.gronwall_sweep": "gronwall",
    "control.trace_moment_check": "trace_moment",
    "estimator.flow_summary": "ibp_identity",
    "estimator.ibp_from_summary": "ibp_identity",
    "norms.check_gradient_inequality": "gradient_inequality",
    "norms.norm_profile": "gradient_inequality",
    "norms.check_hessian_inequality": "hessian_inequality",
    "norms.exp_integrability": "exp_integrability",
    "cli._mu_mean_1d": "decay",
    "norms.decay_check": "decay",
    "norms.moment_bound_check": "moment_bound",
}
CHECKS = list(dict.fromkeys(CHECK_OF.values()))

COMMANDS = ("cli.cmd_simulate", "cli.cmd_gradient", "cli.cmd_verify")


def _steps(horizon, dt):
    return int(round(horizon / dt)) if horizon > 0 else 0


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _counters(divflow_modules):
    """Work counts per wrapped function, read off a call's arguments."""
    norms = divflow_modules["norms"]
    decay = _bound(norms.decay_check)
    moment = _bound(norms.moment_bound_check)
    stat = _bound(norms.stationarity_check)
    flow = _bound(divflow_modules["estimator"].flow_summary)
    euler = _bound(divflow_modules["engine"].euler_sweep)
    blocks = _bound(divflow_modules["engine"].increments_block)
    single = _bound(divflow_modules["engine"].normal_increments)

    def decay_steps(a, k):
        b = decay(a, k)
        n = min(b["n_outer"], b["ensemble"].count)
        return {"path_steps": n * b["inner_paths"] * _steps(max(b["t_grid"]), b["dt"])}

    def moment_steps(a, k):
        b = moment(a, k)
        n = min(b["n_paths"], b["ensemble"].count)
        return {"path_steps": n * _steps(b["cfg"].horizon, b["dt"])}

    def stat_steps(a, k):
        b = stat(a, k)
        n = min(b["n_paths"], b["ensemble"].count)
        return {"path_steps": n * _steps(max(b["t_grid"]), b["dt"])}

    def flow_steps(a, k):
        b = flow(a, k)
        return {"path_steps": b["n_paths"] * _steps(b["t_end"], b["dt"])}

    def euler_steps(a, k):
        inc = euler(a, k)["increments"]
        return {"path_steps": int(inc.shape[0] * inc.shape[1])}

    def block_draws(a, k):
        b = blocks(a, k)
        return {"draws": b["n_paths"] * b["count"] * b["dim"]}

    def single_draws(a, k):
        b = single(a, k)
        return {"draws": b["count"] * b["dim"]}

    # Keyed by the wrapped function.  The hot layers take their array
    # positionally at every call site.
    return {
        "model.total_drift": lambda a, k: {"points": a[1].size // a[0].dim},
        "model.curvature_matrix": lambda a, k: {"points": a[1].size // a[0].dim},
        "engine.rk4_step": lambda a, k: {"matrix_steps": a[0].size // (a[0].shape[-1] * a[0].shape[-2])},
        "engine.increments_block": block_draws,
        "engine.normal_increments": single_draws,
        "engine.euler_sweep": euler_steps,
        "estimator.flow_summary": flow_steps,
        "norms.decay_check": decay_steps,
        "norms.moment_bound_check": moment_steps,
        "norms.stationarity_check": stat_steps,
    }


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, continuation, counts]
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, parent, continuation=False, counts=None):
        span = [next(self._ids), parent, name, time.perf_counter(), None, continuation, counts]
        self._stack().append(span)
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, fn, name, counter=None):
        check = CHECK_OF.get(name)
        local, spans, ids, clock = self._local, self.spans, self._ids, time.perf_counter

        # _open and _close inlined: this runs once per drift evaluation.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            outer = None
            if check is not None and parent is not None and parent[2] == "cli.run_verify":
                outer = self._open(f"cli.check.{check}", parent[0])
                parent = outer
            counts = counter(args, kwargs) if counter is not None else None
            span = [next(ids), parent[0] if parent else None, name, clock(), None, False, counts]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                spans.append(span)
                if outer is not None:
                    self._close(outer)

        return traced

    def wrap_map_batches(self, fn):
        """Run each batch worker inside a continuation of the calling span."""

        @functools.wraps(fn)
        def traced(worker, specs, threads=1):
            stack = self._stack()
            if not stack:
                return fn(worker, specs, threads)
            launcher = stack[-1]

            def continued(spec):
                span = self._open(launcher[2], launcher[0], continuation=True)
                try:
                    return worker(spec)
                finally:
                    self._close(span)

            return fn(continued, specs, threads)

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps(self.spans, separators=(",", ":")))


def install(tracer, divflow_modules):
    """Wrap the layer functions in every divflow namespace that binds them."""
    counters = _counters(divflow_modules)
    replacements = {}
    for mod_name, names in LAYERS.items():
        module = divflow_modules[mod_name]
        for fn_name in names:
            original = getattr(module, fn_name)
            qualified = f"{mod_name}.{fn_name}"
            span = RENAMES.get(qualified, qualified)
            wrapped = tracer.wrap(original, span, counters.get(qualified))
            replacements[id(original)] = (original, wrapped)
    engine = divflow_modules["engine"]
    replacements[id(engine.map_batches)] = (
        engine.map_batches,
        tracer.wrap_map_batches(engine.map_batches),
    )
    for module in divflow_modules.values():
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def _union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def aggregate(spans):
    """Per-name totals: calls, total (inclusive) time, self time and counts.

    Self time is a span's duration minus the union of its children's
    intervals, summed over every span of the name, continuations included;
    on several threads it is thread time and can exceed wall time.  Total
    time sums the outermost non-continuation spans of each name.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[3], s[4]))
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "s": 0.0, "counts": defaultdict(int)})
    for s in spans:
        sid, parent, name, start, end, continuation, counts = s
        entry = stats[name]
        clipped = [(max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ())]
        entry["s"] += (end - start) - _union_length([iv for iv in clipped if iv[1] > iv[0]])
        if continuation:
            continue
        entry["calls"] += 1
        for key, val in (counts or {}).items():
            entry["counts"][key] += val
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            entry["total_s"] += end - start
    return stats


# Per-layer metrics: span name -> fields.  "s" is self time, "total_s"
# inclusive time, "calls" the number of calls; any other field is a count,
# and "<count>_per_s" divides it by total_s where listed, else by s.
PER_LAYER = {
    "model.total_drift": ("s", "calls", "points", "points_per_s"),
    "engine.noise": ("s", "draws", "draws_per_s"),
    "engine.rk4_step": ("s", "matrix_steps", "matrix_steps_per_s"),
    "estimator.flow_summary": ("total_s", "s", "path_steps", "path_steps_per_s"),
    "engine.euler_sweep": ("s", "path_steps", "path_steps_per_s"),
    "norms.decay_check": ("total_s", "s", "path_steps"),
    "norms.moment_bound_check": ("total_s", "s", "path_steps"),
    "norms.stationarity_check": ("total_s", "s", "path_steps"),
    "model.curvature_matrix": ("s", "points"),
    "sde.sample_stationary": ("s",),
    "control.gronwall_sweep": ("s",),
    "control.trace_moment_check": ("s",),
    "variational.fundamental_matrix": ("s",),
    "variational.theta_flow": ("s",),
    "norms.norm_profile": ("s",),
    "norms.operator_symmetry_check": ("s",),
    "model.apply_generator": ("s",),
    **{f"cli.check.{check}": ("total_s",) for check in CHECKS},
}

_ABSENT = {"calls": 0, "total_s": 0.0, "s": 0.0, "counts": {}}


def layer_metrics(spans, cpu_s):
    """The benchmark's per-layer metrics from one traced command."""
    st = aggregate(spans)
    out = {}
    for name, fields in PER_LAYER.items():
        entry = st.get(name, _ABSENT)
        for field in fields:
            if field in ("s", "total_s"):
                value, unit = entry[field], "s"
            elif field == "calls":
                value, unit = entry["calls"], "count"
            elif field.endswith("_per_s"):
                seconds = entry["total_s"] if "total_s" in fields else entry["s"]
                count = entry["counts"].get(field[: -len("_per_s")], 0)
                value, unit = (count / seconds if seconds > 0 else 0.0), "1/s"
            else:
                value, unit = entry["counts"].get(field, 0), "count"
            out[f"{name}.{field}"] = {"value": value, "unit": unit}
    # Output formatting is inline in the commands, so their self time is
    # counted with the file writers.
    output_s = sum(st.get(name, _ABSENT)["s"] for name in ("cli.output", *COMMANDS))
    out["cli.output.s"] = {"value": output_s, "unit": "s"}
    out["process.cpu_s"] = {"value": cpu_s, "unit": "s"}
    return out
