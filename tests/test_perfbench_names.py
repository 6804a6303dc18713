"""Every divflow name that perfbench/tracing.py wraps still exists.

The tracer looks its layer functions up by name, so a rename in divflow
would break `perfbench/run.py --trace 1` without failing any divflow test.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
