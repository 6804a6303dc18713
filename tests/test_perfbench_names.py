"""Every divflow name that perfbench/tracing.py wraps still exists.

The tracer looks its layer functions up by name, so a rename in divflow
would break `perfbench/run.py --trace 1` without failing any divflow test.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_layer_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [(mod, name) for mod, names in tracing.LAYERS.items() for name in names]
    wrapped.append(("engine", "map_batches"))
    missing = [
        f"{mod}.{name}"
        for mod, name in wrapped
        if not callable(getattr(importlib.import_module(f"divflow.{mod}"), name, None))
    ]
    assert missing == []
