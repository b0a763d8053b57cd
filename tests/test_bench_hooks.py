"""Benchmark hook tests.

Core claim:
    - every function the benchmark's tracer times or counts is a public
      function of its module, so the tracer wraps it; a renamed or
      privatized function would otherwise read 0 on its per-layer metric
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    # Run from source so that nothing, not even a bytecode cache, is
    # written next to the benchmark.
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(module))
    return module


def test_timed_and_counted_names_are_wrapped_public_functions():
    tracing = _tracing()
    for qual in tracing.TIMED + tuple(tracing.COUNTED):
        layer, name = qual.split(".")
        module = importlib.import_module(f"spdesc.{layer}")
        assert name in dict(tracing.public_functions(module)), qual
        assert name not in tracing.UNWRAPPED.get(layer, ()), qual
