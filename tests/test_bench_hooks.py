"""Benchmark hook tests.

Core claims:
    - every function the benchmark's tracer times or counts is a public
      function of its module, so the tracer wraps it; a renamed or
      privatized function would otherwise read 0 on its per-layer metric
    - the bit-set builders whose bits ``synth.candidate_bits`` counts are
      listed for the tracer and are public functions of ``spdesc.synth``
    - every name the benchmark's workloads import from the package is in
      ``spdesc.__all__`` and bound on the package, and ``__all__`` lists
      each name once
"""

import ast
import importlib
import types
from pathlib import Path

import spdesc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def test_candidate_builders_are_public_synth_functions():
    # ``synth.candidate_bits`` counts the bits these builders return.  The
    # set may name a builder that no longer exists, so only the live ones
    # are required.
    tracing = _tracing()
    public = dict(tracing.public_functions(importlib.import_module("spdesc.synth")))
    for name in ("chain_bit_set_multi", "antichain_bit_set"):
        assert f"synth.{name}" in tracing.CANDIDATE_BUILDERS, name
        assert name in public, name


def test_workload_imports_are_package_exports():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "spdesc"
        for alias in node.names
    ]
    assert imported
    for name in imported:
        assert name in spdesc.__all__, name
        assert hasattr(spdesc, name), name


def test_package_exports_are_listed_once():
    assert len(spdesc.__all__) == len(set(spdesc.__all__))
