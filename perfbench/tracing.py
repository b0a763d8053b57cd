"""Per-layer spans and counters, installed from outside the package.

The layers are the modules of ``spdesc``.  ``install`` wraps each
module's public functions where the *other* modules, the package
namespace and the benchmark look them up, so a call that crosses a
module boundary opens a span and a module's calls to itself (such as
``is_suborder`` recursing) stay inside the span that entered it.  A
span's self time is its duration minus the time of the spans it opened.

Per-function times and counts need every call, including calls a module
makes to itself (``oracle.verify_equivalence`` calling
``avoiders_upto``), so a function that is timed or counted is also
replaced in its own module by a wrapper that measures without opening a
span.  Its time is inclusive and taken at the outermost call only.
Nothing is installed unless the worker runs traced, and the wrappers
record only while ``Tracer.active``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("terms", "ideals", "bits", "synth", "closure", "oracle", "cli")

# Constructors and accessors of the term and bit algebra: every layer
# calls them millions of times for constant work, so a span each would
# cost more than what it measures.  Their time counts to the caller.
UNWRAPPED = {
    "terms": {"chain_sum", "antichain_sum", "size", "compare", "print_term",
              "term_sort_key", "finest_chain_rep", "finest_antichain_rep"},
    "bits": {"chain_bit", "antichain_bit", "bit_sort_key", "label_sort_key"},
    "ideals": {"ideal_key"},
}

# Functions counted on every call, with the counter each call adds to.
COUNTED = {
    "terms.is_suborder": "terms.is_suborder_calls",
    "ideals.make_ideal": "ideals.make_ideal_calls",
    "ideals.member": "ideals.member_calls",
    "oracle.brute_embed": "oracle.brute_embed_calls",
}

# Bit-set builders: the bits returned by the outermost one of them are
# the candidates synthesis considered before assembling the table.
CANDIDATE_BUILDERS = {"synth.chain_bit_set_multi", "synth.antichain_bit_set",
                      "synth.mixed_bit_set"}

# Inclusive times reported as `<layer>.<function>_s`.
TIMED = (
    "cli.main", "synth.synthesize", "ideals.make_ideal", "ideals.contains_ideal",
    "ideals.member", "ideals.members_upto", "bits.to_json", "closure.generate_upto",
    "closure.member_topdown", "oracle.avoiders_upto", "terms.enumerate_sp",
    "terms.is_suborder",
)

COUNTS = tuple(COUNTED.values()) + ("synth.candidate_bits", "closure.generated_terms")


class Tracer:
    """Aggregates as calls return: self time per layer from spans, and
    inclusive time (outermost call only) and counts per function."""

    def __init__(self):
        self.active = False
        self._stack: list[list[float]] = []  # child time of each open span
        self._open: dict[str, int] = defaultdict(int)
        self._builder_depth = 0
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def span(self, layer: str, fn):
        """Wrapper for other modules' look-ups: one span per call."""
        stack, self_time = self._stack, self.self_time

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                self_time[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur

        return spanned

    def own(self, qual: str, fn):
        """Wrapper for every call, the module's own included, of a function
        that is timed or counted; ``fn`` itself when it is neither."""
        count_name = COUNTED.get(qual)
        timed = qual in TIMED
        builder = qual in CANDIDATE_BUILDERS
        generating = qual == "closure.generate_upto"
        if not (count_name or timed or builder or generating):
            return fn
        open_, inclusive, counts = self._open, self.inclusive, self.counts

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count_name:
                counts[count_name] += 1
            outermost = timed and not open_[qual]
            if outermost:
                open_[qual] = 1
                start = perf_counter()
            self._builder_depth += builder
            try:
                result = fn(*args, **kwargs)
            finally:
                self._builder_depth -= builder
                if outermost:
                    inclusive[qual] += perf_counter() - start
                    open_[qual] = 0
            if builder and not self._builder_depth:
                counts["synth.candidate_bits"] += len(result)
            if generating:
                counts["closure.generated_terms"] += len(result.terms)
            return result

        return measured

    def metrics(self) -> dict[str, float]:
        out = {f"{qual}_s": self.inclusive.get(qual, 0.0) for qual in TIMED}
        out.update({name: self.counts.get(name, 0) for name in COUNTS})
        out.update({f"{layer}.self_s": self.self_time.get(layer, 0.0) for layer in LAYERS})
        return out


def public_functions(module):
    """Functions defined in the module whose names have no leading underscore."""
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]


def install(tracer: Tracer) -> dict:
    """Wrap every layer's public functions; returns the wrapped callables
    by qualified name (``layer.function``) for the benchmark to call."""
    package = importlib.import_module("spdesc")
    modules = {layer: importlib.import_module(f"spdesc.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    api = {}
    for layer, module in modules.items():
        for name, fn in public_functions(module):
            if name in UNWRAPPED.get(layer, ()):
                continue
            qual = f"{layer}.{name}"
            inner = tracer.own(qual, fn)
            setattr(module, name, inner)
            outer = tracer.span(layer, inner)
            for ns in namespaces:
                if ns is not module and vars(ns).get(name) is fn:
                    setattr(ns, name, outer)
            api[qual] = outer
    return api


def plain_api() -> dict:
    """The same callables as ``install`` returns, unwrapped."""
    api = {}
    for layer in LAYERS:
        module = importlib.import_module(f"spdesc.{layer}")
        for name, fn in public_functions(module):
            api[f"{layer}.{name}"] = fn
    return api
