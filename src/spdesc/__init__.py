"""Structural descriptions of suborder-closed classes of SP posets.

Given a finite list of forbidden suborders, synthesize a finite
recursive system of two-point labeled construction rules generating
exactly the series-parallel posets avoiding them, and verify the result
by exhaustive enumeration at desk scale.

The package re-exports the documented surface below; every other name
is imported from its module (``spdesc.terms``, ``spdesc.bits`` and so on).
"""

from .terms import (
    EMPTY,
    POINT,
    ResourceLimitError,
    TermParseError,
    antichain_sum,
    chain_sum,
    enumerate_sp,
    is_suborder,
    parse_term,
)
from .ideals import load_obstruction_file, make_ideal, member
from .bits import (
    DocumentFormatError,
    StructuralDescription,
    UnknownIdealKeyError,
    from_json,
    ranks,
    to_json,
    validate,
)
from .closure import generate_upto, member_topdown
from .synth import SynthesisError, synthesize
from .oracle import avoiders_upto, brute_embed, verify_equivalence

__all__ = [
    "DocumentFormatError",
    "EMPTY",
    "POINT",
    "ResourceLimitError",
    "StructuralDescription",
    "SynthesisError",
    "TermParseError",
    "UnknownIdealKeyError",
    "antichain_sum",
    "avoiders_upto",
    "brute_embed",
    "chain_sum",
    "enumerate_sp",
    "from_json",
    "generate_upto",
    "is_suborder",
    "load_obstruction_file",
    "make_ideal",
    "member",
    "member_topdown",
    "parse_term",
    "ranks",
    "synthesize",
    "to_json",
    "validate",
    "verify_equivalence",
]
