"""Command-line front end.

Subcommands: ``describe`` synthesizes a description from an obstruction
file; ``verify`` checks a description against direct enumeration;
``member`` answers one ideal membership query; ``enumerate`` lists
canonical terms; ``show`` pretty-prints a valid description document.
All configuration is via flags, so identical invocations produce
identical output.  Exit codes: 0 success (and verification equal), 1
verification mismatch, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack

from .bits import (
    DocumentFormatError,
    UnknownIdealKeyError,
    from_json,
    label_doc,
    ranks,
    to_dot,
    to_json,
    validate,
)
from .ideals import load_obstruction_file, make_ideal, member
from .oracle import verify_equivalence
from .synth import synthesize
from .terms import ResourceLimitError, enumerate_sp, parse_term


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdesc",
        description=(
            "Synthesize and check recursive structural descriptions of"
            " suborder-closed classes of series-parallel posets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="synthesize a description from an obstruction file")
    p.add_argument("file", help="obstruction file, one term per line, '#' comments")
    p.add_argument("--out", help="write the JSON document here instead of stdout")
    p.add_argument("--dot", help="also write a Graphviz view of the entry graph")

    p = sub.add_parser("verify", help="check a description against direct enumeration")
    p.add_argument("file", help="obstruction file")
    p.add_argument("--max-size", type=int, required=True, help="verification size bound")
    p.add_argument(
        "--doc",
        help="verify this JSON document instead of synthesizing; it must be valid"
        " and rooted at the obstruction file's ideal",
    )

    p = sub.add_parser("member", help="decide membership of a term in the ideal")
    p.add_argument("file", help="obstruction file")
    p.add_argument("term", help="term to test, in the term grammar")

    p = sub.add_parser("enumerate", help="list canonical terms up to a size")
    p.add_argument("--max-size", type=int, required=True)

    p = sub.add_parser("show", help="pretty-print a description document")
    p.add_argument("doc", help="JSON document written by describe; it must be valid")
    return parser


# Built once: parsing leaves the parser unchanged, and argparse reads the
# terminal width and ``sys.stderr`` when it prints, not when it is built.
_PARSER = _build_parser()


def _cmd_describe(args) -> int:
    if args.out and args.dot and os.path.realpath(args.out) == os.path.realpath(args.dot):
        raise ValueError(f"--out and --dot name the same file: {args.dot}")
    terms = load_obstruction_file(args.file)
    desc = synthesize(terms)
    # Every text is rendered and every file opened before the first byte
    # is written, so a refused output leaves stdout empty; --dot opens
    # first, so a bad --dot leaves --out untouched.
    writes = [(args.dot, to_dot(desc))] if args.dot else []
    writes.append((args.out, to_json(desc)))
    with ExitStack() as stack:
        handles = [
            stack.enter_context(open(path, "w", encoding="utf-8")) if path else sys.stdout
            for path, _ in writes
        ]
        for fh, (_, text) in zip(handles, writes):
            fh.write(text)
    return 0


def _load_valid_doc(path):
    """The description document at ``path``; an invalid one is rejected
    with every problem ``validate`` reports."""
    with open(path, "r", encoding="utf-8") as fh:
        desc = from_json(fh.read())
    problems = validate(desc)
    if problems:
        raise DocumentFormatError("invalid description: " + "; ".join(problems))
    return desc


def _cmd_verify(args) -> int:
    terms = load_obstruction_file(args.file)
    if args.doc:
        desc = _load_valid_doc(args.doc)
        key = make_ideal(terms).key
        if desc.root != key:
            raise DocumentFormatError(
                f"document root {desc.root!r} is not the obstruction file's ideal {key!r}"
            )
    else:
        desc = synthesize(terms)
    report = verify_equivalence(terms, desc, args.max_size)
    for witness in report.missing:
        print(f"missing {witness}")
    for witness in report.extra:
        print(f"extra {witness}")
    print(report.summary())
    return 0 if report.equal else 1


def _cmd_member(args) -> int:
    ideal = make_ideal(load_obstruction_file(args.file))
    term = parse_term(args.term)
    print("true" if member(ideal, term) else "false")
    return 0


def _cmd_enumerate(args) -> int:
    for t in enumerate_sp(args.max_size):
        print(t.text)
    return 0


def _cmd_show(args) -> int:
    desc = _load_valid_doc(args.doc)
    depth = ranks(desc)  # every rank before the first print
    print(f"root {desc.root}")
    for key in sorted(desc.entries):
        print(f"entry {key}  (rank {depth[key]})")
        for bit in desc.entries[key].bits:
            print(f"  {bit.shape}: {label_doc(bit.first)} | {label_doc(bit.second)}")
    return 0


_COMMANDS = {
    "describe": _cmd_describe,
    "verify": _cmd_verify,
    "member": _cmd_member,
    "enumerate": _cmd_enumerate,
    "show": _cmd_show,
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (UnknownIdealKeyError, ResourceLimitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too large for the interpreter's recursion limit", file=sys.stderr)
        return 2
