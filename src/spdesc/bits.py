"""Bits and structural descriptions.

A bit is a two-point labeled order, either a chain (bottom below top) or
an antichain (two incomparable cells).  Each label is either ``R``, the
self reference, or a lower ideal: the interned ``Ideal`` itself.  A
structural description is a finite table mapping ideal keys to (ideal,
bit set) entries; it reads as a recursive construction system: start
from the empty and one point orders, and whenever a bit's cells can be
filled (self-labeled cells from what has been built so far,
ideal-labeled cells from the label's ideal), the combined order is
built too.  Key strings appear only as the table's keys and in the JSON
document, where a label is written as its ideal's key.

Two leaf ideals may appear as labels without having entries of their
own, because no bit system can generate them: the void ideal (key
``"0"``) and the ideal containing only the empty order (key ``"*"``).
Their membership is decided directly from the obstructions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from .ideals import (
    EMPTY_ONLY_IDEAL,
    VOID_IDEAL,
    Ideal,
    contains_ideal,
    make_ideal,
)
from .terms import TermParseError, parse_term

CHAIN_SHAPE = "chain"
ANTICHAIN_SHAPE = "antichain"


class UnknownIdealKeyError(KeyError):
    """A key names no entry of the description."""

    def __str__(self):
        return "unknown ideal key " + ", ".join(map(repr, self.args))


class DocumentFormatError(ValueError):
    """A serialized description document violates the schema."""


class _RLabel:
    """The self-reference label; a singleton."""

    __slots__ = ()

    def __repr__(self):
        return "R"


R = _RLabel()


def label_sort_key(label):
    if label is R:
        return (0, "")
    return (1, label.key)


@dataclass(frozen=True, slots=True)
class Bit:
    """Two-point labeled chain or antichain.

    ``first``/``second`` are bottom/top for a chain and the two unordered
    cells of an antichain; antichain labels are stored sorted.  Labels
    are ``R`` or interned ``Ideal`` values, so two labels are equal iff
    they are the same object.
    """

    shape: str
    first: object
    second: object


def chain_bit(bottom, top) -> Bit:
    return Bit(CHAIN_SHAPE, bottom, top)


def antichain_bit(a, b) -> Bit:
    if label_sort_key(b) < label_sort_key(a):
        a, b = b, a
    return Bit(ANTICHAIN_SHAPE, a, b)


def bit_sort_key(bit: Bit):
    return (0 if bit.shape == CHAIN_SHAPE else 1, label_sort_key(bit.first), label_sort_key(bit.second))


@dataclass(frozen=True, slots=True)
class Entry:
    ideal: Ideal
    bits: tuple[Bit, ...]


def make_entry(ideal: Ideal, bits) -> Entry:
    """Entry with its bit set deduplicated and deterministically sorted."""
    ordered = sorted(set(bits), key=bit_sort_key)
    return Entry(ideal, tuple(ordered))


class StructuralDescription:
    """Keyed table of entries plus the root ideal's key.

    After construction the table is immutable and safe for concurrent
    reads; the membership cache used by the closure module fills in
    get-or-compute style.
    """

    def __init__(self, root: str, entries: dict[str, Entry]):
        self.root = root
        self.entries = dict(entries)
        self._topdown_cache: dict = {}

    def __eq__(self, other):
        if not isinstance(other, StructuralDescription):
            return NotImplemented
        return self.root == other.root and self.entries == other.entries

    def __repr__(self):
        return f"StructuralDescription(root={self.root!r}, entries={len(self.entries)})"


def _entry_refs(entry: Entry):
    for bit in entry.bits:
        for label in (bit.first, bit.second):
            if label is not R:
                yield label.key


def rank(desc: StructuralDescription, key: str) -> int:
    """Recursion depth of an entry: 0 for an empty bit set, otherwise one
    more than the deepest referenced entry (references without entries,
    i.e. the leaf ideals, add no depth)."""
    if key not in desc.entries:
        raise UnknownIdealKeyError(key)
    return _walk_ranks(desc, key, {}, set())


def _walk_ranks(desc: StructuralDescription, key: str, ranks: dict, open_keys: set) -> int:
    """``rank`` of ``key``, depth first over the references that have
    entries, with an explicit stack so that a deep table needs no
    recursion.  ``ranks`` holds the ranks found so far and gains each
    entry walked; ``open_keys`` holds the entries whose references are
    still being walked, and a reference back into it raises
    ``ValueError``, leaving the walked path in it."""
    open_keys.add(key)
    stack = [(key, _entry_refs(desc.entries[key]))]
    while stack:
        k, refs = stack[-1]
        for ref in refs:
            if ref not in desc.entries or ref in ranks:
                continue
            if ref in open_keys:
                raise ValueError(f"cyclic references through entry {ref!r}")
            open_keys.add(ref)
            stack.append((ref, _entry_refs(desc.entries[ref])))
            break
        else:
            stack.pop()
            open_keys.discard(k)
            entry = desc.entries[k]
            deepest = max(
                (ranks[ref] for ref in _entry_refs(entry) if ref in desc.entries), default=0
            )
            ranks[k] = deepest + 1 if entry.bits else 0
    return ranks[key]


def validate(desc: StructuralDescription) -> list[str]:
    """Check the description invariants; returns a list of violation
    messages, empty when the description is valid.

    Checked: the root has an entry, and every label has one or is one of
    the two leaf ideals; entry keys match their ideals; every entry's
    ideal is nontrivial and proper, since the improper ideal is not
    described and the void and empty-only ideals are leaves that no bit
    set generates; bit shapes are the two-point chain/antichain shapes;
    the reference graph is acyclic; every label ideal is strictly
    contained in its entry's ideal.
    """
    problems = []
    if desc.root not in desc.entries:
        problems.append(f"root key {desc.root!r} has no entry")
    for key in sorted(desc.entries):
        entry = desc.entries[key]
        if entry.ideal.key != key:
            problems.append(f"entry {key!r}: key does not match its ideal {entry.ideal.key!r}")
        ideal = entry.ideal
        if not ideal.is_nontrivial_proper:
            kind = "improper" if ideal.is_improper else "void" if ideal.is_void else "empty-only"
            problems.append(
                f"entry {key!r}: {kind} ideal; only nontrivial proper ideals have entries"
            )
        for bit in entry.bits:
            if bit.shape not in (CHAIN_SHAPE, ANTICHAIN_SHAPE):
                problems.append(f"entry {key!r}: unknown bit shape {bit.shape!r}")
                continue
            for label in (bit.first, bit.second):
                if label is R:
                    continue
                if label.key not in desc.entries and label not in (VOID_IDEAL, EMPTY_ONLY_IDEAL):
                    problems.append(f"entry {key!r}: label {label.key!r} does not resolve")
                    continue
                if label is entry.ideal or not contains_ideal(entry.ideal, label):
                    problems.append(
                        f"entry {key!r}: label {label.key!r} is not strictly contained"
                        " in the entry ideal"
                    )
    # Cycle check over references that have entries.
    ranks: dict[str, int] = {}
    open_keys: set[str] = set()
    for key in sorted(desc.entries):
        if key not in ranks and key not in open_keys:
            try:
                _walk_ranks(desc, key, ranks, open_keys)
            except ValueError:
                problems.append(f"reference cycle through entry {key!r}")
    return problems


def label_doc(label) -> str:
    """A label as the document writes it: ``R`` or its ideal's key."""
    return "R" if label is R else label.key


def _require_fields(mapping, fields, what):
    if not isinstance(mapping, dict):
        raise DocumentFormatError(f"{what} must be an object")
    extra = set(mapping) - set(fields)
    if extra:
        raise DocumentFormatError(f"{what} has unknown fields: {sorted(extra)}")
    missing = set(fields) - set(mapping)
    if missing:
        raise DocumentFormatError(f"{what} is missing fields: {sorted(missing)}")


def _parse_ideal(texts, what) -> Ideal:
    try:
        return make_ideal(parse_term(s) for s in texts)
    except TermParseError as exc:
        raise DocumentFormatError(f"bad {what}: {exc}") from exc


def deserialize(doc: dict) -> StructuralDescription:
    """Rebuild a description from a document; rejects unknown fields and
    malformed terms, shapes or labels.

    Every entry's ideal is parsed first and must be spelled as its
    canonical obstruction texts in key order, so a label naming an entry
    is that entry's ideal; only a label naming no entry is parsed, and it
    must be its ideal's canonical key."""
    _require_fields(doc, ("root", "entries"), "document")
    root = doc["root"]
    if not isinstance(root, str):
        raise DocumentFormatError("root must be a key string")
    if not isinstance(doc["entries"], list):
        raise DocumentFormatError("entries must be a list")
    ideals: dict[str, Ideal] = {}
    parsed = []
    for entry_doc in doc["entries"]:
        _require_fields(entry_doc, ("ideal", "bits"), "entry")
        terms_doc = entry_doc["ideal"]
        if not isinstance(terms_doc, list) or not all(isinstance(s, str) for s in terms_doc):
            raise DocumentFormatError("entry ideal must be a list of term strings")
        ideal = _parse_ideal(terms_doc, "obstruction term")
        if terms_doc != [t.text for t in ideal.obstructions]:
            raise DocumentFormatError(f"entry ideal {terms_doc!r} is no canonical obstruction list")
        if not isinstance(entry_doc["bits"], list):
            raise DocumentFormatError("entry bits must be a list")
        if ideal.key in ideals:
            raise DocumentFormatError(f"duplicate entry for ideal {ideal.key!r}")
        ideals[ideal.key] = ideal
        parsed.append((ideal, entry_doc["bits"]))

    def label(s: str):
        if s == "R":
            return R
        got = ideals.get(s)
        if got is None:
            got = _parse_ideal(s.split("|"), "label")
            if got.key != s:
                raise DocumentFormatError(f"label {s!r} is not a canonical ideal key")
        return got

    entries: dict[str, Entry] = {}
    for ideal, bits_doc in parsed:
        bits = []
        for bit_doc in bits_doc:
            _require_fields(bit_doc, ("shape", "labels"), "bit")
            shape = bit_doc["shape"]
            if shape not in (CHAIN_SHAPE, ANTICHAIN_SHAPE):
                raise DocumentFormatError(f"unknown bit shape {shape!r}")
            labels_doc = bit_doc["labels"]
            if (
                not isinstance(labels_doc, list)
                or len(labels_doc) != 2
                or not all(isinstance(s, str) for s in labels_doc)
            ):
                raise DocumentFormatError("bit labels must be a pair of strings")
            first, second = label(labels_doc[0]), label(labels_doc[1])
            if shape == CHAIN_SHAPE:
                bits.append(chain_bit(first, second))
            else:
                bits.append(antichain_bit(first, second))
        entries[ideal.key] = make_entry(ideal, bits)
    return StructuralDescription(root, entries)


def _json_list(items: list[str], indent: str) -> str:
    """A list of encoded JSON values laid out as ``json.dumps(...,
    indent=2)`` lays out a list opened at ``indent``."""
    if not items:
        return "[]"
    return "[\n" + indent + "  " + (",\n" + indent + "  ").join(items) + "\n" + indent + "]"


# The document's fixed layout at indent 2, one template per object.
_BIT_JSON = (
    '{\n          "shape": %s,\n          "labels": [\n            %s,\n'
    '            %s\n          ]\n        }'
)
_ENTRY_JSON = '{\n      "ideal": %s,\n      "bits": %s\n    }'
_DOCUMENT_JSON = '{\n  "root": %s,\n  "entries": %s\n}\n'


def to_json(desc: StructuralDescription) -> str:
    """The description's JSON document, the one ``deserialize`` reads,
    laid out as ``json.dumps(..., indent=2)`` lays it out, plus a final
    newline.  It is written straight from the table: the document's
    shape is fixed, and the standard encoder takes its pure-Python path
    whenever it indents."""
    entries = []
    for key in sorted(desc.entries):
        entry = desc.entries[key]
        ideal = [_quote(t.text) for t in entry.ideal.obstructions]
        bits = [
            _BIT_JSON
            % (_quote(bit.shape), _quote(label_doc(bit.first)), _quote(label_doc(bit.second)))
            for bit in entry.bits
        ]
        entries.append(_ENTRY_JSON % (_json_list(ideal, "      "), _json_list(bits, "      ")))
    return _DOCUMENT_JSON % (_quote(desc.root), _json_list(entries, "  "))


def from_json(text: str) -> StructuralDescription:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"invalid JSON: {exc}") from exc
    return deserialize(doc)


def to_dot(desc: StructuralDescription) -> str:
    """Graphviz view: one node per entry (leaf labels get their own
    nodes), one edge per distinct entry-to-ideal reference."""
    keys = sorted(desc.entries)
    referenced = {ref for key in keys for ref in _entry_refs(desc.entries[key])}
    extra = sorted(referenced - set(keys))
    names = {k: f"n{i}" for i, k in enumerate(keys + extra)}
    lines = ["digraph structural_description {"]
    for k in keys:
        shape = ", penwidth=2" if k == desc.root else ""
        lines.append(f'  {names[k]} [label="{k}"{shape}];')
    for k in extra:
        lines.append(f'  {names[k]} [label="{k}", style=dashed];')
    edges = sorted(
        {(names[k], names[ref]) for k in keys for ref in _entry_refs(desc.entries[k])}
    )
    for a, b in edges:
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
