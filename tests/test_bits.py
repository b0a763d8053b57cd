"""Bit and description-table tests.

Core claims:
    - bits are two-point shapes with antichain labels stored unordered
    - rank is 0 exactly for empty bit sets and otherwise one more than
      the deepest referenced entry
    - validate reports unresolved labels (the improper ideal among
      them), non-strict labels, cycles and entries for the improper,
      void and empty-only ideals, and passes on synthesized tables
    - every label other than R is the interned ideal of its entry, or
      one of the two leaf ideals, in synthesized and reloaded tables
    - to_json/deserialize round-trips losslessly, deterministically,
      and rejects unknown fields and malformed documents; a label naming
      no entry must be its ideal's canonical key, and the leaf labels
      ``0`` and ``*`` load as the leaf ideals
    - to_json lays its document out exactly as the standard encoder
      does at indent 2, empty lists included, and from_json reads it
      back as the same table
"""

import json

import pytest

from spdesc import (
    DocumentFormatError,
    StructuralDescription,
    from_json,
    make_ideal,
    parse_term,
    rank,
    synthesize,
    to_json,
    validate,
)
from spdesc.bits import R, antichain_bit, chain_bit, deserialize, make_entry, to_dot
from spdesc.ideals import EMPTY_ONLY_IDEAL, VOID_IDEAL
from test_synth import GOLDEN, seeded_sets


def T(s):
    return parse_term(s)


def I(*texts):
    return make_ideal([T(s) for s in texts])


def entry_table(*pairs, root=None):
    entries = {}
    for ideal, bits in pairs:
        entries[ideal.key] = make_entry(ideal, bits)
    return StructuralDescription(root or pairs[0][0].key, entries)


class TestBitShapes:
    def test_self_bits(self):
        chain, antichain = chain_bit(R, R), antichain_bit(R, R)
        assert chain.shape == "chain" and antichain.shape == "antichain"
        assert chain.first is R and chain.second is R
        assert antichain.first is R and antichain.second is R

    def test_antichain_labels_unordered(self):
        a, b = I("C(*,*)"), I("A(*,*)")
        assert antichain_bit(a, b) == antichain_bit(b, a)
        assert antichain_bit(a, R) == antichain_bit(R, a)
        assert antichain_bit(R, a).first is R

    def test_chain_labels_ordered(self):
        a, b = I("C(*,*)"), I("A(*,*)")
        assert chain_bit(a, b) != chain_bit(b, a)


class TestRank:
    def test_self_bit_only_is_rank_1(self):
        desc = entry_table((I("C(*,*)"), [antichain_bit(R, R)]))
        assert rank(desc, desc.root) == 1

    def test_empty_description_is_rank_0(self):
        desc = entry_table((I("C(*,*)"), []))
        assert rank(desc, desc.root) == 0

    def test_reference_adds_a_level(self):
        low = I("A(*,*)")
        high = I("C(*,A(*,*))")
        desc = entry_table(
            (high, [chain_bit(R, low), antichain_bit(R, R)]),
            (low, [chain_bit(R, R)]),
        )
        assert rank(desc, low.key) == 1
        assert rank(desc, high.key) == 2

    def test_unknown_key(self):
        from spdesc import UnknownIdealKeyError

        desc = entry_table((I("C(*,*)"), [antichain_bit(R, R)]))
        with pytest.raises(UnknownIdealKeyError):
            rank(desc, "A(*,*)")

    def test_unknown_key_message(self):
        from spdesc import UnknownIdealKeyError

        desc = entry_table((I("C(*,*)"), [antichain_bit(R, R)]))
        with pytest.raises(UnknownIdealKeyError) as exc:
            rank(desc, "A(*,*,*)")
        assert str(exc.value) == "unknown ideal key 'A(*,*,*)'"

    def test_rank_bounded_by_entry_count(self):
        desc = synthesize([T("C(*,A(*,*),*)")])
        assert rank(desc, desc.root) <= len(desc.entries)


class TestValidate:
    def test_synthesized_tables_are_valid(self):
        for texts in (["C(*,*,*)"], ["C(*,A(*,*),*)"], ["C(*,*,*)", "A(*,*,*)"]):
            desc = synthesize([T(s) for s in texts])
            assert validate(desc) == []

    def test_self_label_is_a_strict_decrease_violation(self):
        ideal = I("C(*,*)")
        desc = entry_table((ideal, [chain_bit(ideal, R)]))
        problems = validate(desc)
        assert any("not strictly contained" in p for p in problems)
        assert any("cycle" in p for p in problems)

    def test_missing_key_is_a_resolution_violation(self):
        desc = entry_table((I("C(*,*)"), [chain_bit(I("A(*,*,*)"), R)]))
        problems = validate(desc)
        assert any("does not resolve" in p for p in problems)

    def test_leaf_keys_resolve_without_entries(self):
        desc = entry_table((I("C(*,*)"), [chain_bit(I("0"), I("*"))]))
        assert validate(desc) == []

    def test_improper_label_does_not_resolve(self):
        # The improper ideal is no leaf: only the void and empty-only
        # ideals resolve without entries.
        desc = entry_table((I("C(*,*)"), [chain_bit(make_ideal([]), R)]))
        assert validate(desc) == ["entry 'C(*,*)': label '' does not resolve"]

    def test_missing_root(self):
        desc = entry_table((I("C(*,*)"), [antichain_bit(R, R)]), root="A(*,*)")
        assert any("root" in p for p in validate(desc))

    @pytest.mark.parametrize(
        "obstructions, kind", [((), "improper"), (("0",), "void"), (("*",), "empty-only")]
    )
    def test_degenerate_entry(self, obstructions, kind):
        desc = entry_table((I(*obstructions), []))
        assert validate(desc) == [
            f"entry {desc.root!r}: {kind} ideal; only nontrivial proper ideals have entries"
        ]

    def test_key_ideal_mismatch(self):
        entries = {"C(*,*,*)": make_entry(I("C(*,*)"), [antichain_bit(R, R)])}
        desc = StructuralDescription("C(*,*,*)", entries)
        assert any("does not match" in p for p in validate(desc))


class TestLabels:
    def test_labels_are_entry_ideals_or_leaves(self):
        tables = [synthesize([T(s) for s in texts]) for texts in sorted(GOLDEN)]
        tables += [synthesize(terms) for terms in seeded_sets()]
        tables += [from_json(to_json(desc)) for desc in tables]
        for desc in tables:
            for entry in desc.entries.values():
                for bit in entry.bits:
                    for label in (bit.first, bit.second):
                        if label is R or label is VOID_IDEAL or label is EMPTY_ONLY_IDEAL:
                            continue
                        assert label is desc.entries[label.key].ideal, (desc.root, bit)


class TestSerialization:
    def test_round_trip_synthesized(self):
        catalog = (
            ["C(*,*)"],
            ["A(*,*)"],
            ["C(*,*,*)"],
            ["A(*,*,*)"],
            ["C(*,A(*,*))"],
            ["C(*,*,*)", "C(A(*,*),A(*,*))"],
            ["A(*,*,*)", "A(*,C(*,*))"],
            ["C(*,*,*)", "A(*,*,*)"],
            ["C(*,A(*,*),*)"],
            ["C(*,A(*,*),*)", "A(*,*,*,*)"],
        )
        for texts in catalog:
            desc = synthesize([T(s) for s in texts])
            doc = json.loads(to_json(desc))
            again = deserialize(doc)
            assert again == desc
            assert json.loads(to_json(again)) == doc
            assert from_json(to_json(desc)) == desc

    def test_deterministic_json(self):
        a = to_json(synthesize([T("C(*,A(*,*),*)")]))
        b = to_json(synthesize([T("C(*,A(*,*),*)")]))
        assert a == b

    def test_empty_description_document(self):
        desc = entry_table((I("C(*,*)"), []))
        doc = json.loads(to_json(desc))
        assert doc == {"root": "C(*,*)", "entries": [{"ideal": ["C(*,*)"], "bits": []}]}
        assert deserialize(doc) == desc

    def test_unknown_field_rejected(self):
        doc = json.loads(to_json(synthesize([T("C(*,*,*)")])))
        doc["comment"] = "hello"
        with pytest.raises(DocumentFormatError):
            deserialize(doc)

    def test_unknown_bit_field_rejected(self):
        doc = json.loads(to_json(synthesize([T("C(*,*,*)")])))
        doc["entries"][0]["bits"] = [{"shape": "chain", "labels": ["R", "R"], "x": 1}]
        with pytest.raises(DocumentFormatError):
            deserialize(doc)

    def test_bad_shape_and_labels_rejected(self):
        base = {"root": "C(*,*)", "entries": [{"ideal": ["C(*,*)"], "bits": []}]}
        bad_shape = json.loads(json.dumps(base))
        bad_shape["entries"][0]["bits"] = [{"shape": "triangle", "labels": ["R", "R"]}]
        with pytest.raises(DocumentFormatError):
            deserialize(bad_shape)
        bad_arity = json.loads(json.dumps(base))
        bad_arity["entries"][0]["bits"] = [{"shape": "chain", "labels": ["R"]}]
        with pytest.raises(DocumentFormatError):
            deserialize(bad_arity)
        bad_term = json.loads(json.dumps(base))
        bad_term["entries"][0]["ideal"] = ["C(*"]
        with pytest.raises(DocumentFormatError):
            deserialize(bad_term)

    @pytest.mark.parametrize("label", ["", "C(*, *)", "A(*,*)|A(*,*,*)", "X", "C(*,*)|"])
    def test_label_that_is_no_canonical_key_rejected(self, label):
        doc = {
            "root": "C(*,*,*)",
            "entries": [
                {"ideal": ["C(*,*,*)"], "bits": [{"shape": "chain", "labels": [label, "R"]}]},
                {"ideal": ["A(*,*)"], "bits": []},
            ],
        }
        with pytest.raises(DocumentFormatError):
            deserialize(doc)

    @pytest.mark.parametrize(
        "spelling",
        [
            ["A(*, *)", "A(*,*,*)"],
            ["A(*,*)", "A(*,*,*)"],
            ["A(*, *)"],
            ["A(*,*)", "A(*,*)"],
            ["C(*,*,*)", "A(*,*,*)"],
        ],
    )
    def test_entry_that_is_no_canonical_spelling_rejected(self, spelling):
        canonical = make_ideal([T(s) for s in spelling])
        assert spelling != [t.text for t in canonical.obstructions]
        doc = {"root": canonical.key, "entries": [{"ideal": spelling, "bits": []}]}
        with pytest.raises(DocumentFormatError, match="canonical obstruction list"):
            deserialize(doc)

    def test_leaf_labels_load_as_leaf_ideals(self):
        doc = {
            "root": "C(*,*,*)",
            "entries": [
                {
                    "ideal": ["C(*,*,*)"],
                    "bits": [
                        {"shape": "chain", "labels": ["*", "*"]},
                        {"shape": "chain", "labels": ["0", "R"]},
                    ],
                }
            ],
        }
        desc = deserialize(doc)
        bits = desc.entries["C(*,*,*)"].bits
        assert bits == (chain_bit(EMPTY_ONLY_IDEAL, EMPTY_ONLY_IDEAL), chain_bit(VOID_IDEAL, R))
        assert validate(desc) == []
        assert json.loads(to_json(desc)) == doc

    def test_duplicate_entry_rejected(self):
        doc = {
            "root": "C(*,*)",
            "entries": [
                {"ideal": ["C(*,*)"], "bits": []},
                {"ideal": ["C(*,*)"], "bits": []},
            ],
        }
        with pytest.raises(DocumentFormatError):
            deserialize(doc)

    def test_writer_matches_the_indenting_encoder(self):
        tables = [synthesize([T(s) for s in texts]) for texts in sorted(GOLDEN)]
        tables += [synthesize(terms) for terms in seeded_sets()]
        for desc in tables:
            text = to_json(desc)
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
            assert from_json(text) == desc
            assert to_json(from_json(text)) == text

    def test_writer_lays_out_empty_lists(self):
        no_bits = {"root": "C(*,*)", "entries": [{"ideal": ["C(*,*)"], "bits": []}]}
        no_entries = {"root": "C(*,*)", "entries": []}
        for doc in (no_bits, no_entries):
            assert to_json(deserialize(doc)) == json.dumps(doc, indent=2) + "\n"
        assert '"bits": []' in to_json(deserialize(no_bits))
        assert '"entries": []' in to_json(deserialize(no_entries))

    def test_bad_json_text(self):
        with pytest.raises(DocumentFormatError):
            from_json("{not json")


class TestDot:
    def test_nodes_and_edges(self):
        desc = synthesize([T("C(*,A(*,*),*)")])
        dot = to_dot(desc)
        assert dot.startswith("digraph")
        for key in desc.entries:
            assert f'label="{key}"' in dot
        assert dot.count("->") >= 3
        assert to_dot(desc) == dot  # deterministic
