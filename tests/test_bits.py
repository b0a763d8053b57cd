"""Bit and description-table tests.

Core claims:
    - bits are two-point shapes with antichain labels stored unordered
    - rank is 0 exactly for empty bit sets and otherwise one more than
      the deepest referenced entry
    - validate reports unresolved labels, non-strict labels, cycles and
      entries for the improper, void and empty-only ideals, and passes
      on synthesized tables
    - serialize/deserialize round-trips losslessly, deterministically,
      and rejects unknown fields and malformed documents
    - to_json writes exactly what the standard encoder writes for the
      serialized document at indent 2, empty lists included
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
    serialize,
    synthesize,
    to_json,
    validate,
)
from spdesc.bits import R, IdealRef, antichain_bit, chain_bit, deserialize, make_entry, to_dot
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
        a, b = IdealRef("C(*,*)"), IdealRef("A(*,*)")
        assert antichain_bit(a, b) == antichain_bit(b, a)
        assert antichain_bit(a, R) == antichain_bit(R, a)
        assert antichain_bit(R, a).first is R

    def test_chain_labels_ordered(self):
        a, b = IdealRef("C(*,*)"), IdealRef("A(*,*)")
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
            (high, [chain_bit(R, IdealRef(low.key)), antichain_bit(R, R)]),
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
            desc.ideal_for("A(*,*,*)")
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
        desc = entry_table((ideal, [chain_bit(IdealRef(ideal.key), R)]))
        problems = validate(desc)
        assert any("not strictly contained" in p for p in problems)
        assert any("cycle" in p for p in problems)

    def test_missing_key_is_a_resolution_violation(self):
        desc = entry_table((I("C(*,*)"), [chain_bit(IdealRef("A(*,*,*)"), R)]))
        problems = validate(desc)
        assert any("does not resolve" in p for p in problems)

    def test_leaf_keys_resolve_without_entries(self):
        desc = entry_table((I("C(*,*)"), [chain_bit(IdealRef("0"), IdealRef("*"))]))
        assert validate(desc) == []

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
            doc = serialize(desc)
            again = deserialize(doc)
            assert again == desc
            assert serialize(again) == doc
            assert from_json(to_json(desc)) == desc

    def test_deterministic_json(self):
        a = to_json(synthesize([T("C(*,A(*,*),*)")]))
        b = to_json(synthesize([T("C(*,A(*,*),*)")]))
        assert a == b

    def test_empty_description_document(self):
        desc = entry_table((I("C(*,*)"), []))
        doc = serialize(desc)
        assert doc == {"root": "C(*,*)", "entries": [{"ideal": ["C(*,*)"], "bits": []}]}
        assert deserialize(doc) == desc

    def test_unknown_field_rejected(self):
        doc = serialize(synthesize([T("C(*,*,*)")]))
        doc["comment"] = "hello"
        with pytest.raises(DocumentFormatError):
            deserialize(doc)

    def test_unknown_bit_field_rejected(self):
        doc = serialize(synthesize([T("C(*,*,*)")]))
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
            assert to_json(desc) == json.dumps(serialize(desc), indent=2) + "\n"

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
