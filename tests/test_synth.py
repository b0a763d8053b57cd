"""Synthesis engine tests.

Core claims:
    - the chain rules for one forbidden chain sum and their
      normalization match the worked examples (two-chain vanishes,
      three-chain keeps the middle rule)
    - the tuple case intersects picked labels, rewrites the target to R,
      and for one forbidden sum emits exactly its normalized rules
    - the component-block system indexes positionally; the staged
      split-steering enumeration emits exactly the naive candidate set
    - with both shapes forbidden, every label is intersected with the
      entry's ideal; a hand-built table without that intersection
      readmits A(*,*) in the documented counterexample
    - synthesize dispatches by obstruction shape, recurses on labels,
      keeps labels strictly decreasing, terminates, and is deterministic
    - degenerate inputs and oversized blocks fail with clear errors
"""

import hashlib
import itertools

import pytest

from spdesc import (
    BlockCapError,
    DegenerateIdealError,
    IdealRef,
    R,
    R_ANTICHAIN_BIT,
    R_CHAIN_BIT,
    StructuralDescription,
    antichain_bit,
    antichain_bit_set,
    antichain_sum,
    chain_bit,
    chain_bit_set_multi,
    chain_sum,
    component_blocks,
    contains_ideal,
    generate_upto,
    make_entry,
    make_ideal,
    normalize_bit,
    parse_term,
    prune_dominated,
    synthesize,
    to_json,
    validate,
    verify_equivalence,
)


def T(s):
    return parse_term(s)


def I(*texts):
    return make_ideal([T(s) for s in texts])


def label_key(label):
    return "R" if label is R else label.key


def bit_keys(bit):
    return (bit.shape, label_key(bit.first), label_key(bit.second))


class TestChainBitSetSingle:
    """The bit set of one forbidden chain sum, ``chain_bit_set_multi([p])``."""

    def test_two_chain_normalizes_away(self):
        assert chain_bit_set_multi([T("C(*,*)")]) == []

    def test_three_chain_keeps_middle_rule(self):
        bits = chain_bit_set_multi([T("C(*,*,*)")])
        assert [bit_keys(b) for b in bits] == [("chain", "C(*,*)", "C(*,*)")]

    def test_diamond_middle_rule(self):
        bits = chain_bit_set_multi([T("C(*,A(*,*),*)")])
        assert ("chain", "C(*,A(*,*))", "C(A(*,*),*)") in [bit_keys(b) for b in bits]

    def test_rejects_non_chain(self):
        with pytest.raises(ValueError):
            chain_bit_set_multi([T("A(*,*)")])


def naive_single_chain_bits(p):
    """Reference rules for one forbidden chain sum: build below an order
    avoiding the top layer, above one avoiding the bottom layer, or
    across inner layer i, each half avoiding its part of the layers;
    then normalize, dropping duplicates in order."""
    parts = p.children
    rules = [chain_bit(R, make_ideal([parts[-1]])), chain_bit(make_ideal([parts[0]]), R)]
    for i in range(1, len(parts) - 1):
        rules.append(
            chain_bit(
                make_ideal([chain_sum(parts[: i + 1])]), make_ideal([chain_sum(parts[i:])])
            )
        )
    kept = [normalize_bit(b) for b in rules]
    return list(dict.fromkeys(b for b in kept if b is not None))


class TestChainBitSetMulti:
    def test_k1_equals_single(self):
        for s in ("C(*,*)", "C(*,*,*)", "C(*,A(*,*),*)", "C(A(*,*),*,A(*,*,*))"):
            assert chain_bit_set_multi([T(s)]) == naive_single_chain_bits(T(s))

    def test_worked_example(self):
        bits = chain_bit_set_multi([T("C(*,*,*)"), T("C(A(*,*),A(*,*))")])
        keys = {bit_keys(b) for b in bits}
        assert ("chain", "A(*,*)|C(*,*)", "C(*,*)") in keys
        assert ("chain", "C(*,*)", "A(*,*)|C(*,*)") in keys
        assert len(bits) == 2

    def test_all_self_bottoms_give_self_label(self):
        # Both forbidden sums have two layers, so picking the
        # build-below rule for each leaves the bottom cell
        # self-referential.
        ps = [T("C(*,A(*,*))"), T("C(A(*,*),A(*,*,*))")]
        bits = chain_bit_set_multi(ps)
        assert any(b.first is R for b in bits)

    def test_labels_never_exceed_target(self):
        ps = [T("C(*,*,*)"), T("C(A(*,*),A(*,*))")]
        target = make_ideal(ps)
        for b in chain_bit_set_multi(ps, target):
            for label in (b.first, b.second):
                if label is not R:
                    assert contains_ideal(target, label)
                    assert label is not target


class TestComponentBlocks:
    def test_positional_indexing_keeps_duplicates(self):
        p1, p2, p3 = T("C(*,*)"), T("C(*,*,*)"), T("C(*,*,*,*)")
        system = component_blocks([antichain_sum([p1, p2]), antichain_sum([p2, p3])])
        assert system.components == (p1, p2, p2, p3)
        assert system.blocks == ((0, 1), (2, 3))

    def test_single_sums(self):
        system = component_blocks([T("A(*,*)")])
        assert system.components == (T("*"), T("*"))
        assert system.blocks == ((0, 1),)
        system = component_blocks([T("A(*,*,*)")])
        assert system.blocks == ((0, 1, 2),)

    def test_rejects_non_antichain(self):
        with pytest.raises(ValueError):
            component_blocks([T("C(*,*)")])


def naive_antichain_bits(ants):
    """Reference enumeration: every assignment of every two-sided split
    of every block to a side, one candidate bit each, then normalize."""
    system = component_blocks(ants)
    target = make_ideal(ants)
    comps = system.components
    block_splits = []
    for block in system.blocks:
        splits = []
        for mask in range(1 << len(block)):
            left = [comps[i] for b, i in enumerate(block) if mask >> b & 1]
            right = [comps[i] for b, i in enumerate(block) if not mask >> b & 1]
            splits.append((antichain_sum(left), antichain_sum(right)))
        block_splits.append(splits)
    out = set()
    all_assignments = [
        itertools.product((1, 2), repeat=len(splits)) for splits in block_splits
    ]
    for combo in itertools.product(*all_assignments):
        left_terms, right_terms = [], []
        for splits, sides in zip(block_splits, combo):
            for (to_left, to_right), side in zip(splits, sides):
                if side == 1:
                    left_terms.append(to_left)
                else:
                    right_terms.append(to_right)
        li = make_ideal(target.obstructions + tuple(left_terms))
        ri = make_ideal(target.obstructions + tuple(right_terms))
        bit = antichain_bit(R if li is target else li, R if ri is target else ri)
        kept = normalize_bit(bit)
        if kept is not None:
            out.add(kept)
    return out


class TestAntichainBitSet:
    def test_two_antichain_all_candidates_die(self):
        assert antichain_bit_set(component_blocks([T("A(*,*)")])) == []

    def test_three_antichain(self):
        bits = antichain_bit_set(component_blocks([T("A(*,*,*)")]))
        assert [bit_keys(b) for b in bits] == [("antichain", "A(*,*)", "A(*,*)")]

    def test_staged_matches_naive(self):
        families = [
            [T("A(*,*)")],
            [T("A(*,*,*)")],
            [T("A(*,C(*,*))")],
            [T("A(*,*)"), T("A(*,C(*,*))")],
            [T("A(*,*,*)"), T("A(*,C(*,*))")],
        ]
        for ants in families:
            staged = set(antichain_bit_set(component_blocks(ants)))
            assert staged == naive_antichain_bits(ants), ants

    def test_block_cap(self):
        with pytest.raises(BlockCapError):
            antichain_bit_set(component_blocks([T("A(*,*,*,*,*)")]))
        bits = antichain_bit_set(component_blocks([T("A(*,*,*,*,*)")]), max_block=5)
        assert bits  # enumerable once the cap is raised


class TestNormalizeBit:
    def test_empty_only_label_deletes_to_nothing(self):
        assert normalize_bit(chain_bit(R, I("*"))) is None

    def test_void_label_drops(self):
        assert normalize_bit(antichain_bit(I("0"), I("C(*,*)"))) is None

    def test_healthy_bit_unchanged(self):
        bit = chain_bit(I("C(*,*)"), I("C(*,*)"))
        assert normalize_bit(bit) is bit
        assert normalize_bit(R_CHAIN_BIT) is R_CHAIN_BIT


def naive_mixed_table():
    """The table for C(*,*,*)|A(*,*) with the chain rule's labels left
    unintersected with the root ideal: one chain bit with two C(*,*)
    cells, which readmit A(*,*) through the C(*,*)-free orders."""
    root = I("C(*,*,*)", "A(*,*)")
    entries = dict(synthesize([T("C(*,*)")]).entries)
    entries[root.key] = make_entry(root, [chain_bit(IdealRef("C(*,*)"), IdealRef("C(*,*)"))])
    return StructuralDescription(root.key, entries)


class TestMixedBitSet:
    """Both shapes forbidden: the union of the chain and antichain bit
    sets, every label intersected with the entry's ideal."""

    def test_label_intersection_example(self):
        from spdesc import intersect

        assert (
            intersect(I("C(*,*)"), I("C(*,*,*)", "A(*,*)")).key == "A(*,*)|C(*,*)"
        )

    def test_intersected_case_generates_exactly_the_target(self):
        desc = synthesize([T("C(*,*,*)"), T("A(*,*)")])
        bits = desc.entries[desc.root].bits
        assert [bit_keys(b) for b in bits] == [("chain", "A(*,*)|C(*,*)", "A(*,*)|C(*,*)")]
        got = generate_upto(desc, desc.root, 5).terms
        assert sorted(t.text for t in got) == ["*", "0", "C(*,*)"]

    def test_unintersected_labels_readmit_the_two_antichain(self):
        forbidden = [T("C(*,*,*)"), T("A(*,*)")]
        report = verify_equivalence(forbidden, naive_mixed_table(), 5)
        assert not report.equal
        assert "A(*,*)" in report.extra

    def test_no_self_bits_added(self):
        desc = synthesize([T("C(*,*,*)"), T("A(*,*,*)")])
        root_bits = desc.entries[desc.root].bits
        assert R_CHAIN_BIT not in root_bits
        assert R_ANTICHAIN_BIT not in root_bits


class TestSynthesize:
    def test_forbidden_two_chain_gives_antichains(self):
        desc = synthesize([T("C(*,*)")])
        assert desc.entries[desc.root].bits == (R_ANTICHAIN_BIT,)
        got = generate_upto(desc, desc.root, 4).terms
        assert sorted(t.text for t in got) == ["*", "0", "A(*,*)", "A(*,*,*)", "A(*,*,*,*)"]

    def test_forbidden_two_antichain_gives_chains(self):
        desc = synthesize([T("A(*,*)")])
        assert desc.entries[desc.root].bits == (R_CHAIN_BIT,)
        got = generate_upto(desc, desc.root, 4).terms
        assert sorted(t.text for t in got) == ["*", "0", "C(*,*)", "C(*,*,*)", "C(*,*,*,*)"]

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateIdealError, match="improper"):
            synthesize([])
        with pytest.raises(DegenerateIdealError, match="void ideal"):
            synthesize([T("0")])
        with pytest.raises(DegenerateIdealError, match="trivial ideal"):
            synthesize([T("*")])
        with pytest.raises(DegenerateIdealError, match="trivial ideal"):
            synthesize([T("*"), T("C(*,*)")])

    def test_block_cap_threads_through(self):
        with pytest.raises(BlockCapError):
            synthesize([T("A(*,*,*,*,*)")])
        desc = synthesize([T("A(*,*,*,*,*)")], max_block=5)
        assert verify_equivalence([T("A(*,*,*,*,*)")], desc, 6).equal

    def test_deterministic(self):
        for texts in (["C(*,A(*,*),*)"], ["C(*,*,*)", "A(*,*,*)"]):
            terms = [T(s) for s in texts]
            assert to_json(synthesize(terms)) == to_json(synthesize(terms))

    def test_strict_decrease_everywhere(self):
        for texts in (["C(*,A(*,*),*)"], ["C(*,*,*)", "A(*,*,*)"], ["C(*,A(*,*))"]):
            desc = synthesize([T(s) for s in texts])
            for key, entry in desc.entries.items():
                for bit in entry.bits:
                    for label in (bit.first, bit.second):
                        if label is not R:
                            ref = desc.ideal_for(label.key)
                            assert ref is not entry.ideal
                            assert contains_ideal(entry.ideal, ref)

    def test_memoized_shared_entries(self):
        # Both labels of the diamond's middle rule recurse into the same
        # two-antichain ideal; the table shares that entry.
        desc = synthesize([T("C(*,A(*,*),*)")])
        assert sorted(desc.entries) == [
            "A(*,*)",
            "C(*,A(*,*))",
            "C(*,A(*,*),*)",
            "C(A(*,*),*)",
        ]

    def test_all_emitted_bits_are_two_point(self):
        desc = synthesize([T("C(*,A(*,*),*)"), T("A(*,*,*,*)")])
        for entry in desc.entries.values():
            for bit in entry.bits:
                assert bit.shape in ("chain", "antichain")
        assert validate(desc) == []


class TestPruning:
    def test_prune_preserves_semantics(self):
        for texts in (["C(*,A(*,*),*)"], ["C(*,*,*)", "A(*,*,*)"], ["A(*,*,*)", "A(*,C(*,*))"]):
            terms = [T(s) for s in texts]
            pruned = synthesize(terms, prune=True)
            plain = synthesize(terms)
            assert verify_equivalence(terms, pruned, 6).equal
            n_pruned = sum(len(e.bits) for e in pruned.entries.values())
            n_plain = sum(len(e.bits) for e in plain.entries.values())
            assert n_pruned <= n_plain

    def test_prune_drops_dominated(self):
        target = I("C(*,*,*)", "A(*,*)")
        wide = chain_bit(R, R)
        narrow = chain_bit(I("C(*,*)", "A(*,*)"), R)
        kept = prune_dominated([wide, narrow], target)
        assert kept == [wide]


# sha256 of ``to_json(synthesize(...))``, pinned so that any change to the
# emitted tables shows up: the ten catalog sets, the width-4 antichain
# sum, and three sets mixing chain sums with antichain sums.
GOLDEN = {
    ("C(*,*)",): "02904d70fe7450ed6cc3699609f1d912874d0b74a10fcd28228c30ae52f76487",
    ("A(*,*)",): "274dec66a070fcd77fc2f1bc2c763b8e9f8da5df8d881d0c771269b0346bf089",
    ("C(*,*,*)",): "c711999d5b191820c60b911660d0d8ef3963d3653d650efaf1cd8e2af4be8881",
    ("A(*,*,*)",): "f01a13bcadfb61ffd71fd5b8ed83c579d05a6501bb0cbc25302c905b678233ae",
    ("C(*,A(*,*))",): "914c6643cbf4bd42dc391002c583a1d2642101478b8b140b625e09c35d9fe8f2",
    ("C(*,*,*)", "C(A(*,*),A(*,*))"): (
        "b277ebacc13bfb47e7618e4255e65cf6ddc121f47ab201ac7cd5ac1073f46cb7"
    ),
    ("A(*,*,*)", "A(*,C(*,*))"): (
        "c92cd232c1d5ed839fa5873cd67fbf4e5ab51f86b83f0c0be16b7c343e34548f"
    ),
    ("C(*,*,*)", "A(*,*,*)"): (
        "337f3571e15e59504d1ae68cf07a4ff7b2a5bd7bace282f3ec7452ad6e75208d"
    ),
    ("C(*,A(*,*),*)",): "a999b2ef38b94135f64faf94c0f34e01288ad308463dccc2492f617754ed028e",
    ("C(*,A(*,*),*)", "A(*,*,*,*)"): (
        "e4be2837f9af6b9c7347aa31b637fa9cc33b93b8291c83fb32f119ed8d906967"
    ),
    ("A(*,C(*,*),C(*,*,*),C(*,A(*,*)))",): (
        "5e40f0758cbf126437ef965051473e39b19423e6ea988d2c41b66fda8d9b2589"
    ),
    ("A(*,*,*)", "A(*,C(*,*))", "C(*,*,*,*)"): (
        "65cd4783a5db0f99b1a848d7773a363210495b7cbf0877bfa62a28f7d999d4c9"
    ),
    ("A(C(*,*),C(*,*,*),C(*,A(*,*)))", "C(A(*,*),*,*)"): (
        "e8ba7d066b03cd83e7a14a6b9663df4af74fb2d61d864415534666847704e385"
    ),
    ("A(*,C(*,A(*,*)))", "C(*,A(*,*),*)", "C(*,*,*,*)"): (
        "e8b96f425bf02761e81669bb6f621295cb845cd429f491d5034de2e8ba5919f1"
    ),
}


@pytest.mark.parametrize("texts", sorted(GOLDEN), ids="+".join)
def test_golden_describe_output(texts):
    text = to_json(synthesize([T(s) for s in texts]))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[texts]
