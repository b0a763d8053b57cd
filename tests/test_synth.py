"""Synthesis engine tests.

Core claims:
    - the chain rules for one forbidden chain sum match the worked
      examples (two-chain vanishes, three-chain keeps the middle rule)
    - the tuple case intersects picked labels, rewrites the target to R,
      and for one forbidden sum emits exactly the dominance-maximal
      rules without a void or empty-only cell
    - a bit set forbidding no sum is the all-R bit of its shape, and no
      label of a synthesized table is void or empty-only
    - the pruned split-steering product emits exactly the
      dominance-maximal elements of the naive candidate set
    - no emitted bit is dominated by another bit of its entry, the
      tables of 200 seeded random obstruction sets verify at size 6,
      and antichain sums of five to eight components verify at size 9
    - with both shapes forbidden, every label is intersected with the
      entry's ideal; a hand-built table without that intersection
      readmits A(*,*) in the documented counterexample
    - synthesize dispatches by obstruction shape, gives every label its
      entry, keeps labels strictly decreasing on every pinned and seeded
      table, walks a 120-point chain's 119 entries without recursing per
      level, and is deterministic
    - degenerate inputs fail with clear errors, and a fold over the
      pair budget raises ResourceLimitError, as the width-6 sum does at
      the default budget
    - the mask fold gives the same pairs in the same order as a fold
      over interned ideals, straight and crosswise, on every entry of
      the seeded sets and of the pinned tables
    - the maximal-pair filter keeps the same pairs in the same order as
      a quadratic first-wins filter, straight and crosswise, on seeded
      mask pairs with ties, repeats and swapped twins
    - a forbidden sum lists at most one split choice past the fold's
      choice budget, so twenty distinct components are refused at once
    - entries are memoized across calls: tables are byte-identical
      whether their entries were built cold or in any order after other
      tables, a described table folds nothing again, a table sharing
      entries with one already described folds only its new entries,
      and a refusal is not memoized
    - every memo cache of the package is pinned by name, fills during
      synthesis, verification and top-down membership, and holds only
      pure results: cleared, it gives byte-identical tables, reports and
      verdicts, and the intern tables are left alone
"""

import hashlib
import importlib
import itertools
import random
import sys
from pathlib import Path

import pytest

import spdesc
from spdesc import synth
from spdesc import (
    ResourceLimitError,
    StructuralDescription,
    antichain_sum,
    chain_sum,
    enumerate_sp,
    generate_upto,
    make_ideal,
    member_topdown,
    parse_term,
    synthesize,
    to_json,
    validate,
    verify_equivalence,
)
from spdesc.bits import R, antichain_bit, chain_bit, make_entry
from spdesc.ideals import contains_ideal
from spdesc.synth import DegenerateIdealError, antichain_bit_set, chain_bit_set_multi
from spdesc.terms import ANTICHAIN, CHAIN, POINT, antichain_splits

from reference_diamond import diamond_free_shape
from test_imports import INTERN_TABLES


def T(s):
    return parse_term(s)


def I(*texts):
    return make_ideal([T(s) for s in texts])


def label_key(label):
    return "R" if label is R else label.key


def bit_keys(bit):
    return (bit.shape, label_key(bit.first), label_key(bit.second))


def dominates(big, small, target):
    """True iff every cell of ``small`` lies inside the matching cell of
    ``big`` (in either matching, for antichain bits), reading ``R`` as
    the target ideal."""
    if big.shape != small.shape:
        return False

    def cell(label):
        return target if label is R else label

    readings = [(big.first, big.second)]
    if big.shape == "antichain":
        readings.append((big.second, big.first))
    return any(
        contains_ideal(cell(a), cell(small.first)) and contains_ideal(cell(b), cell(small.second))
        for a, b in readings
    )


def maximal(bits, target):
    """The bits that no other bit dominates."""
    bits = set(bits)
    return {b for b in bits if not any(o != b and dominates(o, b, target) for o in bits)}


def normalize(bit):
    """The bit, or None when a cell is void or empty-only: such a cell
    leaves the bit nothing to build outside its entry."""
    labels = (bit.first, bit.second)
    if any(label is not R and (label.is_void or label.is_empty_only) for label in labels):
        return None
    return bit


def chain_bits(ps):
    return chain_bit_set_multi(ps, make_ideal(ps))


def antichain_bits(ants):
    return antichain_bit_set(ants, make_ideal(ants))


class TestChainBitSetSingle:
    """The bit set of one forbidden chain sum, ``chain_bit_set_multi([p],
    ideal of p)``."""

    def test_two_chain_normalizes_away(self):
        assert chain_bits([T("C(*,*)")]) == []

    def test_three_chain_keeps_middle_rule(self):
        bits = chain_bits([T("C(*,*,*)")])
        assert [bit_keys(b) for b in bits] == [("chain", "C(*,*)", "C(*,*)")]

    def test_diamond_middle_rule(self):
        bits = chain_bits([T("C(*,A(*,*),*)")])
        assert ("chain", "C(*,A(*,*))", "C(A(*,*),*)") in [bit_keys(b) for b in bits]

    def test_rejects_non_chain(self):
        with pytest.raises(ValueError):
            chain_bits([T("A(*,*)")])


def naive_single_chain_bits(p):
    """Reference rules for one forbidden chain sum: build below an order
    avoiding the top layer, above one avoiding the bottom layer, or
    across inner layer i, each half avoiding its part of the layers;
    then normalize, dropping duplicates in order.  No rule is pruned."""
    parts = p.children
    rules = [chain_bit(R, make_ideal([parts[-1]])), chain_bit(make_ideal([parts[0]]), R)]
    for i in range(1, len(parts) - 1):
        rules.append(
            chain_bit(
                make_ideal([chain_sum(parts[: i + 1])]), make_ideal([chain_sum(parts[i:])])
            )
        )
    kept = [normalize(b) for b in rules]
    return list(dict.fromkeys(b for b in kept if b is not None))


class TestChainBitSetMulti:
    def test_k1_equals_single(self):
        for s in ("C(*,*)", "C(*,*,*)", "C(*,A(*,*),*)", "C(A(*,*),*,A(*,*,*))"):
            p = T(s)
            bits = chain_bits([p])
            assert len(bits) == len(set(bits))
            assert set(bits) == maximal(naive_single_chain_bits(p), make_ideal([p])), s

    def test_worked_example(self):
        bits = chain_bits([T("C(*,*,*)"), T("C(A(*,*),A(*,*))")])
        keys = {bit_keys(b) for b in bits}
        assert ("chain", "A(*,*)|C(*,*)", "C(*,*)") in keys
        assert ("chain", "C(*,*)", "A(*,*)|C(*,*)") in keys
        assert len(bits) == 2

    def test_all_self_bottoms_give_self_label(self):
        # Both forbidden sums have two layers, so picking the
        # build-below rule for each leaves the bottom cell
        # self-referential.
        ps = [T("C(*,A(*,*))"), T("C(A(*,*),A(*,*,*))")]
        bits = chain_bits(ps)
        assert any(b.first is R for b in bits)

    def test_labels_never_exceed_target(self):
        ps = [T("C(*,*,*)"), T("C(A(*,*),A(*,*))")]
        target = make_ideal(ps)
        for b in chain_bit_set_multi(ps, target):
            for label in (b.first, b.second):
                if label is not R:
                    assert contains_ideal(target, label)
                    assert label is not target


def naive_antichain_bits(ants):
    """Reference enumeration: every assignment of every two-sided split
    of every forbidden sum's components, the empty sides included, to a
    side, one candidate bit each, then normalize.  Equal components at
    different positions split apart.  No candidate is pruned."""
    target = make_ideal(ants)
    sum_splits = []
    for a in ants:
        comps = a.children
        splits = []
        for mask in range(1 << len(comps)):
            left = [c for i, c in enumerate(comps) if mask >> i & 1]
            right = [c for i, c in enumerate(comps) if not mask >> i & 1]
            splits.append((antichain_sum(left), antichain_sum(right)))
        sum_splits.append(splits)
    out = set()
    all_assignments = [
        itertools.product((1, 2), repeat=len(splits)) for splits in sum_splits
    ]
    for combo in itertools.product(*all_assignments):
        left_terms, right_terms = [], []
        for splits, sides in zip(sum_splits, combo):
            for (to_left, to_right), side in zip(splits, sides):
                if side == 1:
                    left_terms.append(to_left)
                else:
                    right_terms.append(to_right)
        li = make_ideal(target.obstructions + tuple(left_terms))
        ri = make_ideal(target.obstructions + tuple(right_terms))
        bit = antichain_bit(R if li is target else li, R if ri is target else ri)
        kept = normalize(bit)
        if kept is not None:
            out.add(kept)
    return out


class TestAntichainBitSet:
    def test_two_antichain_all_candidates_die(self):
        assert antichain_bits([T("A(*,*)")]) == []

    def test_three_antichain(self):
        bits = antichain_bits([T("A(*,*,*)")])
        assert [bit_keys(b) for b in bits] == [("antichain", "A(*,*)", "A(*,*)")]

    def test_staged_matches_naive(self):
        families = [
            [T("A(*,*)")],
            [T("A(*,*,*)")],
            [T("A(*,C(*,*))")],
            [T("A(*,*)"), T("A(*,C(*,*))")],
            [T("A(*,*,*)"), T("A(*,C(*,*))")],
            # pruning cuts the naive set of 8 bits to 4
            [T("A(*,C(*,*),C(*,*,*))")],
            # equal components: the naive set splits them positionally
            [T("A(*,C(*,*),C(*,*))")],
        ]
        for ants in families:
            staged = antichain_bits(ants)
            assert len(staged) == len(set(staged))
            assert set(staged) == maximal(naive_antichain_bits(ants), make_ideal(ants)), ants

    def test_rejects_non_antichain(self):
        with pytest.raises(ValueError):
            antichain_bits([T("C(*,*)")])

    def test_fold_budget(self, monkeypatch):
        wide = [T("A(*,C(*,*),C(*,*,*),C(*,A(*,*)))")]
        assert len(antichain_bits(wide)) > 4
        monkeypatch.setattr(synth, "MAX_FOLD_PAIRS", 4)
        with pytest.raises(ResourceLimitError, match="more than 4 cell pairs"):
            antichain_bits(wide)


class TestNormalizeBit:
    """The fold drops options whose cell would be empty-only or void."""

    def test_empty_only_label_deletes_to_nothing(self):
        assert I("*").is_empty_only
        target = I("C(*,*,*)")
        assert synth._fold([[((), (T("*"),))]], target) == []
        assert chain_bits([T("C(*,*)")]) == []

    def test_void_label_drops(self):
        assert I("0").is_void
        target = I("C(*,*,*)")
        assert synth._fold([[((T("0"),), ())]], target) == []
        healthy = ((), (T("C(*,*)"),))
        assert synth._fold([[((T("0"),), ()), healthy]], target) == [(target, I("C(*,*)"))]


def naive_mixed_table():
    """The table for C(*,*,*)|A(*,*) with the chain rule's labels left
    unintersected with the root ideal: one chain bit with two C(*,*)
    cells, which readmit A(*,*) through the C(*,*)-free orders."""
    root = I("C(*,*,*)", "A(*,*)")
    entries = dict(synthesize([T("C(*,*)")]).entries)
    entries[root.key] = make_entry(root, [chain_bit(I("C(*,*)"), I("C(*,*)"))])
    return StructuralDescription(root.key, entries)


class TestMixedBitSet:
    """Both shapes forbidden: the union of the chain and antichain bit
    sets, every label intersected with the entry's ideal."""

    def test_label_intersection_example(self):
        a, b = I("C(*,*)"), I("C(*,*,*)", "A(*,*)")
        assert make_ideal(a.obstructions + b.obstructions).key == "A(*,*)|C(*,*)"

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
        assert chain_bit(R, R) not in root_bits
        assert antichain_bit(R, R) not in root_bits


class TestSynthesize:
    def test_forbidden_two_chain_gives_antichains(self):
        desc = synthesize([T("C(*,*)")])
        assert desc.entries[desc.root].bits == (antichain_bit(R, R),)
        got = generate_upto(desc, desc.root, 4).terms
        assert sorted(t.text for t in got) == ["*", "0", "A(*,*)", "A(*,*,*)", "A(*,*,*,*)"]

    def test_forbidden_two_antichain_gives_chains(self):
        desc = synthesize([T("A(*,*)")])
        assert desc.entries[desc.root].bits == (chain_bit(R, R),)
        got = generate_upto(desc, desc.root, 4).terms
        assert sorted(t.text for t in got) == ["*", "0", "C(*,*)", "C(*,*,*)", "C(*,*,*,*)"]

    def test_no_forbidden_sum_gives_the_all_r_bit(self):
        for target in (I("C(*,*)"), I("A(*,*)"), I("C(*,*,*)", "A(*,*,*)")):
            assert chain_bit_set_multi([], target) == [chain_bit(R, R)]
            assert antichain_bit_set([], target) == [antichain_bit(R, R)]

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateIdealError, match="improper"):
            synthesize([])
        with pytest.raises(DegenerateIdealError, match="void ideal"):
            synthesize([T("0")])
        with pytest.raises(DegenerateIdealError, match="trivial ideal"):
            synthesize([T("*")])
        with pytest.raises(DegenerateIdealError, match="trivial ideal"):
            synthesize([T("*"), T("C(*,*)")])

    def test_wide_antichain_sums_verify(self):
        # Sums of five to eight components, each obstruction small
        # enough that verification at size 9 sees it excluded.
        for text in (
            "C(*,A(*,*,*,*,*))",
            "A(*,*,*,C(*,*),C(*,*,*))",
            "A(*,*,C(*,*),C(*,*),C(*,*,*))",
            "A(*,*,*,*,*,*,*,*)",
        ):
            forbidden = [T(text)]
            assert forbidden[0].n_points <= 9
            assert verify_equivalence(forbidden, synthesize(forbidden), 9).equal, text

    def test_deterministic(self):
        for texts in (["C(*,A(*,*),*)"], ["C(*,*,*)", "A(*,*,*)"]):
            terms = [T(s) for s in texts]
            assert to_json(synthesize(terms)) == to_json(synthesize(terms))

    def test_strict_decrease_everywhere(self):
        # Synthesis proves this instead of checking it (see its module
        # docstring), so the pinned and seeded tables check it here.
        for terms in [[T(s) for s in texts] for texts in GOLDEN] + seeded_sets():
            for key, entry in synthesize(terms).entries.items():
                for bit in entry.bits:
                    for label in (bit.first, bit.second):
                        if label is not R:
                            assert label is not entry.ideal, (terms, key)
                            assert contains_ideal(entry.ideal, label), (terms, key)

    def test_a_long_chain_is_walked_without_recursion(self):
        # One entry per chain of 2-120 points, each labeling the next
        # shorter one; built cold, 40 frames above this test's own.
        synth._entry.cache_clear()
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            desc = synthesize([chain_sum([POINT] * 120)])
        finally:
            sys.setrecursionlimit(limit)
        assert len(desc.entries) == 119

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


class TestDominanceFree:
    TABLES = (
        ["C(*,A(*,*),*)"],
        ["C(*,*,*)", "A(*,*,*)"],
        ["A(*,*,*)", "A(*,C(*,*))"],
        ["C(*,*,*)", "C(A(*,*),A(*,*))"],
        ["A(*,C(*,*),C(*,*,*),C(*,A(*,*)))"],
        ["C(*,A(*,*),*)", "A(*,*,*,*)"],
    )

    def test_no_bit_is_dominated_within_its_entry(self):
        for texts in self.TABLES:
            desc = synthesize([T(s) for s in texts])

            for key, entry in desc.entries.items():
                assert maximal(entry.bits, entry.ideal) == set(entry.bits), (texts, key)

    def test_tables_verify(self):
        for texts in self.TABLES[:3]:
            terms = [T(s) for s in texts]
            assert verify_equivalence(terms, synthesize(terms), 6).equal


def seeded_sets():
    """200 seeded random sets of one to three orders of 2-5 points."""
    pool = [t for t in enumerate_sp(5) if t.n_points >= 2]
    rng = random.Random(4)
    return [rng.sample(pool, rng.randint(1, 3)) for _ in range(200)]


def test_seeded_random_sets_verify():
    for terms in seeded_sets():
        report = verify_equivalence(terms, synthesize(terms), 6)
        assert report.equal, ([t.text for t in terms], report.summary())


# A sum of five distinct components, 418 entries and 4,383 bits; adding a
# sixth component carries the fold past its pair budget.
WIDTH_5 = "A(*,C(*,*),C(*,*,*),C(*,A(*,*)),C(A(*,*),*))"
WIDTH_6 = "A(*,C(*,*),C(*,*,*),C(*,A(*,*)),C(A(*,*),*),C(*,*,*,*))"

# sha256 of ``to_json(synthesize(...))``, pinned so that any change to the
# emitted tables shows up: the ten catalog sets, the width-4 antichain
# sum, three sets mixing chain sums with antichain sums, and the width-5
# sum.  The tables
# are dominance-free; three of them lost dominated bits when pruning
# moved into the product, and their hashes are those of the earlier
# unpruned synthesis followed by a separate pass dropping dominated bits:
# the width-4 sum, A(C(*,*),...)+C(A(*,*),*,*) and C(*,A(*,*),*)+A(*,*,*,*).
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
        "9b8f69d9541b5dd3b5727b53e8ea0e4c118d7e6c47f4cadfbc76da123e469e45"
    ),
    ("A(*,C(*,*),C(*,*,*),C(*,A(*,*)))",): (
        "dfa2afd01839d0d724bf42d659a3fc90ea20e9b05adaab1e33a0a735931c3f4e"
    ),
    ("A(*,*,*)", "A(*,C(*,*))", "C(*,*,*,*)"): (
        "65cd4783a5db0f99b1a848d7773a363210495b7cbf0877bfa62a28f7d999d4c9"
    ),
    ("A(C(*,*),C(*,*,*),C(*,A(*,*)))", "C(A(*,*),*,*)"): (
        "cdfdc4c5d139072c1507715ea93b7c1a4786ddc940686adfb992570640757910"
    ),
    ("A(*,C(*,A(*,*)))", "C(*,A(*,*),*)", "C(*,*,*,*)"): (
        "e8b96f425bf02761e81669bb6f621295cb845cd429f491d5034de2e8ba5919f1"
    ),
    (WIDTH_5,): "4fa2cece3137a89b7c6ffcb08d640d2fe2b624ba033e2f4c25125433a52e7085",
}


@pytest.mark.parametrize("texts", sorted(GOLDEN), ids="+".join)
def test_golden_describe_output(texts):
    text = to_json(synthesize([T(s) for s in texts]))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[texts]


def first_wins_maximal(pairs, dominates):
    """Reference for ``synth._maximal``: the pairs no other pair
    dominates, keeping the first of two pairs that dominate each other.
    Each pair is compared with every pair kept so far, and the kept
    pairs it dominates are removed."""
    kept = []
    for pair in pairs:
        if not any(dominates(k, pair) for k in kept):
            kept = [k for k in kept if not dominates(pair, k)]
            kept.append(pair)
    return kept


def either_way(straight):
    """Dominance of unordered pairs: ``straight`` either way round."""
    return lambda big, small: straight(big, small) or straight(big, small[::-1])


def mask_straight(big, small):
    """A pair of masks dominates another whose masks cover its own."""
    return not (big[0] & ~small[0] or big[1] & ~small[1])


@pytest.mark.parametrize("cross", [False, True], ids=["straight", "crosswise"])
def test_maximal_matches_the_first_wins_filter(cross):
    # Few bits make many ties in bit count and many dominations; swapped
    # copies, equal cells and repeats make pairs that dominate each other.
    rng = random.Random(f"maximal:{cross}")
    dominates = either_way(mask_straight) if cross else mask_straight
    dropped_twins = 0
    for _ in range(600):
        width = rng.randint(1, 6)
        pairs = [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(rng.randint(0, 40))]
        for left, right in rng.sample(pairs, len(pairs) // 3):
            pairs.insert(rng.randint(0, len(pairs)), rng.choice([(right, left), (left, left)]))
        got = synth._maximal(pairs, width, crosswise=cross)
        assert got == first_wins_maximal(pairs, dominates), (width, pairs)
        dropped_twins += any((r, l) in pairs and (r, l) not in got for l, r in got if l != r)
    if cross:
        assert dropped_twins > 100


def ideal_fold(choices, target, *, crosswise=False):
    """Reference for ``synth._fold``: the same pruned product over
    interned ideals, each meet a ``make_ideal`` and each containment a
    ``contains_ideal``, filtered by ``first_wins_maximal`` with no pair
    budget."""

    def straight(big, small):
        return contains_ideal(big[0], small[0]) and contains_ideal(big[1], small[1])

    pairs = [(target, target)]
    for options in choices:
        options = [(lt, rt) for lt, rt in options if all(t.n_points >= 2 for t in lt + rt)]
        stepped = dict.fromkeys(
            (make_ideal(left.obstructions + lt), make_ideal(right.obstructions + rt))
            for left, right in pairs
            for lt, rt in options
        )
        pairs = first_wins_maximal(stepped, straight)
    if crosswise:
        pairs = first_wins_maximal(pairs, either_way(straight))
    return pairs


def test_mask_fold_matches_the_ideal_fold():
    # Every entry of every table: the seeded sets, the catalog, the
    # width-4 sum and the mixed sets, both folds of each entry read
    # straight and crosswise.
    sets = seeded_sets() + [[T(s) for s in texts] for texts in GOLDEN if texts != (WIDTH_5,)]
    folds = 0
    for terms in sets:
        for entry in synthesize(terms).entries.values():
            target = entry.ideal
            chains = [synth._chain_rules(t) for t in target.obstructions if t.kind == CHAIN]
            splits = [
                c for t in target.obstructions if t.kind == ANTICHAIN for c in synth._split_rules(t)
            ]
            for choices in (chains, splits):
                for crosswise in (False, True):
                    got = synth._fold(choices, target, crosswise=crosswise)
                    assert got == ideal_fold(choices, target, crosswise=crosswise), (terms, target)
                    folds += 1
    assert folds > 1000


def test_width_6_sum_is_refused_at_the_default_budget():
    # Refusals are not memoized: the second call folds again and is
    # refused again.
    assert synth.MAX_FOLD_PAIRS == 1024
    for _ in range(2):
        with pytest.raises(ResourceLimitError, match="more than 1024 cell pairs"):
            synthesize([T(WIDTH_6)])


def test_split_rules_stop_one_choice_past_the_budget():
    # A fold refuses on reading choice MAX_FOLD_CHOICES + 1, so a sum's
    # rules list no more choices than that: the first 129 of the 2^20 - 2
    # splits of twenty distinct components, which are refused at once.
    comps = [t for t in enumerate_sp(5) if t.n_points >= 2 and t.kind == CHAIN][:20]
    wide = antichain_sum(comps)
    every = (
        (((antichain_sum(left),), ()), ((), (antichain_sum(right),)))
        for left, right in antichain_splits(wide)
        if left and right
    )
    assert synth._split_rules(wide) == tuple(itertools.islice(every, 129))
    assert len(synth._split_rules(T(WIDTH_5))) == 2**5 - 2
    with pytest.raises(ResourceLimitError):
        synthesize([wide])


class TestEntryMemo:
    def test_cold_and_warm_tables_are_byte_identical(self):
        cold = {}
        for texts in sorted(GOLDEN):
            synth._entry.cache_clear()
            cold[texts] = to_json(synthesize([T(s) for s in texts]))
        for texts in sorted(GOLDEN) + sorted(GOLDEN, reverse=True):
            assert to_json(synthesize([T(s) for s in texts])) == cold[texts], texts

    def test_a_described_table_folds_nothing(self, monkeypatch):
        wide = [T("A(*,C(*,*),C(*,*,*),C(*,A(*,*)))")]
        first = synthesize(wide)

        def refuse(*args, **kwargs):
            raise AssertionError("a memoized entry folded again")

        monkeypatch.setattr(synth, "_fold", refuse)
        assert synthesize(wide) == first

    def test_only_new_entries_fold(self, monkeypatch):
        synth._entry.cache_clear()
        first = synthesize([T("C(*,A(*,*))")])
        folds = []
        fold = synth._fold

        def counted(*args, **kwargs):
            folds.append(args[1])
            return fold(*args, **kwargs)

        monkeypatch.setattr(synth, "_fold", counted)
        second = synthesize([T("C(*,A(*,*),*)")])
        new = set(second.entries) - set(first.entries)
        assert new and set(second.entries) & set(first.entries)
        # Two folds per new entry: its chain and its antichain bit sets.
        assert sorted(target.key for target in folds) == sorted(list(new) * 2)


# Every memo cache of the package, as ``module.function``: a new memo, or
# a renamed one, has to be named here.
CACHES = [
    "spdesc.closure._verdicts",
    "spdesc.ideals._members_upto",
    "spdesc.oracle._constraint_rows",
    "spdesc.oracle._relation_masks",
    "spdesc.synth._entry",
    "spdesc.synth._split_rules",
    "spdesc.terms._embeds",
    "spdesc.terms._placeable",
    "spdesc.terms._signature",
    "spdesc.terms._terms_of_size",
]


def test_caches_hold_only_pure_results():
    modules = [
        importlib.import_module(f"spdesc.{path.stem}")
        for path in sorted(Path(spdesc.__file__).parent.glob("*.py"))
        if path.stem not in ("__init__", "__main__")
    ]
    caches = {
        f"{module.__name__}.{name}": obj
        for module in modules
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__
    }
    # Each intern table maps a key to its term or ideal, so a copy of it
    # compares by content: the same keys, each with the same object.
    interned = {
        f"{module.__name__}.{name}": getattr(module, name)
        for module in modules
        for name in INTERN_TABLES.get(module.__name__.split(".")[-1] + ".py", [])
    }
    forbidden = [T("C(*,A(*,*),*)"), T("A(*,*,*,*)")]

    def run():
        tables = [to_json(synthesize([T(s) for s in texts])) for texts in sorted(GOLDEN)]
        desc = synthesize(forbidden)
        report = verify_equivalence(forbidden, desc, 6)
        shapes = [diamond_free_shape(t) for t in enumerate_sp(6)]
        verdicts = [member_topdown(desc, desc.root, t) for t in enumerate_sp(6)]
        return tables, report, shapes, verdicts

    first = run()
    assert sorted(caches) == CACHES
    assert all(cache.cache_info().currsize > 0 for cache in caches.values())
    before = {name: dict(table) for name, table in interned.items()}
    for cache in caches.values():
        cache.cache_clear()
    assert all(cache.cache_info().currsize == 0 for cache in caches.values())
    assert run() == first
    assert all(cache.cache_info().currsize > 0 for cache in caches.values())
    assert sorted(interned) == [
        "spdesc.ideals._INTERN",
        "spdesc.terms._ANTICHAINS",
        "spdesc.terms._CHAINS",
    ]
    assert all(table for table in interned.values())
    assert {name: dict(table) for name, table in interned.items()} == before


def test_no_label_is_void_or_empty_only():
    for terms in [[T(s) for s in texts] for texts in GOLDEN] + seeded_sets():
        desc = synthesize(terms)
        for entry in desc.entries.values():
            for bit in entry.bits:
                for label in (bit.first, bit.second):
                    if label is not R:
                        assert not label.is_void and not label.is_empty_only, (terms, bit)
