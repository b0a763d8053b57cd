"""Generation semantics tests.

Core claims:
    - generate_upto computes the size-capped least fixed point: the
      documented small examples come out exactly, results are monotone
      in the bound, re-applying any bit adds nothing, and the by-size
      evaluation equals a worklist reference on every entry of the
      catalog tables and of seeded random tables; a generated set over
      its term cap raises ResourceLimitError
    - ideal-labeled cells draw from the ideal, self cells from the set
      being built, and empty cells are fine
    - member_topdown agrees with generate_upto on every term within the
      bound, without materializing the set, on synthesized tables and on
      seeded hand-made tables that synthesis never emits (void,
      empty-only and uncontained labels among them)
    - in every table an accepted sum has every part accepted, the lemma
      member_topdown prunes with
    - on wide antichain sums member_topdown gives member's verdict on
      the catalog tables and the wide table
    - member_topdown answers flat terms far past the interpreter's
      recursion limit from a cold memo, and its memo is keyed on the
      entry value: neither the key string nor the table object, nor the
      order of the queries, changes a verdict
"""

import random

import pytest

from spdesc import closure
from spdesc import (
    EMPTY,
    POINT,
    ResourceLimitError,
    StructuralDescription,
    UnknownIdealKeyError,
    antichain_sum,
    chain_sum,
    enumerate_sp,
    generate_upto,
    make_ideal,
    member,
    member_topdown,
    parse_term,
    synthesize,
)
from spdesc.bits import R, antichain_bit, chain_bit, from_json, make_entry, to_json
from spdesc.ideals import EMPTY_ONLY_IDEAL, VOID_IDEAL, contains_ideal, members_upto
from spdesc.terms import ANTICHAIN

from catalog import CATALOG, WIDE


def T(s):
    return parse_term(s)


def texts(terms):
    return sorted(t.text for t in terms)


def random_sets(count, seed):
    """Seeded obstruction sets of 1-3 terms of 2-5 points."""
    pool = [t for t in enumerate_sp(5) if t.n_points >= 2]
    rng = random.Random(seed)
    return [rng.sample(pool, rng.randint(1, 3)) for _ in range(count)]


def hand_made_tables(count, seed):
    """Seeded tables that synthesis never emits: two or three entries,
    each with 1-4 random chain and antichain bits whose labels are R, the
    void leaf, the empty-only leaf or any entry of the table, contained
    in the entry's ideal or not."""
    rng = random.Random(seed)
    sets = random_sets(3 * count, seed)
    for i in range(count):
        ideals = list({make_ideal(s): None for s in sets[3 * i : 3 * i + 3]})
        labels = [R, R, VOID_IDEAL, EMPTY_ONLY_IDEAL] + ideals
        entries = {}
        for ideal in ideals:
            bits = [
                rng.choice((chain_bit, antichain_bit))(rng.choice(labels), rng.choice(labels))
                for _ in range(rng.randint(1, 4))
            ]
            entries[ideal.key] = make_entry(ideal, bits)
        yield StructuralDescription(ideals[0].key, entries)


def worklist_generate(desc, key, n):
    """Reference closure: each discovered term is combined with every
    earlier one in self cells and with every member of a static cell,
    which is read by filtering all orders of size <= n through member."""
    bits = []
    for bit in desc.entries[key].bits:
        cells = []
        for label in (bit.first, bit.second):
            if label is R:
                cells.append(None)
            else:
                cells.append([t for t in enumerate_sp(n) if member(label, t)])
        bits.append((chain_sum if bit.shape == "chain" else antichain_sum, cells))
    found = [EMPTY, POINT][: n + 1]
    seen = set(found)

    def add(combine, a, b):
        if a.n_points + b.n_points <= n:
            made = combine((a, b))
            if made not in seen:
                seen.add(made)
                found.append(made)

    for combine, (c1, c2) in bits:
        if c1 is not None and c2 is not None:
            for a in c1:
                for b in c2:
                    add(combine, a, b)
    i = 0
    while i < len(found):
        t = found[i]
        for combine, (c1, c2) in bits:
            if c1 is None:
                for u in found[: i + 1] if c2 is None else c2:
                    add(combine, t, u)
            if c2 is None:
                for u in found[: i + 1] if c1 is None else c1:
                    add(combine, u, t)
        i += 1
    return frozenset(seen)


class TestGenerateUpto:
    def test_antichain_closure_example(self):
        desc = synthesize([T("C(*,*)")])  # root bits: the all-R antichain
        got = generate_upto(desc, desc.root, 3).terms
        assert texts(got) == ["*", "0", "A(*,*)", "A(*,*,*)"]

    def test_forbidden_three_chain_at_3(self):
        desc = synthesize([T("C(*,*,*)")])
        got = generate_upto(desc, desc.root, 3).terms
        assert len(got) == 8
        assert T("C(*,*,*)") not in got

    def test_bound_zero(self):
        desc = synthesize([T("C(*,*,*)")])
        assert generate_upto(desc, desc.root, 0).terms == frozenset({EMPTY})

    def test_monotone_in_bound(self):
        desc = synthesize([T("C(*,A(*,*),*)")])
        prev = frozenset()
        for n in range(7):
            cur = generate_upto(desc, desc.root, n).terms
            assert prev <= cur
            prev = cur

    def test_fixed_point_stability(self):
        desc = synthesize([T("C(*,*,*)"), T("A(*,*,*)")])
        n = 6
        got = generate_upto(desc, desc.root, n).terms
        for bit in desc.entries[desc.root].bits:
            cells = []
            for label in (bit.first, bit.second):
                if label is R:
                    cells.append(got)
                else:
                    cells.append(members_upto(label, n))
            for a in cells[0]:
                for b in cells[1]:
                    if a.n_points + b.n_points <= n:
                        made = (
                            chain_sum((a, b))
                            if bit.shape == "chain"
                            else antichain_sum((a, b))
                        )
                        assert made in got

    def test_ideal_cells_contribute_alone_through_empty(self):
        # A chain bit whose cells are both ideal-labeled still adds each
        # cell's members, by filling the other cell with the empty order.
        ideal = make_ideal([T("C(*,*)"), T("A(*,*)")])  # members: 0, *
        low = make_ideal([T("C(*,*,*)")])
        entries = {
            low.key: make_entry(low, [chain_bit(ideal, ideal)]),
            ideal.key: make_entry(ideal, []),
        }
        desc = StructuralDescription(low.key, entries)
        got = generate_upto(desc, low.key, 2).terms
        assert texts(got) == ["*", "0", "C(*,*)"]

    def test_leaf_label_cells(self):
        # The void leaf can never be filled; the empty-only leaf yields
        # only the empty order, so the bit contributes its other cell.
        low = make_ideal([T("C(*,*,*)")])
        entries = {
            low.key: make_entry(
                low,
                [chain_bit(VOID_IDEAL, R), chain_bit(EMPTY_ONLY_IDEAL, EMPTY_ONLY_IDEAL)],
            )
        }
        desc = StructuralDescription(low.key, entries)
        got = generate_upto(desc, low.key, 3).terms
        assert got == frozenset({EMPTY, POINT})

    def test_unresolved_key(self):
        desc = synthesize([T("C(*,*,*)")])
        with pytest.raises(UnknownIdealKeyError):
            generate_upto(desc, "A(*,*,*)", 3)

    def test_label_without_entry_reads_its_ideal(self):
        # An unvalidated table may name an ideal that has no entry; its
        # cells are filled from the ideal's members all the same.
        low = make_ideal([T("C(*,*,*)")])
        chains = make_ideal([T("A(*,*)")])
        desc = StructuralDescription(low.key, {low.key: make_entry(low, [chain_bit(chains, R)])})
        got = generate_upto(desc, low.key, 4).terms
        assert got == worklist_generate(desc, low.key, 4)
        assert T("C(*,*,*,*)") in got and T("A(*,*)") not in got
        for t in enumerate_sp(4):
            assert member_topdown(desc, low.key, t) == (t in got)

    def test_resource_cap(self, monkeypatch):
        desc = synthesize([T("C(*,A(*,*),*)")])
        got = generate_upto(desc, desc.root, 4).terms
        monkeypatch.setattr(closure, "MAX_GENERATED_TERMS", 20)
        with pytest.raises(ResourceLimitError):
            generate_upto(desc, desc.root, 7)
        monkeypatch.setattr(closure, "MAX_GENERATED_TERMS", len(got))
        assert generate_upto(desc, desc.root, 4).terms == got
        monkeypatch.setattr(closure, "MAX_GENERATED_TERMS", len(got) - 1)
        with pytest.raises(ResourceLimitError):
            generate_upto(desc, desc.root, 4)

    def test_matches_worklist_on_catalog_tables(self):
        for texts_ in CATALOG:
            desc = synthesize([T(s) for s in texts_])
            for key in desc.entries:
                want = worklist_generate(desc, key, 7)
                assert generate_upto(desc, key, 7).terms == want, (texts_, key)

    def test_matches_worklist_on_random_tables(self):
        for i, terms in enumerate(random_sets(60, 5)):
            desc = synthesize(terms)
            for key in desc.entries:
                for n in (6, 7) if i < 15 else (6,):
                    want = worklist_generate(desc, key, n)
                    got = generate_upto(desc, key, n).terms
                    assert got == want, ([t.text for t in terms], key, n)


class TestMemberTopdown:
    def test_examples(self):
        desc = synthesize([T("C(*,*,*)")])
        assert member_topdown(desc, desc.root, T("C(*,*)"))
        assert not member_topdown(desc, desc.root, T("C(*,*,*)"))
        assert member_topdown(desc, desc.root, EMPTY)

    def test_agrees_with_generate(self):
        for texts_ in (
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
        ):
            terms = [T(s) for s in texts_]
            desc = synthesize(terms)
            gen = generate_upto(desc, desc.root, 6).terms
            for t in enumerate_sp(6):
                assert member_topdown(desc, desc.root, t) == (t in gen), (texts_, t)

    def test_agrees_with_generate_at_size_8(self):
        for texts_ in (["C(*,*,*)"], ["C(*,A(*,*),*)"]):
            terms = [T(s) for s in texts_]
            desc = synthesize(terms)
            gen = generate_upto(desc, desc.root, 8).terms
            for t in enumerate_sp(8):
                assert member_topdown(desc, desc.root, t) == (t in gen), (texts_, t)

    def test_non_root_entries(self):
        desc = synthesize([T("C(*,A(*,*),*)")])
        key = "A(*,*)"
        gen = generate_upto(desc, key, 5).terms
        for t in enumerate_sp(5):
            assert member_topdown(desc, key, t) == (t in gen)

    def test_unresolved_key(self):
        desc = synthesize([T("C(*,*,*)")])
        with pytest.raises(UnknownIdealKeyError):
            member_topdown(desc, "A(*,*,*)", POINT)


class TestPartFirstLemma:
    """member_topdown rejects a sum with a rejected part before splitting
    it, and sends a component that only one cell admits wholly to that
    side; both rest on the lemma, which holds for any table."""

    def test_hand_made_tables_cover_every_label_kind(self):
        kinds = set()
        for desc in hand_made_tables(60, 11):
            for entry in desc.entries.values():
                for bit in entry.bits:
                    kinds.add(bit.shape)
                    for label in (bit.first, bit.second):
                        if label is R:
                            kinds.add("R")
                        elif label.key in ("0", "*"):
                            kinds.add(label.key)
                        elif contains_ideal(entry.ideal, label):
                            kinds.add("contained")
                        else:
                            kinds.add("uncontained")
        assert kinds == {"chain", "antichain", "R", "0", "*", "contained", "uncontained"}

    def test_topdown_matches_generate_on_hand_made_tables(self):
        terms = enumerate_sp(6)
        for desc in hand_made_tables(60, 11):
            for key in desc.entries:
                gen = generate_upto(desc, key, 6).terms
                for t in terms:
                    assert member_topdown(desc, key, t) == (t in gen), (desc.entries[key], t)

    def test_accepted_sums_have_accepted_parts(self):
        tables = list(hand_made_tables(60, 11))
        tables += [synthesize([T(s) for s in texts]) for texts in CATALOG]
        sums = 0
        for desc in tables:
            for key in desc.entries:
                gen = generate_upto(desc, key, 6).terms
                for t in gen:
                    assert all(part in gen for part in t.children), (desc.entries[key], t)
                    sums += bool(t.children)
        assert sums > 1000


# Wide sums that are slow to reject when every split of every sum is tried.
SLOW_SUMS = [
    "A(*,*,*,*,C(A(*,*),*),C(*,*,*,*),C(A(*,*),*,A(*,*),*,*),C(*,*,*,A(*,*,*,*),*,*,*))",
    "A(*,*,*,*,C(*,*),C(A(*,*),*),C(*,A(*,C(*,*))),C(A(*,*,*),*,*),"
    "C(A(*,*,*),A(C(*,A(*,*)),C(*,*,*,*,*))))",
    "A(*,*,*,*,*,*,*,*,C(*,*),C(A(*,*),*),C(*,*,*,*),C(*,*,*,A(*,C(*,*,A(*,*),A(*,*)))))",
    "A(*,*,*,*,*,*,*,*,C(*,*),C(*,*),C(*,A(*,*)),C(A(*,C(*,*)),*))",
    "A(*,*,*,*,*,*,*,*,*,*,*,*,C(*,*),C(*,*,*),C(*,*,*),C(*,*,*),C(*,A(*,C(*,*)),*))",
    "A(*,*,*,*,*,*,*,C(A(*,*),*),C(A(*,*),*,*),C(A(*,*),A(*,*,*)))",
]


class TestWideSums:
    def test_verdicts_match_member(self):
        rng = random.Random("wide-sums")
        pool = [t for t in enumerate_sp(5) if t.kind != ANTICHAIN]
        sums = [T(s) for s in SLOW_SUMS]
        for width in range(8, 13):
            sums += [antichain_sum(rng.choice(pool) for _ in range(width)) for _ in range(2)]
        # Sums of small components that the larger ideals accept.
        sums += [antichain_sum([POINT] * k + [T("C(*,*)")] * (12 - k)) for k in (4, 8, 12)]
        verdicts = set()
        for texts in CATALOG + [(WIDE,)]:
            obstructions = [T(s) for s in texts]
            desc = synthesize(obstructions)
            ideal = make_ideal(obstructions)
            for t in sums:
                verdict = member_topdown(desc, desc.root, t)
                assert verdict == member(ideal, t), (texts, t)
                verdicts.add(verdict)
        assert verdicts == {True, False}


class TestTopdownMemo:
    def test_long_flat_terms_from_a_cold_memo(self):
        # Each prefix of the chain (each shorter flat sum) awaits the
        # next shorter one, so the frames stand 1,500 deep.
        for forbidden, combine in (("A(*,*)", chain_sum), ("C(*,*)", antichain_sum)):
            desc = synthesize([T(forbidden)])
            t = combine([POINT] * 1500)
            closure._verdicts.cache_clear()
            assert member_topdown(desc, desc.root, t) is True
            assert member(make_ideal([T(forbidden)]), t)

    def test_an_undecided_self_labelled_left_half_is_awaited(self):
        # Past its parts, the frame of C(*,*,A(*,*)) reaches the chain
        # split whose self-labelled left half C(*,*) has no verdict yet.
        desc = synthesize([T("C(*,A(*,*))")])
        closure._verdicts.cache_clear()
        assert member_topdown(desc, desc.root, T("C(*,*,A(*,*))")) is False

    def test_tables_sharing_a_key_keep_their_own_verdicts(self):
        ideal = make_ideal([T("C(*,*,*)")])
        chains = StructuralDescription(ideal.key, {ideal.key: make_entry(ideal, [chain_bit(R, R)])})
        sums = StructuralDescription(ideal.key, {ideal.key: make_entry(ideal, [antichain_bit(R, R)])})
        want = {"A(*,*)": [False, True], "C(*,*)": [True, False]}
        for order in ((0, 1), (1, 0)):
            closure._verdicts.cache_clear()
            for text, verdicts in want.items():
                got = [None, None]
                for i in order:
                    got[i] = member_topdown((chains, sums)[i], ideal.key, T(text))
                assert got == verdicts, (text, order)

    def test_round_tripped_table_shares_the_memo(self):
        desc = synthesize([T("C(*,A(*,*),*)"), T("A(*,*,*,*)")])
        terms = enumerate_sp(6)
        closure._verdicts.cache_clear()
        want = {key: [member_topdown(desc, key, t) for t in terms] for key in desc.entries}
        closure._verdicts.cache_clear()
        copy = from_json(to_json(desc))
        assert copy is not desc and copy == desc
        got = {key: [member_topdown(copy, key, t) for t in terms] for key in copy.entries}
        assert got == want
        for key, entry in desc.entries.items():
            assert closure._verdicts(copy.entries[key]) is closure._verdicts(entry)
