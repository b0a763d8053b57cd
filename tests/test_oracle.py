"""Brute-force oracle tests.

Core claims:
    - brute_embed finds exactly the order-isomorphic restrictions and
      agrees with the structural suborder test on all small pairs
    - the pair-count refusal never refuses a true suborder
    - every oracle cache is keyed on one term, so the size guard bounds
      it by the number of orders of at most 9 points
    - avoiders_upto enumerates exactly the terms missing every forbidden
      suborder, and those sets are closed under suborders
    - verify_equivalence reports equality for honest pipelines and
      witnesses for corrupted descriptions
    - diamond_free_shape matches diamond-freeness exactly on small terms
"""

import inspect

import pytest

from spdesc import oracle
from spdesc import (
    EMPTY,
    POINT,
    SizeGuardError,
    StructuralDescription,
    avoiders_upto,
    brute_embed,
    enumerate_sp,
    is_suborder,
    make_ideal,
    member,
    parse_term,
    synthesize,
    verify_equivalence,
)
from spdesc.bits import make_entry
from spdesc.oracle import diamond_free_shape

DIAMOND = "C(*,A(*,*),*)"

CATALOG = [
    ("C(*,*)",),
    ("A(*,*)",),
    ("C(*,*,*)",),
    ("A(*,*,*)",),
    ("C(*,A(*,*))",),
    ("C(*,*,*)", "C(A(*,*),A(*,*))"),
    ("A(*,*,*)", "A(*,C(*,*))"),
    ("C(*,*,*)", "A(*,*,*)"),
    (DIAMOND,),
    (DIAMOND, "A(*,*,*,*)"),
]

ORACLE_CACHES = [
    obj
    for obj in vars(oracle).values()
    if hasattr(obj, "cache_clear") and obj.__module__ == oracle.__name__
]


def T(s):
    return parse_term(s)


class TestBruteEmbed:
    def test_examples(self):
        assert brute_embed(POINT, T("A(*,*)"))
        assert not brute_embed(T("A(*,*)"), T("C(*,*,*)"))
        assert brute_embed(T("C(*,A(*,*))"), T(DIAMOND))

    def test_empty_cases(self):
        assert brute_embed(EMPTY, EMPTY)
        assert brute_embed(EMPTY, T("C(*,*)"))
        assert not brute_embed(POINT, EMPTY)

    def test_size_guard(self):
        big = T("A(" + ",".join("*" * 10) + ")")
        with pytest.raises(SizeGuardError):
            brute_embed(big, big)

    def test_oversized_pattern_is_answered_before_the_guard(self):
        chain10 = T("C(" + ",".join("*" * 10) + ")")
        assert brute_embed(chain10, T("A(*,*)")) is False
        assert brute_embed(EMPTY, chain10) is True

    def test_agrees_with_structural_test(self):
        terms = enumerate_sp(6)
        for p in terms:
            for q in terms:
                assert brute_embed(p, q) == is_suborder(p, q), (p, q)

    def test_pair_count_refusal_is_sound(self):
        terms = enumerate_sp(6)
        counts = {t: oracle._relation_masks(t)[3:] for t in terms}
        refused = 0
        for p in terms:
            for q in terms:
                if counts[p][0] > counts[q][0] or counts[p][1] > counts[q][1]:
                    refused += 1
                    assert not is_suborder(p, q), (p, q)
                    assert not brute_embed(p, q), (p, q)
        assert refused

    def test_pair_counts(self):
        assert oracle._relation_masks(EMPTY)[3:] == (0, 0)
        assert oracle._relation_masks(T(DIAMOND))[3:] == (5, 1)
        assert oracle._relation_masks(T("A(*,*,*,*)"))[3:] == (0, 6)


class TestAvoiders:
    def test_examples(self):
        assert [t.text for t in avoiders_upto([T("C(*,*)")], 2)] == ["0", "*", "A(*,*)"]
        assert [t.text for t in avoiders_upto([POINT], 3)] == ["0"]
        assert len(avoiders_upto([T("C(*,*,*)")], 3)) == 8

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            avoiders_upto([T("C(*,*)")], 10)

    def test_obstruction_above_the_guard_excludes_nothing_below_it(self):
        chain10 = T("C(" + ",".join("*" * 10) + ")")
        assert avoiders_upto([chain10], 6) == enumerate_sp(6)

    def test_suborder_closed(self):
        for texts in (["C(*,*,*)"], ["A(*,*,*)"], [DIAMOND], ["C(*,*,*)", "A(*,*,*)"]):
            got = set(avoiders_upto([T(s) for s in texts], 6))
            for q in got:
                for p in enumerate_sp(6):
                    if is_suborder(p, q):
                        assert p in got, (texts, p, q)

    def test_caches_hold_one_entry_per_term(self):
        assert ORACLE_CACHES
        for memo in ORACLE_CACHES:
            assert len(inspect.signature(memo.__wrapped__).parameters) == 1, memo
            memo.cache_clear()
        seen = set(enumerate_sp(9))
        assert len(seen) == 11757
        for texts in CATALOG:
            forbidden = [T(s) for s in texts]
            avoiders_upto(forbidden, 9)
            seen.update(forbidden)
        for memo in ORACLE_CACHES:
            assert 0 < memo.cache_info().currsize <= len(seen), memo


class TestVerifyEquivalence:
    def test_equal_pipelines(self):
        for texts in (["C(*,*,*)"], ["A(*,*,*)"], [DIAMOND]):
            terms = [T(s) for s in texts]
            report = verify_equivalence(terms, synthesize(terms), 7)
            assert report.equal
            assert report.missing == () and report.extra == ()
            assert "equal" in report.summary()

    def test_corrupted_description_produces_witnesses(self):
        terms = [T("C(*,*,*)")]
        desc = synthesize(terms)
        for drop in desc.entries[desc.root].bits:
            kept = [b for b in desc.entries[desc.root].bits if b != drop]
            broken_entries = dict(desc.entries)
            broken_entries[desc.root] = make_entry(desc.entries[desc.root].ideal, kept)
            broken = StructuralDescription(desc.root, broken_entries)
            report = verify_equivalence(terms, broken, 5)
            assert not report.equal
            assert report.missing  # something the ideal needs is no longer built
        report = verify_equivalence(terms, synthesize(terms), 5)
        assert report.equal


class TestDiamondFreeShape:
    def test_examples(self):
        assert not diamond_free_shape(T(DIAMOND))
        assert diamond_free_shape(T("C(A(*,*),*)"))
        assert brute_embed(T(DIAMOND), T(DIAMOND))

    def test_degenerate_shapes(self):
        assert diamond_free_shape(EMPTY)
        assert diamond_free_shape(POINT)
        assert diamond_free_shape(T("A(*,*)"))
        assert diamond_free_shape(T("C(*,*,*,*)"))

    def test_matches_membership_up_to_size_6(self):
        ideal = make_ideal([T(DIAMOND)])
        for t in enumerate_sp(6):
            assert diamond_free_shape(t) == member(ideal, t), t
