"""Lower ideal tests.

Core claims:
    - make_ideal minimizes to a suborder antichain and intern-canonicalizes
    - membership is exactly "no obstruction embeds", matching direct
      enumeration of avoiders; members_upto, filled by one point
      deletions, lists exactly the members in enumeration order, and
      refuses sizes past the enumeration cap
    - the union of obstruction sets is the meet and contains_ideal the
      containment order
    - ideal keys are injective and match the documented examples
    - the obstruction-file format skips comments and blank lines
"""

import random

import pytest

from spdesc import (
    EMPTY,
    POINT,
    ResourceLimitError,
    avoiders_upto,
    enumerate_sp,
    is_suborder,
    make_ideal,
    member,
    parse_term,
    synthesize,
)
from spdesc.bits import R
from spdesc.ideals import (
    EMPTY_ONLY_IDEAL,
    VOID_IDEAL,
    contains_ideal,
    members_upto,
    parse_obstruction_lines,
)


def T(s):
    return parse_term(s)


def I(*texts):
    return make_ideal([T(s) for s in texts])


SAMPLE_FAMILIES = [
    (),
    ("C(*,*)",),
    ("A(*,*)",),
    ("C(*,*,*)",),
    ("A(*,*,*)",),
    ("C(*,A(*,*),*)",),
    ("C(*,*,*)", "A(*,*,*)"),
    ("C(*,A(*,*))", "A(*,C(*,*))"),
    ("0",),
    ("*",),
]

CATALOG = [
    ("C(*,*)",),
    ("A(*,*)",),
    ("C(*,*,*)",),
    ("A(*,*,*)",),
    ("C(*,A(*,*))",),
    ("C(*,*,*)", "C(A(*,*),A(*,*))"),
    ("A(*,*,*)", "A(*,C(*,*))"),
    ("C(*,*,*)", "A(*,*,*)"),
    ("C(*,A(*,*),*)",),
    ("C(*,A(*,*),*)", "A(*,*,*,*)"),
]


def label_ideals():
    """Every ideal labeling a bit of the catalog tables and of the
    tables of 200 seeded obstruction sets of 1-3 terms of 2-5 points."""
    pool = [t for t in enumerate_sp(5) if t.n_points >= 2]
    rng = random.Random(5)
    sets = [[T(s) for s in texts] for texts in CATALOG]
    sets += [rng.sample(pool, rng.randint(1, 3)) for _ in range(200)]
    found = {}
    for terms in sets:
        desc = synthesize(terms)
        for entry in desc.entries.values():
            for bit in entry.bits:
                for label in (bit.first, bit.second):
                    if label is not R:
                        found[label.key] = desc.ideal_for(label.key)
    return list(found.values())


class TestMakeIdeal:
    def test_minimization(self):
        assert I("C(*,*)", "C(*,*,*)") is I("C(*,*)")
        assert I("A(*,*)", "*") is I("*")
        assert I() is make_ideal([])

    def test_void_and_trivial(self):
        assert I("0").is_void
        assert I("0", "C(*,*)") is VOID_IDEAL
        assert I("*") is EMPTY_ONLY_IDEAL

    def test_output_is_antichain(self):
        for texts in SAMPLE_FAMILIES:
            obs = I(*texts).obstructions
            for a in obs:
                for b in obs:
                    if a is not b:
                        assert not is_suborder(a, b)

    def test_classification(self):
        assert not VOID_IDEAL.is_nontrivial_proper
        assert not EMPTY_ONLY_IDEAL.is_nontrivial_proper
        assert not make_ideal([]).is_nontrivial_proper
        assert I("C(*,*)").is_nontrivial_proper
        assert I("C(*,*,*)", "A(*,*,*)").is_nontrivial_proper


class TestMember:
    def test_examples(self):
        assert member(I("A(*,*)"), T("C(*,*,*)"))
        assert member(I("*"), EMPTY)
        assert not member(I("*"), POINT)
        assert member(I("C(*,A(*,*),*)"), T("C(*,A(*,*))"))

    def test_matches_avoider_enumeration(self):
        for texts in SAMPLE_FAMILIES:
            ideal = I(*texts)
            forbidden = [T(s) for s in texts]
            want = set(avoiders_upto(forbidden, 7))
            for t in enumerate_sp(7):
                assert member(ideal, t) == (t in want), (texts, t)

    def test_members_upto(self):
        assert members_upto(VOID_IDEAL, 3) == ()
        assert members_upto(EMPTY_ONLY_IDEAL, 3) == (EMPTY,)
        chains = members_upto(I("A(*,*)"), 3)
        assert [t.text for t in chains] == ["0", "*", "C(*,*)", "C(*,*,*)"]

    def test_members_upto_refuses_past_the_enumeration_cap(self):
        ideal = I("C(*,*,*)")
        assert len(members_upto(ideal, 6)) == 56
        with pytest.raises(ResourceLimitError, match="cap of 11 points"):
            members_upto(ideal, 12)

    def test_members_upto_is_the_member_filter(self):
        ideals = [I(*texts) for texts in SAMPLE_FAMILIES] + label_ideals()
        assert len(ideals) > 100
        for ideal in ideals:
            want = tuple(t for t in enumerate_sp(7) if member(ideal, t))
            assert members_upto(ideal, 7) == want, ideal


def meet(a, b):
    return make_ideal(a.obstructions + b.obstructions)


class TestIntersect:
    def test_examples(self):
        assert meet(I("C(*,*,*)"), I("A(*,*)")) is I("C(*,*,*)", "A(*,*)")
        assert meet(I("C(*,*)"), I("C(*,*,*)")) is I("C(*,*)")
        assert meet(I("*"), I("C(*,*,*)")) is I("*")

    def test_is_the_meet_up_to_size_6(self):
        pairs = [
            (I("C(*,*,*)"), I("A(*,*,*)")),
            (I("C(*,A(*,*),*)"), I("A(*,C(*,*))")),
            (I("C(*,*)"), I("A(*,*)")),
        ]
        for a, b in pairs:
            both = meet(a, b)
            for t in enumerate_sp(6):
                assert member(both, t) == (member(a, t) and member(b, t))


class TestContains:
    def test_examples(self):
        assert contains_ideal(I("C(*,*,*)"), I("C(*,*)"))
        assert not contains_ideal(I("A(*,*)"), I("C(*,*)"))
        for texts in SAMPLE_FAMILIES:
            assert contains_ideal(I(*texts), VOID_IDEAL)

    def test_partial_order_on_samples(self):
        ideals = [I(*texts) for texts in SAMPLE_FAMILIES]
        for a in ideals:
            assert contains_ideal(a, a)
            for b in ideals:
                if contains_ideal(a, b) and contains_ideal(b, a):
                    assert a is b
                for c in ideals:
                    if contains_ideal(a, b) and contains_ideal(b, c):
                        assert contains_ideal(a, c)

    def test_containment_matches_membership(self):
        ideals = [I(*texts) for texts in SAMPLE_FAMILIES]
        terms = enumerate_sp(6)
        for outer in ideals:
            for inner in ideals:
                semantic = all(
                    member(outer, t) for t in terms if member(inner, t)
                )
                assert contains_ideal(outer, inner) == semantic, (outer, inner)


class TestKeys:
    def test_examples(self):
        assert I("C(*,*)").key == "C(*,*)"
        assert make_ideal([]).key == ""
        assert I("A(*,*)", "C(*,*,*)").key == "C(*,*,*)|A(*,*)"

    def test_injective_on_samples(self):
        ideals = [I(*texts) for texts in SAMPLE_FAMILIES]
        keys = [i.key for i in ideals]
        assert len(set(keys)) == len(set(ideals))


class TestObstructionFiles:
    def test_comments_and_blanks(self):
        lines = [
            "# header",
            "",
            "C(*,*,*)  # the three chain",
            "  A(*,*)",
            "   # trailing comment line",
        ]
        terms = parse_obstruction_lines(lines)
        assert terms == [T("C(*,*,*)"), T("A(*,*)")]

    def test_bad_term_raises(self):
        from spdesc import TermParseError

        with pytest.raises(TermParseError):
            parse_obstruction_lines(["C(*"])
