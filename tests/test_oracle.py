"""Brute-force oracle tests.

Core claims:
    - brute_embed finds exactly the order-isomorphic restrictions and
      agrees with the structural suborder test and with trying every
      injective map on all small pairs
    - the pair-count refusal never refuses a true suborder
    - every oracle cache is keyed on one term, so the size guard bounds
      it by the number of orders of at most 9 points; a larger pattern
      touches none of them
    - avoiders_upto enumerates exactly the terms missing every forbidden
      suborder, in the order and with the answers of the pair-by-pair
      filter, and those sets are closed under suborders
    - the oracle answers with the term algebra's suborder test, its
      deletions and ideal membership all refusing to run
    - verify_equivalence reports equality for honest pipelines and
      witnesses for corrupted descriptions
    - diamond_free_shape matches diamond-freeness exactly on small terms
    - the materialized relation masks are valid partial orders with no
      induced N; no point lies below an earlier-numbered one, each
      incomparable mask complements the at-or-above and at-or-below
      masks less the point, and the two pair counts are the masks'
      popcounts
    - every cached record is one flat tuple of the two pair counts, the
      full mask and two masks per point, each mask the shared object of
      ``oracle._MASKS``
"""

import inspect
from itertools import permutations

import pytest

from spdesc import ideals, oracle, terms
from spdesc import (
    EMPTY,
    POINT,
    ResourceLimitError,
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

from catalog import CATALOG, WIDE
from oracle_record import relation
from reference_diamond import diamond_free_shape

DIAMOND = "C(*,A(*,*),*)"

ORACLE_CACHES = [
    obj
    for obj in vars(oracle).values()
    if hasattr(obj, "cache_clear") and obj.__module__ == oracle.__name__
]


def T(s):
    return parse_term(s)


def permutation_embed(p, q) -> bool:
    """Whether some injective map of ``p``'s points into ``q``'s, tried
    in full one by one, preserves and reflects the order."""
    up_p, up_q = relation(p)[0], relation(q)[0]
    pairs = [(a, b) for a in range(len(up_p)) for b in range(len(up_p))]
    return any(
        all((up_p[a] >> b & 1) == (up_q[image[a]] >> image[b] & 1) for a, b in pairs)
        for image in permutations(range(len(up_q)), len(up_p))
    )


def filtered_pair_by_pair(forbidden, n):
    """The avoiders as the host-outer filter that tests every pattern
    against each host in turn."""
    return [t for t in enumerate_sp(n) if all(not brute_embed(f, t) for f in forbidden)]


def has_induced_n(up) -> bool:
    """Whether the order with at-or-above masks ``up`` has four points
    a < b, c < d, c < b with all other pairs incomparable."""
    n = len(up)
    lt = [[i != j and up[i] >> j & 1 for j in range(n)] for i in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if len({a, b, c, d}) < 4:
                        continue
                    if (
                        lt[a][b]
                        and lt[c][d]
                        and lt[c][b]
                        and not (lt[a][c] or lt[c][a])
                        and not (lt[a][d] or lt[d][a])
                        and not (lt[b][d] or lt[d][b])
                        and not lt[b][a]
                        and not lt[d][c]
                        and not lt[b][c]
                    ):
                        return True
    return False


class TestRelations:
    def test_two_chain(self):
        up = relation(T("C(*,*)"))[0]
        assert len(up) == 2
        assert up[0] >> 1 & 1 and not up[1] >> 0 & 1

    def test_two_antichain(self):
        up = relation(T("A(*,*)"))[0]
        assert len(up) == 2
        assert not up[0] >> 1 & 1 and not up[1] >> 0 & 1

    def test_diamond(self):
        up = relation(T(DIAMOND))[0]
        assert len(up) == 4
        lt = lambda i, j: i != j and up[i] >> j & 1
        bottom, m1, m2, top = 0, 1, 2, 3
        assert lt(bottom, m1) and lt(bottom, m2) and lt(bottom, top)
        assert lt(m1, top) and lt(m2, top)
        assert not lt(m1, m2) and not lt(m2, m1)

    def test_valid_partial_orders_up_to_size_6(self):
        for t in enumerate_sp(6):
            up = relation(t)[0]
            assert len(up) == t.n_points
            for i in range(len(up)):
                assert up[i] >> i & 1  # reflexive
                for j in range(len(up)):
                    if i != j and up[i] >> j & 1:
                        assert not up[j] >> i & 1  # antisymmetric
                        for k in range(len(up)):
                            if up[j] >> k & 1:
                                assert up[i] >> k & 1  # transitive

    def test_n_free_up_to_size_6(self):
        for t in enumerate_sp(6):
            assert not has_induced_n(relation(t)[0]), t

    def test_no_point_lies_below_an_earlier_one_up_to_size_9(self):
        # So a compiled pattern relates each point to the earlier ones by
        # "above" (kind 0) and "incomparable" (kind 1) only, and the
        # records need no below masks.
        kinds = [0, 0]
        for t in enumerate_sp(9):
            up, _, incomp = relation(t)[:3]
            rows = oracle._constraint_rows.__wrapped__(t)[2]
            for i, row in enumerate(rows):
                assert up[i] & ((1 << i) - 1) == 0, t
                assert [j for j, _ in row] == list(range(i)), t
                for j, kind in row:
                    assert kind == (0 if up[j] >> i & 1 else 1), t
                    assert incomp[j] >> i & 1 == kind, t
                    kinds[kind] += 1
        assert kinds == [221958, 168704]

    def test_incomparable_masks_complement_both_up_to_size_6(self):
        for t in enumerate_sp(6):
            up, down, incomp = relation(t)[:3]
            full = (1 << len(up)) - 1
            for i in range(len(up)):
                assert incomp[i] == full & ~(up[i] | down[i]) & ~(1 << i), t

    def test_pair_counts_are_popcounts_up_to_size_6(self):
        for t in enumerate_sp(6):
            up, _, incomp, comparable, incomparable = relation(t)
            assert comparable == sum(row.bit_count() - 1 for row in up), t
            assert 2 * incomparable == sum(row.bit_count() for row in incomp), t

    def test_records_are_flat_and_share_their_masks_up_to_size_9(self):
        # The memory budget of the oracle's memo: one record per order, a
        # flat tuple of the two pair counts, the full mask and two masks
        # per point, every mask the one object the module table holds.
        oracle._relation_masks.cache_clear()
        orders = enumerate_sp(oracle.MAX_BRUTE_POINTS)
        records = [oracle._relation_masks(t) for t in orders]
        assert oracle._relation_masks.cache_info().currsize == len(orders)
        for t, record in zip(orders, records):
            assert type(record) is tuple and len(record) == 3 + 2 * t.n_points, t
            assert all(type(mask) is int and mask is oracle._MASKS[mask] for mask in record[2:]), t
            assert record[2] == (1 << t.n_points) - 1, t


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
        with pytest.raises(ResourceLimitError):
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
        counts = {t: relation(t)[3:] for t in terms}
        refused = 0
        for p in terms:
            for q in terms:
                if counts[p][0] > counts[q][0] or counts[p][1] > counts[q][1]:
                    refused += 1
                    assert not is_suborder(p, q), (p, q)
                    assert not brute_embed(p, q), (p, q)
        assert refused

    def test_agrees_with_trying_every_injective_map(self):
        orders = enumerate_sp(5)
        for p in orders:
            for q in orders:
                assert brute_embed(p, q) == permutation_embed(p, q), (p, q)

    def test_pair_counts(self):
        assert relation(EMPTY)[3:] == (0, 0)
        assert relation(T(DIAMOND))[3:] == (5, 1)
        assert relation(T("A(*,*,*,*)"))[3:] == (0, 6)


class TestAvoiders:
    def test_examples(self):
        assert [t.text for t in avoiders_upto([T("C(*,*)")], 2)] == ["0", "*", "A(*,*)"]
        assert [t.text for t in avoiders_upto([POINT], 3)] == ["0"]
        assert len(avoiders_upto([T("C(*,*,*)")], 3)) == 8

    def test_size_guard(self):
        with pytest.raises(ResourceLimitError):
            avoiders_upto([T("C(*,*)")], 10)

    def test_obstruction_above_the_guard_excludes_nothing_below_it(self):
        chain10 = T("C(" + ",".join("*" * 10) + ")")
        assert avoiders_upto([chain10], 6) == enumerate_sp(6)

    def test_same_list_as_the_pair_by_pair_filter(self):
        cases = [([T(s) for s in texts], 9) for texts in CATALOG]
        cases.append(([T(WIDE)], 8))
        chain10 = T("C(" + ",".join("*" * 10) + ")")
        cases += [
            ([T("C(*,*)"), EMPTY, T("A(*,*,*)")], 6),
            ([EMPTY], 0),
            ([T("C(*,*,*)"), T("A(*,*,*)"), T("C(*,*,*)")], 7),
            ([chain10, T(DIAMOND)], 9),
            ([chain10], 0),
        ]
        for forbidden, n in cases:
            assert avoiders_upto(forbidden, n) == filtered_pair_by_pair(forbidden, n), forbidden
        assert avoiders_upto([T("C(*,*)"), EMPTY], 6) == []

    def test_answers_without_the_term_algebra(self, monkeypatch):
        catalog = [[T(s) for s in texts] for texts in CATALOG]
        avoiders = [avoiders_upto(forbidden, 7) for forbidden in catalog]
        small = enumerate_sp(5)
        want = {(p, q): permutation_embed(p, q) for p in small for q in small}

        def refuse(*args):
            raise AssertionError("the oracle read the term algebra")

        for name in ("is_suborder", "_embeds", "one_point_deletions"):
            monkeypatch.setattr(terms, name, refuse)
        monkeypatch.setattr(ideals, "member", refuse)
        for module in (oracle, terms):
            for memo in vars(module).values():
                if hasattr(memo, "cache_clear"):
                    memo.cache_clear()
        assert [avoiders_upto(forbidden, 7) for forbidden in catalog] == avoiders
        assert {pair: brute_embed(*pair) for pair in want} == want

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
        hosts = enumerate_sp(9)
        assert len(hosts) == 11757
        patterns = set()
        for texts in CATALOG:
            forbidden = [T(s) for s in texts]
            avoiders_upto(forbidden, 9)
            patterns.update(forbidden)
        assert 0 < oracle._constraint_rows.cache_info().currsize <= len(patterns)
        assert 0 < oracle._relation_masks.cache_info().currsize <= len(set(hosts) | patterns)
        sizes = [memo.cache_info().currsize for memo in ORACLE_CACHES]
        flat700 = T("A(" + ",".join("*" * 700) + ")")
        assert avoiders_upto([flat700], 9) == hosts
        assert brute_embed(flat700, T("C(*,*,*)")) is False
        assert [memo.cache_info().currsize for memo in ORACLE_CACHES] == sizes


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
