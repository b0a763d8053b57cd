"""Term algebra tests.

Core claims:
    - the parser builds canonical terms: it flattens nested sums, drops
      empty parts and sorts antichain components, exactly as chain_sum
      and antichain_sum build the same tree
    - the term grammar parses and prints round-trip on all canonical
      terms up to size 8; malformed input fails with a position
    - the suborder test matches its case rules and is a partial order,
      needs few recursive calls on two wide antichain sums of distinct
      components, matches the direct search of the test tree on
      antichain and chain sums past the oracle's size guard, answers
      flat sums and chains of hundreds of points, as the direct search
      does on those chains, one block test per layer of either chain at
      most, and refuses a pattern past its code budget
    - antichain_splits lists each sub-multiset of the components once,
      as two component lists, in product order, and its per-run copy
      bounds only filter that list, no later run asked once one has no
      room
    - one_point_deletions lists, once each, exactly the orders of one
      point fewer that embed into the term
    - enumeration is one-per-isomorphism-class with the expected small
      counts, it agrees with the closure enumeration of the test
      tree, and it refuses sizes past its cap before building anything
"""

import random

import pytest

from spdesc import terms
from spdesc import (
    EMPTY,
    POINT,
    ResourceLimitError,
    TermParseError,
    antichain_sum,
    brute_embed,
    chain_sum,
    enumerate_sp,
    is_suborder,
    parse_term,
)
from spdesc.oracle import MAX_BRUTE_POINTS
from spdesc.terms import (
    ANTICHAIN,
    CHAIN,
    MAX_TERM_DEPTH,
    antichain_splits,
    finest_antichain_rep,
    one_point_deletions,
)

from reference_diamond import finest_chain_rep
from reference_embedding import embeds
from reference_enumeration import enumerate_sp_by_closure


def T(s):
    return parse_term(s)


def spelled(rng, depth):
    """A random spelling of a term, with empty parts, same-kind nesting,
    unsorted components and spaces, and the term built from the same
    tree through ``chain_sum`` and ``antichain_sum``."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([("*", POINT), ("*", POINT), ("0", EMPTY)])
    tag = rng.choice("CA")
    kids = [spelled(rng, depth - 1) for _ in range(rng.randint(2, 4))]

    def pad():
        return " " * rng.randint(0, 1)

    text = tag + pad() + "(" + ",".join(pad() + k + pad() for k, _ in kids) + ")"
    combine = chain_sum if tag == "C" else antichain_sum
    return text, combine([t for _, t in kids])


class TestCanonicalize:
    """The canonical form as the parser builds it."""

    def test_chain_flattening(self):
        got = T("C(C(*,*),*)")
        assert got is T("C(*,*,*)")
        assert got.children == (POINT, POINT, POINT)

    def test_antichain_flattening(self):
        assert T("A(*,A(*,*))") is T("A(*,*,*)")

    def test_antichain_children_sorted_smaller_first(self):
        got = T("A(C(*,*),*)")
        assert got.text == "A(*,C(*,*))"
        assert got.children == (POINT, T("C(*,*)"))

    def test_empty_parts_dropped_and_singletons_collapse(self):
        assert T("C(0,*)") is POINT
        assert T("A(0,0)") is EMPTY
        assert T("C(A(*,*),0)") is T("A(*,*)")

    def test_idempotent_on_all_small_terms(self):
        # The sum constructors leave a canonical term's parts as they are.
        for t in enumerate_sp(6):
            if t.kind == CHAIN:
                assert chain_sum(t.children) is t
            elif t.kind == ANTICHAIN:
                assert antichain_sum(reversed(t.children)) is t

    def test_idempotent_on_raw_trees(self):
        for text in ["C(C(*,A(*,A(*,*))),*)", "A(C(0,*),A(*,*),0)"]:
            once = T(text)
            assert T(once.text) is once

    def test_seeded_spellings_parse_to_the_built_term(self):
        rng = random.Random("spellings")
        for _ in range(500):
            text, built = spelled(rng, 4)
            assert parse_term(text) is built, text


class TestParsePrint:
    def test_diamond(self):
        d = T("C(*,A(*,*),*)")
        assert d.kind == CHAIN
        assert d.n_points == 4

    def test_empty(self):
        assert T("0") is EMPTY

    def test_canonicalized_on_parse(self):
        assert T("C(C(*,*),*)") is T("C(*,*,*)")

    def test_whitespace_ignored(self):
        assert T(" C( * , A(*, *) , * ) ") is T("C(*,A(*,*),*)")

    def test_roundtrip_up_to_size_8(self):
        for t in enumerate_sp(8):
            assert parse_term(t.text) is t

    def test_arity_rejected(self):
        with pytest.raises(TermParseError) as exc:
            T("C(*)")
        assert "two children" in str(exc.value)
        with pytest.raises(TermParseError):
            T("A(*)")

    def test_nesting_cap(self):
        def alternating(depth):
            text = "*"
            for level in range(depth):
                text = ("C" if level % 2 else "A") + "(*," + text + ")"
            return text

        assert T(alternating(MAX_TERM_DEPTH)).n_points == MAX_TERM_DEPTH + 1
        with pytest.raises(TermParseError) as exc:
            T(alternating(MAX_TERM_DEPTH + 1))
        assert "nested more than" in str(exc.value)

    def test_syntax_errors_carry_positions(self):
        with pytest.raises(TermParseError) as exc:
            T("C(*,x)")
        assert exc.value.position == 4
        with pytest.raises(TermParseError) as exc:
            T("C(*,*")
        assert exc.value.position == 5
        with pytest.raises(TermParseError) as exc:
            T("C(*,*))")
        assert exc.value.position == 6
        with pytest.raises(TermParseError) as exc:
            T("C*")
        assert exc.value.position == 1
        with pytest.raises(TermParseError) as exc:
            T("C(*;*)")
        assert exc.value.position == 3


class TestBasicShapes:
    def test_size(self):
        assert EMPTY.n_points == 0
        assert POINT.n_points == 1
        assert T("C(*,A(*,*),*)").n_points == 4

    def test_finest_chain_rep(self):
        assert finest_chain_rep(T("C(*,A(*,*),*)")) == [POINT, T("A(*,*)"), POINT]
        assert finest_chain_rep(T("A(*,*)")) == [T("A(*,*)")]
        assert finest_chain_rep(POINT) == [POINT]
        assert finest_chain_rep(EMPTY) == []

    def test_finest_antichain_rep(self):
        assert finest_antichain_rep(T("A(*,C(*,*))")) == [POINT, T("C(*,*)")]
        assert finest_antichain_rep(T("C(*,*)")) == [T("C(*,*)")]
        assert finest_antichain_rep(EMPTY) == []

    def test_canonical_children_shapes(self):
        # Chain layers are never chains or empty; dually for antichains.
        for t in enumerate_sp(6):
            if t.kind == CHAIN:
                assert len(t.children) >= 2
                assert all(c.kind != CHAIN and c is not EMPTY for c in t.children)
            elif t.kind == ANTICHAIN:
                assert len(t.children) >= 2
                assert all(c.kind != ANTICHAIN and c is not EMPTY for c in t.children)
                keys = [c.sort_key for c in t.children]
                assert keys == sorted(keys)


class TestSuborder:
    def test_examples(self):
        assert not is_suborder(T("A(*,*)"), T("C(*,*,*)"))
        assert is_suborder(T("C(*,*)"), T("A(C(*,*,*),*)"))
        assert is_suborder(T("C(*,A(*,*),*)"), T("C(*,A(*,*,*),*)"))

    def test_empty_embeds_everywhere(self):
        for t in enumerate_sp(4):
            assert is_suborder(EMPTY, t)

    def test_point_embeds_in_nonempty(self):
        for t in enumerate_sp(4):
            assert is_suborder(POINT, t) == (t.n_points >= 1)

    def test_partial_order_up_to_size_6(self):
        terms = enumerate_sp(6)
        below = {q: [p for p in terms if is_suborder(p, q)] for q in terms}
        for q in terms:
            assert q in below[q]  # reflexive
            for p in below[q]:
                if is_suborder(q, p):
                    assert p is q  # antisymmetric
        for q in terms:
            for r in terms:
                if is_suborder(q, r):
                    for p in below[q]:
                        assert p in below[r] or is_suborder(p, r)  # transitive

    def test_agrees_with_brute_force_up_to_size_5(self):
        terms = enumerate_sp(5)
        for p in terms:
            for q in terms:
                assert is_suborder(p, q) == brute_embed(p, q), (p, q)

    def test_wide_antichain_sums_stay_small(self, monkeypatch):
        # Twenty distinct components of 2-5 points on each side, differing
        # in one: trying every sub-multiset of the pattern's components
        # against each host component made about two million suborder
        # tests here.
        pool = [t for t in enumerate_sp(5) if t.n_points >= 2 and t.kind != ANTICHAIN]
        comps = random.Random(1).sample(pool, 21)
        p, q = antichain_sum(comps[:20]), antichain_sum(comps[1:])
        assert p.n_points <= q.n_points
        calls = 0
        plain = terms.is_suborder

        def counted(a, b):
            nonlocal calls
            calls += 1
            return plain(a, b)

        terms._embeds.cache_clear()
        monkeypatch.setattr(terms, "is_suborder", counted)
        assert not is_suborder(p, q)
        assert is_suborder(antichain_sum(comps[1:20]), q)
        assert calls < 10_000

    def test_matches_the_reference_search_on_large_hosts(self):
        # Each host holds the pattern's components, some grown by a point
        # and some pairs merged into one connected component, plus a few
        # others; most hosts then lose a component, which may break the
        # embedding.  Every host is past the oracle's size guard.
        rng = random.Random("antichain-hosts")
        small = [t for t in enumerate_sp(4) if t.kind != ANTICHAIN and t is not EMPTY]
        larger = [t for t in enumerate_sp(5) if t.kind != ANTICHAIN and t is not EMPTY]
        verdicts = []
        while len(verdicts) < 1000:
            comps = [rng.choice(small) for _ in range(rng.randint(2, 7))]
            rest = comps.copy()
            rng.shuffle(rest)
            host = []
            while rest:
                x, pick = rest.pop(), rng.random()
                if pick < 0.3 and rest:
                    host.append(chain_sum([antichain_sum([x, rest.pop()]), rng.choice(small)]))
                elif pick < 0.6:
                    host.append(chain_sum([x, POINT] if rng.random() < 0.5 else [POINT, x]))
                else:
                    host.append(x)
            host += [rng.choice(larger) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.8:
                host.pop(rng.randrange(len(host)))
            p, q = antichain_sum(comps), antichain_sum(host)
            if q.kind == ANTICHAIN and q.n_points > MAX_BRUTE_POINTS:
                verdict = is_suborder(p, q)
                assert verdict == embeds(p, q), (p, q)
                verdicts.append(verdict)
        assert min(verdicts.count(True), verdicts.count(False)) > 100

    def test_matches_the_reference_search_on_large_chain_hosts(self):
        # Each host holds the pattern's layers, some grown by a point and
        # some consecutive pairs merged into one layer, which may or may
        # not hold their chain sum, plus a few other layers; most hosts
        # then lose a layer.  Every host is past the oracle's size guard.
        rng = random.Random("chain-hosts")
        small = [t for t in enumerate_sp(4) if t.kind != CHAIN and t is not EMPTY]
        verdicts = []
        while len(verdicts) < 1000:
            layers = [rng.choice(small) for _ in range(rng.randint(2, 8))]
            host, i = [], 0
            while i < len(layers):
                x, pick = layers[i], rng.random()
                if pick < 0.3 and i + 1 < len(layers):
                    y = layers[i + 1]
                    merged = chain_sum([x, y]) if rng.random() < 0.7 else antichain_sum([x, y])
                    host.append(antichain_sum([merged, rng.choice(small)]))
                    i += 1
                elif pick < 0.6:
                    host.append(antichain_sum([x, POINT]))
                else:
                    host.append(x)
                i += 1
            for _ in range(rng.randint(0, 3)):
                host.insert(rng.randint(0, len(host)), rng.choice(small))
            for _ in range(rng.choice([0, 1, 1, 2])):
                if len(host) > 1:
                    host.pop(rng.randrange(len(host)))
            p, q = chain_sum(layers), chain_sum(host)
            if q.kind == CHAIN and q.n_points > MAX_BRUTE_POINTS:
                verdict = is_suborder(p, q)
                assert verdict == embeds(p, q), (p, q)
                verdicts.append(verdict)
        assert min(verdicts.count(True), verdicts.count(False)) > 100

    def test_long_chains(self, monkeypatch):
        def chain(n):
            return chain_sum([POINT] * n)

        holds_two = T("A(C(*,*),*)")  # holds a chain of two points
        hosts = (
            (chain(1200), True),
            (chain(699), False),
            (chain_sum([holds_two] * 350), True),
            (chain_sum([holds_two] * 349 + [POINT]), False),
        )
        for q, verdict in hosts:
            assert is_suborder(chain(700), q) is verdict
            assert embeds(chain(700), q) is verdict
        # A block of two or more layers of the pattern has more points
        # than any host layer, so every counted call is one block test.
        pair = T("A(*,*)")
        p = chain_sum([POINT, pair] * 150)
        rng = random.Random("long-chains")
        calls = 0
        plain = terms.is_suborder

        def counted(a, b):
            nonlocal calls
            calls += 1
            return plain(a, b)

        monkeypatch.setattr(terms, "is_suborder", counted)
        for share, verdict in ((0.5, True), (0.2, False)):
            q = chain_sum([pair if rng.random() < share else POINT for _ in range(600)])
            terms._embeds.cache_clear()
            calls = 0
            assert is_suborder(p, q) is verdict
            assert calls <= 900
            assert embeds(p, q) is verdict

    def test_long_flat_antichains(self):
        def flat(n):
            return antichain_sum([POINT] * n)

        assert is_suborder(flat(700), flat(1200))
        assert not is_suborder(flat(700), flat(699))
        vee = T("C(A(*,*),*)")  # holds two incomparable points
        assert is_suborder(flat(700), antichain_sum([vee] * 350))
        assert not is_suborder(flat(700), antichain_sum([vee] * 349 + [POINT]))

    def test_pattern_past_the_code_budget_is_refused(self, monkeypatch):
        # Eight equal components code nine sub-multisets, past a cap of 8.
        monkeypatch.setattr(terms, "MAX_GROUP_CODES", 8)
        terms._placeable.cache_clear()
        two = T("C(*,*)")
        nine = chain_sum([POINT] * 9)
        with pytest.raises(ResourceLimitError, match="input too large"):
            is_suborder(antichain_sum([two] * 8), antichain_sum([nine, nine]))
        assert is_suborder(antichain_sum([two] * 7), antichain_sum([two] * 9))


def _splits_by_masks(t):
    """Reference for antichain_splits: every subset of the component
    positions, one per sub-multiset, ordered by how many components of
    each run of equal ones go left."""
    comps = finest_antichain_rep(t)
    runs = list(dict.fromkeys(comps))
    found = {}
    for mask in range(1 << len(comps)):
        left = [c for i, c in enumerate(comps) if mask >> i & 1]
        right = [c for i, c in enumerate(comps) if not mask >> i & 1]
        pick = tuple(left.count(c) for c in runs)
        found[pick] = (left, right)
    return [found[pick] for pick in sorted(found)]


class TestAntichainSplits:
    def test_examples(self):
        two = T("C(*,*)")
        assert list(antichain_splits(T("A(*,*,C(*,*))"))) == [
            ([], [POINT, POINT, two]),
            ([two], [POINT, POINT]),
            ([POINT], [POINT, two]),
            ([POINT, two], [POINT]),
            ([POINT, POINT], [two]),
            ([POINT, POINT, two], []),
        ]
        assert list(antichain_splits(two)) == [([], [two]), ([two], [])]
        assert list(antichain_splits(EMPTY)) == [([], [])]

    def test_lazy(self):
        wide = antichain_sum([T("C(*,*)")] + [chain_sum([POINT] * k) for k in range(3, 40)])
        first = next(antichain_splits(wide))
        assert first == ([], list(wide.children))

    def test_every_sub_multiset_once_in_product_order_up_to_size_8(self):
        for t in enumerate_sp(8):
            if t.kind != ANTICHAIN:
                continue
            assert list(antichain_splits(t)) == _splits_by_masks(t), t


    def test_copy_bounds_filter_the_product_order(self):
        rng = random.Random("copy-bounds")
        for t in enumerate_sp(8):
            if t.kind != ANTICHAIN:
                continue
            want = _splits_by_masks(t)
            for _ in range(4):
                bounds = {}
                for comp in finest_antichain_rep(t):
                    total = finest_antichain_rep(t).count(comp)
                    bounds[comp] = sorted(rng.choice(range(total + 1)) for _ in range(2))
                if rng.random() < 0.2:  # a run that no split satisfies
                    bounds[rng.choice(list(bounds))] = (1, 0)
                got = list(antichain_splits(t, lambda comp, total: bounds[comp]))
                assert got == [
                    (left, right)
                    for left, right in want
                    if all(lo <= left.count(comp) <= hi for comp, (lo, hi) in bounds.items())
                ], (t, bounds)

    def test_a_run_without_room_builds_no_split(self):
        wide = antichain_sum([POINT] * 5 + [T("C(*,*)")] * 5 + [T("C(*,*,*)")])
        copies = {POINT: (0, 5), T("C(*,*)"): (3, 2)}
        asked = []

        def bounds(comp, total):
            asked.append(comp)
            return copies[comp]

        assert list(antichain_splits(wide, bounds)) == []
        assert asked == [POINT, T("C(*,*)")]


class TestOnePointDeletions:
    def test_examples(self):
        assert one_point_deletions(EMPTY) == ()
        assert one_point_deletions(POINT) == (EMPTY,)
        assert set(one_point_deletions(T("C(*,A(*,*),*)"))) == {
            T("C(A(*,*),*)"),
            T("C(*,*,*)"),
            T("C(*,A(*,*))"),
        }
        assert one_point_deletions(T("A(*,*,*)")) == (T("A(*,*)"),)

    def test_matches_brute_force_up_to_size_7(self):
        terms = enumerate_sp(7)
        for t in terms:
            got = one_point_deletions(t)
            assert len(set(got)) == len(got), t
            want = {p for p in terms if p.n_points == t.n_points - 1 and brute_embed(p, t)}
            assert set(got) == want, t


class TestEnumerate:
    def test_small_counts(self):
        assert [t.text for t in enumerate_sp(1)] == ["0", "*"]
        assert len(enumerate_sp(3)) == 9
        assert len(enumerate_sp(4)) == 24

    def test_size_profile(self):
        by_size = [len([t for t in enumerate_sp(4) if t.n_points == s]) for s in range(5)]
        assert by_size == [1, 1, 2, 5, 15]

    def test_deterministic_order(self):
        assert enumerate_sp(5) == enumerate_sp(5)
        keys = [t.sort_key for t in enumerate_sp(5)]
        assert keys == sorted(keys)

    def test_grammar_vs_closure(self):
        for n in range(7):
            assert set(enumerate_sp(n)) == enumerate_sp_by_closure(n)

    def test_resource_cap(self):
        # The cap is checked before any level is built, so refusing
        # twelve points caches nothing of that size.
        levels = terms._terms_of_size.cache_info().currsize
        with pytest.raises(ResourceLimitError, match="cap of 11 points"):
            enumerate_sp(12)
        assert terms._terms_of_size.cache_info().currsize == levels


class TestSmartConstructors:
    def test_chain_sum_flattens(self):
        assert chain_sum([T("C(*,*)"), POINT]) is T("C(*,*,*)")
        assert chain_sum([EMPTY, POINT]) is POINT
        assert chain_sum([]) is EMPTY

    def test_antichain_sum_sorts(self):
        assert antichain_sum([T("C(*,*)"), POINT]) is T("A(*,C(*,*))")
