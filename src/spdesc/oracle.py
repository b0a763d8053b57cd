"""Independent verification predicates.

Everything here works on materialized point relations and exhaustive
search, deliberately ignoring the structure the rest of the package
exploits.  ``brute_embed`` is the arbiter for the fast suborder test,
``avoiders_upto`` the arbiter for ideal membership, and
``verify_equivalence`` compares a synthesized description's generated
set against direct enumeration.  ``diamond_free_shape`` checks the
closed-form characterization of diamond-free SP orders: an antichain
sum of parts, each a forest stacked on an upside-down forest.

The relation work is done once per order, not once per (pattern, host)
pair.  ``_relation_masks`` gives each point's at-or-above, at-or-below
and incomparable masks, with the numbers of comparable and incomparable
pairs; ``_constraint_rows`` gives how each pattern point relates to the
earlier ones.  Both read only the materialized relation, and so does the
pair-count refusal in front of the search: an induced embedding maps
comparable pairs injectively onto comparable pairs and incomparable
pairs onto incomparable ones, so a pattern with more of either cannot
embed.  The arbiter thus stays independent of the term algebra it
checks.  Every cache here is keyed on one term, and ``brute_embed``'s
size guard comes before all of them, so the arbiter adds to each at most
one entry per order of at most ``MAX_BRUTE_POINTS`` points.  Answers are
not cached per pair: a search is cheap to re-run, and a pair memo would
grow with the product of patterns and hosts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .bits import StructuralDescription
from .closure import generate_upto
from .terms import (
    EMPTY,
    SpTerm,
    chain_sum,
    enumerate_sp,
    finest_antichain_rep,
    finest_chain_rep,
    to_relation,
)

MAX_BRUTE_POINTS = 9


class SizeGuardError(ValueError):
    """Input too large for the brute-force predicates."""


def brute_embed(p: SpTerm, q: SpTerm) -> bool:
    """Exhaustive search for an order isomorphism from ``p`` onto a
    restriction of ``q``; no use of the term structure beyond
    materializing both relations.  The two answers that need no search
    (an empty pattern, a pattern larger than the host) come before the
    size guard, so they hold at any size."""
    if p is EMPTY:
        return True
    if p.n_points > q.n_points:
        return False
    if q.n_points > MAX_BRUTE_POINTS:
        raise SizeGuardError(
            f"brute-force embedding is capped at {MAX_BRUTE_POINTS} points"
        )
    # The guard comes before the search, so it also bounds what the
    # search adds to the per-order caches.
    return _search_embedding(p, q)


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


@cache
def _relation_masks(
    t: SpTerm,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int, int]:
    """Per point of ``t``'s materialized relation, the masks of the points
    at or above it, at or below it and incomparable to it (so relation
    kinds 0/1/2 index them), then the numbers of comparable and of
    incomparable pairs.  The masks include the point itself, which a
    search has always used already; the at-or-above masks are the
    relation's own rows."""
    rel = to_relation(t)
    n = rel.n
    full = (1 << n) - 1
    below = [0] * n
    for a, row in enumerate(rel.leq):
        for b in _bits(row):
            below[b] |= 1 << a
    incomp = tuple(full & ~(rel.leq[a] | below[a]) for a in range(n))
    comparable = sum(row.bit_count() for row in rel.leq) - n
    return rel.leq, tuple(below), incomp, comparable, n * (n - 1) // 2 - comparable


@cache
def _constraint_rows(p: SpTerm) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each point ``i`` of the pattern, ``(j, kind)`` for every
    earlier point ``j``: kind 0 when ``i`` lies above ``j``, 1 when below
    it, 2 when incomparable."""
    above, below = _relation_masks(p)[:2]
    return tuple(
        tuple(
            (j, 0 if above[j] >> i & 1 else 1 if below[j] >> i & 1 else 2)
            for j in range(i)
        )
        for i in range(len(above))
    )


def _search_embedding(p: SpTerm, q: SpTerm) -> bool:
    """Backtracking over injective maps of the pattern's points, in
    order, each host candidate narrowed by the masks of the images of
    the earlier points."""
    p_comparable, p_incomparable = _relation_masks(p)[3:]
    masks = _relation_masks(q)
    q_comparable, q_incomparable = masks[3:]
    # An induced embedding maps comparable pairs injectively onto
    # comparable pairs and incomparable ones onto incomparable ones.
    if p_comparable > q_comparable or p_incomparable > q_incomparable:
        return False
    constraints = _constraint_rows(p)
    np_ = len(constraints)
    full = (1 << q.n_points) - 1
    assigned = [0] * np_

    def place(i: int, used: int) -> bool:
        if i == np_:
            return True
        cand = full & ~used
        for j, kind in constraints[i]:
            cand &= masks[kind][assigned[j]]
            if not cand:
                return False
        while cand:
            low = cand & -cand
            cand ^= low
            assigned[i] = low.bit_length() - 1
            if place(i + 1, used | low):
                return True
        return False

    return place(0, 0)


def avoiders_upto(forbidden, n: int) -> list[SpTerm]:
    """All canonical terms of size <= n into which none of the forbidden
    terms embeds, by direct enumeration and brute-force embedding."""
    if n > MAX_BRUTE_POINTS:
        raise SizeGuardError(f"avoider enumeration is capped at size {MAX_BRUTE_POINTS}")
    forbidden = list(forbidden)
    return [
        t
        for t in enumerate_sp(n)
        if all(not brute_embed(f, t) for f in forbidden)
    ]


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing a description's generated set against the
    directly enumerated ideal, with witnesses on both sides."""

    bound: int
    equal: bool
    missing: tuple[str, ...]  # in the ideal but not generated
    extra: tuple[str, ...]  # generated but outside the ideal

    def summary(self) -> str:
        if self.equal:
            return f"equal up to size {self.bound}"
        return (
            f"MISMATCH up to size {self.bound}: "
            f"{len(self.missing)} missing, {len(self.extra)} extra"
        )


def verify_equivalence(forbidden, desc: StructuralDescription, n: int) -> EquivalenceReport:
    """Exact set comparison at size bound n between what the description
    generates from its root and what survives the forbidden terms."""
    want = set(avoiders_upto(forbidden, n))
    got = generate_upto(desc, desc.root, n).terms
    missing = sorted(want - got, key=lambda t: t.sort_key)
    extra = sorted(got - want, key=lambda t: t.sort_key)
    return EquivalenceReport(
        bound=n,
        equal=not missing and not extra,
        missing=tuple(t.text for t in missing),
        extra=tuple(t.text for t in extra),
    )


# -- Diamond-free characterization --------------------------------------------

def _strict_sets_are_chains(t: SpTerm, above: bool) -> bool:
    """True iff, for every point of ``t``, the points strictly below it
    (strictly above it when ``above``) are pairwise comparable: ``t`` is
    a forest, or an upside-down forest when ``above``.  Such a set is a
    chain iff none of its members is incomparable to another; the point
    itself, which the masks include, is incomparable to none of them."""
    ups, downs, incomp = _relation_masks(t)[:3]
    return not any(
        incomp[x] & related for related in (ups if above else downs) for x in _bits(related)
    )


def diamond_free_shape(p: SpTerm) -> bool:
    """True iff every component splits as an upside-down forest below a
    forest (either half possibly empty), the split taken between layers.
    Both halves are tested on the materialized relation."""
    for comp in finest_antichain_rep(p):
        parts = finest_chain_rep(comp)
        if not any(
            _strict_sets_are_chains(chain_sum(parts[:i]), above=True)
            and _strict_sets_are_chains(chain_sum(parts[i:]), above=False)
            for i in range(len(parts) + 1)
        ):
            return False
    return True
