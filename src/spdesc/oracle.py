"""Independent verification predicates.

Everything here works on materialized point relations and exhaustive
search, deliberately ignoring the structure the rest of the package
exploits.  ``brute_embed`` is the arbiter for the fast suborder test,
``avoiders_upto`` the arbiter for ideal membership, and
``verify_equivalence`` compares a synthesized description's generated
set against direct enumeration.

Each order is prepared once, not once per (pattern, host) pair:
``_relation_masks`` gives each point its at-or-above, at-or-below and
incomparable masks, with the numbers of comparable and incomparable
pairs, and ``_constraint_rows`` compiles a pattern into those two counts
and how each point relates to the earlier ones.  One search,
``_embeds``, runs a compiled pattern against a host's masks for both
entry points; ``avoiders_upto`` filters the hosts one pattern at a time.
All of it reads only the materialized relation, and so does the
pair-count refusal in front of the search: an induced embedding maps
comparable pairs injectively onto comparable pairs and incomparable
pairs onto incomparable ones.  The arbiter thus stays independent of the
term algebra it checks.  Every cache here is keyed on one term, and a
term of more than ``MAX_BRUTE_POINTS`` points is answered, skipped or
refused before any cache is touched, so each holds at most one entry per
order of at most that size.  Answers are not cached per pair: a pair
memo would grow with the product of patterns and hosts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .bits import StructuralDescription
from .closure import generate_upto
from .terms import EMPTY, SpTerm, enumerate_sp, to_relation

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
    return _embeds(_constraint_rows(p), _relation_masks(q))


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
        while row:
            low = row & -row
            row ^= low
            below[low.bit_length() - 1] |= 1 << a
    incomp = tuple(full & ~(rel.leq[a] | below[a]) for a in range(n))
    comparable = sum(row.bit_count() for row in rel.leq) - n
    return rel.leq, tuple(below), incomp, comparable, n * (n - 1) // 2 - comparable


@cache
def _constraint_rows(p: SpTerm) -> tuple[int, int, tuple[tuple[tuple[int, int], ...], ...]]:
    """The pattern's numbers of comparable and of incomparable pairs,
    then for each point ``i`` the pair ``(j, kind)`` for every earlier
    point ``j``: kind 0 when ``i`` lies above ``j``, 1 when below it, 2
    when incomparable."""
    above, below, _, comparable, incomparable = _relation_masks(p)
    return comparable, incomparable, tuple(
        tuple((j, 0 if above[j] >> i & 1 else 1 if below[j] >> i & 1 else 2) for j in range(i))
        for i in range(len(above))
    )


def _embeds(pattern, host) -> bool:
    """Depth-first search over injective maps of a nonempty compiled
    pattern's points into a host's masks, in order: ``cand`` holds the
    candidates for point ``i``, narrowed by the images of the earlier
    points, and ``cands[j]`` those not yet tried for an earlier ``j``."""
    comparable, incomparable, rows = pattern
    if comparable > host[3] or incomparable > host[4]:
        return False
    last = len(rows) - 1
    cand = full = (1 << len(host[0])) - 1
    cands = [0] * len(rows)
    assigned = [0] * len(rows)
    used = 0
    i = 0
    while True:
        if cand:
            if i == last:
                return True
            low = cand & -cand
            cands[i] = cand ^ low
            assigned[i] = low.bit_length() - 1
            used |= low
            i += 1
            cand = full ^ used
            for j, kind in rows[i]:
                cand &= host[kind][assigned[j]]
        elif i:
            i -= 1
            used ^= 1 << assigned[i]
            cand = cands[i]
        else:
            return False


def avoiders_upto(forbidden, n: int) -> list[SpTerm]:
    """All canonical terms of size <= n into which none of the forbidden
    terms embeds, by direct enumeration and brute-force embedding.  The
    hosts are filtered one pattern at a time; a pattern of more than
    ``n`` points embeds into none of them and is skipped untouched."""
    if n > MAX_BRUTE_POINTS:
        raise SizeGuardError(f"avoider enumeration is capped at size {MAX_BRUTE_POINTS}")
    hosts = enumerate_sp(n)
    for f in forbidden:
        if f is EMPTY:
            return []
        if f.n_points <= n:
            pattern = _constraint_rows(f)
            hosts = [t for t in hosts if not _embeds(pattern, _relation_masks(t))]
    return hosts


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
