"""Independent verification predicates.

Everything here works on materialized point relations and exhaustive
search, deliberately ignoring the structure the rest of the package
exploits: the relations themselves are read off each term's sums.
``brute_embed`` is the arbiter for the fast suborder test,
``avoiders_upto`` the arbiter for ideal membership, and
``verify_equivalence`` compares a synthesized description's generated
set against direct enumeration.

Each order is prepared once, not once per (pattern, host) pair:
``_relation_masks`` gives it one flat record, ``(comparable,
incomparable, full, up_0, inc_0, up_1, inc_1, ...)``: its numbers of
comparable and of incomparable pairs, the mask of all its points, then
per point ``p`` the masks of the points strictly above it and of those
incomparable to it, at indices ``2p + 3`` and ``2p + 4``.  A record of
n points thus has ``3 + 2n`` slots, and every mask in it is the one int
object ``_MASKS`` holds for its value.  ``_constraint_rows`` compiles a
pattern into its two counts and how each point relates to the earlier
ones.

No record holds the masks of the points below a point, because no search
reads them.  The points of a sum are numbered part by part, the layers of
a chain sum from the bottom up, so a point lies below only
later-numbered points: within a part by induction, and across parts
because each layer lies below the later ones and components are
incomparable.  A pattern's point ``i`` is thus above or incomparable to
each earlier point ``j``, and its candidates are narrowed by the above
or the incomparable mask of ``j``'s image.  (Over the 11,757 orders of at
most 9 points the compiled patterns hold 221,958 "above" constraints,
168,704 "incomparable" ones and no "below" one.)

One search, ``_embeds``, runs a compiled pattern against a host's record
for both entry points; ``avoiders_upto`` filters the hosts one pattern
at a time.  All of it reads only the materialized relation, and so does
the pair-count refusal in front of the search: an induced embedding maps
comparable pairs injectively onto comparable pairs and incomparable
pairs onto incomparable ones.  The arbiter thus stays independent of the
term algebra it checks.  Every cache here is keyed on one term, and a
term of more than ``MAX_BRUTE_POINTS`` points is answered, skipped or
refused before any cache is touched, so each holds at most one entry per
order of at most that size.  Answers are not cached per pair: a pair memo
would grow with the product of patterns and hosts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .bits import StructuralDescription
from .closure import generate_upto
from .terms import CHAIN, EMPTY, POINT, SpTerm, enumerate_sp

MAX_BRUTE_POINTS = 9

# Every mask a record can hold, so that records share one object per value.
_MASKS = tuple(range(1 << MAX_BRUTE_POINTS))


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
def _relation_masks(t: SpTerm) -> tuple[int, ...]:
    """The record of ``t``, laid out as the module docstring says.  The
    points are numbered part by part, each part's masks shifted to its
    offset: in a chain sum every point lies below every point of the
    later layers, and the components of an antichain sum are pairwise
    incomparable."""
    if t is EMPTY:
        return 0, 0, 0
    if t is POINT:
        return 0, 0, 1, 0, 0
    n = t.n_points
    full = (1 << n) - 1
    rows = []
    comparable = off = 0
    for part in t.children:
        record = _relation_masks(part)
        end = off + part.n_points
        if t.kind == CHAIN:
            later, beside = full >> end << end, 0
            comparable += (end - off) * (n - end)
        else:
            later, beside = 0, full ^ ((1 << end) - (1 << off))
        for above, incomp in zip(record[3::2], record[4::2]):
            rows += _MASKS[above << off | later], _MASKS[incomp << off | beside]
        comparable += record[0]
        off = end
    return comparable, n * (n - 1) // 2 - comparable, _MASKS[full], *rows


@cache
def _constraint_rows(p: SpTerm) -> tuple[int, int, tuple[tuple[tuple[int, int], ...], ...]]:
    """The pattern's numbers of comparable and of incomparable pairs,
    then for each point ``i`` the pair ``(j, kind)`` for every earlier
    point ``j``: kind 0 when ``i`` lies above ``j``, 1 when the two are
    incomparable, the offset of that relation's mask among a record's
    two masks per point."""
    record = _relation_masks(p)
    above = record[3::2]
    return record[0], record[1], tuple(
        tuple((j, 0 if above[j] >> i & 1 else 1) for j in range(i)) for i in range(len(above))
    )


def _embeds(pattern, host) -> bool:
    """Depth-first search over injective maps of a nonempty compiled
    pattern's points into a host's record, in order: ``cand`` holds the
    candidates for point ``i``, narrowed by the images of the earlier
    points, ``cands[j]`` those not yet tried for an earlier ``j`` and
    ``rows[j]`` the index of its image's first mask in the record.  Every
    earlier point constrains ``i``, and neither of its image's masks
    holds the image, so no candidate is an image already taken."""
    comparable, incomparable, constraints = pattern
    if comparable > host[0] or incomparable > host[1]:
        return False
    last = len(constraints) - 1
    cand = full = host[2]
    cands = [0] * len(constraints)
    rows = [0] * len(constraints)
    i = 0
    while True:
        if cand:
            if i == last:
                return True
            low = cand & -cand
            cands[i] = cand ^ low
            rows[i] = 2 * low.bit_length() + 1
            i += 1
            cand = full
            for j, kind in constraints[i]:
                cand &= host[rows[j] + kind]
        elif i:
            i -= 1
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


@dataclass(frozen=True, slots=True)
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
