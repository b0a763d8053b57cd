"""Independent verification predicates.

Everything here works on materialized point relations and exhaustive
search, deliberately ignoring the structure the rest of the package
exploits.  ``brute_embed`` is the arbiter for the fast suborder test,
``avoiders_upto`` the arbiter for ideal membership, and
``verify_equivalence`` compares a synthesized description's generated
set against direct enumeration.  ``diamond_free_shape`` checks the
closed-form characterization of diamond-free SP orders: an antichain
sum of parts, each a forest stacked on an upside-down forest.
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
    # The guard comes before the memo, so no cached answer skips it.
    return _search_embedding(p, q)


@cache
def _search_embedding(p: SpTerm, q: SpTerm) -> bool:
    rp, rq = to_relation(p), to_relation(q)
    np_, nq = rp.n, rq.n
    full = (1 << nq) - 1
    # Host masks per point: everything strictly above / strictly below /
    # incomparable.
    above = [rq.leq[a] & ~(1 << a) for a in range(nq)]
    below = [0] * nq
    for b in range(nq):
        row = rq.leq[b]
        for a in range(nq):
            if a != b and row >> a & 1:
                below[a] |= 1 << b
    incomp = [full & ~(above[a] | below[a] | (1 << a)) for a in range(nq)]

    # For each pattern point, how it relates to the earlier ones.
    constraints = []
    for i in range(np_):
        row = []
        for j in range(i):
            if rp.leq[j] >> i & 1:
                row.append((j, above))
            elif rp.leq[i] >> j & 1:
                row.append((j, below))
            else:
                row.append((j, incomp))
        constraints.append(row)

    assigned = [0] * np_

    def place(i: int, used: int) -> bool:
        if i == np_:
            return True
        cand = full & ~used
        for j, masks in constraints[i]:
            cand &= masks[assigned[j]]
            if not cand:
                return False
        while cand:
            low = cand & -cand
            cand ^= low
            a = low.bit_length() - 1
            assigned[i] = a
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

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "equal": self.equal,
            "missing": list(self.missing),
            "extra": list(self.extra),
        }


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

@cache
def _strict_sets_are_chains(t: SpTerm, above: bool) -> bool:
    """True iff, for every point of ``t``, the points strictly below it
    (strictly above it when ``above``) are pairwise comparable: ``t`` is
    a forest, or an upside-down forest when ``above``."""
    rel = to_relation(t)
    leq = rel.leq
    for i in range(rel.n):
        if above:
            related = [j for j in range(rel.n) if j != i and leq[i] >> j & 1]
        else:
            related = [j for j in range(rel.n) if j != i and leq[j] >> i & 1]
        for a, x in enumerate(related):
            for y in related[a + 1 :]:
                if not (leq[x] >> y & 1 or leq[y] >> x & 1):
                    return False
    return True


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
