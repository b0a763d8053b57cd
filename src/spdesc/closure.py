"""Generation semantics of structural descriptions.

``generate_upto`` materializes, up to a size bound, the lower ideal an
entry's bit set generates: the least set containing the empty and one
point orders and closed under every bit.  Applying a chain bit with
cells ``x``/``y`` stacks any member of cell ``x`` under any member of
cell ``y``; an antichain bit places them side by side.  A self-labeled
cell draws from the set built so far; an ideal-labeled cell draws from
the label's own members within the bound (possibly none).  Cells
may be filled with the empty order, so a two point bit also contributes
each cell's members on their own.

The size cap is exact: every part of a sum of size <= n has size <= n,
so the capped fixed point equals the full generated ideal restricted to
terms of size <= n.  A static cell's members are enumerated, so
``terms.MAX_ENUM_SIZE`` bounds n for an entry with an ideal label; an
entry whose bits are all self-labeled is bounded only by the count of
terms it generates, ``MAX_GENERATED_TERMS``.

The fixed point is evaluated one size at a time.  ``G[0]`` is the empty
order and ``G[1]`` the point; ``G[s]`` collects, over every bit and
every split ``a + b = s``, the sums of the first cell's members of size
``a`` with the second cell's of size ``b``.  A self cell of size
``a < s`` reads ``G[a]``, which is already complete; a self cell of the
whole size ``s`` leaves the empty order to the other cell and only
rebuilds a term of ``G[s]`` itself, so that split is skipped.  A static
cell's members are bucketed by size once.

``member_topdown`` decides membership of a single term by running the
bits backwards: a term is generated iff it is the empty or one point
order, or some bit splits it - a chain bit along a prefix/suffix cut of
its layers, an antichain bit along a two-way split of its components
(``terms.antichain_splits``) - with both halves accepted by their
cells.  Self-labeled halves recurse (a half equal to the whole term is
skipped; such an application never builds anything new), ideal-labeled
halves are obstruction checks against the label.

It prunes with one lemma: in every table, valid or not, an accepted sum
has every part accepted, a part being a layer of a chain sum or a
component of an antichain sum.  By induction on the size of the sum:
a label's ideal is suborder-closed, since embedding is transitive.
Take a sum built by a bit; each part lies in one of its halves.  If
that half came from a self cell, it is strictly smaller than the sum,
so it is accepted and (being the part, or a sum with that part) by
induction so is the part.  If it came from a static cell, the part lies
in that cell's ideal too, and the same bit builds the part alone, with
the empty order in the other cell: that cell admitted a half, so it is
not void and admits the empty order.  Two steps apply the lemma:

1. Part-first rejection: a sum's parts are decided (and cached) before
   any of its splits is built, and one rejected part rejects the sum.
2. Component admission per antichain bit: a static cell admits a
   component iff its ideal has it, since the cell's side holds the
   component as a suborder; after step 1 a self cell admits every
   proper component.  A component that neither cell admits rules the
   bit out, and one that only one cell admits goes wholly to that side,
   so ``antichain_splits`` is given per-run bounds on the left side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import CHAIN_SHAPE, R, StructuralDescription, UnknownIdealKeyError
from .ideals import Ideal, member, members_upto
from .terms import (
    EMPTY,
    POINT,
    CHAIN,
    ResourceLimitError,
    SpTerm,
    antichain_splits,
    antichain_sum,
    chain_sum,
)


# Most terms ``generate_upto`` may collect, the number of orders of at
# most 11 points rounded up.
MAX_GENERATED_TERMS = 200_000


@dataclass(frozen=True, slots=True)
class GeneratedSet:
    """Terms of size <= bound generated by one entry's bit set."""

    bound: int
    terms: frozenset


def _cells(desc: StructuralDescription, key: str, n: int):
    """Per bit: (is_chain, cell1, cell2); a cell is None for the
    self-reference (dynamic) or the label's members of size <= n
    bucketed by size (static).  Cells with the same label share one
    bucket list."""
    entry = desc.entries.get(key)
    if entry is None:
        raise UnknownIdealKeyError(key)
    buckets: dict[Ideal, list[list[SpTerm]]] = {}
    prepped = []
    for bit in entry.bits:
        cells = []
        for label in (bit.first, bit.second):
            if label is R:
                cells.append(None)
                continue
            got = buckets.get(label)
            if got is None:
                got = buckets[label] = [[] for _ in range(n + 1)]
                for t in members_upto(label, n):
                    got[t.n_points].append(t)
            cells.append(got)
        prepped.append((bit.shape == CHAIN_SHAPE, cells[0], cells[1]))
    return prepped


def generate_upto(desc: StructuralDescription, key: str, n: int) -> GeneratedSet:
    """Least fixed point of the entry's bits over {empty, point},
    restricted to terms of size <= n.  Deterministic and independent of
    application order (the result is a plain set union); more than
    ``MAX_GENERATED_TERMS`` terms raise ``ResourceLimitError``."""
    if n < 0:
        raise ValueError("size bound must be nonnegative")
    prepped = _cells(desc, key, n)

    by_size: list[set[SpTerm]] = [{EMPTY}]
    found = 1
    for s in range(1, n + 1):
        level = {POINT} if s == 1 else set()
        for is_chain, c1, c2 in prepped:
            combine = chain_sum if is_chain else antichain_sum
            for a in range(s + 1):
                b = s - a
                # A self cell filled with the whole size leaves the empty
                # order to the other cell and rebuilds the same term.
                if (c1 is None and b == 0) or (c2 is None and a == 0):
                    continue
                # Antichain sums commute: with one source in both cells,
                # the split (a, b) builds what (b, a) builds.
                if not is_chain and c1 is c2 and a > b:
                    continue
                firsts = by_size[a] if c1 is None else c1[a]
                seconds = by_size[b] if c2 is None else c2[b]
                for x in firsts:
                    for y in seconds:
                        level.add(combine((x, y)))
                if found + len(level) > MAX_GENERATED_TERMS:
                    raise ResourceLimitError(
                        f"generated set exceeds the cap of {MAX_GENERATED_TERMS} terms"
                    )
        by_size.append(level)
        found += len(level)
    return GeneratedSet(n, frozenset().union(*by_size))


def member_topdown(desc: StructuralDescription, key: str, term: SpTerm) -> bool:
    """Decide ``term in generate_upto(desc, key, term.n_points).terms``
    without materializing the generated set."""
    if key not in desc.entries:
        raise UnknownIdealKeyError(key)
    cache = desc._topdown_cache

    def accepted(half: SpTerm, label, whole: SpTerm) -> bool:
        if label is R:
            if half is whole:
                return False  # circular: would rebuild the term from itself
            return decide(half)
        return member(label, half)

    def admits(label, comp: SpTerm, whole: SpTerm) -> bool:
        # Whether a cell may hold the component on its side of a split.
        if label is R:
            return comp is not whole  # every part is accepted by then
        return member(label, comp)

    def built_by(bit, t: SpTerm) -> bool:
        if bit.shape == CHAIN_SHAPE:
            parts = t.children if t.kind == CHAIN else (t,)
            halves = ((chain_sum(parts[:i]), chain_sum(parts[i:])) for i in range(len(parts) + 1))
        else:
            # The left side takes every copy the second cell refuses and
            # none that the first cell refuses.
            halves = antichain_splits(
                t,
                copies=lambda comp, total: (
                    0 if admits(bit.second, comp, t) else total,
                    total if admits(bit.first, comp, t) else 0,
                ),
            )
        return any(accepted(x, bit.first, t) and accepted(y, bit.second, t) for x, y in halves)

    def decide(t: SpTerm) -> bool:
        if t is EMPTY or t is POINT:
            return True
        ck = (key, t)
        got = cache.get(ck)
        if got is not None:
            return got
        # Recursion is well-founded: every part and every self-labeled
        # half is strictly smaller than t, so no in-progress sentinel is
        # needed.  Parts come first: an accepted sum has every part
        # accepted.
        result = all(map(decide, t.children)) and any(
            built_by(bit, t) for bit in desc.entries[key].bits
        )
        cache[ck] = result
        return result

    return decide(term)
