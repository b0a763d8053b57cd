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
terms of size <= n.  ``terms.MAX_ENUM_SIZE`` bounds n for every entry,
the cap that enumerating a static cell's members already meets, so a
generated set holds at most the 181,007 orders of at most 11 points.

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
cells.  Ideal-labeled halves are obstruction checks against the label;
a self-labeled half equal to the whole term is refused (such an
application never builds anything new), and any other is decided on
one explicit stack of frames: a frame yields each term whose verdict it
still needs and reads it from the memo when resumed.  Every awaited term
is a part or a self-labeled half, strictly smaller than the term that
awaits it, so no term is awaited while in progress and no in-progress
mark is needed.  A verdict depends only on the entry, its ideal and its
bits (a static half reads its label's ideal, not the table), so the memo
is one dict per ``Entry`` value, shared by every table that holds it.

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

1. Part-first rejection: a sum's parts are decided (and memoized)
   before any of its splits is built, and one rejected part rejects the
   sum.
2. Component admission per antichain bit: a cell's half has each of
   its components as a suborder, so a cell holds only components it
   accepts alone (for a self cell by the lemma, the verdict memoized by
   step 1).  A component that neither cell accepts rules the bit out,
   and one that only one cell accepts goes wholly to that side, so
   ``antichain_splits`` is given per-run bounds on the left side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .bits import CHAIN_SHAPE, R, Entry, StructuralDescription, UnknownIdealKeyError
from .ideals import Ideal, member, members_upto
from .terms import (
    EMPTY,
    POINT,
    CHAIN,
    MAX_ENUM_SIZE,
    ResourceLimitError,
    SpTerm,
    _sorted_antichain_sum,
    antichain_splits,
    antichain_sum,
    chain_sum,
)


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
    application order (the result is a plain set union); n above
    ``terms.MAX_ENUM_SIZE`` raises ``ResourceLimitError``."""
    if n < 0:
        raise ValueError("size bound must be nonnegative")
    if n > MAX_ENUM_SIZE:
        raise ResourceLimitError(
            f"generated set up to size {n} exceeds the cap of {MAX_ENUM_SIZE} points"
        )
    prepped = _cells(desc, key, n)

    by_size: list[set[SpTerm]] = [{EMPTY}]
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
                if a and b:
                    for x in firsts:
                        for y in seconds:
                            level.add(combine((x, y)))
                elif firsts if a == 0 else seconds:
                    # A size-0 cell holds 0 or nothing, and a sum with 0 is the other half.
                    level.update(seconds if a == 0 else firsts)
        by_size.append(level)
    return GeneratedSet(n, frozenset().union(*by_size))


@cache
def _verdicts(entry: Entry) -> dict:
    """``member_topdown``'s verdicts on one entry, by term."""
    return {EMPTY: True, POINT: True}


def _frame(bits, t: SpTerm, memo: dict):
    """Decide ``t`` on an entry's bits: yield each term whose verdict
    ``memo`` lacks, read it from ``memo`` on resuming, return t's."""
    for part in t.children:
        if part not in memo:
            yield part
        if not memo[part]:
            return False

    def accepts(label, half):  # half is t or has a verdict in memo
        if label is R:
            return half is not t and memo[half]
        return member(label, half)

    for bit in bits:
        first, second = bit.first, bit.second
        if bit.shape == CHAIN_SHAPE:
            parts = t.children if t.kind == CHAIN else (t,)
            build = chain_sum
            sides = ((parts[:i], parts[i:]) for i in range(len(parts) + 1))
        else:
            # The left side takes every copy the second cell refuses and
            # none that the first cell refuses.
            build = _sorted_antichain_sum
            sides = antichain_splits(
                t,
                copies=lambda comp, total: (
                    0 if accepts(second, comp) else total,
                    total if accepts(first, comp) else 0,
                ),
            )
        # Each side is built only when it is read: the right one only
        # after the first cell accepts the left.
        for x, y in sides:
            x = build(x)
            if first is R and x is not t and x not in memo:
                yield x
            if accepts(first, x):
                y = build(y)
                if second is R and y is not t and y not in memo:
                    yield y
                if accepts(second, y):
                    return True
    return False


def member_topdown(desc: StructuralDescription, key: str, term: SpTerm) -> bool:
    """Decide ``term in generate_upto(desc, key, term.n_points).terms``
    without materializing the generated set."""
    entry = desc.entries.get(key)
    if entry is None:
        raise UnknownIdealKeyError(key)
    memo = _verdicts(entry)
    stack = [] if term in memo else [(term, _frame(entry.bits, term, memo))]
    while stack:
        t, frame = stack[-1]
        try:
            need = next(frame)
        except StopIteration as done:
            memo[t] = done.value
            stack.pop()
        else:
            stack.append((need, _frame(entry.bits, need, memo)))
    return memo[term]
