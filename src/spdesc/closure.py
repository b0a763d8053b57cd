"""Generation semantics of structural descriptions.

``generate_upto`` materializes, up to a size bound, the lower ideal an
entry's bit set generates: the least set containing the empty and one
point orders and closed under every bit.  Applying a chain bit with
cells ``x``/``y`` stacks any member of cell ``x`` under any member of
cell ``y``; an antichain bit places them side by side.  A self-labeled
cell draws from the set built so far; an ideal-labeled cell draws from
the referenced ideal's members within the bound (possibly none).  Cells
may be filled with the empty order, so a two point bit also contributes
each cell's members on their own.

The size cap is exact: every part of a sum of size <= n has size <= n,
so the capped fixed point equals the full generated ideal restricted to
terms of size <= n.

``member_topdown`` decides membership of a single term by running the
bits backwards: a term is generated iff it is the empty or one point
order, or some bit splits it - a chain bit along a prefix/suffix cut of
its layers, an antichain bit along a two-way split of its components -
with both halves accepted by their cells.  Self-labeled halves recurse
(a half equal to the whole term is skipped; such an application never
builds anything new), ideal-labeled halves are obstruction checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .bits import CHAIN_SHAPE, R, StructuralDescription, UnknownIdealKeyError
from .ideals import member, members_upto
from .terms import (
    DEFAULT_TERM_LIMIT,
    EMPTY,
    POINT,
    ANTICHAIN,
    CHAIN,
    ResourceLimitError,
    SpTerm,
    _component_runs,
    antichain_sum,
    chain_sum,
)


@dataclass(frozen=True)
class GeneratedSet:
    """Terms of size <= bound generated by one entry's bit set."""

    bound: int
    terms: frozenset


def _cells(desc: StructuralDescription, key: str, n: int, limit: int):
    """Per bit: (is_chain, cell1, cell2); a cell is None for the
    self-reference (dynamic) or a tuple of ideal members (static)."""
    prepped = []
    for bit in desc.bits_for(key):
        cells = []
        for label in (bit.first, bit.second):
            if label is R:
                cells.append(None)
            else:
                ideal = desc.ideal_for(label.key)
                cells.append(members_upto(ideal, n, limit=limit))
        prepped.append((bit.shape == CHAIN_SHAPE, cells[0], cells[1]))
    return prepped


def generate_upto(
    desc: StructuralDescription,
    key: str,
    n: int,
    *,
    limit: int = DEFAULT_TERM_LIMIT,
) -> GeneratedSet:
    """Least fixed point of the entry's bits over {empty, point},
    restricted to terms of size <= n.  Deterministic and independent of
    application order (the result is a plain set union)."""
    if n < 0:
        raise ValueError("size bound must be nonnegative")
    prepped = _cells(desc, key, n, limit)

    discovered = [EMPTY]
    if n >= 1:
        discovered.append(POINT)
    seen = set(discovered)

    def emit(t: SpTerm):
        if t.n_points <= n and t not in seen:
            seen.add(t)
            discovered.append(t)
            if len(discovered) > limit:
                raise ResourceLimitError(
                    f"generated set exceeds the cap of {limit} terms"
                )

    # Ideal-only bits never react to new terms; apply them once.
    for is_chain, c1, c2 in prepped:
        if c1 is not None and c2 is not None:
            for a in c1:
                for b in c2:
                    if a.n_points + b.n_points <= n:
                        emit(chain_sum((a, b)) if is_chain else antichain_sum((a, b)))

    # Each unordered pair of discovered terms is combined exactly once,
    # when the later of the two is processed.
    i = 0
    while i < len(discovered):
        t = discovered[i]
        for is_chain, c1, c2 in prepped:
            if c1 is None and c2 is None:
                for u in discovered[: i + 1]:
                    if t.n_points + u.n_points <= n:
                        if is_chain:
                            emit(chain_sum((t, u)))
                            emit(chain_sum((u, t)))
                        else:
                            emit(antichain_sum((t, u)))
            elif c1 is None:
                for u in c2:
                    if t.n_points + u.n_points <= n:
                        emit(chain_sum((t, u)) if is_chain else antichain_sum((t, u)))
            elif c2 is None:
                for u in c1:
                    if t.n_points + u.n_points <= n:
                        emit(chain_sum((u, t)) if is_chain else antichain_sum((u, t)))
        i += 1
    return GeneratedSet(n, frozenset(seen))


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
        return member(desc.ideal_for(label.key), half)

    def decide(t: SpTerm) -> bool:
        if t is EMPTY or t is POINT:
            return True
        ck = (key, t)
        got = cache.get(ck)
        if got is not None:
            return got
        # Recursion is well-founded: every self-labeled half is strictly
        # smaller than t, so no in-progress sentinel is needed.
        result = False
        distinct, counts = _component_runs(t.children if t.kind == ANTICHAIN else (t,))
        for bit in desc.entries[key].bits:
            if bit.shape == CHAIN_SHAPE:
                parts = t.children if t.kind == CHAIN else (t,)
                for i in range(len(parts) + 1):
                    bottom = chain_sum(parts[:i])
                    top = chain_sum(parts[i:])
                    if accepted(bottom, bit.first, t) and accepted(top, bit.second, t):
                        result = True
                        break
            else:
                for pick in product(*(range(c + 1) for c in counts)):
                    left_parts = []
                    right_parts = []
                    for comp, total, k in zip(distinct, counts, pick):
                        left_parts.extend([comp] * k)
                        right_parts.extend([comp] * (total - k))
                    left = antichain_sum(left_parts)
                    right = antichain_sum(right_parts)
                    if accepted(left, bit.first, t) and accepted(right, bit.second, t):
                        result = True
                        break
            if result:
                break
        cache[ck] = result
        return result

    return decide(term)
