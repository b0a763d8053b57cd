"""Synthesis of structural descriptions from forbidden suborders.

Given a finite obstruction antichain, the synthesizer emits a two-point
bit set that generates exactly the orders avoiding every obstruction,
then recurses on every ideal appearing as a bit label.  The dispatch is
on the shapes of the obstructions:

* chain sums: one bit per way of picking, for each forbidden chain sum,
  one of its chain rules (work below the top layer / above the bottom
  layer / split across an inner layer), with the picked cell labels
  intersected.
* antichain sums: one bit per way of steering every two-sided split of
  the components of every forbidden sum left or right, the cells
  labeled with the intersected avoid-ideals of the steered sub-sums.
  The splits are those of ``terms.antichain_splits``, one per
  sub-multiset of the components.
* every entry gets the union of the two bit sets.  An entry without
  forbidden chain sums folds no choice, so its chain bit set is the
  one all-chains bit: stacking alone cannot build a forbidden order.
  Dually, one without antichain sums gets the all-antichains bit.

Every cell label is built against the entry's own ideal: it is the
intersection of that ideal with the rule's label, so a cell never
readmits a forbidden order of the other shape.  Labels equal to the
entry's ideal are rewritten to the self reference ``R``; every
remaining ideal label is then strictly contained in its entry's ideal,
which is what makes the recursion terminate.

Both products run through one pruned fold.  A partial outcome is a pair
of cell ideals, starting as the entry's ideal twice; each choice (the
rules of one forbidden chain sum, or the two sides of one split of a
forbidden antichain sum) meets the two cells with the terms of the
picked option, and only the pairs that no other pair contains pointwise
are carried on.  Labels are monotone, ``ideal(T+L+X) = ideal(T+L) &
ideal(X)``, so a dominated partial outcome stays dominated and pruning
early loses no maximal bit.  Antichain bits get one more, crosswise
pass, since their two cells are unordered.  So no bit of an entry has
its cells inside another bit's: such a bit would build nothing new.
Picking the maximal outcomes is a monotone dualization problem (Fredman
and Khachiyan, J. Algorithms 21, 1996); a fold carrying more than
``MAX_FOLD_PAIRS`` pairs raises ``ResourceLimitError``.

The fold compares cells as int masks.  Every cell is the entry's ideal
with some option terms also forbidden, so it is fixed by the terms it
excludes among a small universe: the entry's obstructions and the
option terms read so far.  Those terms form an up-set of the universe
whose minimal terms are the cell's obstructions, so equal masks are
equal ideals, a cell lies inside another iff its mask covers the
other's, and meeting a cell with an option is one ``|``.  The universe
grows one choice at a time, since a sum of w distinct components has
2^w - 2 two-sided splits and a refused fold reads only the first few: a
new term joins every live mask that already excludes a term below it.
Only the surviving pairs are turned back into ideals.

The fold drops every option that forbids an order of fewer than two
points.  Its cell would be the void ideal, which no order fills, or the
empty-only ideal, which leaves one point that builds nothing outside
the target, so no bit can come of it.  Every other cell holds the
point, since the target is nontrivial.  Dropping these options leaves
the same bits in the same order as dropping their pairs at the end: a
cell contained in the empty-only ideal is itself void or empty-only, so
a pair with such a cell dominates no pair without one, straight or
crosswise, and later choices only shrink its cells.  Only the number of
pairs carried, which ``MAX_FOLD_PAIRS`` bounds, can fall.
"""

from __future__ import annotations

from .bits import Bit, R, StructuralDescription, antichain_bit, chain_bit, make_entry
from .ideals import Ideal, contains_ideal, make_ideal
from .terms import (
    ANTICHAIN,
    CHAIN,
    EMPTY,
    ResourceLimitError,
    SpTerm,
    antichain_splits,
    chain_sum,
    is_suborder,
)

# Most cell pairs a fold may carry from one choice to the next.  Width-5
# antichain sums peak at a few hundred pruned pairs and chain folds at a
# few dozen; a width-6 sum of distinct components can exceed it, so the
# budget turns an exhausted memory into a clear rejection.
MAX_FOLD_PAIRS = 1 << 10

# Most choices one fold may read.  A forbidden antichain sum of w
# distinct components has 2^w - 2 two-sided splits, so width 6 reads 62;
# a long flat sum ``A(*,...,*)`` of n points reads n - 1, and its table
# has one entry per shorter flat sum, whose folds cost about n^3 pair
# comparisons each.  The budget turns minutes of synthesis into a clear
# rejection.
MAX_FOLD_CHOICES = 1 << 7


class SynthesisError(Exception):
    """Base class for synthesis failures."""


class DegenerateIdealError(SynthesisError):
    """The input ideal is improper, void, or trivial."""


class StrictDecreaseError(SynthesisError):
    """A bit label is not strictly contained in its entry's ideal.

    This indicates an implementation bug, not bad input."""


# -- The pruned product -------------------------------------------------------


def _maximal(pairs, dominates) -> list:
    """The pairs no other pair dominates, keeping the first of two pairs
    that dominate each other."""
    kept: list = []
    for pair in pairs:
        if not any(dominates(k, pair) for k in kept):
            kept = [k for k in kept if not dominates(pair, k)]
            kept.append(pair)
    return kept


def _fold(choices, target: Ideal, *, crosswise: bool = False) -> list[tuple[Ideal, Ideal]]:
    """Dominance-maximal cell pairs of picking one option from every choice.

    A pair starts as ``(target, target)``; an option ``(left terms,
    right terms)`` forbids those terms in the two cells.  A pair
    contained pointwise in another stays so whatever is picked later,
    since ``ideal(T+L+X) = ideal(T+L) & ideal(X)``, so only the maximal
    pairs are carried from choice to choice; more than
    ``MAX_FOLD_PAIRS`` of them raise ``ResourceLimitError``.
    An option forbidding an order of fewer than two points is dropped,
    since no bit can come of it.  ``crosswise`` also drops a pair
    contained in another one read the other way round, as for the two
    unordered cells of an antichain bit.  With no choices the one pair
    is ``(target, target)``.

    Each cell is carried as the mask of the universe terms it excludes,
    bit k standing for ``universe[k]``; see the module docstring for why
    equal masks are equal ideals.  A cell is decoded by ``make_ideal``
    on its minimal terms, the k with ``down[k] & mask == 1 << k``."""
    universe: list[SpTerm] = []
    up: dict[SpTerm, int] = {}  # bit i of up[t]: t embeds into universe[i]
    down: list[int] = []  # bit i of down[k]: universe[i] embeds into universe[k]

    def grow(term):
        """Add ``term`` to the universe; its bit and the mask of the
        terms strictly below it."""
        bit = 1 << len(universe)
        above = below = bit
        for i, other in enumerate(universe):
            if is_suborder(other, term):
                up[other] |= bit
                below |= 1 << i
            elif is_suborder(term, other):
                down[i] |= bit
                above |= 1 << i
        universe.append(term)
        up[term] = above
        down.append(below)
        return bit, below ^ bit

    def lift(mask, fresh):
        for bit, below in fresh:
            if mask & below:
                mask |= bit
        return mask

    def forbid(terms):
        mask = 0
        for t in terms:
            mask |= up[t]
        return mask

    def straight(big, small):
        return not (big[0] & ~small[0] or big[1] & ~small[1])

    for t in target.obstructions:
        grow(t)
    whole = forbid(target.obstructions)
    pairs = [(whole, whole)]
    for read, options in enumerate(choices, 1):
        if read > MAX_FOLD_CHOICES:
            raise ResourceLimitError(
                f"input too large: synthesis reads more than {MAX_FOLD_CHOICES}"
                " choices for one entry"
            )
        options = [(lt, rt) for lt, rt in options if all(t.n_points >= 2 for t in lt + rt)]
        terms = dict.fromkeys(t for lt, rt in options for t in lt + rt if t not in up)
        if terms:
            fresh = [grow(t) for t in terms]
            pairs = [(lift(left, fresh), lift(right, fresh)) for left, right in pairs]
        steps = [(forbid(lt), forbid(rt)) for lt, rt in options]
        stepped = dict.fromkeys(
            (left | lm, right | rm) for left, right in pairs for lm, rm in steps
        )
        pairs = _maximal(stepped, straight)
        if len(pairs) > MAX_FOLD_PAIRS:
            raise ResourceLimitError(
                f"synthesis keeps more than {MAX_FOLD_PAIRS} cell pairs for one entry"
            )
    if crosswise:
        pairs = _maximal(
            pairs, lambda big, small: straight(big, small) or straight(big, small[::-1])
        )

    def ideal(mask):
        # Interned, so the target's own mask gives the target itself.
        return make_ideal(t for i, t in enumerate(universe) if down[i] & mask == 1 << i)

    return [(ideal(left), ideal(right)) for left, right in pairs]


def _label(ideal: Ideal, target: Ideal):
    return R if ideal is target else ideal


# -- Forbidding chain sums ---------------------------------------------------


def _chain_rules(p: SpTerm) -> list[tuple[tuple[SpTerm, ...], tuple[SpTerm, ...]]]:
    """The rules for one forbidden chain sum, as the terms each cell
    must avoid: build below an order avoiding the top layer, build above
    an order avoiding the bottom layer, or split across an inner layer
    i, the halves avoiding the layers up to i and from i up."""
    if p.kind != CHAIN:
        raise ValueError(f"not a chain sum: {p!r}")
    parts = p.children
    rules = [((), (parts[-1],)), ((parts[0],), ())]
    for i in range(1, len(parts) - 1):
        rules.append(((chain_sum(parts[: i + 1]),), (chain_sum(parts[i:]),)))
    return rules


def chain_bit_set_multi(ps, target: Ideal) -> list[Bit]:
    """Bit set forbidding several chain sums at once: the
    dominance-maximal ways of picking one rule for each forbidden sum,
    the picked bottom labels intersected with the target ideal and
    likewise the top labels.  With no chain sums it is the all-chains
    bit."""
    pairs = _fold([_chain_rules(p) for p in ps], target)
    return [chain_bit(_label(b, target), _label(t, target)) for b, t in pairs]


# -- Forbidding antichain sums -----------------------------------------------


def _split_rules(a: SpTerm):
    """One choice per two-sided split of a forbidden antichain sum's
    components: forbid the sub-sum over the left side in the left cell,
    or the sub-sum over the right side in the right cell.  Splits that
    differ only in which of several equal components go left give the
    same choice, so each sub-multiset of the components is one split.
    The splits with an empty side are skipped: their only option forbids
    ``a`` itself, which the target already forbids."""
    if a.kind != ANTICHAIN:
        raise ValueError(f"not an antichain sum: {a!r}")
    for left, right in antichain_splits(a):
        if left is not EMPTY and right is not EMPTY:
            yield [((left,), ()), ((), (right,))]


def antichain_bit_set(ants, target: Ideal) -> list[Bit]:
    """Bit set forbidding several antichain sums at once: the
    dominance-maximal ways of steering every two-sided split of every
    forbidden sum, each cell labeled with the target ideal intersected
    with the avoid-ideals of the sub-sums steered into it.  With no
    antichain sums it is the all-antichains bit."""
    pairs = _fold((c for a in ants for c in _split_rules(a)), target, crosswise=True)
    return [antichain_bit(_label(a, target), _label(b, target)) for a, b in pairs]


# -- Top level -----------------------------------------------------------------


def synthesize(forbidden) -> StructuralDescription:
    """Structural description for the ideal forbidding the given terms.

    The root entry gets the dispatch's bit set; every distinct ideal
    label is then synthesized recursively (memoized by ideal key) and
    stays in the bits as the ideal itself.  Labels always shrink
    strictly, so the recursion bottoms out; a violation raises
    ``StrictDecreaseError`` before recursing, since it would mean the
    construction is wrong.
    """
    ideal = make_ideal(forbidden)
    if ideal.is_improper:
        raise DegenerateIdealError(
            "improper ideal: no obstructions given, every SP order is allowed"
        )
    if ideal.is_void:
        raise DegenerateIdealError("void ideal: forbidding the empty order leaves nothing")
    if ideal.is_empty_only:
        raise DegenerateIdealError(
            "trivial ideal: forbidding the one point order leaves only the empty order"
        )
    entries: dict = {}

    def build(target: Ideal) -> None:
        if target.key in entries:
            return
        assert target.is_nontrivial_proper, target
        chains = [t for t in target.obstructions if t.kind == CHAIN]
        ants = [t for t in target.obstructions if t.kind == ANTICHAIN]
        bits = chain_bit_set_multi(chains, target) + antichain_bit_set(ants, target)
        for label in dict.fromkeys(x for bit in bits for x in (bit.first, bit.second)):
            if label is not R:
                if label is target or not contains_ideal(target, label):
                    raise StrictDecreaseError(
                        f"label {label.key!r} is not strictly contained in {target.key!r}"
                    )
                build(label)
        entries[target.key] = make_entry(target, bits)

    build(ideal)
    return StructuralDescription(ideal.key, entries)
