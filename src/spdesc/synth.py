"""Synthesis of structural descriptions from forbidden suborders.

Given a finite obstruction antichain, the synthesizer emits a two-point
bit set that generates exactly the orders avoiding every obstruction,
then one for every ideal labeling a bit.  The dispatch is
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
which is what makes the table finite.  The fold proves this (the last
paragraph below), so synthesis does not check it again;
``bits.validate`` is the one check of it for any table.

An entry depends only on its ideal, and the same small ideals recur in
the tables of many obstruction sets, so each entry is memoized for the
life of the process on the interned ``Ideal`` (``_entry``), across
calls.  Entries are frozen and their labels interned, so tables share
them safely.  A refusal raises out of the memo and caches nothing: the
same input is refused again on the next call.

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
``grow`` tests a new term against each universe term of another size
only, the smaller into the larger: an order has at least as many points
as each of its suborders, and two orders that embed into each other
have the same size and are isomorphic, so distinct interned terms of one
size never embed.  Only the surviving pairs are turned back into ideals,
each distinct mask once per fold.  A mask is decoded to its minimal
terms, the k with ``down[k] & mask == 1 << k``, and no minimal term
embeds into another: the other would then have a term of the mask below
it.  They are an antichain, all of which ``make_ideal`` would keep, so
they are interned as they are, without minimizing again.

Dominance is tested on one int per pair, the left mask shifted above
the right (``left << width | right``).  A pair dominates another iff its
int has no bit outside the other's, or, crosswise, the int of its
swapped pair has none.  So a dominator has no more bits than the pair it
dominates, and as many only when the two are twins: equal or swapped
pairs, which dominate each other.  Dominance is transitive, straight or
crosswise (two swaps cancel), so a pair dominated by one that is not its
twin is dominated by a maximal pair, which has fewer bits, and by that
pair's first twin.  ``_maximal`` visits the pairs by bit count, ties in
their given order, and keeps a pair unless a pair kept before it
dominates it; then it restores the given order.  The first twin of every
maximal pair is kept, since only its later twins dominate it, and every
other pair is dropped by one of those: the same pairs, in the same
order, as comparing each new pair with every kept one and keeping the
first of two twins.

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

Every ideal label is strictly inside its entry's ideal, the target.  Let
``whole`` be the mask of the target's obstructions, lifted with every
term the universe gains; its bits are the universe terms that are not
members of the target.  Pairs start at ``(whole, whole)``; ``|`` only
adds bits, and ``lift`` only adds bits and keeps one mask covering
another, so every cell mask covers ``whole``.  Every mask is an up-set
of the universe, so each target obstruction lies above a minimal term of
the mask, and the decoded cell lies inside the target.  A mask equal to
``whole`` decodes to the target's own obstructions, interned as the
target itself, which ``_label`` writes as ``R``.  Any other mask has a
bit ``u`` outside ``whole``, a member of the target; a minimal term
``m`` of the mask below ``u`` is outside the up-set ``whole`` too, so
``m`` is a member of the target that the cell forbids, and the inclusion
is strict.
"""

from __future__ import annotations

from functools import cache
from itertools import islice

from .bits import Bit, Entry, R, StructuralDescription, antichain_bit, chain_bit, make_entry
from .ideals import Ideal, _intern_antichain, make_ideal
from .terms import (
    ANTICHAIN,
    CHAIN,
    ResourceLimitError,
    SpTerm,
    antichain_splits,
    antichain_sum,
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
# has one entry per shorter flat sum, whose folds make about n^3 / 6 mask
# comparisons each.  The budget turns minutes of synthesis into a clear
# rejection.
MAX_FOLD_CHOICES = 1 << 7


class SynthesisError(ValueError):
    """The input ideal is improper, void, or trivial."""


# -- The pruned product -------------------------------------------------------


def _maximal(pairs, width: int, crosswise: bool = False) -> list:
    """The mask pairs no other pair dominates, in their given order,
    keeping the first of two pairs that dominate each other.  A pair
    dominates another whose masks cover its own, or with ``crosswise``
    cover them read the other way round; every mask is below ``1 <<
    width``.  Each pair is tested, as one int, against the pairs kept
    before it only, visited by bit count: see the module docstring."""
    pairs = list(pairs)
    packed = [left << width | right for left, right in pairs]
    kept: list[int] = []
    dominators: list[int] = []
    for i in sorted(range(len(pairs)), key=lambda i: packed[i].bit_count()):
        outside = ~packed[i]
        for d in dominators:
            if not d & outside:
                break
        else:
            kept.append(i)
            dominators.append(packed[i])
            if crosswise:
                left, right = pairs[i]
                dominators.append(right << width | left)
    kept.sort()
    return [pairs[i] for i in kept]


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
    bit k standing for ``universe[k]``, and decoded by interning its
    minimal terms; see the module docstring."""
    universe: list[SpTerm] = []
    up: dict[SpTerm, int] = {}  # bit i of up[t]: t embeds into universe[i]
    down: list[int] = []  # bit i of down[k]: universe[i] embeds into universe[k]

    def grow(term):
        """Add ``term`` to the universe; its bit and the mask of the
        terms strictly below it."""
        bit = 1 << len(universe)
        above = below = bit
        n = term.n_points
        for i, other in enumerate(universe):
            if other.n_points < n:
                if is_suborder(other, term):
                    up[other] |= bit
                    below |= 1 << i
            elif other.n_points > n and is_suborder(term, other):
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
        pairs = _maximal(stepped, len(universe))
        if len(pairs) > MAX_FOLD_PAIRS:
            raise ResourceLimitError(
                f"synthesis keeps more than {MAX_FOLD_PAIRS} cell pairs for one entry"
            )
    if crosswise:
        pairs = _maximal(pairs, len(universe), crosswise=True)
    # Interned, so the target's own mask gives the target itself.
    cells = {
        mask: _intern_antichain(t for i, t in enumerate(universe) if down[i] & mask == 1 << i)
        for mask in dict.fromkeys(mask for pair in pairs for mask in pair)
    }
    return [(cells[left], cells[right]) for left, right in pairs]


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


@cache
def _split_rules(a: SpTerm) -> tuple:
    """One choice per two-sided split of a forbidden antichain sum's
    components: forbid the sub-sum over the left side in the left cell,
    or the sub-sum over the right side in the right cell.  Splits that
    differ only in which of several equal components go left give the
    same choice, so each sub-multiset of the components is one split.
    The splits with an empty side are skipped: their only option forbids
    ``a`` itself, which the target already forbids.  At most
    ``MAX_FOLD_CHOICES + 1`` choices are listed, one more than a fold
    reads before it refuses, so the 2^w - 2 splits of a wide sum are
    never all built."""
    if a.kind != ANTICHAIN:
        raise ValueError(f"not an antichain sum: {a!r}")
    rules = (
        (((antichain_sum(left),), ()), ((), (antichain_sum(right),)))
        for left, right in antichain_splits(a)
        if left and right
    )
    return tuple(islice(rules, MAX_FOLD_CHOICES + 1))


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

    The root entry gets the dispatch's bit set, and every distinct ideal
    label its own entry, walked depth first on an explicit stack.  Each
    entry is memoized per process on its interned ideal, so a table
    reuses those of every table synthesized before it.  Labels shrink
    strictly (see the module docstring), so the walk ends.
    """
    ideal = make_ideal(forbidden)
    if ideal.is_improper:
        raise SynthesisError("improper ideal: no obstructions given, every SP order is allowed")
    if ideal.is_void:
        raise SynthesisError("void ideal: forbidding the empty order leaves nothing")
    if ideal.is_empty_only:
        raise SynthesisError(
            "trivial ideal: forbidding the one point order leaves only the empty order"
        )
    entries: dict = {}
    stack = [ideal]
    while stack:
        target = stack.pop()
        if target.key in entries:
            continue
        entry = entries[target.key] = _entry(target)
        labels = dict.fromkeys(x for bit in entry.bits for x in (bit.first, bit.second))
        stack.extend(label for label in reversed(labels) if label is not R)
    return StructuralDescription(ideal.key, entries)


@cache
def _entry(target: Ideal) -> Entry:
    """The entry of one nontrivial proper ideal: the union of its chain
    and antichain bit sets.  A refusal raises and caches nothing."""
    assert target.is_nontrivial_proper, target
    chains = [t for t in target.obstructions if t.kind == CHAIN]
    ants = [t for t in target.obstructions if t.kind == ANTICHAIN]
    bits = chain_bit_set_multi(chains, target) + antichain_bit_set(ants, target)
    return make_entry(target, bits)
