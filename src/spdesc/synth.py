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
* an entry with both shapes gets the union of the two bit sets.  An
  entry without forbidden chain sums gets the all-chains bit instead of
  the chain bits, since stacking alone cannot build a forbidden order,
  and dually one without antichain sums gets the all-antichains bit.

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
its cells inside another bit's: such a bit would build nothing new.  Picking the maximal outcomes is a
monotone dualization problem (Fredman and Khachiyan, J. Algorithms 21,
1996); a fold carrying more than ``MAX_FOLD_PAIRS`` pairs raises
``ResourceLimitError``.

Candidate bits are normalized before use: a cell labeled by the void
ideal can never be filled, so the bit is dropped; a cell labeled by the
empty-only ideal can only be filled with the empty order, so the point
is deleted; a bit reduced to one point generates nothing outside the
target and is dropped.  Normalization never changes the generated ideal.
"""

from __future__ import annotations

from .bits import (
    Bit,
    IdealRef,
    R,
    R_ANTICHAIN_BIT,
    R_CHAIN_BIT,
    StructuralDescription,
    antichain_bit,
    chain_bit,
    make_entry,
)
from .ideals import Ideal, contains_ideal, make_ideal
from .terms import ANTICHAIN, CHAIN, EMPTY, ResourceLimitError, SpTerm, antichain_splits, chain_sum

# Most cell pairs a fold may carry from one choice to the next.  Width-5
# antichain sums peak at a few hundred pruned pairs and chain folds at a
# few dozen; a width-6 sum of distinct components can exceed it, so the
# budget turns an exhausted memory into a clear rejection.
MAX_FOLD_PAIRS = 1 << 10


class SynthesisError(Exception):
    """Base class for synthesis failures."""


class DegenerateIdealError(SynthesisError):
    """The input ideal is improper, void, or trivial."""


class StrictDecreaseError(SynthesisError):
    """A bit label is not strictly contained in its entry's ideal.

    This indicates an implementation bug, not bad input."""


def normalize_bit(bit: Bit):
    """Semantics-preserving simplification of an ideal-labeled candidate
    bit; returns the bit unchanged, or None when it is dropped.

    Labels here are ``R`` or ``Ideal`` values.  A void label makes a
    cell unfillable; an empty-only label deletes its point; one point or
    fewer left means the bit generates nothing new.
    """
    labels = (bit.first, bit.second)
    if any(label is not R and label.is_void for label in labels):
        return None
    kept = [label for label in labels if label is R or not label.is_empty_only]
    if len(kept) <= 1:
        return None
    return bit


def _normalized(bits):
    return [bit for bit in map(normalize_bit, bits) if bit is not None]


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
    ``crosswise`` also drops a pair contained in another one read the
    other way round, as for the two unordered cells of an antichain
    bit."""
    meets: dict = {}
    contains: dict = {}

    def meet(ideal, terms):
        got = meets.get((ideal, terms))
        if got is None:
            got = meets[ideal, terms] = make_ideal(ideal.obstructions + tuple(terms))
        return got

    def within(inner, outer):
        if inner is outer:
            return True
        got = contains.get((inner, outer))
        if got is None:
            got = contains[inner, outer] = contains_ideal(outer, inner)
        return got

    def straight(big, small):
        return within(small[0], big[0]) and within(small[1], big[1])

    pairs = [(target, target)]
    for options in choices:
        stepped = dict.fromkeys(
            (meet(left, lt), meet(right, rt)) for left, right in pairs for lt, rt in options
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
    return pairs


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
    """Normalized bit set forbidding several chain sums at once: the
    dominance-maximal ways of picking one rule for each forbidden sum,
    the picked bottom labels intersected with the target ideal and
    likewise the top labels."""
    ps = list(ps)
    if not ps:
        raise ValueError("need at least one chain sum")
    pairs = _fold([_chain_rules(p) for p in ps], target)
    return _normalized(chain_bit(_label(b, target), _label(t, target)) for b, t in pairs)


# -- Forbidding antichain sums -----------------------------------------------


def _split_rules(a: SpTerm):
    """One choice per two-sided split of a forbidden antichain sum's
    components: forbid the sub-sum over the left side in the left cell,
    or the sub-sum over the right side in the right cell.  Splits that
    differ only in which of several equal components go left give the
    same choice, so each sub-multiset of the components is one split.
    An option whose sub-sum has fewer than two points is dropped, since
    its label would normalize the bit away (the void or the empty-only
    ideal).  The splits with an empty side are skipped: their only
    option forbids ``a`` itself, which the target already forbids."""
    if a.kind != ANTICHAIN:
        raise ValueError(f"not an antichain sum: {a!r}")
    for left, right in antichain_splits(a):
        if left is EMPTY or right is EMPTY:
            continue
        options = []
        if left.n_points >= 2:
            options.append(((left,), ()))
        if right.n_points >= 2:
            options.append(((), (right,)))
        yield options


def antichain_bit_set(ants, target: Ideal) -> list[Bit]:
    """Normalized bit set forbidding several antichain sums at once: the
    dominance-maximal ways of steering every two-sided split of every
    forbidden sum, each cell labeled with the target ideal intersected
    with the avoid-ideals of the sub-sums steered into it."""
    pairs = _fold((c for a in ants for c in _split_rules(a)), target, crosswise=True)
    return _normalized(antichain_bit(_label(a, target), _label(b, target)) for a, b in pairs)


# -- Top level -----------------------------------------------------------------


def synthesize(forbidden) -> StructuralDescription:
    """Structural description for the ideal forbidding the given terms.

    The root entry gets the dispatch's bit set; every ideal label is
    then synthesized recursively (memoized by ideal key).  Labels always
    shrink strictly, so the recursion bottoms out; a violation raises
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
        bits = chain_bit_set_multi(chains, target) if chains else [R_CHAIN_BIT]
        if ants:
            bits += antichain_bit_set(ants, target)
        else:
            bits.append(R_ANTICHAIN_BIT)
        registered = []
        for bit in bits:
            labels = []
            for label in (bit.first, bit.second):
                if label is not R:
                    if label is target or not contains_ideal(target, label):
                        raise StrictDecreaseError(
                            f"label {label.key!r} is not strictly contained in {target.key!r}"
                        )
                    build(label)
                    label = IdealRef(label.key)
                labels.append(label)
            registered.append(Bit(bit.shape, labels[0], labels[1]))
        entries[target.key] = make_entry(target, registered)

    build(ideal)
    return StructuralDescription(ideal.key, entries)
