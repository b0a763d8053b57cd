"""Synthesis of structural descriptions from forbidden suborders.

Given a finite obstruction antichain, the synthesizer emits a two-point
bit set that generates exactly the orders avoiding every obstruction,
then recurses on every ideal appearing as a bit label.  The dispatch is
on the shapes of the obstructions:

* chain sums: one bit per way of picking, for each forbidden chain sum,
  one of its chain rules (work below the top layer / above the bottom
  layer / split across an inner layer), with the picked cell labels
  intersected.
* antichain sums: the forbidden sums' components are indexed
  positionally and each forbidden sum contributes an index block; one
  candidate bit per way of steering every two-sided split of every
  block left or right, the cells labeled with the intersected
  avoid-ideals of the steered sub-sums.
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

Candidate bits are normalized before use: a cell labeled by the void
ideal can never be filled, so the bit is dropped; a cell labeled by the
empty-only ideal can only be filled with the empty order, so the point
is deleted; a bit reduced to one point generates nothing outside the
target and is dropped.  Normalization never changes the generated ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .bits import (
    ANTICHAIN_SHAPE,
    Bit,
    IdealRef,
    R,
    R_ANTICHAIN_BIT,
    R_CHAIN_BIT,
    StructuralDescription,
    antichain_bit,
    bit_sort_key,
    chain_bit,
    make_entry,
)
from .ideals import Ideal, contains_ideal, make_ideal
from .terms import ANTICHAIN, CHAIN, SpTerm, antichain_sum, chain_sum

DEFAULT_MAX_BLOCK = 4


class SynthesisError(Exception):
    """Base class for synthesis failures."""


class DegenerateIdealError(SynthesisError):
    """The input ideal is improper, void, or trivial."""


class BlockCapError(SynthesisError):
    """A forbidden antichain sum has more components than the cap allows."""


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
    out = []
    for bit in bits:
        kept = normalize_bit(bit)
        if kept is not None:
            out.append(kept)
    return list(dict.fromkeys(out))


# -- Forbidding chain sums ---------------------------------------------------


def _chain_rules(p: SpTerm) -> list[Bit]:
    """The raw two-point rules for one forbidden chain sum, before
    normalization: build below an order avoiding the top layer, build
    above an order avoiding the bottom layer, or split across an inner
    layer i, the halves avoiding the layers up to i and from i up."""
    if p.kind != CHAIN:
        raise ValueError(f"not a chain sum: {p!r}")
    parts = p.children
    n = len(parts)
    rules = [
        chain_bit(R, make_ideal([parts[-1]])),
        chain_bit(make_ideal([parts[0]]), R),
    ]
    for i in range(1, n - 1):
        bottom = make_ideal([chain_sum(parts[: i + 1])])
        top = make_ideal([chain_sum(parts[i:])])
        rules.append(chain_bit(bottom, top))
    return rules


def _meet_labels(labels, target: Ideal):
    """Intersection of the target ideal with the cell labels (``R``
    stands for the target); a result equal to the target is rewritten
    back to ``R``."""
    obs = list(target.obstructions)
    for label in labels:
        if label is not R:
            obs.extend(label.obstructions)
    met = make_ideal(obs)
    return R if met is target else met


def chain_bit_set_multi(ps, target: Ideal | None = None) -> list[Bit]:
    """Normalized bit set forbidding several chain sums at once: one
    candidate per choice of a raw rule for each forbidden sum, the
    bottom labels intersected and the top labels intersected, each with
    the target ideal as a factor (by default, the ideal of the sums)."""
    ps = list(ps)
    if not ps:
        raise ValueError("need at least one chain sum")
    if target is None:
        target = make_ideal(ps)
    rule_lists = [_chain_rules(p) for p in ps]
    out = []
    for choice in product(*rule_lists):
        bottom = _meet_labels([rule.first for rule in choice], target)
        top = _meet_labels([rule.second for rule in choice], target)
        out.append(chain_bit(bottom, top))
    return _normalized(out)


# -- Forbidding antichain sums -----------------------------------------------


@dataclass(frozen=True)
class ComponentBlocks:
    """Positional index system over the components of the forbidden
    antichain sums: one block of consecutive positions per forbidden
    sum.  Equal components at different positions stay distinct."""

    components: tuple[SpTerm, ...]
    blocks: tuple[tuple[int, ...], ...]


def component_blocks(antichain_sums) -> ComponentBlocks:
    comps: list[SpTerm] = []
    blocks: list[tuple[int, ...]] = []
    for a in antichain_sums:
        if a.kind != ANTICHAIN:
            raise ValueError(f"not an antichain sum: {a!r}")
        start = len(comps)
        comps.extend(a.children)
        blocks.append(tuple(range(start, len(comps))))
    return ComponentBlocks(tuple(comps), tuple(blocks))


def _outcome_key(outcome):
    left, right = outcome
    return (tuple(sorted(t.text for t in left)), tuple(sorted(t.text for t in right)))


def _block_outcomes(comps, block, max_block):
    """Distinct (left terms, right terms) outcomes of steering every
    two-sided split of one block.  Each split independently sends the
    sub-sum over its left side into the left cell or the sub-sum over
    its right side into the right cell; outcomes are deduplicated as
    they are built, which collapses the doubly exponential raw choice
    space.  A branch whose contributed sub-sum has fewer than two points
    is dropped outright: its label would normalize the bit away (an
    empty sub-sum gives the void ideal, a one point sub-sum the
    empty-only ideal)."""
    if len(block) > max_block:
        raise BlockCapError(
            f"forbidden antichain sum has {len(block)} components; "
            f"the configured cap is {max_block}"
        )
    outcomes = {(frozenset(), frozenset())}
    for mask in range(1 << len(block)):
        chosen = [comps[idx] for bit, idx in enumerate(block) if mask >> bit & 1]
        rest = [comps[idx] for bit, idx in enumerate(block) if not mask >> bit & 1]
        left_term = antichain_sum(chosen)
        right_term = antichain_sum(rest)
        nxt = set()
        for left, right in outcomes:
            if left_term.n_points >= 2:
                nxt.add((left | {left_term}, right))
            if right_term.n_points >= 2:
                nxt.add((left, right | {right_term}))
        outcomes = nxt
        if not outcomes:
            break
    return sorted(outcomes, key=_outcome_key)


def antichain_bit_set(
    system: ComponentBlocks,
    target: Ideal | None = None,
    *,
    max_block: int = DEFAULT_MAX_BLOCK,
) -> list[Bit]:
    """Normalized bit set forbidding the antichain sums described by the
    block system.  Every cell label carries the target ideal (by
    default, the ideal of the sums) as a factor, so labels are never
    larger than the target."""
    comps = system.components
    if any(c.kind == ANTICHAIN for c in comps):
        raise ValueError("components must not be antichain sums")
    if target is None:
        target = make_ideal(
            antichain_sum(comps[i] for i in block) for block in system.blocks
        )
    per_block = [_block_outcomes(comps, block, max_block) for block in system.blocks]
    combined: list[tuple[frozenset, frozenset]] = [(frozenset(), frozenset())]
    for outcomes in per_block:
        combined = [
            (left | bl, right | br)
            for left, right in combined
            for bl, br in outcomes
        ]
        combined = sorted(set(combined), key=_outcome_key)
    out = []
    for left, right in combined:
        left_ideal = make_ideal(target.obstructions + tuple(left))
        right_ideal = make_ideal(target.obstructions + tuple(right))
        out.append(
            antichain_bit(
                R if left_ideal is target else left_ideal,
                R if right_ideal is target else right_ideal,
            )
        )
    return _normalized(out)


# -- Dominance pruning ---------------------------------------------------------


def _label_contains(outer, inner, target: Ideal) -> bool:
    outer_ideal = target if outer is R else outer
    inner_ideal = target if inner is R else inner
    return contains_ideal(outer_ideal, inner_ideal)


def _dominates(big: Bit, small: Bit, target: Ideal) -> bool:
    if big.shape != small.shape:
        return False
    straight = _label_contains(big.first, small.first, target) and _label_contains(
        big.second, small.second, target
    )
    if straight:
        return True
    if big.shape == ANTICHAIN_SHAPE:
        return _label_contains(big.first, small.second, target) and _label_contains(
            big.second, small.first, target
        )
    return False


def prune_dominated(bits, target: Ideal) -> list[Bit]:
    """Drop bits whose cells are contained pointwise in another bit's
    cells (reading ``R`` as the target ideal); everything a dominated
    bit builds, the dominating bit builds from the same parts."""
    bits = list(bits)
    return [
        b
        for b in bits
        if not any(other is not b and _dominates(other, b, target) for other in bits)
    ]


# -- Top level -----------------------------------------------------------------


def synthesize(
    forbidden,
    *,
    max_block: int = DEFAULT_MAX_BLOCK,
    prune: bool = False,
) -> StructuralDescription:
    """Structural description for the ideal forbidding the given terms.

    The root entry gets the dispatch's bit set; every ideal label is
    then synthesized recursively (memoized by ideal key).  Labels always
    shrink strictly, so the recursion bottoms out; a violation raises
    ``StrictDecreaseError`` before recursing, since it would mean the
    construction is wrong.  ``prune`` enables the optional dominance
    pruning.
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
            bits += antichain_bit_set(component_blocks(ants), target, max_block=max_block)
        else:
            bits.append(R_ANTICHAIN_BIT)
        if prune:
            bits = prune_dominated(bits, target)
        bits.sort(key=bit_sort_key)
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
