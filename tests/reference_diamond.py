"""Closed-form characterization of diamond-free SP orders, for the tests
only.

An SP order is diamond-free iff it is an antichain sum of parts, each a
forest stacked on an upside-down forest.  Acceptance criterion 2 checks
that the synthesized table of ``C(*,A(*,*),*)`` generates exactly the
orders this predicate accepts; the halves are tested on the materialized
relation, so the predicate shares nothing with the suborder test.
"""

from spdesc import EMPTY, chain_sum
from spdesc.terms import CHAIN, finest_antichain_rep

from oracle_record import relation


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def finest_chain_rep(t) -> list:
    """Layers of a chain sum bottom to top (the anticomponents); a
    non-chain term is its own single layer and the empty term has none."""
    if t.kind == CHAIN:
        return list(t.children)
    if t is EMPTY:
        return []
    return [t]


def _strict_sets_are_chains(t, above: bool) -> bool:
    """True iff, for every point of ``t``, the points strictly below it
    (strictly above it when ``above``) are pairwise comparable: ``t`` is
    a forest, or an upside-down forest when ``above``.  Such a set is a
    chain iff none of its members is incomparable to another; the point
    itself, which the masks include, is incomparable to none of them."""
    ups, downs, incomp = relation(t)[:3]
    return not any(
        incomp[x] & related for related in (ups if above else downs) for x in _bits(related)
    )


def diamond_free_shape(p) -> bool:
    """True iff every component splits as an upside-down forest below a
    forest (either half possibly empty), the split taken between layers."""
    for comp in finest_antichain_rep(p):
        parts = finest_chain_rep(comp)
        if not any(
            _strict_sets_are_chains(chain_sum(parts[:i]), above=True)
            and _strict_sets_are_chains(chain_sum(parts[i:]), above=False)
            for i in range(len(parts) + 1)
        ):
            return False
    return True
