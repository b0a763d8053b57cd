"""Lower ideals of SP orders, represented by minimal obstruction antichains.

A lower ideal is a class of SP orders closed under taking suborders.  We
represent an ideal by the finite antichain of its minimal forbidden
suborders: an order belongs to the ideal iff no obstruction embeds into
it.  Three degenerate representations matter throughout:

* obstruction set ``{0}`` is the void ideal (nothing belongs to it,
  since the empty order embeds everywhere);
* obstruction set ``{*}`` contains only the empty order;
* the empty obstruction set is the improper ideal of all SP orders.

Ideals are interned on their obstruction tuple, so equal ideals are the
same object.  Obstructions are kept sorted in descending total term
order, which also fixes the canonical key string.
"""

from __future__ import annotations

from functools import cache

from .terms import (
    EMPTY,
    POINT,
    SpTerm,
    enumerate_sp,
    is_suborder,
    one_point_deletions,
    parse_term,
)


class Ideal:
    """A lower ideal as its minimal obstruction antichain.

    Construct only through ``make_ideal``; instances are interned.
    """

    __slots__ = ("obstructions", "key")

    def __init__(self, obstructions: tuple[SpTerm, ...]):
        self.obstructions = obstructions
        self.key = "|".join(t.text for t in obstructions)

    @property
    def is_void(self) -> bool:
        return self.obstructions == (EMPTY,)

    @property
    def is_empty_only(self) -> bool:
        return self.obstructions == (POINT,)

    @property
    def is_improper(self) -> bool:
        return not self.obstructions

    @property
    def is_nontrivial_proper(self) -> bool:
        """Has nonempty members and excludes something: obstructions are
        nonempty and every obstruction has at least two points."""
        obs = self.obstructions
        return bool(obs) and EMPTY not in obs and POINT not in obs

    def __repr__(self):
        return f"Ideal({self.key!r})"


_INTERN: dict[tuple[SpTerm, ...], Ideal] = {}


def make_ideal(obstructions) -> Ideal:
    """Ideal forbidding each given term, with the obstruction set
    minimized: a term is dropped when another given term embeds into it,
    so the survivors form an antichain under the suborder relation."""
    kept: list[SpTerm] = []
    for t in sorted(set(obstructions), key=lambda t: t.sort_key):
        if not any(is_suborder(s, t) for s in kept):
            kept.append(t)
    kept.sort(key=lambda t: t.sort_key, reverse=True)
    obs = tuple(kept)
    ideal = _INTERN.get(obs)
    if ideal is None:
        ideal = _INTERN[obs] = Ideal(obs)
    return ideal


VOID_IDEAL = make_ideal([EMPTY])
EMPTY_ONLY_IDEAL = make_ideal([POINT])


def member(ideal: Ideal, term: SpTerm) -> bool:
    """True iff no obstruction of the ideal embeds into ``term``."""
    return all(not is_suborder(ob, term) for ob in ideal.obstructions)


def contains_ideal(outer: Ideal, inner: Ideal) -> bool:
    """True iff ``inner`` is a subset of ``outer``: every obstruction of
    the outer ideal already contains some obstruction of the inner one."""
    return all(
        any(is_suborder(ob_in, ob_out) for ob_in in inner.obstructions)
        for ob_out in outer.obstructions
    )


def members_upto(ideal: Ideal, n: int) -> tuple[SpTerm, ...]:
    """All members of the ideal of size <= n, in enumeration order,
    under the size cap of ``enumerate_sp``.

    Filled one size at a time by the deletion rule: a term belongs iff
    it is not an obstruction and every one point deletion of it belongs.
    An obstruction embedding properly into a term embeds into one of its
    deletions, so no suborder test is needed; enumeration runs by size,
    so every deletion is decided before the term."""
    return _members_upto(ideal, n)


@cache
def _members_upto(ideal: Ideal, n: int) -> tuple[SpTerm, ...]:
    terms = enumerate_sp(n)
    obstructions = set(ideal.obstructions)
    inside: set[SpTerm] = set()
    for t in terms:
        if t not in obstructions and inside.issuperset(one_point_deletions(t)):
            inside.add(t)
    return tuple(t for t in terms if t in inside)


def parse_obstruction_lines(lines) -> list[SpTerm]:
    """Obstruction-list format: one term per line, ``#`` starts a comment."""
    terms = []
    for line in lines:
        body = line.split("#", 1)[0].strip()
        if body:
            terms.append(parse_term(body))
    return terms


def load_obstruction_file(path) -> list[SpTerm]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_obstruction_lines(fh)
