"""Canonical decomposition terms for series-parallel partial orders.

A series-parallel (SP) order is built from the empty order and the one
point order by repeatedly stacking smaller orders (chain sums, written
``C(...)`` bottom to top) and placing them side by side (antichain sums,
written ``A(...)``).  This module represents SP orders as canonical
decomposition terms:

* a chain sum has at least two layers, none of which is empty or itself
  a chain sum, so its layers are exactly its anticomponents;
* an antichain sum has at least two components, none of which is empty
  or itself an antichain sum, and the components are kept sorted by the
  total term order;
* the empty order appears only as the standalone term ``0``.

Under those rules each isomorphism class of finite SP orders has exactly
one term.  Terms are interned, so equal terms are the same object and
``is``, ``==``, hashing and memo lookups are all cheap identity
operations.  Everything in this module is a pure function of its
arguments and safe for concurrent use.  The suborder test and the
enumeration levels are memoized by ``functools.cache`` on private
helpers, whose ``cache_info()`` reports each memo's size and whose
``cache_clear()`` empties it: a memo only holds values that are
recomputed identically.  One point deletions are kept on the term, and
the intern tables are never cleared, since equal terms stay one object.
"""

from __future__ import annotations

from functools import cache
from itertools import groupby, product

EMPTY_KIND = 0
POINT_KIND = 1
CHAIN = 2
ANTICHAIN = 3

# Largest size ``enumerate_sp`` lists.  The orders of at most 11 points
# number 181,007 and those of at most 12 number 726,361, so the bound is
# checked before a level is built: building the 12-point level alone
# takes seconds and hundreds of megabytes.
MAX_ENUM_SIZE = 11

# Deepest nesting of sums that ``parse_term`` accepts.  Parsing, printing
# and the suborder test recurse once or a few times per level, so a cap
# well inside the interpreter's recursion limit turns an over-deep input
# into a parse error instead of a crash.
MAX_TERM_DEPTH = 100

# Most sub-multisets of an antichain sum's components that the suborder
# test codes as one bitset, one bit each: the sub-multisets of 22
# distinct components, in ints of 512 KB.  A wider pattern raises
# ``ResourceLimitError``.
MAX_GROUP_CODES = 1 << 22


class ResourceLimitError(RuntimeError):
    """An input past a size cap: of enumeration, generated sets, the
    brute-force oracle, the synthesis fold or the suborder test."""


class TermParseError(ValueError):
    """Malformed term string; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SpTerm:
    """One canonical SP order.  Do not construct directly; use the
    constructors below (``chain_sum``, ``antichain_sum``, ``parse_term``),
    which intern their results.

    ``sort_key`` is the flat ``(n_points, kind, *child keys)``, which
    orders terms as the nested ``(n_points, kind, (child keys))`` does:
    both compare count, kind, then the runs of child keys in order, a
    prefix first (nested: in entry 3; flat: from entry 3 on), and by
    induction on size the child keys compare alike in both forms.
    """

    __slots__ = ("kind", "children", "n_points", "sort_key", "_text", "_deletions")

    def __init__(self, kind: int, children: tuple["SpTerm", ...]):
        self.kind = kind
        self.children = children
        if kind == EMPTY_KIND:
            self.n_points = 0
        elif kind == POINT_KIND:
            self.n_points = 1
        else:
            self.n_points = sum(c.n_points for c in children)
        # Total term order: point count, then kind, then child keys.
        self.sort_key = (self.n_points, kind, *(c.sort_key for c in children))
        self._text = self._deletions = None

    @property
    def text(self) -> str:
        s = self._text
        if s is None:
            s = self._text = _render(self)
        return s

    def __repr__(self):
        return self.text


# One intern table per kind of sum, keyed on the children tuple the term
# holds: a chain sum and an antichain sum may have equal children.
_CHAINS: dict[tuple[SpTerm, ...], SpTerm] = {}
_ANTICHAINS: dict[tuple[SpTerm, ...], SpTerm] = {}


def _mk(kind: int, children: tuple[SpTerm, ...]) -> SpTerm:
    table = _CHAINS if kind == CHAIN else _ANTICHAINS
    t = table.get(children)
    if t is None:
        t = table[children] = SpTerm(kind, children)
    return t


EMPTY = SpTerm(EMPTY_KIND, ())
POINT = SpTerm(POINT_KIND, ())


def _render(t: SpTerm) -> str:
    if t is EMPTY:
        return "0"
    if t is POINT:
        return "*"
    tag = "C" if t.kind == CHAIN else "A"
    return tag + "(" + ",".join(c.text for c in t.children) + ")"


def chain_sum(parts) -> SpTerm:
    """Canonical chain sum of canonical terms, bottom to top.

    Nested chain sums are flattened and empty layers dropped, so the
    result's layers are its anticomponents.  Zero or one surviving layer
    collapses to that layer (or to the empty term).
    """
    flat = []
    for p in parts:
        if p.kind == CHAIN:
            flat.extend(p.children)
        elif p is not EMPTY:
            flat.append(p)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    return _mk(CHAIN, tuple(flat))


def antichain_sum(parts) -> SpTerm:
    """Canonical antichain sum; dual of ``chain_sum``, components sorted."""
    flat = []
    for p in parts:
        if p.kind == ANTICHAIN:
            flat.extend(p.children)
        elif p is not EMPTY:
            flat.append(p)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda t: t.sort_key)
    return _mk(ANTICHAIN, tuple(flat))


def _skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i].isspace():
        i += 1
    return i


def _parse(s: str, i: int, depth: int = 0) -> tuple[SpTerm, int]:
    if i >= len(s):
        raise TermParseError("unexpected end of input", i)
    ch = s[i]
    if ch == "0":
        return EMPTY, i + 1
    if ch == "*":
        return POINT, i + 1
    if ch in "CA":
        if depth >= MAX_TERM_DEPTH:
            raise TermParseError(f"sums nested more than {MAX_TERM_DEPTH} deep", i)
        j = _skip_ws(s, i + 1)
        if j >= len(s) or s[j] != "(":
            raise TermParseError("expected '('", j)
        children = []
        j = _skip_ws(s, j + 1)
        child, j = _parse(s, j, depth + 1)
        children.append(child)
        j = _skip_ws(s, j)
        if j < len(s) and s[j] == ")":
            raise TermParseError("chain and antichain sums need at least two children", j)
        while True:
            if j >= len(s):
                raise TermParseError("expected ',' or ')'", j)
            if s[j] == ",":
                j = _skip_ws(s, j + 1)
                child, j = _parse(s, j, depth + 1)
                children.append(child)
                j = _skip_ws(s, j)
            elif s[j] == ")":
                return (chain_sum if ch == "C" else antichain_sum)(children), j + 1
            else:
                raise TermParseError("expected ',' or ')'", j)
    raise TermParseError(f"unexpected character {ch!r}", i)


def parse_term(text: str) -> SpTerm:
    """Parse the term grammar ``0 | * | C(t,t,...) | A(t,t,...)``.

    Whitespace between tokens is ignored.  Sums with fewer than two
    children, and sums nested more than ``MAX_TERM_DEPTH`` deep, are
    rejected here rather than silently collapsed.  Each sum is built
    through ``chain_sum`` or ``antichain_sum`` as its ``)`` is read, so
    the returned term is canonical.
    """
    term, end = _parse(text, _skip_ws(text, 0))
    end = _skip_ws(text, end)
    if end != len(text):
        raise TermParseError("unexpected trailing input", end)
    return term


def finest_antichain_rep(t: SpTerm) -> list[SpTerm]:
    """Components of an antichain sum; a term that is not one is its own
    single component and the empty term has none."""
    if t.kind == ANTICHAIN:
        return list(t.children)
    if t is EMPTY:
        return []
    return [t]


# -- Suborder test ----------------------------------------------------------
#
# Case rules: the empty order embeds in everything and a point in any
# nonempty order.  A chain sum is connected, so it embeds into an
# antichain sum only inside one component; an antichain sum is
# anticonnected, so it embeds into a chain sum only inside one layer.
# Chain into chain assigns consecutive blocks of the smaller order's
# layers to layers of the larger one, in order, and one greedy pass
# decides it: each layer of the larger order takes the longest block of
# the remaining layers that fits, which never loses an embedding.
#
# Antichain into antichain: the components of the smaller order p are
# connected, so each lands inside one component of the larger order q,
# and p embeds iff its components can be split into groups that go into
# distinct components of q.  A group is a sub-multiset of p's
# components, coded in mixed radix over p's runs of equal components.
# The signature of a component c of q lists the nonempty groups whose
# antichain sum embeds into c.  It is down-closed, so a group is tested
# only when every group one component smaller fits, and no group takes
# more points than c has.  The verdict then depends only on the multiset
# of q's signatures, each count capped at p's number of components, as
# no more groups can be placed.  It is decided by growing the set of
# sub-multisets placed so far, a bitset over their codes, one component
# of q at a time.  Signatures and verdicts are memoized, so the many
# halves of one sum that ``member_topdown`` tests share their work.


def is_suborder(p: SpTerm, q: SpTerm) -> bool:
    """True iff ``p`` is order-isomorphic to a restriction of ``q``."""
    if p is q or p is EMPTY:
        return True
    if p.n_points > q.n_points:
        return False
    if p is POINT:
        return True
    # Only pairs past the shortcuts above enter the memo.
    return _embeds(p, q)


@cache
def _embeds(p: SpTerm, q: SpTerm) -> bool:
    if q.kind == CHAIN:
        if p.kind == CHAIN:
            return _chain_in_chain(p.children, q.children)
        return any(is_suborder(p, layer) for layer in q.children)
    # q is an antichain sum: ``is_suborder`` has answered every p of
    # fewer than two points and every q smaller than p, so q is a sum.
    if p.kind == ANTICHAIN:
        return _antichain_in_antichain(p, q.children)
    return any(is_suborder(p, comp) for comp in q.children)


def _chain_in_chain(pparts, qparts) -> bool:
    # Each layer of q, bottom to top, takes the longest block of p's
    # remaining layers that embeds into it.  The blocks that fit one layer
    # are the prefixes up to the longest, since a shorter block is a
    # suborder of a longer one.  Whatever a shorter block leaves for the
    # layers above, the longest leaves a suffix of it, and a suffix embeds
    # wherever the whole remainder does; so taking the longest block never
    # loses an embedding.  Each test either extends the block or moves on
    # to the next layer, so a call makes at most len(p) + len(q) tests.
    # A block with more points than the layer cannot fit, so the points
    # left in the layer end the block before such a block is built.
    taken, n = 0, len(pparts)
    for layer in qparts:
        end, room = taken, layer.n_points
        while end < n and pparts[end].n_points <= room:
            if not is_suborder(chain_sum(pparts[taken : end + 1]), layer):
                break
            room -= pparts[end].n_points
            end += 1
        if end == n:
            return True
        taken = end
    return False


def _sorted_antichain_sum(comps: list[SpTerm]) -> SpTerm:
    """``antichain_sum`` of canonical components already in order."""
    if not comps:
        return EMPTY
    if len(comps) == 1:
        return comps[0]
    return _mk(ANTICHAIN, tuple(comps))


def antichain_splits(t: SpTerm, copies=None):
    """The two-sided splits of ``t``'s components (``t`` itself when it
    is not an antichain sum), lazily, as each split's left and right
    components, in order, in two lists.

    Equal components are interchangeable, so there is one split per
    sub-multiset of the components.  Splits come in product order over
    the runs of equal components: the fewest copies on the left first,
    the last run varying fastest.  With ``copies``, a function of a run's
    component and its number of copies that returns the least and the
    most copies the left side may take, only the splits within those
    bounds are listed; a run whose least exceeds its most leaves no split
    at all, and no later run is asked.
    """
    runs = [(c, len(list(equal))) for c, equal in groupby(finest_antichain_rep(t))]
    ranges = []
    for comp, total in runs:
        lo, hi = copies(comp, total) if copies else (0, total)
        if lo > hi:
            return
        ranges.append(range(lo, hi + 1))
    for pick in product(*ranges):
        left, right = [], []
        for (comp, total), k in zip(runs, pick):
            left += [comp] * k
            right += [comp] * (total - k)
        yield left, right


def _runs(p: SpTerm):
    """p's runs of equal components as ``(component, copies, place)``,
    ``place`` being the value of one copy in a sub-multiset's mixed-radix
    code, and the number of codes."""
    runs, codes = [], 1
    for comp, equal in groupby(p.children):
        total = len(list(equal))
        runs.append((comp, total, codes))
        codes *= total + 1
    return runs, codes


@cache
def _signature(p: SpTerm, c: SpTerm) -> tuple[int, ...]:
    """Codes of the nonempty groups of p's components whose antichain sum
    embeds into the connected order ``c``, in increasing order."""
    runs, _ = _runs(p)
    fits = {0}
    # One level per group size: (code, points, run indices, nondecreasing).
    level = [(0, 0, ())]
    while level:
        grown = []
        for code, points, idx in level:
            for i in range(idx[-1] if idx else 0, len(runs)):
                comp, total, place = runs[i]
                if points + comp.n_points > c.n_points:
                    break  # runs come in order of size
                if code // place % (total + 1) == total:
                    continue
                new, bigger = code + place, idx + (i,)
                if all(new - runs[j][2] in fits for j in set(idx)) and is_suborder(
                    _sorted_antichain_sum([runs[j][0] for j in bigger]), c
                ):
                    fits.add(new)
                    grown.append((new, points + comp.n_points, bigger))
        level = grown
    return tuple(sorted(fits))[1:]


@cache
def _placeable(p: SpTerm, hosts: tuple[tuple[tuple[int, ...], int], ...]) -> bool:
    """Whether p's components split into groups that go into distinct
    hosts, each group listed in its host's signature; ``hosts`` pairs
    each distinct signature with its number of hosts."""
    runs, codes = _runs(p)
    if codes > MAX_GROUP_CODES:
        raise ResourceLimitError(
            f"input too large: an antichain sum with {codes} sub-multisets of"
            f" components exceeds the cap of {MAX_GROUP_CODES}"
        )
    # Adding a group shifts a code by the group's code, after keeping only
    # the codes with room for it in every run: those whose digit there is
    # at most the run's copies less the group's.  Such a code takes no
    # carry, so one mask and one shift place the group.
    every = (1 << codes) - 1
    masks = {}

    def room(g):
        out = every
        for _, total, place in runs:
            k = g // place % (total + 1)
            if k:
                mask = masks.get((place, k))
                if mask is None:
                    # One block per value of the higher digits, by doubling.
                    mask, width = (1 << (total - k + 1) * place) - 1, place * (total + 1)
                    while width < codes:
                        mask |= mask << width
                        width *= 2
                    mask = masks[place, k] = mask & every
                out &= mask
        return out

    full = 1 << (codes - 1)
    placed = 1  # bit 0: nothing placed yet
    for sig, count in hosts:
        moves = [(room(g), g) for g in sig]
        for _ in range(count):
            grown = placed
            for mask, g in moves:
                grown |= (placed & mask) << g
            if grown & full:
                return True
            if grown == placed:
                break  # more hosts of this signature place nothing new
            placed = grown
    return False


def _antichain_in_antichain(p: SpTerm, qcomps) -> bool:
    hosts = {}
    for c, equal in groupby(qcomps):
        sig = _signature(p, c)
        if sig:
            hosts[sig] = hosts.get(sig, 0) + len(list(equal))
    most = len(p.children)
    return _placeable(p, tuple(sorted((sig, min(n, most)) for sig, n in hosts.items())))


def one_point_deletions(t: SpTerm) -> tuple[SpTerm, ...]:
    """The distinct orders left by deleting one point of ``t``: a point
    inside one layer of a chain sum or one component of an antichain sum
    (equal components give equal results, so each is tried once)."""
    if t._deletions is None:
        t._deletions = _deletions(t)
    return t._deletions


def _deletions(t: SpTerm) -> tuple[SpTerm, ...]:
    if not t.children:
        return (EMPTY,) if t is POINT else ()
    combine = chain_sum if t.kind == CHAIN else antichain_sum
    parts = t.children
    made = {}
    for i, part in enumerate(parts):
        if t.kind == CHAIN or i == 0 or part is not parts[i - 1]:
            for d in one_point_deletions(part):
                made[combine(parts[:i] + (d,) + parts[i + 1 :])] = None
    return tuple(made)


# -- Enumeration ------------------------------------------------------------


@cache
def _terms_of_size(s: int) -> tuple[SpTerm, ...]:
    if s == 0:
        return (EMPTY,)
    if s == 1:
        return (POINT,)
    found = []

    # The parts of a sum of ``kind``, in order: none is a sum of that
    # kind, and an antichain sum's components never decrease in sort
    # order (``least``).  The first part never takes the whole size (a
    # sum needs two parts), so only strictly smaller sizes are recursed
    # into.
    def parts(kind, remaining, least, acc):
        if remaining == 0:
            if len(acc) >= 2:
                found.append(_mk(kind, tuple(acc)))
            return
        top = remaining if acc else remaining - 1
        for k in range(1, top + 1):
            for part in _terms_of_size(k):
                if part.kind != kind and part.sort_key >= least:
                    acc.append(part)
                    parts(kind, remaining - k, least if kind == CHAIN else part.sort_key, acc)
                    acc.pop()

    parts(CHAIN, s, EMPTY.sort_key, [])
    parts(ANTICHAIN, s, EMPTY.sort_key, [])
    found.sort(key=lambda t: t.sort_key)
    return tuple(found)


def enumerate_sp(n: int) -> list[SpTerm]:
    """All canonical terms of size <= n, one per isomorphism class,
    sorted by the total term order; n above ``MAX_ENUM_SIZE`` raises
    ``ResourceLimitError``."""
    if n < 0:
        raise ValueError("size bound must be nonnegative")
    if n > MAX_ENUM_SIZE:
        raise ResourceLimitError(
            f"enumeration of terms up to size {n} exceeds the cap of {MAX_ENUM_SIZE} points"
        )
    out = []
    for s in range(n + 1):
        out.extend(_terms_of_size(s))
    return out
