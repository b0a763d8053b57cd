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
arguments and safe for concurrent use.  The suborder test, the one
point deletions, the enumeration levels and the relations are memoized
by ``functools.cache`` on private helpers, whose ``cache_info()``
reports each memo's size and whose ``cache_clear()`` empties it: a memo
only holds values that are recomputed identically.  The intern table is
not a memo and is never cleared, since equal terms must stay one object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import groupby

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


class ResourceLimitError(RuntimeError):
    """An enumeration, closure or synthesis fold grew past its size cap."""


class TermParseError(ValueError):
    """Malformed term string; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SpTerm:
    """One canonical SP order.  Do not construct directly; use the
    constructors below (``chain_sum``, ``antichain_sum``, ``parse_term``),
    which intern their results."""

    __slots__ = ("kind", "children", "n_points", "sort_key", "_text")

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
        self.sort_key = (self.n_points, kind, tuple(c.sort_key for c in children))
        self._text = None

    @property
    def text(self) -> str:
        s = self._text
        if s is None:
            s = self._text = _render(self)
        return s

    def __repr__(self):
        return self.text


_INTERN: dict[tuple, SpTerm] = {}


def _mk(kind: int, children: tuple[SpTerm, ...]) -> SpTerm:
    key = (kind, children)
    t = _INTERN.get(key)
    if t is None:
        t = _INTERN[key] = SpTerm(kind, children)
    return t


EMPTY = _mk(EMPTY_KIND, ())
POINT = _mk(POINT_KIND, ())


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


def finest_chain_rep(t: SpTerm) -> list[SpTerm]:
    """Layers of a chain sum bottom to top (the anticomponents); a
    non-chain term is its own single layer and the empty term has none."""
    if t.kind == CHAIN:
        return list(t.children)
    if t is EMPTY:
        return []
    return [t]


def finest_antichain_rep(t: SpTerm) -> list[SpTerm]:
    """Components of an antichain sum; dual of ``finest_chain_rep``."""
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
# layers to layers of the larger one, in order.  Antichain into
# antichain distributes components to components, a group of two or
# more landing inside a single target component: each target component
# in turn takes the left side of a split of the components not yet
# placed, and only left sides that fit its point count are built.


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
    if q.kind == ANTICHAIN:
        if p.kind == ANTICHAIN:
            return _antichain_in_antichain(p, q.children)
        return any(is_suborder(p, comp) for comp in q.children)
    return False  # q is a point and p has >= 2 points


def _chain_in_chain(pparts, qparts) -> bool:
    # Layers i.. of p embed into layers j.. of q, blocks in order, iff
    # j <= last[i]: the highest layer of q that can take a block starting
    # at layer i, the rest going above it (-1 when none can).  Each
    # last[i] reads only those above it, so no call recurses, and fewer
    # layers of p embed more easily, so once one is -1 all below it are.
    n, m = len(pparts), len(qparts)
    ptail = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        ptail[i] = ptail[i + 1] + pparts[i].n_points
    qtail = [0] * (m + 1)
    for j in range(m - 1, -1, -1):
        qtail[j] = qtail[j + 1] + qparts[j].n_points
    last = [-1] * n + [m]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if ptail[i] > qtail[j]:
                continue
            for l in range(i, n):
                # A failing block only grows worse when extended.
                if not is_suborder(chain_sum(pparts[i : l + 1]), qparts[j]):
                    break
                if last[l + 1] > j:
                    last[i] = j
                    break
            if last[i] >= 0:
                break
        if last[i] < 0:
            return False
    return True


def _sorted_antichain_sum(comps: list[SpTerm]) -> SpTerm:
    """``antichain_sum`` of canonical components already in order."""
    if not comps:
        return EMPTY
    if len(comps) == 1:
        return comps[0]
    return _mk(ANTICHAIN, tuple(comps))


def antichain_splits(t: SpTerm, most: int | None = None, copies=None):
    """The two-sided splits of ``t``'s components (``t`` itself when it
    is not an antichain sum), lazily, as ``(left, right)`` antichain sums.

    Equal components are interchangeable, so there is one split per
    sub-multiset of the components.  Splits come in product order over
    the runs of equal components: the fewest copies on the left first,
    the last run varying fastest.  With ``most``, only the splits whose
    left side has at most ``most`` points are listed; the others are
    never built.  With ``copies``, a function of a run's component and
    its number of copies that returns the least and the most copies the
    left side may take, only the splits within those bounds are listed;
    a run whose least exceeds its most leaves no split at all.
    """
    runs = [(c, len(list(equal))) for c, equal in groupby(finest_antichain_rep(t))]
    room = t.n_points if most is None else most  # points the left side may still take
    low, high = [], []
    for comp, total in runs:
        lo, hi = copies(comp, total) if copies else (0, total)
        if lo > hi:
            return
        low.append(lo)
        high.append(hi)
        room -= lo * comp.n_points
    if room < 0:
        return
    pick = low.copy()
    while True:
        left, right = [], []
        for (comp, total), k in zip(runs, pick):
            left += [comp] * k
            right += [comp] * (total - k)
        yield _sorted_antichain_sum(left), _sorted_antichain_sum(right)
        # Advance the last run that can take one more component; the runs
        # after it start again from their least.
        i = len(runs) - 1
        while i >= 0 and (pick[i] == high[i] or runs[i][0].n_points > room):
            room += (pick[i] - low[i]) * runs[i][0].n_points
            pick[i] = low[i]
            i -= 1
        if i < 0:
            return
        pick[i] += 1
        room -= runs[i][0].n_points


def _antichain_in_antichain(p: SpTerm, qcomps) -> bool:
    m = len(qcomps)
    qtail = [0] * (m + 1)
    for j in range(m - 1, -1, -1):
        qtail[j] = qtail[j + 1] + qcomps[j].n_points
    # memo[rest] = [j, found]: q's components are tried from the last one
    # down, each taking the left side of a split of ``rest`` with the
    # right side going above it.  Found, j is the highest that can; not
    # yet found, j is the next to try.  The loop runs over q's components
    # and only the right sides recurse, so the depth is at most p's
    # number of components, and each component is tried once per rest.
    memo = {}

    # fits(rest, lo): can the components of ``rest`` go into components lo.. of q?
    def fits(rest, lo):
        if rest is EMPTY:
            return True
        state = memo.get(rest)
        if state is None:
            state = memo[rest] = [m - 1, False]
        j, found = state
        while not found and j >= lo:
            found = rest.n_points <= qtail[j] and any(
                left is not EMPTY and is_suborder(left, qcomps[j]) and fits(right, j + 1)
                for left, right in antichain_splits(rest, qcomps[j].n_points)
            )
            if not found:
                j -= 1
        state[:] = j, found
        return found and j >= lo

    return fits(p, 0)


def one_point_deletions(t: SpTerm) -> tuple[SpTerm, ...]:
    """The distinct orders left by deleting one point of ``t``: a point
    inside one layer of a chain sum or one component of an antichain sum
    (equal components give equal results, so each is tried once)."""
    return _deletions(t)


@cache
def _deletions(t: SpTerm) -> tuple[SpTerm, ...]:
    if not t.children:
        return (EMPTY,) if t is POINT else ()
    combine = chain_sum if t.kind == CHAIN else antichain_sum
    parts = t.children
    made = {}
    for i, part in enumerate(parts):
        if t.kind == CHAIN or i == 0 or part is not parts[i - 1]:
            for d in _deletions(part):
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

    # The first part never takes the whole size (a sum needs two
    # parts), so only strictly smaller sizes are recursed into.
    def chain_layers(remaining, acc):
        if remaining == 0:
            if len(acc) >= 2:
                found.append(_mk(CHAIN, tuple(acc)))
            return
        top = remaining if acc else remaining - 1
        for k in range(1, top + 1):
            for part in _terms_of_size(k):
                if part.kind != CHAIN:
                    acc.append(part)
                    chain_layers(remaining - k, acc)
                    acc.pop()

    def antichain_comps(remaining, min_key, acc):
        if remaining == 0:
            if len(acc) >= 2:
                found.append(_mk(ANTICHAIN, tuple(acc)))
            return
        top = remaining if acc else remaining - 1
        for k in range(1, top + 1):
            for part in _terms_of_size(k):
                if part.kind != ANTICHAIN and part.sort_key >= min_key:
                    acc.append(part)
                    antichain_comps(remaining - k, part.sort_key, acc)
                    acc.pop()

    chain_layers(s, [])
    antichain_comps(s, EMPTY.sort_key, [])
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


# -- Explicit relations -----------------------------------------------------


@dataclass(frozen=True)
class PosetRelation:
    """Explicit order relation on points 0..n-1.

    Bit ``j`` of ``leq[i]`` is set iff point ``i <= j`` (reflexive bits
    included).  Used only by relation-level predicates that must stay
    independent of the term algebra.
    """

    n: int
    leq: tuple[int, ...]


def to_relation(t: SpTerm) -> PosetRelation:
    """Materialize a term as a concrete relation: within a layer the
    layer's own order, everything in an earlier chain layer below every
    point of a later one, components of an antichain sum incomparable."""
    return _relation(t)


@cache
def _relation(t: SpTerm) -> PosetRelation:
    if t is EMPTY:
        return PosetRelation(0, ())
    if t is POINT:
        return PosetRelation(1, (1,))
    parts = [_relation(c) for c in t.children]
    total = sum(p.n for p in parts)
    rows = []
    off = 0
    if t.kind == CHAIN:
        for idx, p in enumerate(parts):
            above = 0
            o2 = off + p.n
            for later in parts[idx + 1 :]:
                above |= ((1 << later.n) - 1) << o2
                o2 += later.n
            for row in p.leq:
                rows.append((row << off) | above)
            off += p.n
    else:
        for p in parts:
            for row in p.leq:
                rows.append(row << off)
            off += p.n
    return PosetRelation(total, tuple(rows))
