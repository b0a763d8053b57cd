"""The suborder test by direct search, for the tests only.

Antichain into antichain places the pattern's components host component
by host component, from the last: each takes the left side of a split of
the components not yet placed (``terms.antichain_splits``), and the
right side goes to the host components after it.  The package decided
antichain sums this way before it decided them from per-component
signatures.  This copy shares the case rules with ``is_suborder`` but
none of its memos, so the two can check each other on hosts past the
brute-force oracle's size guard.
"""

from functools import cache

from spdesc.terms import ANTICHAIN, CHAIN, EMPTY, POINT, antichain_splits, antichain_sum, chain_sum


@cache
def embeds(p, q) -> bool:
    """True iff ``p`` is order-isomorphic to a restriction of ``q``."""
    if p is q or p is EMPTY:
        return True
    if p.n_points > q.n_points:
        return False
    if p is POINT:
        return True
    if q.kind == CHAIN:
        if p.kind == CHAIN:
            return _chain_in_chain(p.children, q.children)
        return any(embeds(p, layer) for layer in q.children)
    if q.kind == ANTICHAIN:
        if p.kind == ANTICHAIN:
            return _antichain_in_antichain(p, q.children)
        return any(embeds(p, comp) for comp in q.children)
    return False


def _chain_in_chain(pparts, qparts) -> bool:
    # Consecutive blocks of p's layers go into q's layers, in order.
    # ``reached`` holds every count of p's lowest layers that q's layers
    # read so far can take.  Each layer of q takes nothing, or a block
    # starting at a reached count that embeds into it; a longer block has
    # more points, so the blocks from one start stop at the layer's size.
    n = len(pparts)
    reached = {0}
    for layer in qparts:
        grown = set(reached)
        for i in reached:
            points = 0
            for l in range(i, n):
                points += pparts[l].n_points
                if points > layer.n_points:
                    break
                if embeds(chain_sum(pparts[i : l + 1]), layer):
                    grown.add(l + 1)
        if n in grown:
            return True
        reached = grown
    return False


def _antichain_in_antichain(p, qcomps) -> bool:
    m = len(qcomps)
    qtail = [0] * (m + 1)
    for j in range(m - 1, -1, -1):
        qtail[j] = qtail[j + 1] + qcomps[j].n_points
    # memo[rest] = [j, found]: q's components are tried from the last one
    # down, each taking the left side of a split of ``rest`` with the
    # right side going above it.  Found, j is the highest that can; not
    # yet found, j is the next to try.
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
                left is not EMPTY
                and left.n_points <= qcomps[j].n_points
                and embeds(left, qcomps[j])
                and fits(right, j + 1)
                for left, right in (
                    (antichain_sum(a), antichain_sum(b)) for a, b in antichain_splits(rest)
                )
            )
            if not found:
                j -= 1
        state[:] = j, found
        return found and j >= lo

    return fits(p, 0)
