"""Reference enumeration of SP orders, for the tests only.

It closes {empty, point} under binary chain and antichain sums, so it
shares nothing with the grammar-driven ``enumerate_sp`` but the term
constructors, and the two can check each other.
"""

from spdesc import EMPTY, POINT, antichain_sum, chain_sum


def enumerate_sp_by_closure(n: int) -> set:
    """Every canonical term of size <= n, by closure under binary sums."""
    terms = [EMPTY]
    if n >= 1:
        terms.append(POINT)
    seen = set(terms)
    i = 0
    while i < len(terms):
        t = terms[i]
        for u in terms[: i + 1]:
            if t.n_points + u.n_points <= n:
                for made in (chain_sum((u, t)), chain_sum((t, u)), antichain_sum((t, u))):
                    if made not in seen:
                        seen.add(made)
                        terms.append(made)
        i += 1
    return seen
