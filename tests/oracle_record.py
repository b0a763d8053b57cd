"""The brute-force oracle's per-order record, decoded for the tests only.

``oracle._relation_masks`` keeps, per point, the mask of the points
strictly above it and the mask of those incomparable to it.
``relation`` returns the at-or-above masks, the at-or-below masks,
computed here by transposing those, the incomparable masks and the
numbers of comparable and incomparable pairs.
"""

from spdesc.oracle import _relation_masks


def relation(t):
    """``(up, down, incomp, comparable, incomparable)`` for ``t``."""
    record = _relation_masks(t)
    incomp = record[4::2]
    points = range(len(incomp))
    up = tuple(above | 1 << i for i, above in zip(points, record[3::2]))
    down = tuple(sum(1 << i for i in points if up[i] >> j & 1) for j in points)
    return up, down, incomp, record[0], record[1]
