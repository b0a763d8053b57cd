"""Seeded inputs for the three workloads, as term strings and file texts.

Nothing here imports ``spdesc``: the program under test sees only what
this module generates.  Terms are written in the package's grammar
(``*``, ``C(...)``, ``A(...)``); the strings need not be canonical,
since the program canonicalizes on parse.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

# The ten-ideal catalog of the acceptance suite (criterion 1).
CATALOG = [
    ("C(*,*)",),
    ("A(*,*)",),
    ("C(*,*,*)",),
    ("A(*,*,*)",),
    ("C(*,A(*,*))",),
    ("C(*,*,*)", "C(A(*,*),A(*,*))"),
    ("A(*,*,*)", "A(*,C(*,*))"),
    ("C(*,*,*)", "A(*,*,*)"),
    ("C(*,A(*,*),*)",),
    ("C(*,A(*,*),*)", "A(*,*,*,*)"),
]

# A width-4 antichain sum whose table has 438 bits; its verification at
# size 8 is the slowest `generate_upto` call of the verify workload.
WIDE = ("A(*,C(*,*),C(*,*,*),C(*,A(*,*)))",)

# Ten points exceed the oracle's 9-point guard, which `brute_embed`
# checks before its size shortcut, so this verify exits 2 at any bound.
CHAIN10 = ("C(*,*,*,*,*,*,*,*,*,*)",)

# Number of SP orders with 0..9 points (OEIS A003430).
SP_COUNTS = (1, 1, 2, 5, 15, 48, 167, 602, 2256, 8660)


# -- Canonical strings of SP orders ------------------------------------------
#
# A chain-kind order is a stack of at least two layers, each a point or an
# antichain-kind order; an antichain-kind order is a multiset of at least
# two components, each a point or a chain-kind order.  Sorting antichain
# components by their string makes the string a canonical name.


@lru_cache(maxsize=None)
def _layers(n: int) -> tuple[str, ...]:
    return ("*",) if n == 1 else antichain_kind(n)


@lru_cache(maxsize=None)
def _components(n: int) -> tuple[str, ...]:
    return ("*",) if n == 1 else chain_kind(n)


def _compositions(n: int, parts_min: int):
    """Ordered tuples of positive sizes summing to n, at least parts_min long."""
    if n == 0:
        if parts_min <= 0:
            yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first, parts_min - 1):
            yield (first,) + rest


def _partitions(n: int, largest: int):
    """Non-increasing tuples of positive sizes summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def chain_kind(n: int) -> tuple[str, ...]:
    """Every connected SP order of n >= 2 points (a chain sum at the top)."""
    out = []
    for sizes in _compositions(n, 2):
        for layers in product(*(_layers(s) for s in sizes)):
            out.append("C(" + ",".join(layers) + ")")
    return tuple(out)


@lru_cache(maxsize=None)
def antichain_kind(n: int) -> tuple[str, ...]:
    """Every disconnected SP order of n >= 2 points (an antichain sum)."""
    out = []
    for sizes in _partitions(n, n - 1):
        groups = []
        for s in sorted(set(sizes)):
            groups.append(
                list(combinations_with_replacement(_components(s), sizes.count(s)))
            )
        for pick in product(*groups):
            comps = sorted(c for group in pick for c in group)
            out.append("A(" + ",".join(comps) + ")")
    return tuple(out)


# -- Presentation ------------------------------------------------------------


def _parse(text: str, i: int = 0):
    """Tiny reader for the term grammar: ('*',) or (tag, [children])."""
    if text[i] == "*":
        return ("*",), i + 1
    tag = text[i]
    i += 2  # tag and "("
    children = []
    while True:
        child, i = _parse(text, i)
        children.append(child)
        if text[i] == ")":
            return (tag, children), i + 1
        i += 1  # ","


def _flatten(node):
    """The same order with nested sums of one kind merged into one node."""
    if node[0] == "*":
        return node
    tag, children = node
    flat = []
    for child in map(_flatten, children):
        if child[0] == tag:
            flat.extend(child[1])
        else:
            flat.append(child)
    return (tag, flat)


def _respell(node, rng: random.Random) -> str:
    """A random binary sum tree for a flattened node: antichain parts are
    shuffled, and every sum is split at a random point."""
    if node[0] == "*":
        return "*"
    tag, children = node
    parts = [_respell(c, rng) for c in children]
    if tag == "A":
        rng.shuffle(parts)

    def split(lo: int, hi: int) -> str:
        if hi - lo == 1:
            return parts[lo]
        mid = rng.randint(lo + 1, hi - 1)
        return f"{tag}({split(lo, mid)},{split(mid, hi)})"

    return split(0, len(parts))


def respelled(text: str, rng: random.Random) -> str:
    """Another binary-sum-tree spelling of the same order."""
    node, end = _parse(text)
    if end != len(text):
        raise ValueError(f"trailing text in {text!r}")
    return _respell(_flatten(node), rng)


def obstruction_file(terms, rng: random.Random) -> str:
    """Obstruction-list text: shuffled lines, each term respelled."""
    lines = [respelled(t, rng) for t in terms]
    rng.shuffle(lines)
    return "# generated by perfbench\n" + "\n".join(lines) + "\n"


# -- Workload inputs ---------------------------------------------------------


def verify_cases():
    """(name, terms, max_size) per verify call, in a fixed order."""
    cases = [(f"catalog{i}", terms, 9) for i, terms in enumerate(CATALOG)]
    cases.append(("wide", WIDE, 8))
    cases.append(("chain10", CHAIN10, 6))
    return cases


def describe_family():
    """The antichain sums of the describe family, in a fixed order: every
    sum of 3 distinct connected components of 2-4 points, then the only
    sum of 4 distinct connected components of 2-3 points."""
    comps = [c for s in (2, 3, 4) for c in chain_kind(s)]
    triples = ["A(" + ",".join(t) + ")" for t in combinations(comps, 3)]
    small = [c for s in (2, 3) for c in chain_kind(s)]
    return triples + ["A(" + ",".join(small) + ")"]


def describe_cases(seed: int):
    """(name, terms) per describe call.

    First the catalog, then the four width-4 sums of a point and three of
    the 4-component family sum's components (the wide table among them),
    then one obstruction set per family antichain sum.  A third of the
    3-component sums, drawn from the seed, get no chain sum, a third one
    and a third two, the chain sums drawn from the seed among those of
    3-5 points; the 4-component sum is described alone."""
    rng = random.Random(f"describe:{seed}")
    cases = [(f"catalog{i}", terms) for i, terms in enumerate(CATALOG)]
    small = [c for s in (2, 3) for c in chain_kind(s)]
    for i, comps in enumerate(combinations(small, 3)):
        cases.append((f"point-width4-{i}", ("A(*," + ",".join(comps) + ")",)))
    chains = [c for s in (3, 4, 5) for c in chain_kind(s)]
    family = describe_family()
    triples = family[:-1]
    extra = [i % 3 for i in range(len(triples))]
    rng.shuffle(extra)
    for i, (sum_text, k) in enumerate(zip(triples, extra)):
        cases.append((f"family{i}", (sum_text,) + tuple(rng.sample(chains, k))))
    cases.append(("family-width4", (family[-1],)))
    return cases


# Family sets checked against the oracle on every term up to their
# largest obstruction's size, besides those whose antichain sum has 8
# points and the width-4 sums of 9 points with a point: this many more,
# drawn from the seed.
DEEP_SAMPLE = 2


def describe_deep(seed: int, cases) -> set[str]:
    """Names of the describe cases whose tables the first round compares
    with the oracle up to their largest obstruction's size, capped at the
    oracle's 9-point guard.  Larger bounds are out of its reach, and the
    full comparison takes 1-5 s a set on a 2-vCPU machine, so it covers
    the sets whose antichain sum the oracle can rule out at the smallest
    sizes, plus a seeded sample of the rest of the family."""
    rng = random.Random(f"describe-deep:{seed}")
    fixed, rest = [], []
    for name, terms in cases:
        if name.startswith("catalog"):
            continue
        points = terms[0].count("*")
        if points == 8 or (name.startswith("point-width4") and points == 9):
            fixed.append(name)
        else:
            rest.append(name)
    return set(fixed) | set(rng.sample(rest, DEEP_SAMPLE))


def input_files(workload: str, seed: int) -> dict[str, str]:
    """File name to obstruction-file text, for every call of the workload
    that reads a file: each term respelled, the lines shuffled."""
    if workload == "verify":
        cases = verify_cases()
    elif workload == "describe":
        cases = describe_cases(seed)
    else:
        return {}
    rng = random.Random(f"{workload}-files:{seed}")
    return {f"{case[0]}.txt": obstruction_file(case[1], rng) for case in cases}


def random_sum_tree(rng: random.Random, n: int) -> str:
    """A random SP order of n points: a binary tree whose split point and
    node kind (chain or antichain sum) are uniform at every node."""
    if n == 1:
        return "*"
    k = rng.randint(1, n - 1)
    kind = rng.choice("CA")
    return f"{kind}({random_sum_tree(rng, k)},{random_sum_tree(rng, n - k)})"


QUERY_TABLES = CATALOG + [WIDE]

# Queries per table in every stream: 11 tables, so 2,200 queries.
QUERIES_PER_TABLE = 200


def query_pool() -> tuple[tuple[int, str], ...]:
    """The (table index, order) pairs every query stream holds: for each
    table, QUERIES_PER_TABLE random binary sum trees of 6-30 points, drawn
    once from a fixed seed."""
    rng = random.Random("queries-pool")
    return tuple(
        (table, random_sum_tree(rng, rng.randint(6, 30)))
        for _ in range(QUERIES_PER_TABLE)
        for table in range(len(QUERY_TABLES))
    )


def query_stream(seed: int):
    """The query pool in an order drawn from the seed, every order
    written as a binary sum tree drawn from the seed."""
    rng = random.Random(f"queries:{seed}")
    stream = [(table, respelled(text, rng)) for table, text in query_pool()]
    rng.shuffle(stream)
    return stream
