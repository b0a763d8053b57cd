"""Acceptance suite: the seven exit criteria, each at its stated bound.

All checks are exact set or boolean comparisons (no numeric tolerances);
the bounds are the desk-scale limits the package is specified for.  One
PASS/FAIL line per criterion is printed (visible with ``pytest -s``; the
per-test verdicts of ``pytest -v`` carry the same information).

    1. Oracle equivalence at size 9 over the ten-ideal catalog
    2. Diamond-free characterization at size 9
    3. Every synthesized bit is a two-point chain or antichain
    4. Every synthesized table validates (acyclic, strictly decreasing)
    5. Structural suborder test vs brute force on all pairs up to size 7
    6. Grammar vs closure enumeration up to size 8, profile 1,1,2,5,15
    7. Mixed-case label intersection regression
"""

import json
import time

import pytest

from spdesc import (
    StructuralDescription,
    brute_embed,
    enumerate_sp,
    is_suborder,
    make_ideal,
    member,
    parse_term,
    ranks,
    synthesize,
    to_json,
    validate,
    verify_equivalence,
)
from spdesc.bits import chain_bit, make_entry

from catalog import CATALOG
from reference_diamond import diamond_free_shape
from reference_enumeration import enumerate_sp_by_closure

DIAMOND = "C(*,A(*,*),*)"


def _announce(number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {verdict} - {detail}")


@pytest.fixture(scope="module")
def catalog_descriptions():
    return {
        texts: synthesize([parse_term(s) for s in texts]) for texts in CATALOG
    }


def test_criterion_1_oracle_equivalence(catalog_descriptions):
    start = time.time()
    failures = []
    for texts, desc in catalog_descriptions.items():
        report = verify_equivalence([parse_term(s) for s in texts], desc, 9)
        if not report.equal:
            failures.append((texts, report.summary(), report.missing, report.extra))
    elapsed = time.time() - start
    _announce(
        1,
        "oracle equivalence",
        not failures,
        f"{len(CATALOG)} ideals exact at size 9 in {elapsed:.1f}s",
    )
    assert not failures, failures


def test_criterion_2_diamond_characterization():
    start = time.time()
    ideal = make_ideal([parse_term(DIAMOND)])
    disagreements = [
        t.text
        for t in enumerate_sp(9)
        if diamond_free_shape(t) != member(ideal, t)
    ]
    elapsed = time.time() - start
    _announce(
        2,
        "diamond-free shape",
        not disagreements,
        f"{len(enumerate_sp(9))} terms at size 9 in {elapsed:.1f}s",
    )
    assert not disagreements, disagreements[:10]


def test_criterion_3_two_point_bits(catalog_descriptions):
    bad = []
    total = 0
    for texts, desc in catalog_descriptions.items():
        for entry_doc in json.loads(to_json(desc))["entries"]:
            for bit_doc in entry_doc["bits"]:
                total += 1
                if bit_doc["shape"] not in ("chain", "antichain") or len(bit_doc["labels"]) != 2:
                    bad.append((texts, bit_doc))
    _announce(3, "two-point bits", not bad, f"{total} bits across the catalog")
    assert not bad, bad


def test_criterion_4_validation_and_termination(catalog_descriptions):
    problems = []
    for texts, desc in catalog_descriptions.items():
        issues = validate(desc)
        if issues:
            problems.append((texts, issues))
        depth = ranks(desc)[desc.root]
        if not depth <= len(desc.entries):
            problems.append((texts, f"rank {depth} exceeds {len(desc.entries)} entries"))
    _announce(
        4,
        "validation / strict decrease",
        not problems,
        f"{len(CATALOG)} tables validated",
    )
    assert not problems, problems


def test_criterion_5_suborder_vs_brute_force():
    start = time.time()
    terms = enumerate_sp(7)
    mismatches = []
    for p in terms:
        for q in terms:
            if is_suborder(p, q) != brute_embed(p, q):
                mismatches.append((p.text, q.text))
    elapsed = time.time() - start
    _announce(
        5,
        "suborder correctness",
        not mismatches,
        f"{len(terms)}^2 pairs at size 7 in {elapsed:.1f}s",
    )
    assert not mismatches, mismatches[:10]


def test_criterion_6_enumeration_self_consistency():
    start = time.time()
    ok = True
    for n in range(9):
        if set(enumerate_sp(n)) != enumerate_sp_by_closure(n):
            ok = False
    profile = [len([t for t in enumerate_sp(4) if t.n_points == s]) for s in range(5)]
    ok = ok and profile == [1, 1, 2, 5, 15]
    elapsed = time.time() - start
    _announce(
        6,
        "enumeration self-consistency",
        ok,
        f"grammar == closure for n <= 8, profile {profile}, in {elapsed:.1f}s",
    )
    assert ok, profile


def test_criterion_7_mixed_case_regression():
    forbidden = [parse_term("C(*,*,*)"), parse_term("A(*,*)")]
    fixed = verify_equivalence(forbidden, synthesize(forbidden), 9)
    # The naive table leaves the chain rule's labels unintersected with
    # the root ideal: one chain bit with two C(*,*)-free cells.
    root = make_ideal(forbidden)
    entries = dict(synthesize([parse_term("C(*,*)")]).entries)
    low = make_ideal([parse_term("C(*,*)")])
    entries[root.key] = make_entry(root, [chain_bit(low, low)])
    broken = verify_equivalence(forbidden, StructuralDescription(root.key, entries), 9)
    ok = fixed.equal and not broken.equal and "A(*,*)" in broken.extra
    _announce(
        7,
        "mixed-case regression",
        ok,
        f"intersected: {fixed.summary()}; unintersected extra includes A(*,*)",
    )
    assert fixed.equal
    assert not broken.equal
    assert "A(*,*)" in broken.extra
