"""The three workloads: set-up, one timed operation, and the checks.

Each workload object is built in a fresh worker process.  ``setup``
builds the inputs and returns the operations (the obstruction files are
already in ``workdir``, written from ``inputs.input_files``), ``run``
performs one operation and returns its raw outcome, and ``check`` runs
after the timed pass.  It returns (failed, digest, problems, bits): the
number of operations that failed, a digest of every output, what was
wrong with the outputs of the others, and the total number of bits in
the tables the workload synthesized.

Checks compare against closed forms and the relation-level oracle,
never against stored output.  Every round of a run repeats the same
inputs, so exit codes are checked in every round and the full checks in
the first round only (``full``); the later rounds must produce the same
digest.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import inputs
from spdesc import (
    EMPTY,
    POINT,
    antichain_sum,
    avoiders_upto,
    brute_embed,
    chain_sum,
    enumerate_sp,
    from_json,
    generate_upto,
    load_obstruction_file,
    make_ideal,
    member,
    member_topdown,
    parse_term,
    synthesize,
    validate,
)

# Bound at which each described table's generated set is compared with
# the oracle's avoiders.  Obstructions larger than the bound embed into
# no term within it, so they are left out of the oracle call: the oracle
# checks its 9-point guard before its size shortcut and would refuse them.
DESCRIBE_CHECK_BOUND = 5

# The one operation that fails: the oracle's 9-point guard refuses the
# ten-point chain before its size shortcut, so this verify exits 2 with
# the guard's message.  Once that is fixed it must pass like the others.
KNOWN_FAILURE = "chain10"
KNOWN_FAILURE_TEXT = "capped at 9 points"

# The oracle's guard: the largest terms it compares.  Query verdicts on
# terms this small, and the tables of the sets in
# ``inputs.describe_deep``, are checked against it.
ORACLE_BOUND = 9


def table_bits(desc) -> int:
    return sum(len(entry.bits) for entry in desc.entries.values())


def _cli(api, argv):
    """One in-process CLI call; returns (exit code, captured output)."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        code = api["cli.main"](argv)
    return code, buf.getvalue()


class Verify:
    """`spdesc verify` over the catalog at size 9, the wide table at
    size 8, and the ten-point chain that the oracle guard refuses."""

    def setup(self, api, seed, workdir):
        self.api = api
        self.cases = [(name, os.path.join(workdir, f"{name}.txt"), bound)
                      for name, _, bound in inputs.verify_cases()]
        return [["verify", path, "--max-size", str(bound)] for _, path, bound in self.cases]

    def run(self, op):
        return _cli(self.api, op)

    def check(self, outcomes, full):
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        failed, problems = 0, []
        for (name, path, bound), (code, out) in zip(self.cases, outcomes):
            if name == KNOWN_FAILURE and code == 2 and KNOWN_FAILURE_TEXT in out:
                failed += 1
            elif code != 0 or not out.rstrip().endswith(f"equal up to size {bound}"):
                problems.append(f"verify {name}: exit {code}: {out.strip()[-200:]}")
        if not full:
            return failed, digest, problems, None
        bits = sum(table_bits(synthesize(load_obstruction_file(path)))
                   for _, path, _ in self.cases)
        counts = [0] * len(inputs.SP_COUNTS)
        for t in enumerate_sp(len(counts) - 1):
            counts[t.n_points] += 1
        if tuple(counts) != inputs.SP_COUNTS:
            problems.append(f"enumerate_sp counts {counts} are not A003430")
        n = len(counts) - 1
        for forbidden, build in (("C(*,*)", antichain_sum), ("A(*,*)", chain_sum)):
            desc = synthesize([parse_term(forbidden)])
            got = generate_upto(desc, desc.root, n).terms
            want = {EMPTY} | {build([POINT] * k) for k in range(1, n + 1)}
            if got != want:
                problems.append(f"{forbidden}-free members up to {n} are not one per size")
        desc = synthesize([parse_term("C(*,*,*)"), parse_term("A(*,*,*)")])
        big = [t.text for t in generate_upto(desc, desc.root, n).terms if t.n_points > 4]
        if big:
            problems.append(f"C(*,*,*),A(*,*,*)-free members above 4 points: {big[:3]}")
        return failed, digest, problems, bits


class Describe:
    """`spdesc describe --out` over the catalog and one drawn obstruction
    set per antichain sum of the family."""

    def setup(self, api, seed, workdir):
        self.api = api
        self.cases = []
        ops = []
        cases = inputs.describe_cases(seed)
        self.deep = inputs.describe_deep(seed, cases)
        for name, terms in cases:
            out = os.path.join(workdir, f"{name}.json")
            self.cases.append((name, terms, out))
            ops.append(["describe", os.path.join(workdir, f"{name}.txt"), "--out", out])
        return ops

    def run(self, op):
        return _cli(self.api, op)

    def check(self, outcomes, full):
        problems, bits = [], 0
        digest = hashlib.sha256()
        bound = DESCRIBE_CHECK_BOUND
        small_terms = list(enumerate_sp(ORACLE_BOUND)) if full else []
        for (name, terms, out), (code, text) in zip(self.cases, outcomes):
            digest.update(f"{code}:{text}".encode())
            if code != 0:
                problems.append(f"describe {name}: exit {code}: {text.strip()[-200:]}")
                continue
            with open(out, "r", encoding="utf-8") as fh:
                doc_text = fh.read()
            digest.update(doc_text.encode())
            if not full:
                continue
            doc = json.loads(doc_text)
            if any(bit["shape"] not in ("chain", "antichain") or len(bit["labels"]) != 2
                   for entry in doc["entries"] for bit in entry["bits"]):
                problems.append(f"describe {name}: a bit is not two-point")
            desc = from_json(doc_text)
            bits += table_bits(desc)
            forbidden = [parse_term(t) for t in terms]
            if desc.root != make_ideal(forbidden).key:
                problems.append(f"describe {name}: root {desc.root} is not the input ideal")
            issues = validate(desc)
            if issues:
                problems.append(f"describe {name}: {issues[:3]}")
                continue
            if any(member_topdown(desc, desc.root, f) for f in forbidden):
                problems.append(f"describe {name}: an obstruction is generated")
            want = set(avoiders_upto([f for f in forbidden if f.n_points <= bound], bound))
            if generate_upto(desc, desc.root, bound).terms != want:
                problems.append(f"describe {name}: generated set differs from avoiders at {bound}")
            if name in self.deep:
                # Up to the largest obstruction, or the guard if that is
                # smaller.  Asking the table about every term is several
                # times cheaper than generating its whole set that far.
                deep = min(ORACLE_BOUND, max(f.n_points for f in forbidden))
                want = set(avoiders_upto([f for f in forbidden if f.n_points <= deep], deep))
                if any(member_topdown(desc, desc.root, t) != (t in want)
                       for t in small_terms if t.n_points <= deep):
                    problems.append(f"describe {name}: members differ from avoiders at {deep}")
        return 0, digest.hexdigest(), problems, bits if full else None


class Queries:
    """`member_topdown` on a stream of random terms over the catalog's
    tables and the wide table, synthesized during set-up."""

    def setup(self, api, seed, workdir):
        self.api = api
        self.tables = []
        for terms in inputs.QUERY_TABLES:
            forbidden = [api["terms.parse_term"](t) for t in terms]
            self.tables.append((forbidden, api["synth.synthesize"](forbidden)))
        self.ops = [
            (table, api["terms.parse_term"](text))
            for table, text in inputs.query_stream(seed)
        ]
        return self.ops

    def run(self, op):
        table, term = op
        desc = self.tables[table][1]
        return self.api["closure.member_topdown"](desc, desc.root, term)

    def check(self, outcomes, full):
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        problems = []
        if not full:
            return 0, digest, problems, None
        ideals = [make_ideal(forbidden) for forbidden, _ in self.tables]
        for (table, term), verdict in zip(self.ops, outcomes):
            if verdict != member(ideals[table], term):
                problems.append(f"table {table}: member_topdown({term.text}) = {verdict}")
            elif term.n_points <= ORACLE_BOUND:
                brute = all(not brute_embed(f, term) for f in self.tables[table][0])
                if verdict != brute:
                    problems.append(f"table {table}: {term.text} disagrees with brute_embed")
        if set(outcomes) != {True, False}:
            problems.append(f"the stream has only {set(outcomes)} verdicts")
        bits = sum(table_bits(desc) for _, desc in self.tables)
        return 0, digest, problems, bits


WORKLOADS = {"verify": Verify, "describe": Describe, "queries": Queries}
