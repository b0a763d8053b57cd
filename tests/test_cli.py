"""Command-line front end tests.

Core claims:
    - describe emits a deterministic JSON document (and optional DOT);
      an unwritable --dot exits 2 with nothing written to stdout or --out,
      and so do --out and --dot naming one file
    - verify exits 0 on equality and 1 on mismatch, with witness lines;
      a --doc building forbidden orders prints them as extra witnesses;
      an invalid or foreign --doc exits 2; a layer forbidding a
      five-component antichain sum verifies
    - member prints true/false, also on flat terms of 1,200 parts;
      enumerate lists canonical terms and refuses a negative size
    - show pretty-prints entries with ranks, also tables deeper than the
      interpreter's recursion limit, and rejects an invalid
      document with exit 2, as verify --doc does, one with an entry for
      the improper ideal or a label that is no canonical ideal key
      among them; the leaf labels ``0`` and ``*`` still load
    - degenerate ideals and bad input (over-deep terms included) exit 2
      with a diagnostic on stderr, and so do synthesis over the fold's
      pair budget, a removed flag, enumeration past its size cap and
      describing a flat sum too long for the interpreter's recursion
      limit
    - the parser is built once and keeps no state between calls: a
      describe repeated after a usage error, --help and a verify prints
      the same, and main never rebuilds it
    - ``python -m spdesc`` in a fresh interpreter prints what the
      in-process main prints, and exits 2 with empty stdout on a bad flag
      and on a verify bound past the oracle's guard
    - the README's CLI example prints what the README shows
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from spdesc import cli, from_json, synth
from spdesc.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
README = ROOT / "README.md"


def chain(k):
    """The text of the chain of ``k`` points."""
    return "C(" + ",".join(["*"] * k) + ")"


# A document whose one entry is the improper ideal of all SP orders.
IMPROPER_DOC = '{"root": "", "entries": [{"ideal": [], "bits": []}]}'


@pytest.fixture
def obstruction_file(tmp_path):
    def write(name, body):
        path = tmp_path / name
        path.write_text(body, encoding="utf-8")
        return str(path)

    return write


class TestDescribe:
    def test_json_to_stdout(self, obstruction_file, capsys):
        path = obstruction_file("diamond.txt", "# diamond\nC(*,A(*,*),*)\n")
        assert main(["describe", path]) == 0
        out = capsys.readouterr().out
        desc = from_json(out)
        assert desc.root == "C(*,A(*,*),*)"
        assert len(desc.entries) == 4

    def test_byte_identical_runs(self, obstruction_file, capsys):
        path = obstruction_file("f.txt", "C(*,*,*)\nA(*,*,*)\n")
        assert main(["describe", path]) == 0
        first = capsys.readouterr().out
        assert main(["describe", path]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_out_and_dot_files(self, obstruction_file, tmp_path, capsys):
        path = obstruction_file("f.txt", "C(*,*,*)\n")
        out = tmp_path / "doc.json"
        dot = tmp_path / "doc.dot"
        assert main(["describe", path, "--out", str(out), "--dot", str(dot)]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert doc["root"] == "C(*,*,*)"
        assert dot.read_text().startswith("digraph")

    def test_unwritable_dot_writes_nothing(self, obstruction_file, tmp_path, capsys):
        path = obstruction_file("c3.txt", "C(*,*,*)\n")
        dot = str(tmp_path / "missing" / "x.dot")
        assert main(["describe", path, "--dot", dot]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
        out = tmp_path / "doc.json"
        assert main(["describe", path, "--out", str(out), "--dot", dot]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_out_and_dot_naming_one_file_exit_2(self, obstruction_file, tmp_path, capsys):
        # The DOT text used to overwrite the start of the JSON document.
        path = obstruction_file("diamond.txt", "C(*,A(*,*),*)\n")
        doc = tmp_path / "doc.json"
        assert main(["describe", path, "--out", str(doc), "--dot", str(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "same file" in captured.err
        assert not doc.exists()
        doc.write_text("kept", encoding="utf-8")
        other = os.path.join(str(tmp_path), ".", "doc.json")
        assert main(["describe", path, "--out", other, "--dot", str(doc)]) == 2
        assert doc.read_text(encoding="utf-8") == "kept"

    def test_trivial_ideal_exits_2(self, obstruction_file, capsys):
        path = obstruction_file("point.txt", "*\n")
        assert main(["describe", path]) == 2
        err = capsys.readouterr().err
        assert "trivial ideal" in err

    def test_void_ideal_exits_2(self, obstruction_file, capsys):
        path = obstruction_file("empty.txt", "0\n")
        assert main(["describe", path]) == 2
        assert "void ideal" in capsys.readouterr().err

    def test_bad_term_exits_2(self, obstruction_file, capsys):
        path = obstruction_file("bad.txt", "C(*\n")
        assert main(["describe", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["describe", "/nonexistent/f.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_outcome_budget_exits_2(self, obstruction_file, capsys, monkeypatch):
        path = obstruction_file("w4.txt", "A(*,C(*,*),C(*,*,*),C(*,A(*,*)))\n")
        # Entries memoized by an earlier describe would skip their folds.
        synth._entry.cache_clear()
        monkeypatch.setattr(synth, "MAX_FOLD_PAIRS", 4)
        assert main(["describe", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "more than 4 cell pairs" in captured.err

    def test_long_flat_antichain_exits_2(self, obstruction_file, capsys):
        path = obstruction_file("a600.txt", "A(" + ",".join("*" * 600) + ")\n")
        assert main(["describe", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input too large" in captured.err

    def test_removed_flag_is_a_usage_error(self, obstruction_file, capsys):
        path = obstruction_file("a5.txt", "A(*,*,*,*,*)\n")
        with pytest.raises(SystemExit) as exc:
            main(["describe", path, "--max-block", "4"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --max-block 4" in captured.err


class TestVerify:
    def test_equal_exits_0(self, obstruction_file, capsys):
        path = obstruction_file("f.txt", "C(*,A(*,*),*)\n")
        assert main(["verify", path, "--max-size", "6"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("equal up to size 6")

    def test_corrupted_doc_exits_1_with_witnesses(self, obstruction_file, tmp_path, capsys):
        path = obstruction_file("f.txt", "C(*,*,*)\n")
        out = tmp_path / "doc.json"
        assert main(["describe", path, "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        for entry in doc["entries"]:
            if entry["ideal"] == ["C(*,*,*)"]:
                entry["bits"] = [b for b in entry["bits"] if b["shape"] != "chain"]
        out.write_text(json.dumps(doc))
        assert main(["verify", path, "--max-size", "5", "--doc", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("missing ") for line in lines)
        assert "MISMATCH" in lines[-1]

    def test_doc_building_forbidden_orders_exits_1_with_extra_witnesses(
        self, obstruction_file, tmp_path, capsys
    ):
        # The one bit stacks any two built orders, so it builds every
        # chain: the forbidden ones are extra, every antichain missing.
        path = obstruction_file("f.txt", "C(*,*,*)\n")
        doc = tmp_path / "chains.json"
        doc.write_text(
            '{"root": "C(*,*,*)", "entries": [{"ideal": ["C(*,*,*)"],'
            ' "bits": [{"shape": "chain", "labels": ["R", "R"]}]}]}'
        )
        assert main(["verify", path, "--max-size", "4", "--doc", str(doc)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("extra ")] == [
            "extra C(*,*,*)",
            "extra C(*,*,*,*)",
        ]
        assert lines[-1] == "MISMATCH up to size 4: 13 missing, 2 extra"

    def test_invalid_doc_exits_2(self, obstruction_file, tmp_path, capsys):
        path = obstruction_file("f.txt", "C(*,*)\n")
        doc = tmp_path / "cyclic.json"
        doc.write_text(
            '{"root": "C(*,*)", "entries": [{"ideal": ["C(*,*)"],'
            ' "bits": [{"shape": "antichain", "labels": ["C(*,*)", "R"]}]}]}'
        )
        assert main(["verify", path, "--max-size", "6", "--doc", str(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid description" in captured.err
        assert "not strictly contained" in captured.err

    def test_improper_entry_doc_exits_2(self, obstruction_file, tmp_path, capsys):
        path = obstruction_file("empty.txt", "")
        doc = tmp_path / "improper.json"
        doc.write_text(IMPROPER_DOC)
        assert main(["verify", path, "--max-size", "3", "--doc", str(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "entry '': improper ideal" in captured.err

    def test_foreign_doc_exits_2(self, obstruction_file, tmp_path, capsys):
        path = obstruction_file("f.txt", "C(*,*)\n")
        other = obstruction_file("g.txt", "A(*,*)\n")
        doc = tmp_path / "doc.json"
        assert main(["describe", other, "--out", str(doc)]) == 0
        assert main(["verify", path, "--max-size", "6", "--doc", str(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not the obstruction file's ideal" in captured.err

    def test_obstruction_above_the_oracle_guard(self, obstruction_file, capsys):
        path = obstruction_file("chain10.txt", "C(" + ",".join("*" * 10) + ")\n")
        assert main(["verify", path, "--max-size", "6"]) == 0
        assert capsys.readouterr().out.strip().endswith("equal up to size 6")

    def test_five_component_layer_verifies(self, obstruction_file, capsys):
        path = obstruction_file("f.txt", "C(*,A(*,*,*,*,*))\n")
        assert main(["verify", path, "--max-size", "9"]) == 0
        assert capsys.readouterr().out.strip().endswith("equal up to size 9")


class TestMember:
    def test_true(self, obstruction_file, capsys):
        path = obstruction_file("a2.txt", "A(*,*)\n")
        assert main(["member", path, "C(*,*,*)"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_false(self, obstruction_file, capsys):
        path = obstruction_file("a2.txt", "A(*,*)\n")
        assert main(["member", path, "A(*,C(*,*))"]) == 0
        assert capsys.readouterr().out == "false\n"

    def test_bad_term_exits_2(self, obstruction_file, capsys):
        path = obstruction_file("a2.txt", "A(*,*)\n")
        assert main(["member", path, "C(*"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_over_deep_term_exits_2(self, obstruction_file, capsys):
        path = obstruction_file("a2.txt", "A(*,*)\n")
        term = "*"
        for level in range(500):
            term = ("C" if level % 2 else "A") + "(*," + term + ")"
        assert main(["member", path, term]) == 2
        assert "nested more than" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "obstruction, term, verdict",
        [
            ("C(A(*,*),*)", "C(" + ",".join("*" * 1200) + ")", "true"),
            ("A(C(*,*),C(*,*))", "A(" + ",".join("*" * 1200) + ")", "true"),
            ("A(" + ",".join("*" * 700) + ")", "A(" + ",".join("*" * 1200) + ")", "false"),
            ("A(" + ",".join("*" * 700) + ")", "A(" + ",".join("*" * 600) + ")", "true"),
        ],
        ids=["chain", "antichain", "flat-obstruction-inside", "flat-obstruction-too-large"],
    )
    def test_long_flat_term_is_answered(
        self, obstruction_file, capsys, obstruction, term, verdict
    ):
        # The suborder test loops over the host's layers and components,
        # and places an antichain sum's components by a loop over the
        # host's signatures, so flat sums of hundreds of parts cost no
        # stack depth.
        path = obstruction_file("o.txt", obstruction + "\n")
        assert main(["member", path, term]) == 0
        assert capsys.readouterr().out == verdict + "\n"


class TestEnumerate:
    def test_lists_terms(self, capsys):
        assert main(["enumerate", "--max-size", "2"]) == 0
        assert capsys.readouterr().out == "0\n*\nC(*,*)\nA(*,*)\n"

    def test_past_the_size_cap_exits_2(self, capsys):
        assert main(["enumerate", "--max-size", "12"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cap of 11 points" in captured.err

    def test_negative_size_exits_2(self, capsys):
        assert main(["enumerate", "--max-size", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "size bound must be nonnegative" in captured.err


class TestShow:
    def test_prints_entries_and_ranks(self, obstruction_file, tmp_path, capsys):
        path = obstruction_file("f.txt", "C(*,A(*,*),*)\n")
        out = tmp_path / "doc.json"
        assert main(["describe", path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["show", str(out)]) == 0
        text = capsys.readouterr().out
        assert text.startswith("root C(*,A(*,*),*)")
        assert "entry A(*,*)  (rank 1)" in text
        assert "entry C(*,A(*,*),*)  (rank 3)" in text

    def test_entries_ranked_past_the_recursion_limit(self, tmp_path, capsys):
        # Each C(*^k), k = 3..1100, builds on C(*^(k-1)), so the root's
        # rank is deeper than the interpreter's recursion limit.
        entries = [{"ideal": [chain(2)], "bits": [{"shape": "antichain", "labels": ["R", "R"]}]}]
        entries += [
            {"ideal": [chain(k)], "bits": [{"shape": "chain", "labels": [chain(k - 1), "R"]}]}
            for k in range(3, 1101)
        ]
        doc = tmp_path / "deep.json"
        doc.write_text(json.dumps({"root": chain(1100), "entries": entries}))
        assert main(["show", str(doc)]) == 0
        text = capsys.readouterr().out
        assert text.count("\nentry ") == 1099
        assert f"\nentry {chain(1100)}  (rank 1099)\n" in text

    def test_first_key_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        # The chains, A(*,*), sort first and label the chains of fewer
        # than 1100 points; each of those labels the next shorter ones,
        # so validation walks 1,099 entries deep from its first key.
        def key(k):
            return "A(*,*)|C(*,*)" if k == 2 else chain(k) + "|A(*,*)"

        entries = [{"ideal": ["A(*,*)"], "bits": [{"shape": "chain", "labels": [key(1100), "R"]}]}]
        entries.append({"ideal": key(2).split("|"), "bits": []})
        entries += [
            {"ideal": key(k).split("|"), "bits": [{"shape": "chain", "labels": [key(k - 1), "R"]}]}
            for k in range(3, 1101)
        ]
        doc = tmp_path / "deep.json"
        doc.write_text(json.dumps({"root": "A(*,*)", "entries": entries}))
        assert main(["show", str(doc)]) == 0
        text = capsys.readouterr().out
        assert text.count("\nentry ") == 1100
        assert "\nentry A(*,*)  (rank 1099)\n" in text

    def test_bad_doc_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"root": "x", "entries": [], "extra": 1}')
        assert main(["show", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_root_entry_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "rootless.json"
        doc.write_text(
            '{"root": "C(*,*,*)", "entries": [{"ideal": ["C(*,*)"],'
            ' "bits": [{"shape": "antichain", "labels": ["R", "R"]}]}]}'
        )
        assert main(["show", str(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid description" in captured.err
        assert "root" in captured.err

    def test_improper_entry_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "improper.json"
        doc.write_text(IMPROPER_DOC)
        assert main(["show", str(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "entry '': improper ideal" in captured.err

    def test_unresolved_label_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "dangling.json"
        doc.write_text(
            '{"root": "C(*,*,*)", "entries": [{"ideal": ["C(*,*,*)"],'
            ' "bits": [{"shape": "chain", "labels": ["A(*,*)", "R"]}]}]}'
        )
        assert main(["show", str(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid description" in captured.err
        assert "does not resolve" in captured.err


    @pytest.mark.parametrize("label", ["", "C(*, *)", "A(*,*)|A(*,*,*)", "X"])
    def test_label_that_is_no_canonical_key_exits_2(
        self, label, obstruction_file, tmp_path, capsys
    ):
        path = obstruction_file("f.txt", "C(*,A(*,*),*)\n")
        out = tmp_path / "doc.json"
        assert main(["describe", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        (entry,) = [e for e in doc["entries"] if e["ideal"] == ["C(*,A(*,*))"]]
        (bit,) = [b for b in entry["bits"] if b["labels"] == ["R", "A(*,*)"]]
        bit["labels"][1] = label
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["show", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert main(["verify", path, "--max-size", "4", "--doc", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_entry_that_is_no_canonical_spelling_exits_2(
        self, obstruction_file, tmp_path, capsys
    ):
        path = obstruction_file("f.txt", "C(*,A(*,*),*)\n")
        out = tmp_path / "doc.json"
        assert main(["describe", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        (entry,) = [e for e in doc["entries"] if e["ideal"] == ["A(*,*)"]]
        entry["ideal"] = ["A(*, *)", "A(*,*,*)"]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["show", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert main(["verify", path, "--max-size", "6", "--doc", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "canonical obstruction list" in captured.err

    def test_leaf_labels_load(self, tmp_path, capsys):
        doc = tmp_path / "leaves.json"
        doc.write_text(
            '{"root": "C(*,*,*)", "entries": [{"ideal": ["C(*,*,*)"], "bits": ['
            '{"shape": "chain", "labels": ["0", "R"]},'
            ' {"shape": "chain", "labels": ["*", "*"]}]}]}'
        )
        assert main(["show", str(doc)]) == 0
        assert capsys.readouterr().out == (
            "root C(*,*,*)\nentry C(*,*,*)  (rank 1)\n  chain: * | *\n  chain: 0 | R\n"
        )


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestSharedParser:
    @staticmethod
    def run(argv, capsys):
        """Exit code, stdout and stderr of one in-process call."""
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_no_state_carries_between_calls(self, obstruction_file, capsys):
        path = obstruction_file("diamond.txt", "C(*,A(*,*),*)\n")
        first = self.run(["describe", path], capsys)
        assert first[0] == 0 and from_json(first[1]).root == "C(*,A(*,*),*)"
        code, out, err = self.run(["describe", path, "--bogus"], capsys)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --bogus" in err
        code, out, _ = self.run(["--help"], capsys)
        assert code == 0 and out.startswith("usage: spdesc")
        code, out, _ = self.run(["verify", path, "--max-size", "5"], capsys)
        assert code == 0 and out.strip().endswith("equal up to size 5")
        assert self.run(["describe", path], capsys) == first

    def test_main_does_not_rebuild_the_parser(self, obstruction_file, capsys, monkeypatch):
        def rebuild():
            raise AssertionError("the parser was rebuilt")

        monkeypatch.setattr(cli, "_build_parser", rebuild)
        path = obstruction_file("diamond.txt", "C(*,A(*,*),*)\n")
        assert main(["describe", path]) == 0
        assert from_json(capsys.readouterr().out).root == "C(*,A(*,*),*)"


def test_module_entry_point_in_a_fresh_interpreter(obstruction_file, capsys):
    path = obstruction_file("diamond.txt", "C(*,A(*,*),*)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    command = [sys.executable, "-m", "spdesc", "describe", path]
    proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
    assert main(["describe", path]) == 0
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == capsys.readouterr().out
    proc = subprocess.run(command + ["--bogus"], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "unrecognized arguments: --bogus" in proc.stderr
    command = [sys.executable, "-m", "spdesc", "verify", path, "--max-size", "10"]
    proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "avoider enumeration is capped at size 9" in proc.stderr


def readme_cli_example() -> list:
    """The README's CLI example as ``(argv, printed lines)`` pairs, one
    per ``$`` line of the indented block after "Example:"."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("Example:\n\n", 1)[1].split("\n\n", 1)[0]
    steps = []
    for line in block.splitlines():
        line = line.removeprefix("    ")
        if line.startswith("$ "):
            steps.append((shlex.split(line[2:]), []))
        else:
            steps[-1][1].append(line)
    return steps


def test_readme_cli_example(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv, printed in readme_cli_example():
        if argv[0] == "printf":
            text, redirect, path = argv[1:]
            assert (redirect, printed) == (">", [])
            Path(path).write_text(text.replace("\\n", "\n"), encoding="utf-8")
            continue
        assert argv[0] == "spdesc"
        assert main(argv[1:]) == 0
        assert capsys.readouterr().out.splitlines() == printed, argv
        ran.append(argv[1])
    assert ran == ["verify", "member"]
