"""End-to-end command behavior: exit codes, output formats, flag handling."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from bicfrac.cli import run_command
from bicfrac.presentation import load_document
from bicfrac.core import validate_bicat
from test_fractions import count_law_checks

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURE_DIR = SRC / "bicfrac" / "fixtures"
TOY = str(FIXTURE_DIR / "appx-toy.json")
LOOPY = str(FIXTURE_DIR / "appx-toy-loopy.json")
ISO2 = str(FIXTURE_DIR / "iso2.json")
COLLAPSE = str(FIXTURE_DIR / "collapse-loop.json")


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, out


def machine(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "machine")
    return code, json.loads(out)


def test_validate_good_document(capsys):
    code, out = run(capsys, "validate", TOY)
    assert code == 0
    assert "PASS" in out
    code, doc = machine(capsys, "validate", TOY)
    assert code == 0
    assert doc["strict_flag"] is True and doc["components_identity"] is True


def test_validate_checks_a_declared_strict_flag(capsys, tmp_path):
    # The toy localized at W is lawful but has non-identity associators.
    frac = tmp_path / "frac.json"
    assert run_command(["localize", TOY, "--class", "W", "--out", str(frac)]) == 0
    data = json.loads(frac.read_text(encoding="utf-8"))
    assert data["strict"] is False
    data["strict"] = True
    frac.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    code, out = run(capsys, "validate", str(frac))
    assert code == 1
    assert "strict-flag at ()" in out


def test_validating_a_map_checks_the_laws_of_its_document_only(capsys, monkeypatch):
    # The map's target, `toyq`, is read from the document it refers to and
    # only its structure is the map's concern.
    checked = count_law_checks(monkeypatch)
    code, out = run(capsys, "validate", COLLAPSE)
    assert code == 0 and "PASS" in out
    assert [B.name for B in checked] == ["collapse-loop"]


def test_validate_missing_file_is_usage_error(capsys):
    code, out = run(capsys, "validate", str(FIXTURE_DIR / "no-such-doc.json"))
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    assert run_command(["validate", TOY, "--bogus-flag"]) == 2


def toy_with_vcomp(tmp_path, key: list[str], value: str) -> str:
    """A copy of the toy document with one ``vcomp`` value replaced."""
    data = json.loads(Path(TOY).read_text(encoding="utf-8"))
    next(r for r in data["vcomp"] if r[:2] == key)[2] = value
    path = tmp_path / "toy-edited.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_ill_typed_document_is_a_document_error(capsys, tmp_path):
    broken = toy_with_vcomp(tmp_path, ["loop", "loop"], "iv")  # wrong boundary
    for argv in (["validate"], ["check-bf", "--class", "W"], ["localize", "--class", "W"]):
        code = run_command([argv[0], broken, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.startswith("document error: vcomp[('loop', 'loop')]: ")
        assert "Traceback" not in captured.err


def document_error(capsys, path) -> str:
    """The message of a command that must end in a document error."""
    code = run_command(["validate", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("document error: ")
    return captured.err


def test_a_document_that_is_not_utf8_is_a_document_error(capsys, tmp_path):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert document_error(capsys, bad).startswith(
        f"document error: document {str(bad)!r} is not UTF-8 text at byte 0 ")
    # A referenced document is read the same way.
    (tmp_path / "toyq.json").write_bytes(b"\xff\xfe{}")
    referring = tmp_path / "collapse-loop.json"
    referring.write_text(Path(COLLAPSE).read_text(encoding="utf-8"), encoding="utf-8")
    assert f"{str(tmp_path / 'toyq.json')!r} is not UTF-8 text" in document_error(capsys, referring)


def test_deeply_nested_json_is_a_document_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    assert document_error(capsys, deep).startswith("document error: not valid JSON: ")


def test_well_typed_but_lawless_document_fails_validation(capsys, tmp_path):
    lawless = toy_with_vcomp(tmp_path, ["loop", "iB"], "iB")  # breaks loop ⊙ id = loop
    code, out = run(capsys, "validate", lawless)
    assert code == 1
    assert "hom-category:unit" in out
    code = run_command(["localize", lawless, "--class", "W"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("precondition violation: base bicategory violates: ")
    assert "hom-category:unit" in captured.err


def toy_with_bad_psfun(tmp_path) -> str:
    """The toy declaring ``bad``: its identity map, except that ``f2`` sends ``iB`` to ``loop``."""
    data = json.loads(Path(TOY).read_text(encoding="utf-8"))
    bad = json.loads(json.dumps(data["psfuns"][0]))
    bad["name"] = "bad"
    next(r for r in bad["f2"] if r[0] == "iB")[1] = "loop"
    data["psfuns"].append(bad)
    path = tmp_path / "toy-bad-map.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


FAMILIES = ("A", "B", "EF", "X", "all")


def test_a_lawless_document_is_never_passed(capsys, tmp_path):
    lawless = toy_with_vcomp(tmp_path, ["loop", "iB"], "iB")
    bad_map = toy_with_bad_psfun(tmp_path)
    at_w = ["--class-src", "W", "--class-tgt", "W"]
    broken = "hom-category:unit"
    for argv, code, law in [
        (["validate", lawless], 1, None),
        (["localize", lawless, "--class", "W"], 3, broken),
        (["check-bf", lawless, "--class", "W"], 3, broken),
        (["cross-validate", lawless, *at_w], 3, broken),
        *((["check", lawless, "--conditions", fam, "--psfun", "identity", *at_w], 3, broken)
          for fam in FAMILIES),
        (["check", bad_map, "--conditions", "A", "--psfun", "bad", *at_w], 3, "psfun:identities"),
        (["cross-validate", bad_map, "--psfun", "bad", *at_w], 3, "psfun:identities"),
        (["cross-validate", bad_map, "--psfun", "bad", "--class-src", "Wmin", "--class-tgt", "Wmin"],
         3, "psfun:identities"),
    ]:
        assert run_command(argv) == code, argv
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code == 3:
            assert captured.out == ""
            assert captured.err.startswith("precondition violation: ")
            assert " violates: " in captured.err and law in captured.err, argv


SWAPPED_FIXTURES = ("appx-toy", "appx-toy-loopy", "arrow2", "iso2")
TWO_CELL_TABLES = ("vcomp", "whisk_left", "whisk_right", "assoc", "runit", "lunit")


def one_swaps(name: str):
    """Each copy of a fixture with one 2-cell-valued row sent to another declared 2-cell.

    Yields ``(entry, doc)``, ``entry`` named as a document error names it.
    The rows are those of `TWO_CELL_TABLES` and the ``f2`` rows of each
    declared pseudofunctor, whose target is the document itself; a block
    with a swapped row is renamed ``swapped``, so no built-in ``--psfun``
    name hides it.
    """
    text = (FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8")
    data = json.loads(text)
    cells = [t[0] for t in data["two_cells"]]
    sites = [(None, table, i) for table in TWO_CELL_TABLES for i in range(len(data[table]))]
    sites += [(b, "f2", i) for b, block in enumerate(data.get("psfuns", []))
              for i in range(len(block["f2"]))]
    for b, table, i in sites:
        for cell in cells:
            doc = json.loads(text)
            owner = doc if b is None else doc["psfuns"][b]
            row = owner[table][i]
            if row[-1] == cell:
                continue
            row[-1] = cell
            key = row[0] if len(row) == 2 else tuple(row[:-1])
            if b is None:
                yield f"{table}[{key!r}]", doc
            else:
                owner["name"] = "swapped"
                yield f"psfuns[{b}].{table}[{key!r}]", doc


def test_no_command_passes_a_lawless_swap_of_a_fixture(capsys, tmp_path):
    """Every one-row swap: ill-typed ends in a document error, lawless is refused.

    ``saturate`` closes a class under ``hcomp1`` and presumes no law, so it
    is not among the commands that must refuse a lawless document.  Every
    command reads its document through one loader, so each ill-typed swap
    runs through ``validate`` and one class-taking command, in turn.
    """
    path = str(tmp_path / "swapped.json")
    at_w = ["--class-src", "W", "--class-tgt", "W"]
    loading = [
        ["check-bf", path, "--class", "W"],
        ["saturate", path, "--class", "W"],
        ["localize", path, "--class", "W"],
        ["check", path, "--conditions", "all", "--psfun", "identity", *at_w],
        ["cross-validate", path, *at_w],
    ]

    def checks(psfun):
        return [["check", path, "--conditions", fam, "--psfun", psfun, *at_w] for fam in FAMILIES]

    refusing = {
        "document": [
            *(argv for argv in loading if argv[0] in ("check-bf", "localize", "cross-validate")),
            *checks("identity"),
        ],
        "map": [["cross-validate", path, "--psfun", "swapped", *at_w], *checks("swapped")],
    }

    def run_quietly(argv):
        code = run_command(argv)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err, argv
        return code, captured

    kinds = Counter()
    for name in SWAPPED_FIXTURES:
        for entry, doc in one_swaps(name):
            Path(path).write_text(json.dumps(doc), encoding="utf-8")
            where = "map" if entry.startswith("psfuns") else "document"
            code, captured = run_quietly(["validate", path])
            kinds[where, code] += 1
            if code == 0:
                continue
            if code == 2:
                want = f"document error: {entry}: "
                assert captured.err.startswith(want), (name, entry, captured.err)
                argvs = [loading[sum(kinds.values()) % len(loading)]]
            else:
                assert code == 1, (name, entry)
                code, want, argvs = 3, "precondition violation: ", refusing[where]
            for argv in argvs:
                got, captured = run_quietly(argv)
                assert (got, captured.out) == (code, ""), (name, entry, argv)
                assert captured.err.startswith(want), (name, entry, argv, captured.err)
    assert kinds == {
        ("document", 2): 422, ("document", 1): 20, ("document", 0): 2,
        ("map", 2): 32, ("map", 1): 2, ("map", 0): 2,
    }


def test_check_bf_pass_and_fail(capsys):
    code, out = run(capsys, "check-bf", TOY, "--class", "W")
    assert code == 0
    code, out = run(capsys, "check-bf", TOY, "--class", "WnoId")
    assert code == 1
    assert "BF1" in out
    code, out = run(capsys, "check-bf", TOY, "--class", "nope")
    assert code == 2


def test_saturate_always_succeeds(capsys):
    code, out = run(capsys, "saturate", TOY, "--class", "Wmin")
    assert code == 0
    assert "idA" in out and "idB" in out


def test_saturate_machine_output(capsys):
    code, doc = machine(capsys, "saturate", TOY, "--class", "Wmin")
    assert code == 0
    assert sorted(doc["members"]) == ["idA", "idB"]
    assert set(doc["witnesses"]) <= set(doc["members"])


def test_localize_writes_valid_document(capsys, tmp_path):
    out_path = tmp_path / "frac.json"
    code, _ = run(capsys, "localize", TOY, "--class", "W", "--out", str(out_path))
    assert code == 0
    doc = load_document(str(out_path))
    assert validate_bicat(doc.bicat).passed
    assert not doc.bicat.strict


def test_a_closed_output_pipe_ends_the_command_quietly(capsys, tmp_path):
    frac = tmp_path / "frac.json"
    assert run_command(["localize", TOY, "--class", "W", "--out", str(frac)]) == 0
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bicfrac", "validate", str(frac), "--format", "machine"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (1, "")


def test_localize_rejects_bad_class(capsys):
    code = run_command(["localize", TOY, "--class", "WnoId"])
    err = capsys.readouterr().err
    assert code == 3
    assert "precondition violation" in err and "BF1" in err


def test_check_ef_on_universal_map_fails(capsys):
    code, out = run(capsys, "check", TOY, "--conditions", "EF", "--psfun", "UW")
    assert code == 1
    assert "EF3" in out and "FAIL" in out


def test_check_b_on_universal_map_passes(capsys):
    code, out = run(capsys, "check", TOY, "--conditions", "B", "--psfun", "UW")
    assert code == 0
    for tag in ("B1", "B2", "B3", "B4", "B5"):
        assert tag in out


def test_check_b_on_identity_hits_precondition(capsys):
    code = run_command(["check", TOY, "--conditions", "B", "--psfun", "identity"])
    err = capsys.readouterr().err
    assert code == 3
    assert "precondition violation" in err and "internal equivalence" in err


def test_check_a_identity_full_class(capsys):
    code, out = run(
        capsys, "check", TOY, "--conditions", "A", "--psfun", "identity",
        "--class-src", "W", "--class-tgt", "W",
    )
    assert code == 0


def test_check_a_machine_payload_shape(capsys):
    code, doc = machine(
        capsys, "check", TOY, "--conditions", "A", "--psfun", "identity",
        "--class-src", "Wmin", "--class-tgt", "W",
    )
    assert code == 1
    tags = [r["tag"] for r in doc["reports"]]
    assert tags == ["A1", "A2", "A3", "A4", "A5"]
    by_tag = {r["tag"]: r for r in doc["reports"]}
    assert by_tag["A2"]["holds"] is False
    assert by_tag["A2"]["counterexample"] == ["A", "B", "A", "idA", "v"]
    assert by_tag["A4"]["holds"] is False
    assert by_tag["A4"]["counterexample"] == ["iB", "loop", "v"]
    assert by_tag["A1"]["holds"] is True
    assert isinstance(by_tag["A1"]["examined"], int)
    assert doc["passed"] is False


def test_check_x_flags_the_collapse(capsys):
    code, out = run(capsys, "check", COLLAPSE, "--conditions", "X", "--psfun", "collapse")
    assert code == 1
    assert "X2b" in out and "('iB', 'loop')" in out


def test_check_all_families_on_iso2(capsys):
    code, out = run(
        capsys, "check", ISO2, "--conditions", "all", "--psfun", "identity",
        "--class-src", "W", "--class-tgt", "W",
    )
    assert code == 0
    for tag in ("A1", "B1", "EF1", "X1"):
        assert tag in out


def test_cross_validate_exit_and_output(capsys):
    code, out = run(
        capsys, "cross-validate", TOY, "--psfun", "identity",
        "--class-src", "W", "--class-tgt", "Wmin",
    )
    assert code == 0
    assert "lift-biconditional" in out


def test_cross_validate_machine(capsys):
    code, doc = machine(
        capsys, "cross-validate", TOY, "--psfun", "identity",
        "--class-src", "W", "--class-tgt", "W",
    )
    assert code == 0
    one = doc["files"][0]
    names = [s["name"] for s in one["subchecks"]]
    assert "lift-biconditional" in names
    assert one["findings"] == []
    assert one["passed"] is True


def test_demo_appendix_toy(capsys):
    code, out = run(capsys, "demo", "appendix-toy")
    assert code == 0
    for needle in ("closure", "EF3", "B1", "identical"):
        assert needle in out, needle


def test_demo_machine(capsys):
    code, doc = machine(capsys, "demo", "appendix-toy")
    assert code == 0
    assert doc["passed"] is True
    assert len(doc["facts"]) == 5
    assert all(f["passed"] for f in doc["facts"])


def test_loopy_variant_same_condition_verdicts(capsys):
    _, a = machine(capsys, "check", TOY, "--conditions", "EF", "--psfun", "UW")
    _, b = machine(capsys, "check", LOOPY, "--conditions", "EF", "--psfun", "UW")
    assert [r["holds"] for r in a["reports"]] == [r["holds"] for r in b["reports"]]
