"""End-to-end command behavior: exit codes, output formats, flag handling."""

import json
from pathlib import Path

from bicfrac.cli import run_command
from bicfrac.presentation import load_document
from bicfrac.core import validate_bicat
from test_fractions import count_law_checks

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "bicfrac" / "fixtures"
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
