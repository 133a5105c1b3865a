"""Parsing, exporting, and round-tripping the JSON document format."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bicfrac.builders import (
    appendix_toy,
    collapse_loop,
    point_into_discrete2,
    toy_classes,
    toyq,
)
from bicfrac.cli import fixture_text
from bicfrac.fractions import materialize_fractions
from bicfrac.presentation import (
    Presentation,
    PresentationError,
    export_presentation,
    load_document,
    parse_presentation,
)
from bicfrac.psfun import identity_psfun, validate_psfun
from bicfrac.wclass import check_bf


FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "bicfrac" / "fixtures"


def roundtrip(pres: Presentation) -> Presentation:
    return parse_presentation(export_presentation(pres))


def test_toy_roundtrip_is_exact():
    B = appendix_toy()
    pres = Presentation(
        bicat=B,
        classes=dict(toy_classes(B)),
        psfuns={"identity": identity_psfun(B)},
        name="appx-toy",
    )
    back = roundtrip(pres)
    assert back.bicat == B
    assert back.classes.keys() == pres.classes.keys()
    for k in pres.classes:
        assert back.classes[k].members == pres.classes[k].members
    assert back.psfuns["identity"] == pres.psfuns["identity"]
    # A second pass has to produce identical bytes.
    assert export_presentation(back) == export_presentation(pres)


def test_materialized_localization_roundtrips():
    B = appendix_toy()
    loc = materialize_fractions(B, toy_classes(B)["W"])
    pres = Presentation(bicat=loc.bicat, classes={}, psfuns={}, name="toy-frac")
    back = roundtrip(pres)
    assert back.bicat == loc.bicat


def test_fixture_documents_resolve_psfun_references():
    doc = load_document(FIXTURE_DIR / "collapse-loop.json")
    F = doc.psfuns["collapse"]
    assert validate_psfun(F).passed
    B = appendix_toy()
    assert F == collapse_loop(B, toyq())

    doc = load_document(FIXTURE_DIR / "point-into-discrete2.json")
    F = doc.psfuns["point"]
    assert validate_psfun(F).passed
    from bicfrac.builders import discrete2, trivial_one

    assert F.f0 == point_into_discrete2(trivial_one(), discrete2()).f0


def test_all_shipped_fixtures_parse_and_validate():
    from bicfrac.core import validate_bicat

    paths = sorted(FIXTURE_DIR.glob("*.json"))
    assert paths, f"no fixture documents in {FIXTURE_DIR}"
    for path in paths:
        doc = load_document(path)
        assert validate_bicat(doc.bicat).passed, path
        for F in doc.psfuns.values():
            assert validate_psfun(F).passed, path
        for cls in doc.classes.values():
            assert cls.members <= {c.id for c in doc.bicat.one_cells}


def test_classes_survive_roundtrip_through_bf_checker():
    text = fixture_text("appx-toy")
    doc = parse_presentation(text)
    assert check_bf(doc.bicat, doc.classes["W"]).passed


def mutate(edit):
    data = json.loads(fixture_text("appx-toy"))
    edit(data)
    return json.dumps(data)


def set_row(rows, key, value):
    """Replace the value of the table row whose key columns are ``key``."""
    next(r for r in rows if r[:-1] == key)[-1] = value


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (lambda d: d["one_cells"].append(["v", "A", "B"]), "duplicate id"),
        (lambda d: d["two_cells"].append(["bad", "idB", "idB"]), "missing entry"),
        (lambda d: d["vcomp"].pop(), "missing entry"),
        (lambda d: d["hcomp1"].append(["v", "ghost", "v"]), "undeclared"),
        (lambda d: d.pop("runit"), "runit"),
        (lambda d: d["id1"].pop(), "missing entry"),
        (lambda d: d["psfuns"][0]["f1"].pop(), "missing entry"),
        (lambda d: d["classes"].update(W=["v", "nope"]), "undeclared"),
        (
            lambda d: set_row(d["hcomp1"], ["v", "idA"], "idB"),
            "hcomp1[('v', 'idA')]: value 'idB' has wrong endpoints",
        ),
        (
            lambda d: set_row(d["vcomp"], ["loop", "loop"], "iv"),
            "vcomp[('loop', 'loop')]: value 'iv' has wrong boundary",
        ),
        (
            lambda d: d["hcomp1"].append(["v", "v", "v"]),
            "hcomp1[('v', 'v')]: extra entry: not a composable pair",
        ),
        (
            lambda d: set_row(d["psfuns"][0]["psi"], ["idB", "v"], "iB"),
            "psfuns[0].psi[('idB', 'v')]: value 'iB' has wrong boundary",
        ),
        (
            lambda d: d["psfuns"][0]["f1"].append(["ghost", "v"]),
            "psfuns[0].f1['ghost']: extra entry: not a source 1-cell",
        ),
    ],
)
def test_parser_names_the_broken_entry(edit, fragment):
    with pytest.raises(PresentationError, match=re.escape(fragment)):
        parse_presentation(mutate(edit))


def test_parser_rejects_non_json_and_wrong_shapes():
    with pytest.raises(PresentationError, match="JSON"):
        parse_presentation("not json {")
    with pytest.raises(PresentationError, match="object"):
        parse_presentation("[1, 2]")
    with pytest.raises(PresentationError, match="objects"):
        parse_presentation("{}")


def test_external_psfun_reference_requires_file_location():
    text = fixture_text("collapse-loop")
    with pytest.raises(PresentationError, match="file location"):
        parse_presentation(text)


def test_committed_fixtures_match_the_builders():
    script = Path(__file__).resolve().parents[1] / "scripts" / "gen_fixtures.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--check"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
