"""Parsing, exporting, and round-tripping the JSON document format."""

import copy
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterable

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
from bicfrac.wclass import WClass, check_bf


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


# -- the reader's messages, pinned -------------------------------------------

TOY_TABLES = (
    "one_cells", "two_cells", "id1", "id2", "hcomp1", "vcomp",
    "whisk_left", "whisk_right", "assoc", "runit", "lunit",
)
TOY_PSFUN_TABLES = ("f0", "f1", "f2", "psi", "sigma")


def row_mutations(rows: list) -> Iterable:
    """``(label, edit)`` pairs that break one row of ``rows`` each.

    The first, middle and last rows are each replaced by a string, lose
    their last cell, gain a cell, have one cell set to ``7``, ``null`` or
    ``[]``, or are followed by a copy whose value differs.  One more edit
    appends both a duplicate of the first key and a malformed row.
    """
    other = next((r[-1] for r in rows if r[-1] != rows[0][-1]), "ghost")
    for i in sorted({0, len(rows) // 2, len(rows) - 1}):
        row = rows[i]
        yield f"[{i}] string", lambda t, i=i: t.__setitem__(i, "x")
        yield f"[{i}] short", lambda t, i=i, r=row: t.__setitem__(i, r[:-1])
        yield f"[{i}] long", lambda t, i=i, r=row: t.__setitem__(i, [*r, r[-1]])
        for j in range(len(row)):
            for bad in (7, None, []):
                yield (
                    f"[{i}][{j}] = {bad!r}",
                    lambda t, i=i, j=j, r=row, bad=bad: t.__setitem__(
                        i, [*r[:j], bad, *r[j + 1:]]),
                )
        value = other if row[-1] != other else rows[0][-1]
        yield f"[{i}] duplicated", lambda t, i=i, r=row, v=value: t.insert(i + 1, [*r[:-1], v])
    # A malformed row is named before an earlier duplicate key.
    yield "[0] duplicated, [-1] string", lambda t: t.extend(([*rows[0][:-1], other], "x"))


def list_mutations(items: list) -> Iterable:
    """``(label, edit)`` pairs that break one entry of a list of ids each."""
    for i in sorted({0, len(items) // 2, len(items) - 1}):
        for bad in (7, None, []):
            yield f"[{i}] = {bad!r}", lambda t, i=i, bad=bad: t.__setitem__(i, bad)
        yield f"[{i}] duplicated", lambda t, i=i, x=items[i]: t.insert(i + 1, x)


def reader_outcomes() -> list[str]:
    """The reader's verdict on each single mutation of the toy document.

    A verdict is the `PresentationError` message, or ``parsed``.
    """
    base = json.loads(fixture_text("appx-toy"))
    # (name, the dict holding the list, its key) for each list edited
    tables = [(key, lambda d: d, key) for key in TOY_TABLES]
    tables += [(f"psfuns[0].{key}", lambda d: d["psfuns"][0], key) for key in TOY_PSFUN_TABLES]
    id_lists = [("objects", lambda d: d, "objects")]
    id_lists += [(f"classes.{c}", lambda d: d["classes"], c) for c in base["classes"]]

    def verdict(edit) -> str:
        data = copy.deepcopy(base)
        edit(data)
        try:
            parse_presentation(json.dumps(data))
        except PresentationError as e:
            return str(e)
        return "parsed"

    outcomes = []
    for lists, mutations in ((tables, row_mutations), (id_lists, list_mutations)):
        for where, holder, key in lists:
            for label, edit in mutations(holder(base)[key]):
                outcomes.append(f"{where}{label}\t{verdict(lambda d: edit(holder(d)[key]))}")
    for where, holder, key in tables:
        outcomes.append(f"{where} = {{}}\t{verdict(lambda d: holder(d).__setitem__(key, {}))}")
    return outcomes


READER_MESSAGES_DIGEST = "e66e85a222a09a822af41187692432a9dc33335d28dd2d61800deff006ae37b7"


def test_reader_messages_match_the_pinned_digest():
    """Every malformed row, duplicate key and wrong shape keeps its message."""
    outcomes = reader_outcomes()
    assert len(outcomes) == 599
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == READER_MESSAGES_DIGEST


# -- one object per cell id ---------------------------------------------------


def document_strings(pres: Presentation) -> list[str]:
    """Every id string a parsed document holds, one entry per occurrence.

    Tables of a pseudofunctor block count on the sides that are ``"self"``:
    keys when its source is, values when its target is.
    """
    B = pres.bicat
    out = [*B.objects, *B.id1, *B.id2, *B.runit, *B.lunit]
    for cell in (*B.one_cells, *B.two_cells):
        out += [cell.id, cell.src, cell.tgt]
    for table in (B.hcomp1, B.vcomp, B.whisk_left, B.whisk_right, B.assoc):
        for key in table:
            out += key
    for table in (B.id1, B.id2, B.hcomp1, B.vcomp, B.whisk_left, B.whisk_right,
                  B.assoc, B.runit, B.lunit):
        out += table.values()
    for W in pres.classes.values():
        out += W.members
    for pname, F in pres.psfuns.items():
        sref, tref = pres.psfun_refs[pname]
        tables = (F.f0, F.f1, F.f2, F.psi, F.sigma)
        if sref == "self":
            out += [part for t in tables for k in t for part in (k if type(k) is tuple else (k,))]
        if tref == "self":
            out += [v for t in tables for v in t.values()]
    return out


def toy_localization_text() -> str:
    B = appendix_toy()
    L = materialize_fractions(B, toy_classes(B)["W"]).bicat
    everything = WClass(frozenset(c.id for c in L.one_cells), "all")
    return export_presentation(
        Presentation(L, {"all": everything}, {"identity": identity_psfun(L)}, "toy-loc"))


@pytest.mark.parametrize(
    "name", [p.stem for p in sorted(FIXTURE_DIR.glob("*.json"))] + ["toy localization"]
)
def test_each_cell_id_is_one_object_shared_with_its_declaration(name):
    text = toy_localization_text() if name == "toy localization" else fixture_text(name)
    pres = parse_presentation(text, base_dir=FIXTURE_DIR)
    B = pres.bicat
    declared: dict[str, str] = {}
    for x in (*B.objects, *(c.id for c in B.one_cells), *(t.id for t in B.two_cells)):
        declared.setdefault(x, x)
    strings = document_strings(pres)
    assert all(s is declared[s] for s in strings), name
    assert len({id(s) for s in strings}) == len(set(strings)), name
