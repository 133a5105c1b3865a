"""Reading and writing instances as JSON documents.

A document describes one bicategory by exhaustive tables, plus optional
named 1-cell classes and pseudofunctor blocks.  Composition tables are
arrays of ``[key..., value]`` rows so fixtures stay diffable and can be
emitted from any language.  Parsing rejects ill-typed documents and
names the offending entry: identifiers must be unique and declared
(checked by `FinBicat` construction), and every table must hold exactly
its domain with values of the right endpoints or boundary (the first fault
found by `structural_violations`, or `structural_psfun_violations` for a
pseudofunctor block).  The coherence laws are deliberately left to
`validate_bicat`, so a well-typed but lawless document can still be loaded
and inspected.  A file that is not UTF-8, or JSON nested too deeply to
decode, is a `PresentationError` too.

Every string is mapped through one dict per parsed document, so each cell
id is a single object, shared by its declaration, the table keys and
values, the class members and the tables of pseudofunctor blocks on their
``"self"`` sides.

A pseudofunctor block carries ``source`` and ``target`` fields that are
either ``"self"`` or a path to another document, resolved relative to the
referring file.  Exports preserve those references, so parse, export and
re-parse round-trip to equal values, including for materialized fraction
bicategories whose cell ids are generated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .core import (
    FinBicat,
    OneCell,
    StructureError,
    TwoCell,
    Violation,
    composable_pairs,
    composable_triples,
    entry_name,
    lwhisker_pairs,
    rwhisker_pairs,
    structural_violations,
    vertical_pairs,
)
from .psfun import PsFun, structural_psfun_violations
from .wclass import WClass


class PresentationError(ValueError):
    """A malformed document; the message names the offending entry."""


@dataclass
class Presentation:
    """A parsed document: one bicategory, named classes, pseudofunctors."""

    bicat: FinBicat
    classes: dict[str, WClass]
    psfuns: dict[str, PsFun]
    name: str = ""
    psfun_refs: dict[str, tuple[str, str]] = field(default_factory=dict)
    ref_docs: dict[str, "Presentation"] = field(default_factory=dict)


def _fail(path: str, msg: str) -> None:
    raise PresentationError(f"{path}: {msg}")


def _want(doc: dict, key: str, kind: type, path: str = "") -> object:
    loc = f"{path}.{key}" if path else key
    if key not in doc:
        _fail(loc, "missing field")
    val = doc[key]
    if not isinstance(val, kind):
        _fail(loc, f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def _rows(doc: dict, key: str, width: int, canon: dict, path: str = "") -> list[tuple[str, ...]]:
    """Fixed-width rows of strings, reported per row index on mismatch.

    ``canon`` maps every string to the one object that stands for it in
    this document.  Each row is mapped through it in place, so the
    decoder's copy of an id already seen is freed as its row is read.
    """
    raw = _want(doc, key, list, path)
    loc = f"{path}.{key}" if path else key
    out = []
    for i, row in enumerate(raw):
        if (
            not isinstance(row, list)
            or len(row) != width
            or not all(isinstance(x, str) for x in row)
        ):
            _fail(f"{loc}[{i}]", f"expected a row of {width} strings")
        row[:] = map(canon.setdefault, row, row)
        out.append(tuple(row))
    return out


def _table(doc: dict, key: str, nkeys: int, canon: dict, path: str = "") -> dict:
    """A table keyed by its first ``nkeys`` columns; single keys are bare strings."""
    loc = f"{path}.{key}" if path else key
    table: dict = {}
    for row in _rows(doc, key, nkeys + 1, canon, path):
        k = row[0] if nkeys == 1 else row[:nkeys]
        if k in table:
            _fail(entry_name(loc, k), "duplicate entry")
        table[k] = row[nkeys]
    return table


def _parse_bicat(doc: dict, name: str, canon: dict) -> FinBicat:
    objects = _want(doc, "objects", list)
    for i, x in enumerate(objects):
        if not isinstance(x, str):
            _fail(f"objects[{i}]", "expected a string")

    strict = doc.get("strict", False)
    if not isinstance(strict, bool):
        _fail("strict", "expected a boolean")
    try:
        B = FinBicat(
            objects=tuple(map(canon.setdefault, objects, objects)),
            one_cells=tuple(OneCell(*r) for r in _rows(doc, "one_cells", 3, canon)),
            two_cells=tuple(TwoCell(*r) for r in _rows(doc, "two_cells", 3, canon)),
            id1=_table(doc, "id1", 1, canon),
            id2=_table(doc, "id2", 1, canon),
            hcomp1=_table(doc, "hcomp1", 2, canon),
            vcomp=_table(doc, "vcomp", 2, canon),
            whisk_left=_table(doc, "whisk_left", 2, canon),
            whisk_right=_table(doc, "whisk_right", 2, canon),
            assoc=_table(doc, "assoc", 3, canon),
            runit=_table(doc, "runit", 1, canon),
            lunit=_table(doc, "lunit", 1, canon),
            strict=strict,
            name=name,
        )
    except StructureError as e:
        raise PresentationError(str(e)) from e
    _fail_first(structural_violations(B))
    return B


def _fail_first(violations: list[Violation], prefix: str = "") -> None:
    """Raise on the first structural violation, named as its entry."""
    if violations:
        _fail(prefix + violations[0].entry, violations[0].detail)


def _parse_classes(doc: dict, bicat: FinBicat) -> dict[str, WClass]:
    raw = doc.get("classes", {})
    if not isinstance(raw, dict):
        _fail("classes", "expected an object of name -> member list")
    out: dict[str, WClass] = {}
    for cname, members in raw.items():
        if not isinstance(members, list):
            _fail(f"classes[{cname!r}]", "expected a member list")
        seen = set()
        for i, m in enumerate(members):
            if not isinstance(m, str):
                _fail(f"classes[{cname!r}][{i}]", "expected a string")
            if m in seen:
                _fail(f"classes[{cname!r}][{i}]", f"duplicate member {m!r}")
            try:
                cell = bicat.one(m)
            except StructureError:
                _fail(f"classes[{cname!r}][{i}]", f"undeclared 1-cell {m!r}")
            seen.add(cell.id)  # the declared id, not the member's equal copy
        out[cname] = WClass(frozenset(seen), cname)
    return out


def parse_presentation(
    text: str, *, base_dir: Optional[Path] = None, _depth: int = 0
) -> Presentation:
    """Parse one document into a bicategory, its classes and pseudofunctors.

    ``base_dir`` anchors pseudofunctor ``source``/``target`` file references;
    without it only ``"self"`` references are accepted.  Law checking is a
    separate step, so the result may still fail `validate_bicat`.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # the latter: nested too deep
        raise PresentationError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        _fail("document", "expected a JSON object")
    name = doc.get("name", "")
    if not isinstance(name, str):
        _fail("name", "expected a string")
    canon: dict[str, str] = {}  # one object per distinct string of this document
    bicat = _parse_bicat(doc, name, canon)
    classes = _parse_classes(doc, bicat)

    psfuns: dict[str, PsFun] = {}
    psfun_refs: dict[str, tuple[str, str]] = {}
    ref_docs: dict[str, Presentation] = {}
    raw_psfuns = doc.get("psfuns", [])
    if not isinstance(raw_psfuns, list):
        _fail("psfuns", "expected a list of blocks")
    if _depth > 2 and raw_psfuns:
        _fail("psfuns", "document reference chain too deep")

    def resolve(ref: str, loc: str) -> FinBicat:
        if ref == "self":
            return bicat
        if base_dir is None:
            _fail(loc, "document reference requires a file location")
        if ref not in ref_docs:
            path = (base_dir / ref).resolve()
            if not path.is_file():
                _fail(loc, f"referenced document {ref!r} not found")
            ref_docs[ref] = parse_presentation(
                _read_text(path), base_dir=path.parent, _depth=_depth + 1
            )
        return ref_docs[ref].bicat

    for i, block in enumerate(raw_psfuns):
        loc = f"psfuns[{i}]"
        if not isinstance(block, dict):
            _fail(loc, "expected an object")
        pname = _want(block, "name", str, loc)
        if pname in psfuns:
            _fail(f"{loc}.name", f"duplicate pseudofunctor {pname!r}")
        sref = block.get("source", "self")
        tref = block.get("target", "self")
        if not isinstance(sref, str) or not isinstance(tref, str):
            _fail(loc, "source and target must be strings")
        source = resolve(sref, f"{loc}.source")
        target = resolve(tref, f"{loc}.target")
        F = PsFun(
            source=source,
            target=target,
            f0=_table(block, "f0", 1, canon, loc),
            f1=_table(block, "f1", 1, canon, loc),
            f2=_table(block, "f2", 1, canon, loc),
            psi=_table(block, "psi", 2, canon, loc),
            sigma=_table(block, "sigma", 1, canon, loc),
            name=pname,
        )
        _fail_first(structural_psfun_violations(F), f"{loc}.")
        psfuns[pname] = F
        psfun_refs[pname] = (sref, tref)

    return Presentation(bicat, classes, psfuns, name, psfun_refs, ref_docs)


def load_document(path: str | Path) -> Presentation:
    """Parse the file at ``path``, resolving references next to it."""
    p = Path(path)
    if not p.is_file():
        raise PresentationError(f"document {str(p)!r} not found")
    return parse_presentation(_read_text(p), base_dir=p.parent)


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise PresentationError(
            f"document {str(path)!r} is not UTF-8 text at byte {e.start} ({e.reason})"
        ) from e


def export_presentation(pres: Presentation) -> str:
    """Serialize back to document text; parsing the result round-trips."""
    B = pres.bicat
    doc: dict = {
        "name": pres.name or B.name,
        "objects": list(B.objects),
        "one_cells": [[c.id, c.src, c.tgt] for c in B.one_cells],
        "two_cells": [[t.id, t.src, t.tgt] for t in B.two_cells],
        "id1": [[x, B.id1[x]] for x in B.objects],
        "id2": [[c.id, B.id2[c.id]] for c in B.one_cells],
        "hcomp1": _walk_rows(B.hcomp1, composable_pairs(B)),
        "vcomp": _walk_rows(B.vcomp, vertical_pairs(B)),
        "whisk_left": _walk_rows(B.whisk_left, lwhisker_pairs(B)),
        "whisk_right": _walk_rows(B.whisk_right, rwhisker_pairs(B)),
        "assoc": _walk_rows(B.assoc, composable_triples(B)),
        "runit": [[f.id, B.runit[f.id]] for f in B.one_cells],
        "lunit": [[f.id, B.lunit[f.id]] for f in B.one_cells],
        "strict": B.strict,
    }
    if pres.classes:
        doc["classes"] = {
            n: sorted(w.members, key=B.pos1) for n, w in pres.classes.items()
        }
    if pres.psfuns:
        blocks = []
        for pname, F in pres.psfuns.items():
            sref, tref = pres.psfun_refs.get(pname, ("self", "self"))
            src = F.source
            blocks.append(
                {
                    "name": pname,
                    "source": sref,
                    "target": tref,
                    "f0": [[x, F.f0[x]] for x in src.objects],
                    "f1": [[c.id, F.f1[c.id]] for c in src.one_cells],
                    "f2": [[t.id, F.f2[t.id]] for t in src.two_cells],
                    "psi": _walk_rows(F.psi, composable_pairs(src)),
                    "sigma": [[x, F.sigma[x]] for x in src.objects],
                }
            )
        doc["psfuns"] = blocks
    return json.dumps(doc, indent=2) + "\n"


def _walk_rows(table: dict, walk: Iterable[tuple]) -> list[list[str]]:
    """Rows ``[key..., value]`` of ``table``, in the order its domain walk yields the keys."""
    keys = (tuple(c.id for c in cells) for cells in walk)
    return [[*key, table[key]] for key in keys]
