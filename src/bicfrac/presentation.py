"""Reading and writing instances as JSON documents.

A document describes one bicategory by exhaustive tables, plus optional
named 1-cell classes and pseudofunctor blocks.  Composition tables are
arrays of ``[key..., value]`` rows so fixtures stay diffable and can be
emitted from any language.  The tables, their key widths and their row
order are read from `core.TABLES` and `psfun.PSFUN_TABLES`: the reader
builds each table from its name and width there, and the writer lists each
table's rows in the order its walk yields the keys.  Parsing rejects
ill-typed documents and names the offending entry: identifiers must be
unique and declared
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
``"self"`` sides.  A table's rows are checked as a whole (their types and
widths, and the types of the ids they add to that dict) and the table is
built in one step; its rows are walked one by one only when a row is bad or
a key repeats, to name the first such row.

A pseudofunctor block carries ``source`` and ``target`` fields that are
either ``"self"`` or a path to another document, resolved relative to the
referring file.  Exports preserve those references, so parse, export and
re-parse round-trip to equal values, including for materialized fraction
bicategories whose cell ids are generated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Optional

from .core import (
    TABLES,
    FinBicat,
    OneCell,
    StructureError,
    Table,
    TwoCell,
    Violation,
    entry_name,
    structural_violations,
)
from .psfun import PSFUN_TABLES, PsFun, structural_psfun_violations
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


def _rows(doc: dict, key: str, width: int, canon: dict, path: str = "") -> list[list[str]]:
    """Fixed-width rows of strings, reported per row index on mismatch.

    ``canon`` maps every string to the one object that stands for it in
    this document.  Each row is mapped through it in place, so the
    decoder's copy of an id already seen is freed as its row is read.
    The rows' types and widths are decided over the whole list, and the
    cells' types over the ids this table adds to ``canon`` (its newest
    entries); only when that fails are the rows walked to name the first
    bad one.
    """
    raw = _want(doc, key, list, path)
    if {*map(type, raw)} <= {list} and {*map(len, raw)} <= {width}:
        known = len(canon)
        try:
            for row in raw:
                row[:] = map(canon.setdefault, row, row)
        except TypeError:  # an unhashable cell, which the walk names
            pass
        else:
            if {*map(type, islice(canon, known, None))} <= {str}:
                return raw
    loc = f"{path}.{key}" if path else key
    for i, row in enumerate(raw):
        if (
            not isinstance(row, list)
            or len(row) != width
            or not all(isinstance(x, str) for x in row)
        ):
            _fail(f"{loc}[{i}]", f"expected a row of {width} strings")
        row[:] = map(canon.setdefault, row, row)
    return raw


def _table(doc: dict, key: str, nkeys: int, canon: dict, path: str = "") -> dict:
    """A table keyed by its first ``nkeys`` columns; single keys are bare strings."""
    rows = _rows(doc, key, nkeys + 1, canon, path)
    key_of = itemgetter(*range(nkeys))
    table = dict(rows) if nkeys == 1 else {key_of(r): r[nkeys] for r in rows}
    if len(table) < len(rows):  # some key repeats: name its second row
        seen = set()
        for k in map(key_of, rows):
            if k in seen:
                _fail(entry_name(f"{path}.{key}" if path else key, k), "duplicate entry")
            seen.add(k)
    return table


def _parse_bicat(doc: dict, name: str, canon: dict) -> FinBicat:
    objects = _want(doc, "objects", list)
    for i, x in enumerate(objects):
        if not isinstance(x, str):
            _fail(f"objects[{i}]", "expected a string")

    strict = doc.get("strict", False)
    if not isinstance(strict, bool):
        _fail("strict", "expected a boolean")
    cells = (
        tuple(map(canon.setdefault, objects, objects)),
        tuple(OneCell(*r) for r in _rows(doc, "one_cells", 3, canon)),
        tuple(TwoCell(*r) for r in _rows(doc, "two_cells", 3, canon)),
    )
    tables = {t.name: _table(doc, t.name, len(t.parts), canon) for t in TABLES.values()}
    try:
        B = FinBicat(*cells, **tables, strict=strict, name=name)
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
        tables = {t.name: _table(block, t.name, len(t.parts), canon, loc) for t in PSFUN_TABLES.values()}
        F = PsFun(source, target, **tables, name=pname)
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
        **{t.name: _table_rows(t, B) for t in TABLES.values()},
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
            tables = {t.name: _table_rows(t, F) for t in PSFUN_TABLES.values()}
            blocks.append({"name": pname, "source": sref, "target": tref, **tables})
        doc["psfuns"] = blocks
    return json.dumps(doc, indent=2) + "\n"


def _table_rows(table: Table, owner) -> list[list[str]]:
    """``owner``'s rows ``[key..., value]`` of ``table``, in the order its walk yields the keys."""
    values = getattr(owner, table.name)
    if len(table.parts) == 1:
        return [[k, values[k]] for k in table.walk(owner)]
    return [[*k, values[k]] for k in table.walk(owner)]
