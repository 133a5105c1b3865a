"""The whole-table checks decide exactly what the entry walks find.

Construction checks that table keys and values are declared cells by set
inclusion over columns (`columns.declared`), and `structural_violations`
decides all tables at once (`columns.well_formed`).  The entry walks run only
when that fails, and they alone name faults.  So each whole-table decision
must be true exactly when the walk finds nothing, and the faults named, with
their order, must be the walk's.  The walk is reached by patching the
whole-table check to decide nothing.

The inputs are every fixture, the pinned localizations, the one-row swaps
of the fixtures, and mutants of one thin and one non-thin fixture: each
table with one entry missing, one entry too many, one key moved off its
domain, or one value of the wrong endpoints or boundary.  A key moved off
the domain of a whiskering or associator table passes its value check only
when ``hcomp1`` holds the composites that check looks up, so those mutants
add them to ``hcomp1`` as extra entries; ``hcomp1`` then fails, which is
why `columns.well_formed` need not check that those keys fit.  Two more
families reach the checks that only such inputs leave alone: an object no
1-cell touches, without an identity or with another object's, and
``hcomp1`` with one entry moved or revalued and every table that looks it
up rebuilt over it.

Each table's frame rule, which reads whole columns of keys, is checked
against the per-key rules of `frame_reference` through `Table.frames`: on
every fixture and its pseudofunctors, the pinned localizations, the theorem
suite's maps and their lifts, and mutants whose lookups miss, where the
frames must hold None in the same places.

Dropping any one of `columns`' domain checks (a table's size, the fit of
the ``hcomp1`` or ``vcomp`` keys) or either end of any one table's value
check makes some test here fail, but for checks that the others imply, so
that no input fails them alone: ``hcomp1``'s, both ends, since each
composite has the endpoints of its pair once the associators look it up
composed with an identity, and one end of ``id1``'s, since each identity
starts at its object once it ends there and the other way round, as
``runit`` and ``lunit`` at ``f = id1[x]`` look up ``(f, f)``.  Dropping
one of `presentation`'s whole-row checks makes a test here or in
`test_presentation` fail.
"""

import dataclasses
import json
from functools import partial
from itertools import chain, product

import pytest

from bicfrac import columns, core
from bicfrac.builders import theorem_suite
from bicfrac.core import (
    FinBicat,
    OneCell,
    StructureError,
    TwoCell,
    Violation,
    has_reverse,
    is_invertible2,
    structural_violations,
    validate_bicat,
)
from bicfrac.fractions import induce_g_tilde, materialize_fractions
from bicfrac.presentation import PresentationError, load_document, parse_presentation
from bicfrac.psfun import PSFUN_TABLES, PsFun
from test_cli import FIXTURE_DIR, SWAPPED_FIXTURES, one_swaps
from test_fractions import GENERATED, fixture_bf_classes, generated_classes, pinned_classes
import frame_reference

# Each table, and the kind of each part of its keys and of its values:
# "ob" an object, "one" a 1-cell, "two" a 2-cell.
TABLES = {
    "id1": (("ob",), "one"),
    "id2": (("one",), "two"),
    "hcomp1": (("one", "one"), "one"),
    "vcomp": (("two", "two"), "two"),
    "whisk_left": (("one", "two"), "two"),
    "whisk_right": (("two", "one"), "two"),
    "assoc": (("one", "one", "one"), "two"),
    "runit": (("one",), "two"),
    "lunit": (("one",), "two"),
}


def fixture_text(name: str) -> str:
    return (FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8")


def tables_of(doc: dict) -> dict:
    """The constructor arguments a document's rows stand for, read without any check."""
    args = {
        "objects": doc["objects"],
        "one_cells": [OneCell(*r) for r in doc["one_cells"]],
        "two_cells": [TwoCell(*r) for r in doc["two_cells"]],
        "strict": doc.get("strict", False),
    }
    for name, (parts, _) in TABLES.items():
        n = len(parts)
        args[name] = {(r[0] if n == 1 else tuple(r[:n])): r[n] for r in doc[name]}
    return args


def args_of(B: FinBicat) -> dict:
    """The constructor arguments of ``B``, with tables that may be edited freely."""
    args = {f.name: getattr(B, f.name) for f in dataclasses.fields(B) if f.name != "_cache"}
    return {k: dict(v) if isinstance(v, dict) else v for k, v in args.items()}


def corpus() -> list[FinBicat]:
    """Every fixture, and the localization of each pinned class."""
    out = [load_document(p).bicat for p in sorted(FIXTURE_DIR.glob("*.json"))]
    cases = fixture_bf_classes()
    for family, size in GENERATED:
        cases += generated_classes(family, size)
    out += [materialize_fractions(B, W, validate=False).bicat for _, B, W in cases]
    assert len(out) == 8 + 27
    return out


# -- structure ----------------------------------------------------------------


def assert_structure_as_walked(B: FinBicat, monkeypatch) -> bool:
    """Check the whole-table decision on ``B`` against the walk; return whether it is well formed."""
    with monkeypatch.context() as m:
        m.setattr(columns, "well_formed", lambda B, tables: False)
        walked = structural_violations(dataclasses.replace(B))
    assert columns.well_formed(B, core.TABLES) == (not walked), (B.name, walked)
    assert structural_violations(dataclasses.replace(B)) == walked
    return not walked


def structure_mutants(B: FinBicat):
    """``(label, args)`` for each fault of the kinds this module describes."""
    base = args_of(B)
    cells = {"ob": list(B.objects), "one": [c.id for c in B.one_cells], "two": [t.id for t in B.two_cells]}
    s2 = {t.id: t.src for t in B.two_cells}
    t2 = {t.id: t.tgt for t in B.two_cells}

    def edited(name, drop=(), add=(), hcomp1=()):
        args = args_of(B)
        for k in drop:
            del args[name][k]
        args[name].update(add)
        args["hcomp1"].update(hcomp1)
        return args

    def looked_up(name, key, H, fill):
        """The boundary a value at ``key`` must have, adding ``fill`` for each missing composite."""
        h = lambda g, f: H.setdefault((g, f), fill)  # noqa: E731
        if name == "whisk_left":
            return h(key[0], s2[key[1]]), h(key[0], t2[key[1]])
        if name == "whisk_right":
            return h(s2[key[0]], key[1]), h(t2[key[0]], key[1])
        k, g, f = key
        return h(k, h(g, f)), h(h(k, g), f)

    for name, (parts, kind) in TABLES.items():
        table = base[name]
        first = next(iter(table))
        for key in table:
            yield f"{name}[{key!r}] missing", edited(name, drop=[key])
            for v in cells[kind]:
                if v != table[key]:
                    yield f"{name}[{key!r}] = {v!r}", edited(name, add={key: v})
        for key in product(*(cells[p] for p in parts)):
            key = key[0] if len(key) == 1 else key
            if key in table:
                continue
            yield f"{name}[{key!r}] extra", edited(name, add={key: table[first]})
            for v in cells[kind]:
                yield f"{name}[{key!r}] = {v!r} moved", edited(name, drop=[first], add={key: v})
            if name in ("whisk_left", "whisk_right", "assoc"):
                for fill in cells["one"]:
                    H = dict(B.hcomp1)
                    for v in B.cells2(*looked_up(name, key, H, fill)):
                        added = {k: c for k, c in H.items() if k not in B.hcomp1}
                        yield (f"{name}[{key!r}] = {v!r} over {added}",
                               edited(name, drop=[first], add={key: v}, hcomp1=added))


def test_structure_is_decided_as_walked_on_the_corpus(monkeypatch):
    for B in corpus():
        assert assert_structure_as_walked(B, monkeypatch), B.name


def test_structure_is_decided_as_walked_on_the_swaps_of_the_fixtures(monkeypatch):
    kinds = {True: 0, False: 0}
    for name in SWAPPED_FIXTURES:
        for entry, doc in one_swaps(name):
            if not entry.startswith("psfuns"):
                kinds[assert_structure_as_walked(FinBicat(**tables_of(doc)), monkeypatch)] += 1
    assert kinds == {True: 22, False: 422}


@pytest.mark.parametrize("name, fine, faulty", [("arrow2", 0, 1176), ("appx-toy", 12, 500)])
def test_structure_is_decided_as_walked_on_single_table_faults(name, fine, faulty, monkeypatch):
    # The well-formed mutants of the non-thin toy swap `iB` and `loop`,
    # which share the frame idB ⇒ idB.
    B = load_document(FIXTURE_DIR / f"{name}.json").bicat
    assert B.is_thin() == (name == "arrow2")
    kinds = {True: 0, False: 0}
    for _, args in structure_mutants(B):
        kinds[assert_structure_as_walked(FinBicat(**args), monkeypatch)] += 1
    assert kinds == {True: fine, False: faulty}


def isolated_object_mutants(B: FinBicat):
    """An object no 1-cell touches, with no identity or with another object's 1-cell as one."""
    args = args_of(B)
    args["objects"] = (*B.objects, "z")
    yield "id1['z'] missing", args
    for c in B.one_cells:
        args = args_of(B)
        args["objects"] = (*B.objects, "z")
        args["id1"]["z"] = c.id
        yield f"id1['z'] = {c.id!r}", args


def over_hcomp1(B: FinBicat, H: dict):
    """``B``'s arguments with ``hcomp1`` replaced by ``H`` and the tables that look it up rebuilt.

    The whiskering and associator tables hold every key whose composites
    ``H`` has, and each unitor's value lies over the composite with an
    identity that ``H`` gives.  Each value is the old one if it lies in the
    frame the lookups name, else the frame's first cell.  None when some
    frame holds no cell.
    """
    ones, twos = [c.id for c in B.one_cells], B.two_cells
    new = {"whisk_left": {}, "whisk_right": {}, "assoc": {}, "runit": {}, "lunit": {}}
    for name, key, frame in chain(
        (("whisk_left", (x, t.id), (H[x, t.src], H[x, t.tgt]))
         for x in ones for t in twos if (x, t.src) in H and (x, t.tgt) in H),
        (("whisk_right", (t.id, x), (H[t.src, x], H[t.tgt, x]))
         for x in ones for t in twos if (t.src, x) in H and (t.tgt, x) in H),
        (("assoc", (h, g, f), (H[h, H[g, f]], H[H[h, g], f]))
         for h, g, f in product(ones, repeat=3)
         if (g, f) in H and (h, g) in H and (h, H[g, f]) in H and (H[h, g], f) in H),
        (("runit", c.id, (H.get((c.id, B.id1[c.src])), c.id)) for c in B.one_cells),
        (("lunit", c.id, (H.get((B.id1[c.tgt], c.id)), c.id)) for c in B.one_cells),
    ):
        cells = B.cells2(*frame) if None not in frame else []
        if not cells:
            return None
        old = getattr(B, name).get(key)
        new[name][key] = old if old in cells else cells[0]
    return {**args_of(B), "hcomp1": H, **new}


def hcomp1_mutants(B: FinBicat):
    """``hcomp1`` with one entry moved or revalued, over which every other table still fits."""
    ones = [c.id for c in B.one_cells]
    for key, value in B.hcomp1.items():
        for moved, v in product(product(ones, repeat=2), ones):
            if (moved, v) == (key, value) or (moved != key and moved in B.hcomp1):
                continue
            H = dict(B.hcomp1)
            del H[key]
            H[moved] = v
            args = over_hcomp1(B, H)
            if args is not None:
                yield f"hcomp1[{key!r}] -> [{moved!r}] = {v!r}", args


@pytest.mark.parametrize("name", ["arrow2", "appx-toy", "iso2"])
def test_structure_is_decided_as_walked_on_isolated_objects(name, monkeypatch):
    B = load_document(FIXTURE_DIR / f"{name}.json").bicat
    for label, args in isolated_object_mutants(B):
        assert not assert_structure_as_walked(FinBicat(**args), monkeypatch), label


@pytest.mark.parametrize("name, fine, faulty", [("arrow2", 2, 0), ("iso2", 0, 66)])
def test_structure_is_decided_as_walked_when_hcomp1_and_its_lookups_move(name, fine, faulty, monkeypatch):
    B = load_document(FIXTURE_DIR / f"{name}.json").bicat
    kinds = {True: 0, False: 0}
    for _, args in hcomp1_mutants(B):
        kinds[assert_structure_as_walked(FinBicat(**args), monkeypatch)] += 1
    assert kinds == {True: fine, False: faulty}


# -- frames -------------------------------------------------------------------


def assert_frames_as_referenced(owner, tables: dict) -> set[str]:
    """Check each table's frames against the per-key reference; return the tables with a frame holding None."""
    missed = set()
    for t in tables.values():
        got = list(t.frames(owner))
        assert got == frame_reference.frames(t, owner), t.name
        if any(None in frame for _, frame in got):
            missed.add(t.name)
    return missed


def psfun_mutants(F: PsFun):
    """``F`` with one ``f0`` or ``f1`` entry dropped or sent to another cell, so that lookups miss."""
    values = {"f0": list(F.target.objects), "f1": [c.id for c in F.target.one_cells]}
    for name, cells in values.items():
        table = getattr(F, name)
        for key in table:
            yield dataclasses.replace(F, **{name: {k: v for k, v in table.items() if k != key}})
            for v in cells:
                if v != table[key]:
                    yield dataclasses.replace(F, **{name: {**table, key: v}})


def test_frames_match_the_per_key_reference():
    docs = [load_document(p) for p in sorted(FIXTURE_DIR.glob("*.json"))]
    doc_maps = [F for doc in docs for F in doc.psfuns.values()]
    maps = list(doc_maps)
    for case in theorem_suite():
        maps += [case.psfun, induce_g_tilde(case.psfun, case.w_src, case.w_tgt).psfun]
    bicats = [doc.bicat for doc in docs]
    bicats += [materialize_fractions(B, W, validate=False).bicat for _, B, W in pinned_classes()]
    for B in bicats:
        assert assert_frames_as_referenced(B, core.TABLES) == set(), B.name
    for F in maps:
        assert assert_frames_as_referenced(F, PSFUN_TABLES) == set(), F.name
    missed = set()
    for name in ("arrow2", "appx-toy", "iso2"):
        B = load_document(FIXTURE_DIR / f"{name}.json").bicat
        mutants = chain(structure_mutants(B), isolated_object_mutants(B), hcomp1_mutants(B))
        for _, args in mutants:
            missed |= assert_frames_as_referenced(FinBicat(**args), core.TABLES)
    assert missed == {"whisk_left", "whisk_right", "assoc", "runit", "lunit"}
    missed = set()
    for F in doc_maps:
        for mutant in psfun_mutants(F):
            missed |= assert_frames_as_referenced(mutant, PSFUN_TABLES)
    assert missed == {"f1", "f2", "psi", "sigma"}


# -- construction -------------------------------------------------------------


class Key(tuple):
    """A key that is a tuple only by inheritance, which construction refuses."""


def construction_outcome(args: dict) -> str:
    try:
        FinBicat(**args)
    except (StructureError, TypeError) as e:
        return f"{type(e).__name__}: {e}"
    return "built"


def construction_mutants(B: FinBicat):
    """``(table, args)`` for each table with one key part or value undeclared or malformed."""
    cell_of = {"ob": B.objects[0], "one": B.one_cells[0].id, "two": B.two_cells[0].id}
    for name, (parts, kind) in TABLES.items():
        key, value = next(iter(getattr(B, name).items()))
        wrong = ["ghost", *(c for k, c in cell_of.items() if k != kind)]
        for v in [*wrong, ["unhashable"]]:
            args = args_of(B)
            args[name][key] = v
            yield name, args
        keys = []
        for i, part in enumerate(parts):
            for bad in ["ghost", *(c for k, c in cell_of.items() if k != part)]:
                new = list(key if len(parts) > 1 else (key,))
                new[i] = bad
                keys.append(tuple(new) if len(parts) > 1 else bad)
        if len(parts) > 1:
            keys += [Key(key), (*key, key[0]), key[:-1]]
        for bad_key in keys:
            args = args_of(B)
            del args[name][key]
            args[name][bad_key] = value
            yield name, args


def test_construction_is_decided_as_walked(monkeypatch):
    """Per table, the column check is true exactly when the walk raises nothing."""
    decided = {}

    def recording(table, key_sets, values):
        decided[names[id(table)]] = ok = declared(table, key_sets, values)
        return ok

    declared = columns.declared
    bases = [load_document(FIXTURE_DIR / f"{n}.json").bicat for n in ("arrow2", "appx-toy")]
    cases = [(None, args_of(B)) for B in [*bases, *corpus()]]
    cases += [case for B in bases for case in construction_mutants(B)]
    for faulty, args in cases:
        names = {id(args[name]): name for name in TABLES}
        decided.clear()
        monkeypatch.setattr(columns, "declared", recording)
        got = construction_outcome(args)
        monkeypatch.setattr(columns, "declared", lambda *a: False)
        assert got == construction_outcome(args), (faulty, got)
        if faulty is None:
            assert got == "built" and set(decided.values()) == {True}
        else:
            assert got.startswith("TypeError: unhashable") or f"StructureError: {faulty}[" in got
            assert [t for t, ok in decided.items() if not ok] == [faulty], (faulty, got)
    assert len(cases) > 100


# -- laws ----------------------------------------------------------------------


def reference_components_identity(B: FinBicat) -> bool:
    """The entry-by-entry check the set inclusion replaced."""
    for table in (B.assoc, B.runit, B.lunit):
        for v in table.values():
            t = B.two(v)
            if t.src != t.tgt or B.id2.get(t.src) != v:
                return False
    return True


def reference_invertibility_violations(B: FinBicat, invertible) -> list[Violation]:
    """The entry-by-entry check that decided each coherence cell once per entry."""
    out = [Violation("assoc:invertible", key, "") for key, th in B.assoc.items() if not invertible(th)]
    for f in B.one_cells:
        if not invertible(B.runit[f.id]):
            out.append(Violation("unitor:invertible", (f.id, "right"), ""))
        if not invertible(B.lunit[f.id]):
            out.append(Violation("unitor:invertible", (f.id, "left"), ""))
    return out


def test_coherence_checks_match_the_entry_by_entry_reference():
    for B in corpus():
        assert core._components_identity(B) == reference_components_identity(B), B.name
        for decide in (has_reverse, is_invertible2):
            got = core._invertibility_violations(B, partial(decide, B))
            assert got == reference_invertibility_violations(B, partial(decide, B)), B.name


def test_invertibility_is_decided_once_per_distinct_cell():
    # In the non-thin loopy toy, `loop` is idempotent, so not invertible.
    # It becomes the associator at (idB, idB, idB) and both unitors of idB.
    doc = json.loads(fixture_text("appx-toy-loopy"))
    for table in ("assoc", "runit", "lunit"):
        for row in doc[table]:
            if set(row[:-1]) == {"idB"}:
                row[-1] = "loop"
    B = parse_presentation(json.dumps(doc)).bicat
    assert not B.is_thin() and B.strict
    asked = []

    def invertible(a):
        asked.append(a)
        return is_invertible2(B, a)

    got = core._invertibility_violations(B, invertible)
    assert sorted(asked) == ["iA", "iv", "loop"]
    assert got == reference_invertibility_violations(B, partial(is_invertible2, B))
    assert validate_bicat(B).violations == [
        Violation("assoc:invertible", ("idB", "idB", "idB"), ""),
        Violation("unitor:invertible", ("idB", "right"), ""),
        Violation("unitor:invertible", ("idB", "left"), ""),
        Violation("strict-flag", (), "declared strict but has non-identity components"),
    ]


def test_a_strict_flag_that_disagrees_with_the_components_is_the_only_violation():
    # The toy localized at W is lawful and thin, with non-identity associators.
    B = load_document(FIXTURE_DIR / "appx-toy.json").bicat
    L = materialize_fractions(B, parse_presentation(fixture_text("appx-toy")).classes["W"]).bicat
    assert L.is_thin() and not L.strict and validate_bicat(L).passed
    claimed = dataclasses.replace(L, strict=True)
    report = validate_bicat(claimed)
    assert not report.components_identity
    assert report.violations == [
        Violation("strict-flag", (), "declared strict but has non-identity components")
    ]


# -- rows -----------------------------------------------------------------------


def test_a_row_that_is_not_a_list_is_named_by_its_index():
    """Rows are checked whole before any is read, so none may make that check raise."""
    base = json.loads(fixture_text("appx-toy"))
    widths = {"one_cells": 3, "two_cells": 3, **{name: len(parts) + 1 for name, (parts, _) in TABLES.items()}}
    for name, width in widths.items():
        i = len(base[name]) // 2
        for bad in (7, None, True, "x" * width, dict.fromkeys("abcd"[:width])):
            doc = json.loads(fixture_text("appx-toy"))
            doc[name][i] = bad
            with pytest.raises(PresentationError) as e:
                parse_presentation(json.dumps(doc))
            assert str(e.value) == f"{name}[{i}]: expected a row of {width} strings", bad
