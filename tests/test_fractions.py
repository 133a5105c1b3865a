"""Spans, representative classes and the materialized fraction bicategory."""

import dataclasses
import gc
import hashlib
import importlib.util
import json
import random
import sys
import weakref
from pathlib import Path

import pytest

from bicfrac import core, fractions
from bicfrac.builders import appendix_toy, arrow2, iso2, iso2_classes, theorem_suite, toy_classes, toyq
from bicfrac.core import (
    FinBicat,
    PreconditionError,
    ValidationReport,
    Violation,
    inv_cells2,
    lwhisker_pairs,
    rwhisker_pairs,
    validate_bicat,
)
from bicfrac.fractions import (
    LocalizationError,
    Span,
    TwoCellRep,
    compose_spans,
    enumerate_reps,
    enumerate_spans,
    induce_g_tilde,
    materialize_fractions,
    rep_equivalence_witness,
    rep_sort_key,
    reps_equivalent,
    span_is_equivalence,
    universal_pseudofunctor,
)
from bicfrac.conditions import cross_validate_theorems
from bicfrac.presentation import Presentation, export_presentation, load_document
from bicfrac.psfun import PSFUN_TABLES, identity_psfun
from bicfrac.wclass import WClass, check_bf, quasi_units, saturate
from pasting_reference import Assoc, AssocInv, Atom, WhiskL, WhiskR, eval_pasting, vchain
import whisker_reference

ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = ROOT / "src" / "bicfrac" / "fixtures"


@pytest.fixture
def toy():
    return appendix_toy()


@pytest.fixture
def classes(toy):
    return toy_classes(toy)


def test_span_enumeration(toy, classes):
    full = enumerate_spans(toy, classes["W"])
    assert len(full) == 5
    minimal = enumerate_spans(toy, classes["Wmin"])
    assert len(minimal) == 3
    assert Span("A", "idA", "v") in full
    assert Span("A", "v", "v") in full
    assert Span("A", "v", "v") not in minimal


def test_identity_span_composition_routes_through_the_class(toy, classes):
    # With v invertible-to-be, the least filler for the cospan (idB, idB)
    # has apex A, so composing identity spans at B leaves the identity.
    idB = Span("B", "idB", "idB")
    comp, filler = compose_spans(toy, classes["W"], idB, idB)
    assert comp == Span("A", "v", "v")
    comp_min, _ = compose_spans(toy, classes["Wmin"], idB, idB)
    assert comp_min == idB


def test_span_equivalence(toy, classes):
    assert span_is_equivalence(toy, classes["W"], Span("A", "idA", "v"))
    assert not span_is_equivalence(toy, classes["Wmin"], Span("A", "idA", "v"))
    assert span_is_equivalence(toy, classes["Wmin"], Span("B", "idB", "idB"))


def test_rep_equivalence_is_reflexive_and_symmetric(toy, classes):
    W = classes["W"]
    s = Span("B", "idB", "idB")
    r1 = TwoCellRep("B", "idB", "idB", "iB", "iB")
    r2 = TwoCellRep("B", "idB", "idB", "iB", "loop")
    assert reps_equivalent(toy, W, s, s, r1, r1)
    # The loop collapses onto the identity once v can be inverted.
    assert reps_equivalent(toy, W, s, s, r1, r2)
    assert reps_equivalent(toy, W, s, s, r2, r1)
    assert rep_equivalence_witness(toy, W, s, s, r1, r2) is not None
    assert not reps_equivalent(toy, classes["Wmin"], s, s, r1, r2)


def test_materialized_localization_shape(toy, classes):
    loc = materialize_fractions(toy, classes["W"])
    assert len(loc.bicat.one_cells) == 5
    assert len(loc.bicat.two_cells) == 7
    assert validate_bicat(loc.bicat).passed
    assert not loc.bicat.strict

    loc_min = materialize_fractions(toy, classes["Wmin"])
    assert len(loc_min.bicat.one_cells) == 3
    assert len(loc_min.bicat.two_cells) == 4
    assert validate_bicat(loc_min.bicat).passed


def test_localization_requires_the_axioms(toy, classes):
    with pytest.raises((LocalizationError, PreconditionError)):
        materialize_fractions(toy, classes["WnoId"])
    vcomp = dict(toy.vcomp)
    vcomp[("loop", "iB")] = "iB"  # well typed, but loop ⊙ id is no longer loop
    lawless = dataclasses.replace(toy, vcomp=vcomp)
    with pytest.raises(PreconditionError, match="hom-category:unit"):
        materialize_fractions(lawless, classes["W"])


def test_localization_accessors(toy, classes):
    loc = materialize_fractions(toy, classes["W"])
    idB = loc.id_span("B")
    assert idB == Span("B", "idB", "idB")
    assert loc.sid(idB) == "(B|idB|idB)"
    assert loc.span("(A|idA|v)") == Span("A", "idA", "v")
    assert [loc.sid(s) for s in loc.hom_spans("A", "B")]
    cid = loc.bicat.id2["(B|idB|idB)"]
    cls = loc.cls(cid)
    assert cls.src == idB and cls.tgt == idB
    for r in cls.reps:
        assert loc.class_of(idB, idB, r) == cid


def count_builds(monkeypatch) -> list:
    """The arguments of every localization built from now on."""
    builds = []
    real = fractions._build_localization

    def counted(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(fractions, "_build_localization", counted)
    return builds


def test_a_held_localization_is_shared_with_the_lift_and_its_replay(toy, classes, monkeypatch):
    W = classes["W"]
    loc = materialize_fractions(toy, W)
    lift = induce_g_tilde(identity_psfun(toy), W, W)
    assert lift.source_loc is loc
    # ``sat(W)`` has W's members, so the target is the same localization.
    assert lift.target_loc is materialize_fractions(toy, saturate(toy, W).members) is loc
    builds = count_builds(monkeypatch)
    report = cross_validate_theorems(identity_psfun(toy), W, W)
    assert report["lift-biconditional"].ran and report.passed
    assert builds == []
    # Released, the one localization both sides share is built again.
    del loc, lift
    gc.collect()
    cross_validate_theorems(identity_psfun(toy), W, W)
    assert len(builds) == 1


def test_a_released_localization_is_freed(toy, classes):
    ref = weakref.ref(materialize_fractions(toy, classes["W"]))
    gc.collect()
    assert ref() is None


def count_law_checks(monkeypatch) -> list:
    """Every bicategory whose laws are checked from now on."""
    checked = []
    real = core._law_violations

    def counted(B):
        checked.append(B)
        return real(B)

    monkeypatch.setattr(core, "_law_violations", counted)
    return checked


def test_a_shared_localization_validates_once(toy, classes, monkeypatch):
    checked = count_law_checks(monkeypatch)
    loc = materialize_fractions(toy, classes["W"], validate=False)
    assert materialize_fractions(toy, classes["W"]) is loc
    assert materialize_fractions(toy, classes["W"]) is loc
    assert validate_bicat(loc.bicat).passed
    assert [B for B in checked if B is loc.bicat] == [loc.bicat]


def test_cross_validation_checks_each_bicategory_once(toy, classes, monkeypatch):
    checked = count_law_checks(monkeypatch)
    builds = count_builds(monkeypatch)
    W = classes["W"]
    assert cross_validate_theorems(identity_psfun(toy), W, W).passed
    assert len(builds) == 1
    assert any(B is toy for B in checked)
    assert len(checked) == len({id(B) for B in checked})


def test_a_failed_validation_raises_at_every_call(toy, classes, monkeypatch):
    loc = materialize_fractions(toy, classes["W"], validate=False)
    failing = ValidationReport(False, [Violation("pentagon", (), "planted")], False, False)
    monkeypatch.setattr(fractions, "validate_bicat", lambda B: failing)
    for _ in range(2):
        with pytest.raises(LocalizationError, match="pentagon"):
            materialize_fractions(toy, classes["W"])
    monkeypatch.undo()
    assert materialize_fractions(toy, classes["W"]) is loc


def test_universal_map_collapses_exactly_when_the_class_demands(toy, classes):
    UW = universal_pseudofunctor(materialize_fractions(toy, classes["W"]))
    assert UW.f2["loop"] == UW.f2["iB"]
    Umin = universal_pseudofunctor(materialize_fractions(toy, classes["Wmin"]))
    assert Umin.f2["loop"] != Umin.f2["iB"]
    assert UW.f1["v"] == "(A|idA|v)"
    assert UW.f0 == {"A": "A", "B": "B"}


def test_other_fixture_localizations_validate():
    i2 = iso2()
    for cname, W in iso2_classes(i2).items():
        loc = materialize_fractions(i2, W)
        assert validate_bicat(loc.bicat).passed, cname
    a2 = arrow2()
    loc = materialize_fractions(a2, WClass.of(a2, ["idX", "idY"], "W"))
    assert validate_bicat(loc.bicat).passed
    q = toyq()
    loc = materialize_fractions(q, WClass.of(q, ["idA", "idB", "v"], "W"))
    assert validate_bicat(loc.bicat).passed


def bench_corpus():
    """The seeded instance families of ``bench/corpus.py``."""
    spec = importlib.util.spec_from_file_location("bench_corpus", ROOT / "bench" / "corpus.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


def fixture_bf_classes():
    """``(label, B, W)`` for each fixture class that passes `check_bf`."""
    out = []
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        doc = load_document(str(path))
        for cname, W in doc.classes.items():
            if check_bf(doc.bicat, W).passed:
                out.append((f"{path.stem}:{cname}", doc.bicat, W))
    assert len(out) == 13, [label for label, _, _ in out]
    return out


GENERATED = [("chain", n) for n in (2, 3, 4)] + [("cyclic_loop", k) for k in (2, 3, 4, 5)]


def generated_classes(family: str, size: int):
    """``(label, B, W)`` for each class of a `bench/corpus.py` instance."""
    inst = getattr(bench_corpus(), family)(size, random.Random(size))
    B = inst.build()
    return [(f"{family}{size}:{c}", B, WClass.of(B, m, c)) for c, m in inst.classes.items()]


def reference_coherence_cell(L: FinBicat, src: str, tgt: str):
    """The least class ``src ⇒ tgt`` with a two-sided inverse, by brute force.

    Scans ``L.two_cells`` in declaration order for the frame and its reverse
    and composes through ``L.vcomp`` only, without any index of ``L``.
    """
    frame = [t.id for t in L.two_cells if (t.src, t.tgt) == (src, tgt)]
    reverse = [t.id for t in L.two_cells if (t.src, t.tgt) == (tgt, src)]
    for c in frame:
        for d in reverse:
            if L.vcomp[(d, c)] == L.id2[src] and L.vcomp[(c, d)] == L.id2[tgt]:
                return c
    return None


def assert_reference_coherence_cells(B: FinBicat, W: WClass) -> None:
    L = materialize_fractions(B, W, validate=False).bicat
    H = L.hcomp1
    for (h, g, f), v in L.assoc.items():
        assert v == reference_coherence_cell(L, H[(h, H[(g, f)])], H[(H[(h, g)], f)]), (h, g, f)
    for c in L.one_cells:
        f = c.id
        assert L.runit[f] == reference_coherence_cell(L, H[(f, L.id1[c.src])], f), f
        assert L.lunit[f] == reference_coherence_cell(L, H[(L.id1[c.tgt], f)], f), f


def test_coherence_cells_match_the_reference_on_every_fixture_class():
    for _, B, W in fixture_bf_classes():
        assert_reference_coherence_cells(B, W)


@pytest.mark.parametrize("family,size", GENERATED)
def test_coherence_cells_match_the_reference_on_generated_instances(family, size):
    for _, B, W in generated_classes(family, size):
        assert_reference_coherence_cells(B, W)


def reference_rep_equivalence_witness(B, W, S1, S2, r1, r2):
    """The witness search as pasting trees: every candidate builds and evaluates both routes."""

    def routes_agree(back1, back2, a1, a2, z, zp, z1, z2):
        lhs = vchain(
            Assoc(back1, r1.leg1, z),
            WhiskR(Atom(a1), z),
            AssocInv(back2, r1.leg2, z),
            WhiskL(back2, Atom(z2)),
        )
        rhs = vchain(
            WhiskL(back1, Atom(z1)),
            Assoc(back1, r2.leg1, zp),
            WhiskR(Atom(a2), zp),
            AssocInv(back2, r2.leg2, zp),
        )
        return eval_pasting(B, lhs) == eval_pasting(B, rhs)

    w1l1 = B.hcomp1[(S1.back, r1.leg1)]
    for E in B.objects:
        for z in B.hom1(E, r1.apex):
            if B.hcomp1[(w1l1, z)] not in W:
                continue
            for zp in B.hom1(E, r2.apex):
                c1 = (B.hcomp1[(r1.leg1, z)], B.hcomp1[(r2.leg1, zp)])
                c2 = (B.hcomp1[(r1.leg2, z)], B.hcomp1[(r2.leg2, zp)])
                for zeta1 in inv_cells2(B, *c1):
                    for zeta2 in inv_cells2(B, *c2):
                        if not routes_agree(S1.back, S2.back, r1.alpha, r2.alpha, z, zp, zeta1, zeta2):
                            continue
                        if routes_agree(S1.forward, S2.forward, r1.beta, r2.beta, z, zp, zeta1, zeta2):
                            return (E, z, zp, zeta1, zeta2)
    return None


def assert_reference_witnesses(B: FinBicat, W: WClass) -> tuple[int, int]:
    """Compare every ordered representative pair of every frame; return (pairs, witnessed)."""
    pairs = witnessed = 0
    spans = enumerate_spans(B, W)
    for S1 in spans:
        for S2 in spans:
            if (S1.src_obj(B), S1.tgt_obj(B)) != (S2.src_obj(B), S2.tgt_obj(B)):
                continue
            reps = enumerate_reps(B, W, S1, S2)
            for r1 in reps:
                for r2 in reps:
                    want = reference_rep_equivalence_witness(B, W, S1, S2, r1, r2)
                    assert rep_equivalence_witness(B, W, S1, S2, r1, r2) == want, (S1, S2, r1, r2)
                    pairs += 1
                    witnessed += want is not None
    return pairs, witnessed


def test_witness_search_matches_the_reference_on_every_fixture_class():
    counts = [assert_reference_witnesses(B, W) for _, B, W in fixture_bf_classes()]
    assert sum(p for p, _ in counts) > sum(w for _, w in counts) > 0


@pytest.mark.parametrize("family,size", GENERATED)
def test_witness_search_matches_the_reference_on_generated_instances(family, size):
    for label, B, W in generated_classes(family, size):
        pairs, _ = assert_reference_witnesses(B, W)
        assert pairs > 0, label


def test_each_side_of_the_witness_search_is_evaluated_once_per_build(monkeypatch):
    (_, B, W), = [c for c in generated_classes("cyclic_loop", 5) if c[0].endswith(":Wmin")]
    calls = []
    real = fractions._restrict

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(fractions, "_restrict", counted)
    materialize_fractions(B, W, validate=False)
    # Every search of the build restricts along 5 distinct keys, each once
    # (1,220 calls when each witness search evaluated its own sides, 145
    # when the composition and whiskering searches kept memos of their own).
    assert (len(calls), len(set(calls))) == (5, 5)


def test_each_representative_is_searched_against_class_leaders_only(monkeypatch):
    (_, B, W), = [c for c in generated_classes("cyclic_loop", 5) if c[0].endswith(":Wmin")]
    calls = []
    real = fractions._rep_witness

    def counted(*args):
        calls.append(args[4:6])
        return real(*args)

    monkeypatch.setattr(fractions, "_rep_witness", counted)
    loc = materialize_fractions(B, W, validate=False)
    leaders = {c.rep for c in loc.classes.values()}
    assert all(leader in leaders for leader, _ in calls)
    # 270 when every pair in different components was searched.
    assert len(calls) == 70


def shared_memo_cases():
    """`cyclic_loop(3..5)` at ``Wmin`` and ``W``, and the toy at ``Wmin``."""
    cases = [
        case for k in (3, 4, 5) for case in generated_classes("cyclic_loop", k)
        if case[0].endswith((":Wmin", ":W"))
    ]
    toy = appendix_toy()
    return cases + [("toy:Wmin", toy, toy_classes(toy)["Wmin"])]


def test_a_shared_memo_gives_the_reference_witnesses_in_either_order():
    """One memo per localization, as in a build; the pairs in canonical order, then reversed."""
    witnessed = []
    for label, B, W in shared_memo_cases():
        spans = enumerate_spans(B, W)
        pairs = [
            (S1, S2, r1, r2)
            for S1 in spans
            for S2 in spans if (S1.src_obj(B), S1.tgt_obj(B)) == (S2.src_obj(B), S2.tgt_obj(B))
            for reps in [sorted(enumerate_reps(B, W, S1, S2), key=lambda r: rep_sort_key(B, r))]
            for r1 in reps
            for r2 in reps
        ]
        want = [reference_rep_equivalence_witness(B, W, *pair) for pair in pairs]
        witnessed += [w is not None for w in want]
        for order in (pairs, pairs[::-1]):
            sides = fractions._search_sides(B, fractions._restrictions(B))
            got = {pair: fractions._rep_witness(B, W, *pair, sides) for pair in order}
            assert [got[pair] for pair in pairs] == want, label
    assert any(witnessed) and not all(witnessed)


def whisker_localizations():
    """Each fixture class's localization, and `cyclic_loop(2..8)`'s at ``Wmin``, twice.

    The second time is the first localization localized at its quasi-units.
    """
    locs = [materialize_fractions(B, W) for _, B, W in fixture_bf_classes()]
    for k in range(2, 9):
        (_, B, W), = [c for c in generated_classes("cyclic_loop", k) if c[0].endswith(":Wmin")]
        loc = materialize_fractions(B, W)
        locs += [loc, materialize_fractions(loc.bicat, quasi_units(loc.bicat))]
    return locs


def assert_whiskers_match_the_reference(loc) -> tuple[int, int]:
    """Each whisker entry whose frame holds two or more classes, against `whisker_reference`.

    The entry must be the reference's class from the class's leader, and
    the reference from every other representative must give the same class.
    Returns the number of entries and of representatives searched.
    """
    L = loc.bicat
    counts = [0, 0]

    def check(entry: str, frame: tuple[str, str], c, search) -> None:
        if len(L.cells2(*frame)) < 2:
            return
        assert search(c.rep) == entry, (L.name, c.id, frame)
        for r in c.reps[1:]:
            assert search(r) == entry, (L.name, c.id, frame, r)
        counts[0] += 1
        counts[1] += len(c.reps)

    for g, a in lwhisker_pairs(L):
        T, c = loc.span(g.id), loc.cls(a.id)
        check(L.whisk_left[(g.id, a.id)], (L.hcomp1[(g.id, a.src)], L.hcomp1[(g.id, a.tgt)]), c,
              lambda r: whisker_reference.whisk_left(loc, T, c.src, c.tgt, r))
    for b, f in rwhisker_pairs(L):
        S, c = loc.span(f.id), loc.cls(b.id)
        check(L.whisk_right[(b.id, f.id)], (L.hcomp1[(b.src, f.id)], L.hcomp1[(b.tgt, f.id)]), c,
              lambda r: whisker_reference.whisk_right(loc, c.src, c.tgt, r, S))
    return counts[0], counts[1]


def test_whiskers_match_the_reference_from_every_representative():
    counts = [assert_whiskers_match_the_reference(loc) for loc in whisker_localizations()]
    # appx-toy, appx-toy-loopy and collapse-loop at Wmin search 2+2 entries
    # each, and cyclic_loop(k) at Wmin and re-localized k+k each; every
    # thin localization forces all its entries.
    assert tuple(map(sum, zip(*counts))) == (152, 832)


def pinned_classes():
    """The classes above, and `chain(5)` and `chain(6)` at all their 1-cells."""
    cases = fixture_bf_classes()
    for family, size in GENERATED:
        cases += generated_classes(family, size)
    for size in (5, 6):
        cases += [case for case in generated_classes("chain", size) if case[0].endswith(":all")]
    return cases


def reference_partition(B: FinBicat, W: WClass, S1, S2) -> list[tuple[TwoCellRep, ...]]:
    """The frame's classes by a full pairwise union-find, each pair tested both ways.

    Each class lists its representatives in canonical order, and the
    classes are ordered by their least representative.
    """
    reps = sorted(enumerate_reps(B, W, S1, S2), key=lambda r: rep_sort_key(B, r))
    parent = list(range(len(reps)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, r1 in enumerate(reps):
        for j, r2 in enumerate(reps):
            if i != j and rep_equivalence_witness(B, W, S1, S2, r1, r2) is not None:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[TwoCellRep]] = {}
    for i, r in enumerate(reps):
        groups.setdefault(find(i), []).append(r)
    return [tuple(groups[root]) for root in sorted(groups)]


def assert_reference_partition(B: FinBicat, W: WClass) -> tuple[int, int, int]:
    """Compare every frame's classes with `reference_partition`; return (frames, classes, reps)."""
    loc = materialize_fractions(B, W, validate=False)
    built: dict[tuple[str, str], list[tuple[TwoCellRep, ...]]] = {}
    for c in loc.classes.values():
        built.setdefault((c.src.id, c.tgt.id), []).append(c.reps)
    for key, partition in built.items():
        assert partition == reference_partition(B, W, *map(loc.span, key)), (B.name, key)
    return len(built), len(loc.classes), sum(len(c.reps) for c in loc.classes.values())


def test_leader_classes_match_the_pairwise_reference_on_the_pinned_classes():
    counts = [assert_reference_partition(B, W) for _, B, W in pinned_classes()]
    assert tuple(map(sum, zip(*counts))) == (686, 699, 1230)


@pytest.mark.parametrize("size", (6, 7, 8))
def test_leader_classes_match_the_pairwise_reference_on_larger_loops(size):
    cases = [(B, W) for _, B, W in generated_classes("cyclic_loop", size) if check_bf(B, W).passed]
    assert len(cases) == 2
    for B, W in cases:
        frames, classes, reps = assert_reference_partition(B, W)
        assert reps > classes >= frames > 0


# sha256 of `export_presentation` of each localization of `pinned_classes`,
# as written by the tree-evaluating implementation, and for `chain(5)` and
# `chain(6)` by the last one that searched every table entry; the cell ids
# and tables must not drift.
LOCALIZATION_DIGESTS = {
    "appx-toy-loopy:W": "e7845ad6b31417a6e3f19f6e7df91d4f3f068360a7916a64f0831a5443888de4",
    "appx-toy-loopy:Wmin": "d8bc3e2317c01cdfa51759eae265aea7b7cf524446dacba163f40daba02efa2b",
    "appx-toy:W": "024b32f11ab3150eed1aa02137fcda89691dc39ea54360f9bcea9096bf9a7c38",
    "appx-toy:Wmin": "6966cadb4f1b7099da830cec53fd209dcf013d868260d774488785b28ddce2d8",
    "arrow2:W": "85b6c9af7389ec7583e400b3733d739f0b5f3b4a34c3958f66d94c7d5b7bb0d9",
    "collapse-loop:W": "68a329b6281a49b4e256ddb7582f96d7703a76c35ad2d5abc5283fb10537a2a9",
    "collapse-loop:Wmin": "0ca80152a25fe81efa20bcf9594ae3af56bb5484e8737fda6f7e0a06669e72ef",
    "discrete2:W": "b8e2e64e80068523dc565b3fc7811d6af37857a3fcafe5e0acd60514c014726b",
    "iso2:W": "ef1060c6847532a8ad25192bbb42f997125738e21339ba7e55fa0fcf8577c876",
    "iso2:Wmin": "d2f8f33a09c4e18a1aa48bab9983a772ab4e2e4a7bd2c05e71cf51355424d8bb",
    "point-into-discrete2:W": "f3786dbe6decaeb8dc81072dd3f7099e287c5fee95dff2de513627ec4fc932da",
    "toyq:W": "a56a37322d33dc5c7fa9ce38cf628e44d1ba32d98260ca292b7f533f03f9800a",
    "toyq:Wmin": "f64599077172d5f6700b8c4f4fe91f5cf7fc277774c5bdf3f26613c59c879502",
    "chain2:all": "2f74529ab7a7adb72d38ae9c5b7a54b687675a74f90c6b35f25d392a9a519b7c",
    "chain2:ids": "98856b32481c08d2031078d61b7fc65c652775750f9a60e5f45ac2c8f64010df",
    "chain3:all": "91ccdbe2a0a2320d737b434520220a9819df4f90b7b8373d094aa844837899fa",
    "chain3:ids": "2c83b78a352405f45a4c07ad3e1dbe68985c15276d5485c236d123602f5e9e88",
    "chain4:all": "94025b937fd2bcfa4231d8ce6b45bf21c73df1b5c9270cbd75aa46ce2f8df904",
    "chain4:ids": "9eb8d08642516813d6bdcc37803ff9c8f549f3a9fd2bbc4e736d83daad847336",
    "cyclic_loop2:Wmin": "9f445b871de2d58ecc617c4ff99e8e82de93be46c45d39cab695bf6b64ce572a",
    "cyclic_loop2:W": "2f4977efb613403c6bdfdac2fc1ff0eca03f77be04fdd1cbeeddef9e3baacf77",
    "cyclic_loop3:Wmin": "344ac0fb6e05155640cf9eb5a576a86cd3f30b0c4b1d585c87592a0945042f04",
    "cyclic_loop3:W": "48ee75865533379bc5f3335360619b903c64065d8879c1b3f877cf9967d2b61c",
    "cyclic_loop4:Wmin": "3f0bf907067dd6998806e04622ce4af3b4f31dd209e65a5f0974237e2c440375",
    "cyclic_loop4:W": "827a332bdb75d4aaf6ea1983ab232ae8e5cd2352f00a1ba32507183d8a0b1245",
    "cyclic_loop5:Wmin": "81684739a80b8777a9b0bc0f2988f9fa88d90a9dd1c8acb74b03fff349d6bebf",
    "cyclic_loop5:W": "82908ae0e481eed98404f4cf4ae564367962066ccc2fbf23d6160a08f408400b",
    "chain5:all": "dc39e2822ba9bc91ee2e4ead6720573b673b711c830dc44b670d4f13bc2c500d",
    "chain6:all": "bfc3d9d97d6fa8ec9b14e6a4729b0f8f2a03ba131cb63f71ae17b19eb11ec6a1",
}


def test_localization_documents_match_the_pinned_digests():
    got = {}
    for label, B, W in pinned_classes():
        L = materialize_fractions(B, W).bicat
        text = export_presentation(Presentation(L, {}, {}, L.name))
        got[label] = hashlib.sha256(text.encode()).hexdigest()
    assert got == LOCALIZATION_DIGESTS


# Each table, and the declaration position (object, 1-cell or 2-cell) of each
# part of its keys: a `FinBicat`'s in ``B``, a `PsFun`'s in its source.
WALKS = {
    "id1": ("posO",),
    "id2": ("pos1",),
    "hcomp1": ("pos1", "pos1"),
    "vcomp": ("pos2", "pos2"),
    "whisk_left": ("pos1", "pos2"),
    "whisk_right": ("pos2", "pos1"),
    "assoc": ("pos1", "pos1", "pos1"),
    "runit": ("pos1",),
    "lunit": ("pos1",),
}
PSFUN_WALKS = {
    "f0": ("posO",),
    "f1": ("pos1",),
    "f2": ("pos2",),
    "psi": ("pos1", "pos1"),
    "sigma": ("posO",),
}


def assert_walks_are_the_table_domains(
    owner, tables: dict, walks: dict, source: FinBicat, target: FinBicat, rows: dict
) -> None:
    """Each walk yields its table's keys once each, by declaration position, as ``rows`` lists them.

    Each value also lies in the frame its key's walk yields, as a cell of ``target``.
    """
    assert list(tables) == list(walks)
    for name, parts in walks.items():
        spec, table = tables[name], getattr(owner, name)
        keys = list(spec.walk(owner))
        pos = [getattr(source, part) for part in parts]
        tupled = [k if len(parts) > 1 else (k,) for k in keys]
        assert sorted(tupled, key=lambda k: tuple(p(x) for p, x in zip(pos, k))) == tupled, name
        assert len(set(keys)) == len(keys) == len(table) and set(keys) == set(table), name
        assert [tuple(row[:-1]) for row in rows[name]] == tupled, name
        for key, frame in spec.frames(owner):
            if frame:
                cell = target.one(table[key]) if spec.value == "1-cell" else target.two(table[key])
                assert (cell.src, cell.tgt) == frame, (name, key)


def assert_bicat_walks(B: FinBicat) -> None:
    rows = json.loads(export_presentation(Presentation(B, {}, {}, B.name)))
    assert_walks_are_the_table_domains(B, core.TABLES, WALKS, B, B, rows)


def assert_psfun_walks(F) -> None:
    (rows,) = json.loads(export_presentation(Presentation(F.source, {}, {"F": F})))["psfuns"]
    assert_walks_are_the_table_domains(F, PSFUN_TABLES, PSFUN_WALKS, F.source, F.target, rows)


def test_domain_walks_are_the_table_domains():
    docs = [load_document(str(p)) for p in sorted(FIXTURE_DIR.glob("*.json"))]
    assert "discrete2" in {d.bicat.name for d in docs}
    cases = pinned_classes()
    assert len(docs) == 8 and len(cases) == len(LOCALIZATION_DIGESTS)
    for doc in docs:
        assert_bicat_walks(doc.bicat)
        for F in doc.psfuns.values():
            assert_psfun_walks(F)
    for _, B, W in cases:
        assert_bicat_walks(materialize_fractions(B, W, validate=False).bicat)
    suite = theorem_suite()
    assert len(suite) == 7
    for case in suite:
        assert_psfun_walks(case.psfun)
        assert_psfun_walks(induce_g_tilde(case.psfun, case.w_src, case.w_tgt).psfun)
