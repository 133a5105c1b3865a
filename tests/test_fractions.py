"""Spans, representative classes and the materialized fraction bicategory."""

import dataclasses
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from bicfrac.builders import appendix_toy, arrow2, iso2, iso2_classes, toy_classes, toyq
from bicfrac.core import FinBicat, PreconditionError, validate_bicat
from bicfrac.fractions import (
    LocalizationError,
    Span,
    TwoCellRep,
    compose_spans,
    enumerate_spans,
    materialize_fractions,
    rep_equivalence_witness,
    reps_equivalent,
    span_is_equivalence,
    universal_pseudofunctor,
)
from bicfrac.presentation import load_document
from bicfrac.wclass import WClass, check_bf

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
    lawless = dataclasses.replace(toy, vcomp=vcomp, _cache={})
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
    checked = []
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        doc = load_document(str(path))
        for cname, W in doc.classes.items():
            if check_bf(doc.bicat, W).passed:
                assert_reference_coherence_cells(doc.bicat, W)
                checked.append(f"{path.stem}:{cname}")
    assert len(checked) == 13, checked


@pytest.mark.parametrize("family,size", [
    ("chain", 2), ("chain", 3), ("chain", 4),
    ("cyclic_loop", 2), ("cyclic_loop", 3), ("cyclic_loop", 4),
])
def test_coherence_cells_match_the_reference_on_generated_instances(family, size):
    inst = getattr(bench_corpus(), family)(size, random.Random(size))
    B = inst.build()
    for cname, members in inst.classes.items():
        assert_reference_coherence_cells(B, WClass.of(B, members, cname))
