"""Classes of 1-cells: closure axioms, fillers, saturation, quasi-units."""

import dataclasses
import hashlib

import pytest

from bicfrac import wclass
from bicfrac.builders import appendix_toy, arrow2, iso2, iso2_classes, toy_classes
from bicfrac.conditions import check_family
from bicfrac.fractions import materialize_fractions
from bicfrac.presentation import load_document
from bicfrac.psfun import identity_psfun
from bicfrac.wclass import (
    WClass,
    check_bf,
    find_bf3_filler,
    internal_equivalences_class,
    is_saturated,
    quasi_units,
    saturate,
)
from test_fractions import FIXTURE_DIR, pinned_classes
from test_law_reference import chain_localization, lax_unitor_sources, mutants, sources, thick_sources


@pytest.fixture
def toy():
    return appendix_toy()


@pytest.fixture
def classes(toy):
    return toy_classes(toy)


def test_wclass_container_protocol(toy, classes):
    W = classes["W"]
    assert "v" in W and "idA" in W
    assert len(W) == 3
    assert set(W) == {"idA", "idB", "v"}
    assert WClass.of(toy, ["v"], "x").members == frozenset({"v"})
    with pytest.raises(Exception):
        WClass.of(toy, ["ghost"], "x")


def test_full_and_minimal_classes_satisfy_axioms(toy, classes):
    for name in ("W", "Wmin"):
        rep = check_bf(toy, classes[name])
        assert rep.passed, [v.axiom for v in rep.verdicts.values() if not v.holds]


def test_class_without_identity_fails(toy, classes):
    rep = check_bf(toy, classes["WnoId"])
    assert not rep.passed
    failed = {v.axiom for v in rep.verdicts.values() if not v.holds}
    assert failed == {"BF1", "BF3", "BF4"}
    assert rep["BF1"].counterexample == ("A", "idA")


def test_bf3_filler_square(toy, classes):
    W = classes["W"]
    # Cospan idB <- B -> B with v: the least square routes through A.
    assert find_bf3_filler(toy, W, "v", "idB") == ("A", "v", "idA", "iv")
    assert find_bf3_filler(toy, W, "idB", "idB") == ("A", "v", "v", "iv")
    assert find_bf3_filler(toy, classes["Wmin"], "idB", "idB") == ("B", "idB", "idB", "iB")


def test_saturation(toy, classes):
    W, Wmin = classes["W"], classes["Wmin"]
    sat_min = saturate(toy, Wmin)
    assert sat_min.members.members == {"idA", "idB"}
    assert saturate(toy, W).members.members == {"idA", "idB", "v"}
    assert is_saturated(toy, W)
    assert not is_saturated(iso2(), iso2_classes(iso2())["Wmin"])
    for f, (g, h) in sat_min.witnesses.items():
        assert toy.hcomp1[(f, g)] in Wmin and toy.hcomp1[(g, h)] in Wmin


def test_saturation_of_minimal_class_is_the_equivalences(toy, classes):
    i2 = iso2()
    got = saturate(i2, iso2_classes(i2)["Wmin"]).members.members
    assert got == internal_equivalences_class(i2).members
    assert (
        saturate(toy, classes["Wmin"]).members.members
        == internal_equivalences_class(toy).members
    )


def test_quasi_units(toy):
    assert quasi_units(toy).members == {"idA", "idB"}
    assert quasi_units(iso2()).members == {"idX", "idY"}
    assert quasi_units(arrow2()).members == {"idX", "idY"}


def test_bf_verdicts_carry_witnesses(toy, classes):
    rep = check_bf(toy, classes["W"])
    v3 = rep["BF3"]
    assert v3.holds and v3.witness is not None
    assert v3.checked > 0


def test_a_report_is_decided_once_per_member_set(toy, classes):
    W = classes["W"]
    assert check_bf(toy, W) is check_bf(toy, WClass(W.members, "again"))
    assert check_bf(toy, W) is not check_bf(toy, classes["Wmin"])


def count_calls(monkeypatch, name: str) -> list:
    """The arguments of every call of ``wclass.<name>`` from now on."""
    calls = []
    real = getattr(wclass, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(wclass, name, counted)
    return calls


def test_each_refinement_is_decided_once_per_report(monkeypatch):
    L = chain_localization(3)
    calls = count_calls(monkeypatch, "_bf4c_refinement")
    report = check_bf(L, WClass(frozenset(c.id for c in L.one_cells), "all"))
    assert report.passed and report["BF4"].clauses["c"].checked == 2406
    assert len(calls) == len({args[2:] for args in calls}) == 447


def test_a_thin_base_composes_no_bf4_equation(monkeypatch):
    L = chain_localization(4)
    composed = count_calls(monkeypatch, "vfold")
    report = check_bf(L, WClass(frozenset(c.id for c in L.one_cells), "all"))
    assert report.passed and report["BF4"].clauses["c"].checked == 27474
    assert composed == []


def test_each_saturation_is_computed_once_per_member_set(toy, classes, monkeypatch):
    calls = count_calls(monkeypatch, "_saturation_witnesses")
    Wmin = classes["Wmin"]
    check_family(identity_psfun(toy), "A", Wmin, Wmin)
    assert len(calls) == 1
    first = saturate(toy, Wmin)
    again = saturate(toy, WClass(Wmin.members, "other"))
    assert len(calls) == 1
    assert first.members == again.members and first.witnesses == again.witnesses
    assert (first.members.name, again.members.name) == ("sat(Wmin)", "sat(other)")
    first.witnesses.clear()
    assert saturate(toy, Wmin).witnesses == again.witnesses
    saturate(toy, classes["W"])
    assert len(calls) == 2


def every_class(B):
    """``B`` at all its 1-cells, its quasi-units, its internal equivalences and its identities."""
    return [
        WClass(frozenset(c.id for c in B.one_cells), "all"),
        quasi_units(B),
        internal_equivalences_class(B),
        WClass(frozenset(B.id1.values()), "ids"),
    ]


def bf_cases():
    """``(B, W)`` for every closure-axiom report pinned below.

    Every class of each fixture document; the pinned localization classes;
    each of those localizations but `chain(5)` and `chain(6)` at the classes
    of `every_class`; the thickened bicategories at all 1-cells and at
    identities; and each well-typed single-entry mutant of the lawful,
    thickened and lax-unitor sources at all 1-cells, quasi-units and
    identities.
    """
    cases = []
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        doc = load_document(str(path))
        cases += [(doc.bicat, W) for W in doc.classes.values()]
    pinned = pinned_classes()
    cases += [(B, W) for _, B, W in pinned]
    for label, B, W in pinned:
        if not label.startswith(("chain5:", "chain6:")):
            L = materialize_fractions(B, W).bicat
            cases += [(L, V) for V in every_class(L)]
    for T in thick_sources():
        all_, _, _, ids = every_class(T)
        cases += [(T, all_), (T, ids)]
    names = ("vcomp", "whisk_left", "whisk_right", "assoc", "runit", "lunit")
    for B in sources()[:-1] + thick_sources() + lax_unitor_sources():
        for name, table in mutants(B, {n: getattr(B, n) for n in names}):
            M = dataclasses.replace(B, strict=False, **{name: table})
            all_, quasi, _, ids = every_class(M)
            cases += [(M, all_), (M, quasi), (M, ids)]
    return cases


# sha256 over the `repr` of each `check_bf` report of `bf_cases`, in order,
# as decided by the hand-written loops that the quantifier helpers replaced:
# every verdict, witness, counterexample, detail, count and clause.
BF_CASES = 664
BF_REPORTS_DIGEST = "95dcc73ec1d40ad6a93a6ae850577ef0e22cf444929a656d95435126ec13a441"


def test_the_pinned_reports_decide_bf4_equations_both_ways(monkeypatch):
    """Some BF4 equations fall to the one-cell-frame rule and some are composed."""
    frames = {True: 0, False: 0}
    real = wclass._one_cell

    def counted(*args):
        one = real(*args)
        frames[one] += 1
        return one

    monkeypatch.setattr(wclass, "_one_cell", counted)
    composed = count_calls(monkeypatch, "vfold")
    for B, W in bf_cases():
        check_bf(B, W)
    assert frames[True] > 0 and frames[False] > 0 and len(composed) > 0


def test_closure_axiom_reports_match_the_pinned_digest():
    cases = bf_cases()
    digest = hashlib.sha256()
    for B, W in cases:
        digest.update(repr(check_bf(B, W)).encode())
    assert (len(cases), digest.hexdigest()) == (BF_CASES, BF_REPORTS_DIGEST)
