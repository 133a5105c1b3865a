"""Acceptance gate: one test per published criterion, one verdict line each.

Every test prints a single ``criterion N: PASS/FAIL`` line so the suite
log doubles as the acceptance report.
"""

import time
from pathlib import Path

from bicfrac.builders import appendix_toy, theorem_suite, toy_classes
from bicfrac.cli import run_command
from bicfrac.conditions import check_A, check_B, check_EF, is_weak_equivalence
from bicfrac.core import PreconditionError, hcompose1, internal_equivalences, validate_bicat
from bicfrac.fractions import induce_g_tilde, materialize_fractions, universal_pseudofunctor
from bicfrac.presentation import load_document
from bicfrac.psfun import identity_psfun
from bicfrac.wclass import WClass, check_bf, quasi_units, saturate

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "bicfrac" / "fixtures"
FIXTURES = sorted(FIXTURE_DIR.glob("*.json"))
assert FIXTURES, f"no fixture documents in {FIXTURE_DIR}"


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def load_all():
    return {p.stem: load_document(str(p)) for p in FIXTURES}


def test_criterion_1_demo_scenario_verifies_the_worked_example(capsys):
    t0 = time.perf_counter()
    B = appendix_toy()
    W = toy_classes(B)["W"]
    ok = check_bf(B, W).passed
    loc = materialize_fractions(B, W)
    U = universal_pseudofunctor(loc)
    ok &= U.f2["loop"] == U.f2["iB"]
    r3 = check_EF(U, W, 3)
    ok &= (not r3.holds) and set(r3.counterexample[-2:]) == {"iB", "loop"}
    ok &= all(check_B(U, W, i).holds for i in range(1, 6))
    code = run_command(["demo", "appendix-toy"])
    capsys.readouterr()
    ok &= code == 0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    with capsys.disabled():
        verdict(1, ok, f"demo facts verified in {elapsed:.2f}s (limit 10s)")


def test_criterion_2_fraction_constructions_validate(capsys):
    docs = load_all()
    jobs = [
        ("appx-toy", "W"),
        ("appx-toy-loopy", "W"),
        ("iso2", "W"),
        ("arrow2", "W"),
    ]
    ok = True
    worst = 0.0
    for name, cname in jobs:
        doc = docs[name]
        t0 = time.perf_counter()
        loc = materialize_fractions(doc.bicat, doc.classes[cname], validate=False)
        rep = validate_bicat(loc.bicat)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        ok &= rep.passed and elapsed < 60.0
    with capsys.disabled():
        verdict(2, ok, f"4 localizations validate, slowest {worst:.2f}s (limit 60s each)")


def test_criterion_3_induced_lift_is_equivalence_iff_conditions_hold(capsys):
    t0 = time.perf_counter()
    suite = list(theorem_suite())
    ok = len(suite) >= 5
    failure_profiles = []
    agree = True
    for case in suite:
        a_verdicts = [
            check_A(case.psfun, case.w_src, case.w_tgt, i).holds for i in range(1, 6)
        ]
        failure_profiles.append(5 - sum(a_verdicts))
        lifted = induce_g_tilde(case.psfun, case.w_src, case.w_tgt)
        agree &= is_weak_equivalence(lifted.psfun).passed == all(a_verdicts)
    ok &= agree
    ok &= 0 in failure_profiles
    ok &= 1 in failure_profiles
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    with capsys.disabled():
        verdict(
            3,
            ok,
            f"{len(suite)} scenarios, lift-equivalence agrees with conditions, "
            f"profiles incl. all-pass and exactly-one-fail, {elapsed:.2f}s (limit 300s)",
        )


def test_criterion_4_minimal_target_class_collapses_the_two_families(capsys):
    matched = 0
    agree = True
    for case in theorem_suite():
        qu = frozenset(quasi_units(case.psfun.target))
        if case.w_tgt.members != qu:
            continue
        matched += 1
        for i in range(1, 6):
            a = check_A(case.psfun, case.w_src, case.w_tgt, i).holds
            b = check_B(case.psfun, case.w_src, i).holds
            agree &= a == b
    ok = matched >= 1 and agree
    with capsys.disabled():
        verdict(4, ok, f"families agree on all {matched} minimal-target scenarios")


def test_criterion_5_strict_family_implies_relaxed_family(capsys):
    implications = 0
    ok = True
    for case in theorem_suite():
        ef_all = all(check_EF(case.psfun, case.w_src, i).holds for i in range(1, 4))
        if not ef_all:
            continue
        try:
            b_all = all(check_B(case.psfun, case.w_src, i).holds for i in range(1, 6))
        except PreconditionError:
            continue
        implications += 1
        ok &= b_all
    B = appendix_toy()
    W = toy_classes(B)["W"]
    U = universal_pseudofunctor(materialize_fractions(B, W))
    relaxed_without_strict = all(check_B(U, W, i).holds for i in range(1, 6)) and not check_EF(
        U, W, 3
    ).holds
    ok &= relaxed_without_strict
    with capsys.disabled():
        verdict(
            5,
            ok,
            f"implication held on {implications} qualifying scenarios; "
            "universal map separates the families",
        )


def test_criterion_6_saturation_laws_on_every_closed_class(capsys):
    checked = 0
    ok = True
    for name, doc in load_all().items():
        B = doc.bicat
        equivs = frozenset(internal_equivalences(B))
        for cname, W in doc.classes.items():
            if not check_bf(B, W).passed:
                continue
            checked += 1
            sat = saturate(B, W).members.members
            ok &= W.members <= sat
            again = saturate(B, WClass(frozenset(sat), "sat")).members.members
            ok &= again == sat
            for w in sat:
                for u in (c.id for c in B.one_cells):
                    if B.one(u).tgt != B.one(w).src:
                        continue
                    if hcompose1(B, w, u) in sat:
                        ok &= u in sat
        Wq = WClass(frozenset(quasi_units(B)), "q")
        if check_bf(B, Wq).passed:
            ok &= saturate(B, Wq).members.members == equivs
    ok &= checked > 0
    with capsys.disabled():
        verdict(6, ok, f"closure, idempotence, two-out-of-three on {checked} class tables")


def test_criterion_7_identity_and_minimal_universal_maps_are_equivalences(capsys):
    ok = True
    for name, doc in load_all().items():
        ok &= is_weak_equivalence(identity_psfun(doc.bicat)).passed
    for name in ("appx-toy", "iso2"):
        doc = load_document(FIXTURE_DIR / f"{name}.json")
        Wq = WClass(frozenset(quasi_units(doc.bicat)), "Wmin")
        U = universal_pseudofunctor(materialize_fractions(doc.bicat, Wq))
        ok &= is_weak_equivalence(U).passed
    with capsys.disabled():
        verdict(7, ok, "identities everywhere, universal maps at the minimal class")
