"""Pseudofunctor validation, class transport and localization lifts."""

import dataclasses
import random

import pytest

from bicfrac.builders import (
    appendix_toy,
    collapse_loop,
    discrete2,
    fold_discrete2,
    iso2,
    iso2_classes,
    point_into_discrete2,
    toy_classes,
    toyq,
    toyq_classes,
    trivial_one,
)
from bicfrac.core import PreconditionError, validate_bicat, vertical_pairs
from bicfrac.fractions import g_tilde_on_two_cell, induce_g_tilde, materialize_fractions
from bicfrac.psfun import identity_psfun, maps_into, validate_psfun
from bicfrac.wclass import internal_equivalences_class, saturate
from test_fractions import bench_corpus


@pytest.fixture
def toy():
    return appendix_toy()


@pytest.fixture
def classes(toy):
    return toy_classes(toy)


def test_builders_validate(toy):
    q = toyq()
    pt = trivial_one()
    d2 = discrete2()
    for F in (
        identity_psfun(toy),
        collapse_loop(toy, q),
        point_into_discrete2(pt, d2),
        fold_discrete2(d2, pt),
    ):
        rep = validate_psfun(F)
        assert rep.passed, (F.name, rep.violations)


def test_validator_catches_broken_two_cell_map(toy):
    F = identity_psfun(toy)
    f2 = dict(F.f2)
    f2["iB"] = "loop"  # the identity 2-cell must land on an identity 2-cell
    rep = validate_psfun(dataclasses.replace(F, f2=f2))
    assert not rep.passed


def test_validator_catches_broken_compositor(toy):
    F = identity_psfun(toy)
    psi = dict(F.psi)
    psi[("idB", "v")] = "loop"  # wrong boundary for the compositor at (idB, v)
    rep = validate_psfun(dataclasses.replace(F, psi=psi))
    assert not rep.passed


@pytest.mark.parametrize("side", ["source", "target"])
def test_validator_reports_the_faults_of_either_side(side):
    B = bench_corpus().chain(3, random.Random(3)).build()
    broken = dataclasses.replace(B, vcomp={})
    F = dataclasses.replace(identity_psfun(B), **{side: broken})
    rep = validate_psfun(F)
    assert not rep.passed
    assert {v.law for v in rep.violations} == {f"{side}:structure:vcomp"}
    assert len(rep.violations) == len(list(vertical_pairs(B)))
    b, a = next(vertical_pairs(B))
    assert rep.violations[0].entry == f"vcomp[{(b.id, a.id)!r}]"
    assert rep.violations[0].detail == "missing entry"


def test_maps_into(toy, classes):
    F = identity_psfun(toy)
    ok, escape = maps_into(F, classes["W"], classes["W"])
    assert ok and escape is None
    ok, escape = maps_into(F, classes["W"], classes["Wmin"])
    assert not ok and escape == "v"
    ok, escape = maps_into(F, classes["W"], internal_equivalences_class(toy))
    assert not ok and escape == "v"
    ok, _ = maps_into(F, classes["Wmin"], saturate(toy, classes["Wmin"]).members)
    assert ok


def test_induced_lift_validates_and_maps_spans(toy, classes):
    res = induce_g_tilde(identity_psfun(toy), classes["Wmin"], classes["W"])
    lift = res.psfun
    assert res.report.passed
    assert validate_psfun(lift).passed
    assert set(lift.f0) == {"A", "B"}
    for sid, image in lift.f1.items():
        assert image in {c.id for c in lift.target.one_cells}


def test_lift_two_cell_images_respect_composition(toy, classes):
    res = induce_g_tilde(identity_psfun(toy), classes["Wmin"], classes["W"])
    src_loc, tgt_loc = res.source_loc, res.target_loc
    lift = res.psfun
    for cid in lift.f2:
        assert (
            g_tilde_on_two_cell(identity_psfun(toy), src_loc, tgt_loc, cid)
            == lift.f2[cid]
        )


def test_lift_requires_class_transport(toy, classes):
    with pytest.raises(PreconditionError):
        induce_g_tilde(identity_psfun(toy), classes["W"], classes["Wmin"])


def test_lift_refuses_a_localization_of_another_base_or_class():
    B = iso2()
    F = identity_psfun(B)
    cls = iso2_classes(B)
    W, Wmin = cls["W"], cls["Wmin"]
    # The target must be localized at sat(Wmin) = W, not at Wmin itself.
    with pytest.raises(PreconditionError, match="target localization"):
        induce_g_tilde(F, Wmin, Wmin, target_loc=materialize_fractions(B, Wmin))
    with pytest.raises(PreconditionError, match="source localization"):
        induce_g_tilde(F, Wmin, W, source_loc=materialize_fractions(B, W))
    toy = appendix_toy()
    with pytest.raises(PreconditionError, match="source localization"):
        induce_g_tilde(F, Wmin, W, source_loc=materialize_fractions(toy, toy_classes(toy)["Wmin"]))
    res = induce_g_tilde(F, Wmin, Wmin, source_loc=materialize_fractions(B, Wmin),
                         target_loc=materialize_fractions(B, W))
    assert res.report.passed


def test_collapse_lift_between_quotients(toy):
    q = toyq()
    res = induce_g_tilde(
        collapse_loop(toy, q), toy_classes(toy)["W"], toyq_classes(q)["W"]
    )
    assert res.report.passed
    assert validate_bicat(res.psfun.target).passed
