"""The law checks against the product-filtering loops they replaced.

`reference_law_violations` and `reference_psfun_law_violations` are the law
checks as they were when every domain was a filtered product of cells, and
they never ask whether a frame is thin.  Each well-typed single-entry mutant
of the sources below, made by replacing one value of a 2-cell table with
another 2-cell of the same frame, must get the same violation list from
`validate_bicat` or `validate_psfun`, order included.

A thin frame has no such mutant, so two more kinds reach the thin-frame
rule from both sides: `thickened` sources, where one frame of a thin
bicategory gets a second cell and its laws are checked in full again, and
`lax_unitor_sources`, thin bicategories whose unitors have no reverse cell,
so the rule must decide their invertibility.
"""

import dataclasses
import itertools
import random

from bicfrac.builders import (
    appendix_toy,
    arrow2,
    collapse_loop,
    iso2,
    strict_psfun,
    toyq,
)
from bicfrac.core import (
    TABLES,
    FinBicat,
    TwoCell,
    Violation,
    hcompose2,
    is_invertible2,
    two_cell_inverse,
    validate_bicat,
    vcompose,
    whisker_left,
    whisker_right,
)
from bicfrac.fractions import materialize_fractions
from bicfrac.psfun import PsFun, identity_psfun, validate_psfun
from bicfrac.wclass import WClass
from test_fractions import bench_corpus


def vcompose_all(B: FinBicat, factors: list[str]) -> str:
    """Vertical composite of 2-cell ids in application order, unchecked, as the reference had it."""
    out = factors[0]
    for nxt in factors[1:]:
        out = vcompose(B, nxt, out)
    return out


def reference_law_violations(B: FinBicat) -> list[Violation]:
    out: list[Violation] = []
    V = B.vcomp
    add = out.append

    two = B.two_cells
    for a in two:
        ia, it = B.id2[a.src], B.id2[a.tgt]
        if V[(a.id, ia)] != a.id:
            add(Violation("hom-category:unit", (a.id,), "right identity fails"))
        if V[(it, a.id)] != a.id:
            add(Violation("hom-category:unit", (a.id,), "left identity fails"))
    by_src: dict[str, list[TwoCell]] = {}
    for t in two:
        by_src.setdefault(t.src, []).append(t)
    for a in two:
        for b in by_src.get(a.tgt, []):
            ba = V[(b.id, a.id)]
            for c in by_src.get(b.tgt, []):
                if V[(c.id, ba)] != V[(V[(c.id, b.id)], a.id)]:
                    add(Violation("hom-category:assoc", (c.id, b.id, a.id), ""))

    for g in B.one_cells:
        for f in B.one_cells:
            if g.src != f.tgt:
                continue
            gf = B.hcomp1[(g.id, f.id)]
            if B.whisk_left[(g.id, B.id2[f.id])] != B.id2[gf]:
                add(Violation("whisker:identity", (g.id, f.id), "left whisker of identity"))
            if B.whisk_right[(B.id2[g.id], f.id)] != B.id2[gf]:
                add(Violation("whisker:identity", (g.id, f.id), "right whisker of identity"))
    for a in two:
        for b in by_src.get(a.tgt, []):
            ba = V[(b.id, a.id)]
            ao = B.one(a.src)
            for g in B.one_cells:
                if g.src == ao.tgt:
                    lhs = B.whisk_left[(g.id, ba)]
                    rhs = V[(B.whisk_left[(g.id, b.id)], B.whisk_left[(g.id, a.id)])]
                    if lhs != rhs:
                        add(Violation("whisker:compose", (g.id, b.id, a.id), "left whisker"))
            for f in B.one_cells:
                if f.tgt == ao.src:
                    lhs = B.whisk_right[(ba, f.id)]
                    rhs = V[(B.whisk_right[(b.id, f.id)], B.whisk_right[(a.id, f.id)])]
                    if lhs != rhs:
                        add(Violation("whisker:compose", (b.id, a.id, f.id), "right whisker"))

    for a in two:  # a: f ⇒ f' over (X → Y)
        ao = B.one(a.src)
        for b in two:  # b: g ⇒ g' over (Y → Z)
            if B.one(b.src).src != ao.tgt:
                continue
            one = V[(B.whisk_right[(b.id, a.tgt)], B.whisk_left[(b.src, a.id)])]
            other = V[(B.whisk_left[(b.tgt, a.id)], B.whisk_right[(b.id, a.src)])]
            if one != other:
                add(Violation("interchange", (b.id, a.id), ""))

    for key, th in B.assoc.items():
        if two_cell_inverse(B, th) is None:
            add(Violation("assoc:invertible", key, ""))
    for f in B.one_cells:
        if two_cell_inverse(B, B.runit[f.id]) is None:
            add(Violation("unitor:invertible", (f.id, "right"), ""))
        if two_cell_inverse(B, B.lunit[f.id]) is None:
            add(Violation("unitor:invertible", (f.id, "left"), ""))

    comp_pairs = [(g, f) for g in B.one_cells for f in B.one_cells if g.src == f.tgt]
    for a in two:  # naturality of the associator in each slot
        ao = B.one(a.src)
        for (g, f) in comp_pairs:
            if g.tgt == ao.src:  # slot h
                gf = B.hcomp1[(g.id, f.id)]
                lhs = V[(B.assoc[(a.tgt, g.id, f.id)], B.whisk_right[(a.id, gf)])]
                rhs = V[(B.whisk_right[(B.whisk_right[(a.id, g.id)], f.id)], B.assoc[(a.src, g.id, f.id)])]
                if lhs != rhs:
                    add(Violation("assoc:natural", (a.id, g.id, f.id), "outer slot"))
        for h in B.one_cells:
            for f in B.one_cells:
                if h.src == ao.tgt and f.tgt == ao.src:  # slot g
                    lhs = V[(B.assoc[(h.id, a.tgt, f.id)], B.whisk_left[(h.id, B.whisk_right[(a.id, f.id)])])]
                    rhs = V[(B.whisk_right[(B.whisk_left[(h.id, a.id)], f.id)], B.assoc[(h.id, a.src, f.id)])]
                    if lhs != rhs:
                        add(Violation("assoc:natural", (h.id, a.id, f.id), "middle slot"))
        for (h, g) in comp_pairs:
            if g.src == ao.tgt:  # slot f
                hg = B.hcomp1[(h.id, g.id)]
                lhs = V[(B.assoc[(h.id, g.id, a.tgt)], B.whisk_left[(h.id, B.whisk_left[(g.id, a.id)])])]
                rhs = V[(B.whisk_left[(hg, a.id)], B.assoc[(h.id, g.id, a.src)])]
                if lhs != rhs:
                    add(Violation("assoc:natural", (h.id, g.id, a.id), "inner slot"))

    for a in two:
        ao = B.one(a.src)
        lhs = V[(B.runit[a.tgt], B.whisk_right[(a.id, B.id1[ao.src])])]
        if lhs != V[(a.id, B.runit[a.src])]:
            add(Violation("unitor:natural", (a.id, "right"), ""))
        lhs = V[(B.lunit[a.tgt], B.whisk_left[(B.id1[ao.tgt], a.id)])]
        if lhs != V[(a.id, B.lunit[a.src])]:
            add(Violation("unitor:natural", (a.id, "left"), ""))

    for k in B.one_cells:
        for h in B.one_cells:
            if h.tgt != k.src:
                continue
            for g in B.one_cells:
                if g.tgt != h.src:
                    continue
                for f in B.one_cells:
                    if f.tgt != g.src:
                        continue
                    kh = B.hcomp1[(k.id, h.id)]
                    hg = B.hcomp1[(h.id, g.id)]
                    gf = B.hcomp1[(g.id, f.id)]
                    two_step = V[(B.assoc[(kh, g.id, f.id)], B.assoc[(k.id, h.id, gf)])]
                    three_step = V[(
                        B.whisk_right[(B.assoc[(k.id, h.id, g.id)], f.id)],
                        V[(B.assoc[(k.id, hg, f.id)], B.whisk_left[(k.id, B.assoc[(h.id, g.id, f.id)])])],
                    )]
                    if two_step != three_step:
                        add(Violation("pentagon", (k.id, h.id, g.id, f.id), ""))

    for g in B.one_cells:
        for f in B.one_cells:
            if g.src != f.tgt:
                continue
            mid = B.id1[f.tgt]
            lhs = V[(B.whisk_right[(B.runit[g.id], f.id)], B.assoc[(g.id, mid, f.id)])]
            if lhs != B.whisk_left[(g.id, B.lunit[f.id])]:
                add(Violation("triangle", (g.id, f.id), ""))
    return out


def reference_psfun_law_violations(F: PsFun) -> list[Violation]:
    S, T = F.source, F.target
    out: list[Violation] = []
    add = out.append

    for c in S.one_cells:
        if F.f2[S.id2[c.id]] != T.id2[F.f1[c.id]]:
            add(Violation("psfun:identities", (c.id,), "identity 2-cell not preserved"))
    for b in S.two_cells:
        for a in S.two_cells:
            if a.tgt != b.src:
                continue
            lhs = F.f2[S.vcomp[(b.id, a.id)]]
            rhs = T.vcomp[(F.f2[b.id], F.f2[a.id])]
            if lhs != rhs:
                add(Violation("psfun:vertical", (b.id, a.id), "composite not preserved"))

    for key, p in F.psi.items():
        if not is_invertible2(T, p):
            add(Violation("psfun:compositor-invertible", key, ""))
    for x, s in F.sigma.items():
        if not is_invertible2(T, s):
            add(Violation("psfun:unit-invertible", (x,), ""))
    if out:
        return out

    for b in S.two_cells:  # b: g ⇒ g'
        go = S.one(b.src)
        for a in S.two_cells:  # a: f ⇒ f'
            if S.one(a.src).tgt != go.src:
                continue
            lhs = vcompose(
                T,
                F.psi[(b.tgt, a.tgt)],
                F.f2[hcompose2(S, b.id, a.id)],
            )
            rhs = vcompose(
                T,
                hcompose2(T, F.f2[b.id], F.f2[a.id]),
                F.psi[(b.src, a.src)],
            )
            if lhs != rhs:
                add(Violation("psfun:compositor-natural", (b.id, a.id), ""))

    for h in S.one_cells:
        for g in S.one_cells:
            if h.src != g.tgt:
                continue
            hg = S.hcomp1[(h.id, g.id)]
            for f in S.one_cells:
                if g.src != f.tgt:
                    continue
                gf = S.hcomp1[(g.id, f.id)]
                route1 = vcompose_all(T, [
                    F.f2[S.assoc[(h.id, g.id, f.id)]],
                    F.psi[(hg, f.id)],
                    whisker_right(T, F.psi[(h.id, g.id)], F.f1[f.id]),
                ])
                route2 = vcompose_all(T, [
                    F.psi[(h.id, gf)],
                    whisker_left(T, F.f1[h.id], F.psi[(g.id, f.id)]),
                    T.assoc[(F.f1[h.id], F.f1[g.id], F.f1[f.id])],
                ])
                if route1 != route2:
                    add(Violation("psfun:hexagon", (h.id, g.id, f.id), ""))

    for c in S.one_cells:
        fid = F.f1[c.id]
        ida = S.id1[c.src]
        lhs = vcompose_all(T, [
            whisker_left(T, fid, F.sigma[c.src]),
            T.runit[fid],
        ])
        psi_inv = two_cell_inverse(T, F.psi[(c.id, ida)])
        rhs = vcompose_all(T, [psi_inv, F.f2[S.runit[c.id]]])
        if lhs != rhs:
            add(Violation("psfun:right-unit", (c.id,), ""))
        idb = S.id1[c.tgt]
        lhs = vcompose_all(T, [
            whisker_right(T, F.sigma[c.tgt], fid),
            T.lunit[fid],
        ])
        psi_inv = two_cell_inverse(T, F.psi[(idb, c.id)])
        rhs = vcompose_all(T, [psi_inv, F.f2[S.lunit[c.id]]])
        if lhs != rhs:
            add(Violation("psfun:left-unit", (c.id,), ""))
    return out


def chain_localization(n: int) -> FinBicat:
    """The localization of `chain(n)` at all its 1-cells."""
    inst = bench_corpus().chain(n, random.Random(n))
    B = inst.build()
    return materialize_fractions(B, WClass.of(B, inst.classes["all"], "all")).bicat


def sources() -> list[FinBicat]:
    """The toy, the loopy toy, `iso2`, `arrow2`, `cyclic_loop(3)`, `chain(3)` and `chain(5)` localized."""
    corpus = bench_corpus()
    return [
        appendix_toy(),
        appendix_toy(loop_square="loop"),
        iso2(),
        arrow2(),
        corpus.cyclic_loop(3, random.Random(3)).build(),
        corpus.chain(3, random.Random(3)).build(),
        chain_localization(5),
    ]


def thickened(B: FinBicat, c: str) -> FinBicat:
    """``B`` with a second cell ``c'`` in the frame of ``c``, acting as ``c`` does.

    Each `vcomp`, `whisk_left` and `whisk_right` row with ``c`` in its key
    gets twins with ``c'`` in any of those places and the same value, so the
    tables stay total and well typed.  ``c'`` is never a value, so the laws
    that hold of ``c`` (its identity law first) can fail of ``c'``.
    """
    t = B.two(c)
    twin = f"{c}'"

    def twins(table: dict) -> dict:
        out = dict(table)
        for key, v in table.items():
            for k in itertools.product(*([p, twin] if p == c else [p] for p in key)):
                out.setdefault(k, v)
        return out

    return dataclasses.replace(
        B,
        two_cells=B.two_cells + (TwoCell(twin, t.src, t.tgt),),
        vcomp=twins(B.vcomp),
        whisk_left=twins(B.whisk_left),
        whisk_right=twins(B.whisk_right),
        name=f"{B.name}+{twin}",
    )


def thick_pairs() -> list[tuple[FinBicat, FinBicat]]:
    """``(B, thickened B)`` for `chain(3)` at each frame and its localization at its first two.

    Those two are the identity class of the first span and a class between
    two spans; the localization's other frames would add seconds, not kinds.
    """
    B = bench_corpus().chain(3, random.Random(3)).build()
    L = chain_localization(3)
    return [(B, thickened(B, t.id)) for t in B.two_cells] + [(L, thickened(L, t.id)) for t in L.two_cells[:2]]


def thick_sources() -> list[FinBicat]:
    return [T for _, T in thick_pairs()]


def refilled(B: FinBicat, hcomp1: dict) -> FinBicat:
    """The thin ``B`` with new 1-cell composites and every 2-cell table refilled.

    Each whisker, associator and unitor entry becomes the one cell of the
    frame its key now dictates.  Vertical composites and identities do not
    depend on ``hcomp1`` and are kept.
    """
    H = {**B.hcomp1, **hcomp1}
    over = dataclasses.replace(B, hcomp1=H)  # whose frames look up the new composites

    def only(f: str, g: str) -> str:
        (cell,) = B.cells2(f, g)
        return cell

    refills = ("whisk_left", "whisk_right", "assoc", "runit", "lunit")
    return dataclasses.replace(
        B,
        hcomp1=H,
        **{name: {key: only(*frame) for key, frame in TABLES[name].frames(over)} for name in refills},
        strict=False,
        name=f"{B.name}~{sorted(hcomp1)}",
    )


def lax_unitor_sources() -> list[FinBicat]:
    """`arrow2` with ``b∘idX``, ``idY∘b`` or both made ``a``.

    Each is thin and well typed, and the unitor ``a ⇒ b`` of ``b`` it
    forces is ``nu``, which has no reverse cell, so it is not invertible.
    """
    A = arrow2()
    right, left = {("b", "idX"): "a"}, {("idY", "b"): "a"}
    return [refilled(A, h) for h in (right, left, {**right, **left})]


def forced_psfun(S: FinBicat, T: FinBicat) -> PsFun:
    """The map from ``S`` to a thin ``T`` with the same cells, comparison cells forced.

    Each compositor and unit comparison is the one cell of its frame in ``T``.
    """
    F = identity_psfun(S)
    psi = {(g, f): T.cells2(S.hcomp1[(g, f)], T.hcomp1[(g, f)])[0] for g, f in F.psi}
    sigma = {x: T.cells2(S.id1[x], T.id1[x])[0] for x in S.objects}
    return dataclasses.replace(F, target=T, psi=psi, sigma=sigma, name=f"{S.name}->{T.name}")


def psfun_sources() -> list[PsFun]:
    """Identity maps of the sources, the loop collapse and a `cyclic_loop` quotient."""
    corpus = bench_corpus()
    big, small = (corpus.cyclic_loop(k, random.Random(k)) for k in (4, 2))
    quotient = strict_psfun(big.build(), small.build(), **corpus.loop_quotient(big, small))
    return [identity_psfun(B) for B in sources()] + [
        collapse_loop(appendix_toy(), toyq()),
        quotient,
    ]


def thin_rule_psfun_sources() -> list[PsFun]:
    """Maps whose target is a `thick_sources` or `arrow2` bicategory.

    The identity map of `chain(3)`, or of its localization, into each of its
    thickenings, which is lawful; and the map from each `lax_unitor_sources`
    bicategory back to `arrow2`, whose compositor at the mutated composite
    is ``nu`` and so is not invertible.
    """
    return [dataclasses.replace(identity_psfun(B), target=T) for B, T in thick_pairs()] + [
        forced_psfun(S, arrow2()) for S in lax_unitor_sources()
    ]


def mutants(target: FinBicat, tables: dict[str, dict]):
    """``(name, table)`` for each copy of one table with one value replaced.

    The new value is another 2-cell of ``target`` with the old value's
    frame, so the mutant stays well typed.
    """
    for name, table in tables.items():
        for key, v in table.items():
            t = target.two(v)
            for other in target.cells2(t.src, t.tgt):
                if other != v:
                    yield name, {**table, key: other}


def triples(violations: list[Violation]) -> list[tuple]:
    return [(v.law, v.cells, v.detail) for v in violations]


def test_bicategory_laws_match_the_reference_on_every_mutant():
    count = lawless = 0
    lawful, thick = sources(), thick_sources()
    for B in lawful:
        assert triples(validate_bicat(B).violations) == triples(reference_law_violations(B)) == []
    for B in thick + lax_unitor_sources():
        want = triples(reference_law_violations(B))
        assert triples(validate_bicat(B).violations) == want, B.name
        count += 1
        lawless += bool(want)
    for B in lawful + thick:
        names = ("vcomp", "whisk_left", "whisk_right", "assoc", "runit", "lunit")
        for name, table in mutants(B, {n: getattr(B, n) for n in names}):
            # A mutated coherence cell makes a declared strict flag false.
            M = dataclasses.replace(B, strict=False, **{name: table})
            want = triples(reference_law_violations(M))
            assert triples(validate_bicat(M).violations) == want, (B.name, name)
            count += 1
            lawless += bool(want)
    assert (count, lawless) == (176, 174)


def test_pseudofunctor_laws_match_the_reference_on_every_mutant():
    count = lawless = 0
    lawful, thin_rule = psfun_sources(), thin_rule_psfun_sources()
    for F in lawful:
        assert triples(validate_psfun(F).violations) == triples(reference_psfun_law_violations(F)) == []
    for F in thin_rule:
        want = triples(reference_psfun_law_violations(F))
        assert triples(validate_psfun(F).violations) == want, F.name
        count += 1
        lawless += bool(want)
    for F in lawful + thin_rule:
        for name, table in mutants(F.target, {"f2": F.f2, "psi": F.psi, "sigma": F.sigma}):
            M = dataclasses.replace(F, **{name: table})
            want = triples(reference_psfun_law_violations(M))
            assert triples(validate_psfun(M).violations) == want, (F.name, name)
            count += 1
            lawless += bool(want)
    assert (count, lawless) == (58, 33)


def test_the_thin_rule_sources_reach_both_branches():
    """Thickening leaves a thin source; the lax unitors are decided by inhabitation alone."""
    assert all(not B.is_thin() for B in thick_sources())
    for B in lax_unitor_sources():
        assert B.is_thin()
        laws = [(v.law, v.cells) for v in validate_bicat(B).violations]
        assert laws and {law for law, _ in laws} == {"unitor:invertible"}
        F = forced_psfun(B, arrow2())
        assert F.target.is_thin()
        assert validate_psfun(F).laws_failed() == {"psfun:compositor-invertible"}
