"""Decision procedures for the transfer conditions of a pseudofunctor.

Whether inverting chosen classes of 1-cells on both sides of a
pseudofunctor yields an equivalence of bicategories is governed by finite
blocks of alternating quantifiers over cells, so every condition here is
decided by exhaustive search in table order.  Four families are covered:

* ``A1``..``A5`` relate a class on each side; they hold exactly when the
  induced map between the two localized bicategories is an equivalence.
* ``B1``..``B5`` use a source class only and target internal equivalences;
  they apply to maps whose class members all land on internal
  equivalences.
* ``EF1``..``EF3`` are a stricter variant of the ``B`` family (on-the-nose
  object isomorphisms, unique 2-cell preimages); sufficient but not
  necessary, as the shipped loop-monoid fixture demonstrates.
* ``X1``, ``X2a``..``X2c`` define a weak equivalence of bicategories and
  are checked directly on any pseudofunctor.

Each condition is stated once, as a `_Problem`: its candidate generator
decides which tuples are well typed for an input, and its ``holds`` decides
the condition's equation on one of them, so the search and
`recheck_witness`, which tests a witness's membership among the
candidates, share one definition.  ``EF3`` is ``X2c``'s search solved only
by a unique preimage; deciding it reads each whole pool, so that a second
preimage can be named.
Each family is stated once as well, in ``_FAMILIES``: its members in order
and the precondition that guards them all.  `check_family` checks that
precondition once and decides every member; `check_A`, `check_B`,
`check_EF` and `check_X` decide one member behind the same precondition.
Each verdict records canonical evidence: a witness resolving the
existentials for the hardest universally quantified input, or the first
input in enumeration order whose search space was exhausted.  The one
pasting chain among the conditions, ``A5``'s transport of a source 2-cell
along the comparison data (`a5_composite`), is evaluated by `core`'s table
lookups; it and ``B5`` read the compositor conjugate `psfun.conjugate`.
``cross_validate_theorems`` replays the known relationships between the
families on one concrete instance, deciding each family at most once, and
reports any disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .core import (
    CompositionError,
    FinBicat,
    InvertibilityError,
    PreconditionError,
    TypingError,
    assoc_cell,
    assoc_inv_cell,
    internal_equivalence_witness,
    internal_equivalences,
    inv_cells2,
    inverse_cell,
    vfold,
    whisker_left,
    whisker_right,
)
from .fractions import LocalizationError, induce_g_tilde
from .psfun import PsFun, conjugate, maps_into
from .wclass import WClass, check_bf, internal_equivalences_class, quasi_units, saturate


# -- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Verdict for one condition together with its canonical evidence.

    ``witness`` is a ``(universal, existential)`` pair of cell-id tuples for
    the universally quantified input whose search examined the most
    candidates.  ``counterexample`` is the first input in enumeration order
    whose existential search space was exhausted without success.
    ``examined`` totals the candidate tuples tested across the whole run.
    """

    tag: str
    holds: bool
    witness: Optional[tuple] = None
    counterexample: Optional[tuple] = None
    examined: int = 0
    detail: str = ""


def _solved(u: tuple, w: tuple) -> bool:
    return True


@dataclass(frozen=True)
class _Problem:
    """A condition as data: input enumerator, candidate pool, equation.

    ``candidates(u)`` is the only statement of the condition's typing: it
    yields exactly the well-typed tuples for the input ``u`` (class members,
    endpoints, invertible cells), so ``holds(u, w)`` checks only the
    condition's equation on one of them.  A condition without an equation
    solves every input with any candidate.
    """

    universals: Callable[[], Iterator[tuple]]
    candidates: Callable[[tuple], Iterator[tuple]]
    holds: Callable[[tuple, tuple], bool] = _solved


def _decide(tag: str, prob: _Problem) -> ConditionReport:
    worst: Optional[tuple] = None
    worst_cost = -1
    total = 0
    for u in prob.universals():
        found = None
        cost = 0
        for cand in prob.candidates(u):
            cost += 1
            if prob.holds(u, cand):
                found = cand
                break
        total += cost
        if found is None:
            return ConditionReport(tag, False, None, u, total)
        if cost > worst_cost:
            worst, worst_cost = (u, found), cost
    return ConditionReport(tag, True, worst, None, total)


# -- shared enumeration helpers ----------------------------------------------


def _members(B: FinBicat, cls, x: str, y: str) -> list[str]:
    """Class members from ``x`` to ``y`` in table order."""
    return [f for f in B.hom1(x, y) if f in cls]


def _class_into(B: FinBicat, cls, y: str) -> Iterator[str]:
    """Class members with target ``y`` in table order."""
    for c in B.into1(y):
        if c.id in cls:
            yield c.id


def _parallel_pairs(B: FinBicat) -> Iterator[tuple[str, str]]:
    for f in B.one_cells:
        for g in B.hom1(f.src, f.tgt):
            yield f.id, g


# -- the A family ------------------------------------------------------------


def _problem_a1(F: PsFun, W_A: WClass, W_B: WClass) -> _Problem:
    src, tgt = F.source, F.target
    sat_b = saturate(tgt, W_B).members

    def universals() -> Iterator[tuple]:
        for a_b in tgt.objects:
            yield (a_b,)

    def candidates(u: tuple) -> Iterator[tuple]:
        (a_b,) = u
        for a_a in src.objects:
            img = F.f0[a_a]
            for ap_b in tgt.objects:
                for w1 in _members(tgt, W_B, ap_b, img):
                    for w2 in _members(tgt, sat_b, ap_b, a_b):
                        yield (a_a, ap_b, w1, w2)

    return _Problem(universals, candidates)


def _problem_a2(F: PsFun, W_A: WClass, W_B: WClass) -> _Problem:
    src, tgt = F.source, F.target
    sat_a = saturate(src, W_A).members
    sat_b = saturate(tgt, W_B).members

    def universals() -> Iterator[tuple]:
        for a1 in src.objects:
            for a2 in src.objects:
                for a_b in tgt.objects:
                    for w1 in _members(tgt, W_B, a_b, F.f0[a1]):
                        for w2 in _members(tgt, sat_b, a_b, F.f0[a2]):
                            yield (a1, a2, a_b, w1, w2)

    def candidates(u: tuple) -> Iterator[tuple]:
        a1, a2, a_b, w1b, w2b = u
        for a3 in src.objects:
            for w1a in _members(src, W_A, a3, a1):
                for w2a in _members(src, sat_a, a3, a2):
                    fw1, fw2 = F.f1[w1a], F.f1[w2a]
                    for ap_b in tgt.objects:
                        for z1 in _members(tgt, W_B, ap_b, a_b):
                            for z2 in tgt.hom1(ap_b, F.f0[a3]):
                                lhs1 = tgt.hcomp1[(w1b, z1)]
                                rhs1 = tgt.hcomp1[(fw1, z2)]
                                lhs2 = tgt.hcomp1[(w2b, z1)]
                                rhs2 = tgt.hcomp1[(fw2, z2)]
                                for g1 in inv_cells2(tgt, lhs1, rhs1):
                                    for g2 in inv_cells2(tgt, lhs2, rhs2):
                                        yield (a3, w1a, w2a, ap_b, z1, z2, g1, g2)

    return _Problem(universals, candidates)


def _problem_a3(F: PsFun, W_A: WClass, W_B: WClass) -> _Problem:
    src, tgt = F.source, F.target
    sat_b = saturate(tgt, W_B).members

    def universals() -> Iterator[tuple]:
        for b_a in src.objects:
            for a_b in tgt.objects:
                for f_b in tgt.hom1(a_b, F.f0[b_a]):
                    yield (b_a, a_b, f_b)

    def candidates(u: tuple) -> Iterator[tuple]:
        b_a, a_b, f_b = u
        for a_a in src.objects:
            for f_a in src.hom1(a_a, b_a):
                ff = F.f1[f_a]
                for ap_b in tgt.objects:
                    for v1 in _members(tgt, W_B, ap_b, a_b):
                        for v2 in _members(tgt, sat_b, ap_b, F.f0[a_a]):
                            lhs = tgt.hcomp1[(f_b, v1)]
                            rhs = tgt.hcomp1[(ff, v2)]
                            for al in inv_cells2(tgt, lhs, rhs):
                                yield (a_a, f_a, ap_b, v1, v2, al)

    return _Problem(universals, candidates)


def _equalized_in_source(
    src: FinBicat, W_A: WClass, universals: Callable[[], Iterator[tuple]]
) -> _Problem:
    """The search shared by A4 and B4.

    Each input starts with parallel source 2-cells ``g1, g2``; a solution is
    a class member ``z_a`` into their source object with ``g1 ∗ z_a = g2 ∗
    z_a``.
    """

    def candidates(u: tuple) -> Iterator[tuple]:
        a_a = src.one(src.two(u[0]).src).src
        for z_a in _class_into(src, W_A, a_a):
            yield (z_a,)

    def holds(u: tuple, w: tuple) -> bool:
        g1, g2 = u[:2]
        (z_a,) = w
        return whisker_right(src, g1, z_a) == whisker_right(src, g2, z_a)

    return _Problem(universals, candidates, holds)


def _problem_a4(F: PsFun, W_A: WClass, W_B: WClass) -> _Problem:
    src, tgt = F.source, F.target

    def universals() -> Iterator[tuple]:
        # Only inputs satisfying the hypothesis: whiskering the images by
        # z_b equalizes them in the target.
        for g1 in src.two_cells:
            img = F.f0[src.one(g1.src).src]
            for g2 in src.cells2(g1.src, g1.tgt):
                for ap_b in tgt.objects:
                    for z_b in _members(tgt, W_B, ap_b, img):
                        lhs = whisker_right(tgt, F.f2[g1.id], z_b)
                        if lhs == whisker_right(tgt, F.f2[g2], z_b):
                            yield (g1.id, g2, z_b)

    return _equalized_in_source(src, W_A, universals)


def a5_composite(
    F: PsFun,
    f1: str,
    f2: str,
    v_b: str,
    v_a: str,
    z_b: str,
    zp_b: str,
    sigma_b: str,
    alpha_a: str,
) -> str:
    """The 2-cell that transports ``alpha_a`` along the comparison data.

    ``f1, f2: A_A → B_A`` are parallel source 1-cells, ``v_a: A'_A → A_A``
    the source-class member, ``v_b: A_B → F(A_A)`` and ``z_b: A'_B →
    F(A'_A)`` the target-class members, ``zp_b: A'_B → A_B`` the connecting
    1-cell, ``sigma_b: v_b∘zp_b ⇒ F(v_a)∘z_b`` the invertible comparison
    2-cell and ``alpha_a: f1∘v_a ⇒ f2∘v_a`` the source 2-cell.  The factors,
    in application order, are an inverse associator, a whiskered
    ``sigma_b``, an associator, the compositor-conjugate of ``F(alpha_a)``
    whiskered by ``z_b``, an inverse associator, a whiskered inverse of
    ``sigma_b`` and a final associator, so the composite runs from
    ``(F(f1)∘v_b)∘zp_b`` to ``(F(f2)∘v_b)∘zp_b``.  Each factor is a table
    lookup; boundary mismatches raise `TypingError`, a missing inverse
    `InvertibilityError`.
    """
    tgt = F.target
    ff1, ff2, fv = F.f1[f1], F.f1[f2], F.f1[v_a]
    return vfold(
        tgt,
        assoc_inv_cell(tgt, ff1, v_b, zp_b),
        whisker_left(tgt, ff1, sigma_b),
        assoc_cell(tgt, ff1, fv, z_b),
        whisker_right(tgt, conjugate(F, alpha_a, f1, v_a, f2, v_a), z_b),
        assoc_inv_cell(tgt, ff2, fv, z_b),
        whisker_left(tgt, ff2, inverse_cell(tgt, sigma_b)),
        assoc_cell(tgt, ff2, v_b, zp_b),
    )


def _problem_a5(F: PsFun, W_A: WClass, W_B: WClass) -> _Problem:
    src, tgt = F.source, F.target

    def universals() -> Iterator[tuple]:
        for f1, f2 in _parallel_pairs(src):
            a_a = src.one(f1).src
            ff1, ff2 = F.f1[f1], F.f1[f2]
            for v_b in _class_into(tgt, W_B, F.f0[a_a]):
                lhs = tgt.hcomp1[(ff1, v_b)]
                rhs = tgt.hcomp1[(ff2, v_b)]
                for al in tgt.cells2(lhs, rhs):
                    yield (f1, f2, v_b, al)

    def candidates(u: tuple) -> Iterator[tuple]:
        f1, f2, v_b, al = u
        a_a = src.one(f1).src
        a_b = tgt.one(v_b).src
        for v_a in _class_into(src, W_A, a_a):
            fv = F.f1[v_a]
            for z_b in _class_into(tgt, W_B, F.f0[src.one(v_a).src]):
                ap_b = tgt.one(z_b).src
                for zp_b in tgt.hom1(ap_b, a_b):
                    lhs = tgt.hcomp1[(v_b, zp_b)]
                    rhs = tgt.hcomp1[(fv, z_b)]
                    for sig in inv_cells2(tgt, lhs, rhs):
                        upper = src.hcomp1[(f1, v_a)]
                        lower = src.hcomp1[(f2, v_a)]
                        for alpha_a in src.cells2(upper, lower):
                            yield (v_a, z_b, zp_b, sig, alpha_a)

    def holds(u: tuple, w: tuple) -> bool:
        f1, f2, v_b, al = u
        v_a, z_b, zp_b, sig, alpha_a = w
        try:
            rhs = a5_composite(F, f1, f2, v_b, v_a, z_b, zp_b, sig, alpha_a)
        except (TypingError, CompositionError, InvertibilityError):
            return False
        return whisker_right(tgt, al, zp_b) == rhs

    return _Problem(universals, candidates, holds)


# -- the B family ------------------------------------------------------------


def _problem_b2(F: PsFun, W_A: WClass, W_B: WClass) -> _Problem:
    src, tgt = F.source, F.target
    sat_a = saturate(src, W_A).members
    eq = frozenset(internal_equivalences(tgt))

    def universals() -> Iterator[tuple]:
        for a1 in src.objects:
            for a2 in src.objects:
                for e in _members(tgt, eq, F.f0[a1], F.f0[a2]):
                    yield (a1, a2, e)

    def candidates(u: tuple) -> Iterator[tuple]:
        a1, a2, e = u
        img1 = F.f0[a1]
        ident = tgt.id1[img1]
        for a3 in src.objects:
            for w1 in _members(src, W_A, a3, a1):
                for w2 in _members(src, sat_a, a3, a2):
                    fw1, fw2 = F.f1[w1], F.f1[w2]
                    for ep in _members(tgt, eq, img1, F.f0[a3]):
                        for d1 in inv_cells2(tgt, tgt.hcomp1[(fw1, ep)], ident):
                            for d2 in inv_cells2(tgt, e, tgt.hcomp1[(fw2, ep)]):
                                yield (a3, w1, w2, ep, d1, d2)

    return _Problem(universals, candidates)


def _problem_b3(F: PsFun, W_A: WClass, W_B: WClass) -> _Problem:
    src, tgt = F.source, F.target
    eq = frozenset(internal_equivalences(tgt))

    def universals() -> Iterator[tuple]:
        for b_a in src.objects:
            for a_b in tgt.objects:
                for f_b in tgt.hom1(a_b, F.f0[b_a]):
                    yield (b_a, a_b, f_b)

    def candidates(u: tuple) -> Iterator[tuple]:
        b_a, a_b, f_b = u
        for a_a in src.objects:
            for f_a in src.hom1(a_a, b_a):
                ff = F.f1[f_a]
                for e in _members(tgt, eq, a_b, F.f0[a_a]):
                    for al in inv_cells2(tgt, f_b, tgt.hcomp1[(ff, e)]):
                        yield (a_a, f_a, e, al)

    return _Problem(universals, candidates)


def _problem_b4(F: PsFun, W_A: WClass, W_B: WClass) -> _Problem:
    src = F.source

    def universals() -> Iterator[tuple]:
        for g1 in src.two_cells:
            for g2 in src.cells2(g1.src, g1.tgt):
                if F.f2[g1.id] == F.f2[g2]:
                    yield (g1.id, g2)

    return _equalized_in_source(src, W_A, universals)


def _problem_b5(F: PsFun, W_A: WClass, W_B: WClass) -> _Problem:
    src, tgt = F.source, F.target

    def universals() -> Iterator[tuple]:
        for f1, f2 in _parallel_pairs(src):
            for al in tgt.cells2(F.f1[f1], F.f1[f2]):
                yield (f1, f2, al)

    def candidates(u: tuple) -> Iterator[tuple]:
        f1, f2, al = u
        a_a = src.one(f1).src
        for v_a in _class_into(src, W_A, a_a):
            upper = src.hcomp1[(f1, v_a)]
            lower = src.hcomp1[(f2, v_a)]
            for alpha_a in src.cells2(upper, lower):
                yield (v_a, alpha_a)

    def holds(u: tuple, w: tuple) -> bool:
        f1, f2, al = u
        v_a, alpha_a = w
        try:
            rhs = conjugate(F, alpha_a, f1, v_a, f2, v_a)
        except InvertibilityError:
            return False
        return whisker_right(tgt, al, F.f1[v_a]) == rhs

    return _Problem(universals, candidates, holds)


# -- the EF family -----------------------------------------------------------


def _problem_ef1(F: PsFun, W_A: WClass, W_B: WClass) -> _Problem:
    src, tgt = F.source, F.target

    def universals() -> Iterator[tuple]:
        for a_b in tgt.objects:
            yield (a_b,)

    def candidates(u: tuple) -> Iterator[tuple]:
        (a_b,) = u
        for a_a in src.objects:
            img = F.f0[a_a]
            for t in tgt.hom1(img, a_b):
                for s in tgt.hom1(a_b, img):
                    yield (a_a, t, s)

    def holds(u: tuple, w: tuple) -> bool:
        (a_b,) = u
        a_a, t, s = w
        # Isomorphism of 1-cells: both composites are identities on the nose.
        return (
            tgt.hcomp1[(t, s)] == tgt.id1[a_b]
            and tgt.hcomp1[(s, t)] == tgt.id1[F.f0[a_a]]
        )

    return _Problem(universals, candidates, holds)


def _problem_ef2(F: PsFun, W_A: WClass, W_B: WClass) -> _Problem:
    src, tgt = F.source, F.target

    def universals() -> Iterator[tuple]:
        for a_a in src.objects:
            for b_a in src.objects:
                for f_b in tgt.hom1(F.f0[a_a], F.f0[b_a]):
                    yield (a_a, b_a, f_b)

    def candidates(u: tuple) -> Iterator[tuple]:
        a_a, b_a, f_b = u
        for ap in src.objects:
            for f_a in src.hom1(ap, b_a):
                ff = F.f1[f_a]
                for w_a in _members(src, W_A, ap, a_a):
                    rhs = tgt.hcomp1[(f_b, F.f1[w_a])]
                    for al in inv_cells2(tgt, ff, rhs):
                        yield (ap, f_a, w_a, al)

    return _Problem(universals, candidates)


# -- the X family ------------------------------------------------------------


def _problem_x1(F: PsFun, W_A: WClass, W_B: WClass) -> _Problem:
    src, tgt = F.source, F.target

    def universals() -> Iterator[tuple]:
        for a_d in tgt.objects:
            yield (a_d,)

    def candidates(u: tuple) -> Iterator[tuple]:
        (a_d,) = u
        for a_c in src.objects:
            for e in tgt.hom1(F.f0[a_c], a_d):
                yield (a_c, e)

    def holds(u: tuple, w: tuple) -> bool:
        a_c, e = w
        return internal_equivalence_witness(tgt, e) is not None

    return _Problem(universals, candidates, holds)


def _problem_x2a(F: PsFun, W_A: WClass, W_B: WClass) -> _Problem:
    src, tgt = F.source, F.target

    def universals() -> Iterator[tuple]:
        for a_c in src.objects:
            for b_c in src.objects:
                for f_d in tgt.hom1(F.f0[a_c], F.f0[b_c]):
                    yield (a_c, b_c, f_d)

    def candidates(u: tuple) -> Iterator[tuple]:
        a_c, b_c, f_d = u
        for f_c in src.hom1(a_c, b_c):
            for al in inv_cells2(tgt, F.f1[f_c], f_d):
                yield (f_c, al)

    return _Problem(universals, candidates)


def _problem_x2b(F: PsFun, W_A: WClass, W_B: WClass) -> _Problem:
    src = F.source

    def universals() -> Iterator[tuple]:
        # Only genuine collisions: distinct parallel 2-cells with equal
        # images.  Any such pair is a counterexample.
        for a1 in src.two_cells:
            for a2 in src.cells2(a1.src, a1.tgt):
                if a2 != a1.id and F.f2[a1.id] == F.f2[a2]:
                    yield (a1.id, a2)

    def candidates(u: tuple) -> Iterator[tuple]:
        yield ()

    return _Problem(universals, candidates, lambda u, w: False)


def _problem_x2c(F: PsFun, W_A: WClass, W_B: WClass) -> _Problem:
    src, tgt = F.source, F.target

    def universals() -> Iterator[tuple]:
        for f1, f2 in _parallel_pairs(src):
            for al_d in tgt.cells2(F.f1[f1], F.f1[f2]):
                yield (f1, f2, al_d)

    def candidates(u: tuple) -> Iterator[tuple]:
        f1, f2, al_d = u
        for a in src.cells2(f1, f2):
            yield (a,)

    def holds(u: tuple, w: tuple) -> bool:
        f1, f2, al_d = u
        (a,) = w
        return F.f2[a] == al_d

    return _Problem(universals, candidates, holds)


def _problem_ef3(F: PsFun, W_A: WClass, W_B: WClass) -> _Problem:
    """X2c's preimage search, solved only by the unique preimage."""
    x2c = _problem_x2c(F, W_A, W_B)

    def holds(u: tuple, w: tuple) -> bool:
        return [c for c in x2c.candidates(u) if x2c.holds(u, c)] == [w]

    return _Problem(x2c.universals, x2c.candidates, holds)


def _check_ef3(F: PsFun) -> ConditionReport:
    """X2c's search run to the end of every pool, so that a second preimage is seen."""
    x2c = _problem_x2c(F, None, None)
    worst, worst_cost, total = None, -1, 0
    for u in x2c.universals():
        pool = list(x2c.candidates(u))
        total += len(pool)
        hits = [c for c in pool if x2c.holds(u, c)]
        if not hits:
            why = "no 2-cell maps onto the target cell"
            return ConditionReport("EF3", False, None, u, total, why)
        if len(hits) > 1:
            why = "two distinct 2-cells map onto the target cell"
            return ConditionReport("EF3", False, None, u + hits[0] + hits[1], total, why)
        if len(pool) > worst_cost:
            worst, worst_cost = (u, hits[0]), len(pool)
    return ConditionReport("EF3", True, worst, None, total)


_BUILDERS: dict[str, Callable[[PsFun, WClass, WClass], _Problem]] = {
    "A1": _problem_a1,
    "A2": _problem_a2,
    "A3": _problem_a3,
    "A4": _problem_a4,
    "A5": _problem_a5,
    "B1": _problem_x1,
    "B2": _problem_b2,
    "B3": _problem_b3,
    "B4": _problem_b4,
    "B5": _problem_b5,
    "EF1": _problem_ef1,
    "EF2": _problem_ef2,
    "EF3": _problem_ef3,
    "X1": _problem_x1,
    "X2a": _problem_x2a,
    "X2b": _problem_x2b,
    "X2c": _problem_x2c,
}

_NEEDS_SOURCE_CLASS = {"A1", "A2", "A3", "A4", "A5", "B2", "B4", "B5", "EF2"}
_NEEDS_TARGET_CLASS = {"A1", "A2", "A3", "A4", "A5"}


def _report(tag: str, F: PsFun, W_A: Optional[WClass], W_B: Optional[WClass]) -> ConditionReport:
    """Decide one condition; EF3 alone reads its whole pool, to see a second preimage."""
    if tag == "EF3":
        return _check_ef3(F)
    return _decide(tag, _BUILDERS[tag](F, W_A, W_B))


# -- the families --------------------------------------------------------------


def _require_bf(B: FinBicat, W: WClass, side: str) -> None:
    report = check_bf(B, W)
    if not report.passed:
        fail = next(v.axiom for v in report.verdicts.values() if not v.holds)
        raise PreconditionError(f"{side} class fails {fail}")


def _precondition_a(F: PsFun, W_A: WClass, W_B: WClass) -> None:
    _require_bf(F.source, W_A, "source")
    _require_bf(F.target, W_B, "target")
    ok, escape = maps_into(F, W_A, saturate(F.target, W_B).members)
    if not ok:
        raise PreconditionError(
            f"image of {escape!r} is outside the saturated target class"
        )


def _precondition_b(F: PsFun, W_A: WClass, W_B: Optional[WClass]) -> None:
    ok, escape = maps_into(F, W_A, internal_equivalences_class(F.target))
    if not ok:
        raise PreconditionError(
            f"image of {escape!r} is not an internal equivalence"
        )
    _require_bf(F.source, W_A, "source")


# Each family's members in order, and the precondition that guards them all.
_FAMILIES: dict[str, tuple[tuple[str, ...], Callable[..., None]]] = {
    "A": (("A1", "A2", "A3", "A4", "A5"), _precondition_a),
    "B": (("B1", "B2", "B3", "B4", "B5"), _precondition_b),
    "EF": (("EF1", "EF2", "EF3"), lambda F, W_A, W_B: None),
    "X": (("X1", "X2a", "X2b", "X2c"), lambda F, W_A, W_B: None),
}


def check_family(
    F: PsFun,
    family: str,
    W_A: Optional[WClass] = None,
    W_B: Optional[WClass] = None,
) -> tuple[ConditionReport, ...]:
    """Check a family's precondition once, then decide each member in order.

    ``family`` is ``"A"`` (classes ``W_A`` and ``W_B``), ``"B"`` or ``"EF"``
    (``W_A`` only) or ``"X"`` (no class).  `PreconditionError` is raised
    unless, for ``A``, both classes satisfy the localization axioms and ``F``
    sends ``W_A`` into the right saturation of ``W_B``, and, for ``B``, ``F``
    sends ``W_A`` to internal equivalences and ``W_A`` satisfies the axioms.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown condition family {family!r}")
    tags, precondition = _FAMILIES[family]
    precondition(F, W_A, W_B)
    return tuple(_report(tag, F, W_A, W_B) for tag in tags)


def _check_one(F: PsFun, family: str, which, W_A=None, W_B=None) -> ConditionReport:
    """`check_family` for the member ``which`` names: an X tag, else an ``int`` index from 1."""
    tags, precondition = _FAMILIES[family]
    if family == "X":
        if which not in tags:
            raise ValueError(f"unknown condition {which!r}")
        tag = which
    elif isinstance(which, bool) or not isinstance(which, int) or not 1 <= which <= len(tags):
        raise ValueError(f"condition index must be 1..{len(tags)}, got {which!r}")
    else:
        tag = tags[which - 1]
    precondition(F, W_A, W_B)
    return _report(tag, F, W_A, W_B)


def check_A(F: PsFun, W_A: WClass, W_B: WClass, which: int) -> ConditionReport:
    """Decide one of the five two-sided transfer conditions (see `check_family`)."""
    return _check_one(F, "A", which, W_A, W_B)


def check_B(F: PsFun, W_A: WClass, which: int) -> ConditionReport:
    """Decide one of the five single-class transfer conditions (see `check_family`)."""
    return _check_one(F, "B", which, W_A)


def check_EF(F: PsFun, W_A: WClass, which: int) -> ConditionReport:
    """Decide one of the three strict transfer conditions; only EF2 reads ``W_A``."""
    return _check_one(F, "EF", which, W_A)


def check_X(M: PsFun, which: str) -> ConditionReport:
    """Decide one defining condition of a weak equivalence of bicategories."""
    return _check_one(M, "X", which)


@dataclass(frozen=True)
class WeakEquivalenceReport:
    passed: bool
    reports: tuple[ConditionReport, ...]

    def __getitem__(self, tag: str) -> ConditionReport:
        for r in self.reports:
            if r.tag == tag:
                return r
        raise KeyError(tag)


def is_weak_equivalence(M: PsFun) -> WeakEquivalenceReport:
    """Conjunction of the four weak-equivalence conditions."""
    reports = check_family(M, "X")
    return WeakEquivalenceReport(all(r.holds for r in reports), reports)


def recheck_witness(
    F: PsFun,
    report: ConditionReport,
    W_A: Optional[WClass] = None,
    W_B: Optional[WClass] = None,
) -> bool:
    """Re-validate a stored witness against the condition's equations.

    The witness is accepted when it is one of the candidates the search
    generates for its input and solves the condition's equation there.  A
    forged witness, one that names an undeclared cell or a cell of the wrong
    kind anywhere or has the wrong number of cells, is rejected, not raised
    on, and so is a report whose tag names no condition.
    """
    if not isinstance(report.tag, str) or report.tag not in _BUILDERS:
        return False
    if not report.holds or report.witness is None:
        raise ValueError(f"report for {report.tag} carries no witness")
    u, w = (tuple(cells) for cells in report.witness)  # as read back from JSON too
    if report.tag in _NEEDS_SOURCE_CLASS and W_A is None:
        raise ValueError(f"{report.tag} needs the source class")
    if report.tag in _NEEDS_TARGET_CLASS and W_B is None:
        raise ValueError(f"{report.tag} needs the target class")
    prob = _BUILDERS[report.tag](F, W_A, W_B)
    try:
        return w in prob.candidates(u) and prob.holds(u, w)
    except (KeyError, ValueError):  # an unknown cell, a mistyped one, a wrong arity
        return False


# -- cross-validation of the known relationships ------------------------------


@dataclass(frozen=True)
class SubCheck:
    """Outcome of one replayed relationship between condition families."""

    name: str
    ran: bool
    agrees: Optional[bool]
    reason: str = ""


@dataclass(frozen=True)
class TheoremReport:
    subchecks: tuple[SubCheck, ...]
    findings: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.findings

    def __getitem__(self, name: str) -> SubCheck:
        for s in self.subchecks:
            if s.name == name:
                return s
        raise KeyError(name)


def cross_validate_theorems(F: PsFun, W_A: WClass, W_B: WClass) -> TheoremReport:
    """Replay the relationships between the condition families on one instance.

    Four sub-checks run, each skipped (with its reason) when its own
    hypotheses fail: the induced localization lift is a weak equivalence
    exactly when all five two-sided conditions hold; with the target class
    equal to the quasi-unit class, each two-sided condition agrees with its
    single-class counterpart; the strict family implies the single-class
    family; and under the strict hypotheses every 1-cell whose image is an
    internal equivalence admits a factor completing it into the class.
    Disagreements are reported as findings; skips are not failures.  Each
    family is decided at most once per call.
    """
    subchecks: list[SubCheck] = []
    findings: list[str] = []

    def record(name: str, ran: bool, agrees: Optional[bool], reason: str) -> None:
        subchecks.append(SubCheck(name, ran, agrees, reason))
        if ran and agrees is False:
            findings.append(f"{name}: {reason}")

    src, tgt = F.source, F.target
    decided: dict[str, object] = {}

    def family(fam: str) -> tuple[ConditionReport, ...]:
        """The family's reports, decided once per call; its failed precondition is raised again."""
        if fam not in decided:
            try:
                decided[fam] = check_family(F, fam, W_A, W_B)
            except PreconditionError as e:
                decided[fam] = e
        if isinstance(decided[fam], PreconditionError):
            raise decided[fam]
        return decided[fam]

    name = "lift-biconditional"
    try:
        a_reports = family("A")
        lift = induce_g_tilde(F, W_A, W_B)
    except (PreconditionError, LocalizationError) as e:
        record(name, False, None, f"skipped: {e}")
    else:
        weq = is_weak_equivalence(lift.psfun)
        a_all = all(r.holds for r in a_reports)
        failing = ", ".join(r.tag for r in a_reports if not r.holds)
        desc = (
            f"lift weak-equivalence={weq.passed}; conditions "
            + ("all hold" if a_all else f"fail at {failing}")
        )
        record(name, True, weq.passed == a_all, desc)

    name = "minimal-class-agreement"
    if W_B.members != quasi_units(tgt).members:
        record(name, False, None, "skipped: target class is not the quasi-unit class")
    else:
        try:
            pairs = list(zip(family("A"), family("B")))
        except PreconditionError as e:
            record(name, False, None, f"skipped: {e}")
        else:
            bad = [(a.tag, a.holds, b.holds) for a, b in pairs if a.holds != b.holds]
            if bad:
                record(
                    name,
                    True,
                    False,
                    "; ".join(f"{t}: two-sided={x} single-class={y}" for t, x, y in bad),
                )
            else:
                record(name, True, True, "verdicts agree for all five conditions")

    # The last two sub-checks share B's precondition as their hypotheses.
    skip = None
    try:
        _precondition_b(F, W_A, W_B)
    except PreconditionError as e:
        skip = f"skipped: {e}"

    name = "strict-family-implication"
    if skip:
        record(name, False, None, skip)
    else:
        ef = family("EF")
        if not all(r.holds for r in ef):
            failed = ", ".join(r.tag for r in ef if not r.holds)
            record(name, True, True, f"vacuous: {failed} fails")
        else:
            b = family("B")
            if all(r.holds for r in b):
                record(name, True, True, "strict family holds and the single-class family follows")
            else:
                failed = ", ".join(r.tag for r in b if not r.holds)
                record(name, True, False, f"strict family holds but {failed} fails")

    name = "equivalence-reflection"
    ef23 = () if skip else family("EF")[1:]
    failed = ", ".join(r.tag for r in ef23 if not r.holds)
    if skip:
        record(name, False, None, skip)
    elif failed:
        record(name, False, None, f"skipped: {failed} fails")
    else:
        eq = frozenset(internal_equivalences(tgt))
        bad = None
        for f in src.one_cells:
            if F.f1[f.id] not in eq:
                continue
            found = False
            for g in src.into1(f.src):
                if src.hcomp1[(f.id, g.id)] in W_A and F.f1[g.id] in eq:
                    found = True
                    break
            if not found:
                bad = f.id
                break
        if bad is None:
            record(name, True, True, "every equivalence image is completed into the class")
        else:
            record(
                name, True, False,
                f"{bad!r} admits no factor with composite in the class and equivalent image",
            )

    return TheoremReport(tuple(subchecks), tuple(findings))
