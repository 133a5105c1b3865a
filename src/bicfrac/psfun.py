"""Pseudofunctors between finite bicategories, given by explicit tables.

A `PsFun` records object, 1-cell and 2-cell maps together with the
compositor ``psi[(g, f)]: F(g∘f) ⇒ F(g)∘F(f)`` and the unit comparison
``sigma[A]: F(id_A) ⇒ id_{F(A)}``.  `validate_psfun` checks the whole
definition exhaustively: totality and boundary preservation, strict
functoriality on 2-cells, invertibility of the comparison cells, naturality
of the compositor in both arguments at once, the associativity hexagon and
both unit triangles; `require_pseudofunctor` refuses a map that fails it.
`conjugate` carries a 2-cell between composites to one between the
composites of their images, through the compositor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .core import (
    FinBicat,
    PreconditionError,
    Violation,
    composable_pairs,
    composable_triples,
    has_reverse,
    hcompose2,
    inverse_cell,
    is_invertible2,
    structural_violations,
    table_violations,
    two_cell_inverse,
    vcompose,
    vertical_pairs,
    vfold,
    whisker_left,
    whisker_right,
)
from .wclass import WClass


@dataclass
class PsFun:
    source: FinBicat
    target: FinBicat
    f0: dict[str, str]
    f1: dict[str, str]
    f2: dict[str, str]
    psi: dict[tuple[str, str], str]
    sigma: dict[str, str]
    name: str = field(default="", compare=False)


@dataclass
class PsFunReport:
    passed: bool
    violations: list[Violation]

    def laws_failed(self) -> set[str]:
        return {v.law for v in self.violations}


def identity_psfun(B: FinBicat) -> PsFun:
    return PsFun(
        source=B,
        target=B,
        f0={x: x for x in B.objects},
        f1={c.id: c.id for c in B.one_cells},
        f2={t.id: t.id for t in B.two_cells},
        psi={(g.id, f.id): B.id2[B.hcomp1[(g.id, f.id)]] for g, f in composable_pairs(B)},
        sigma={x: B.id2[B.id1[x]] for x in B.objects},
        name=f"id[{B.name}]" if B.name else "id",
    )


def structural_psfun_violations(F: PsFun) -> list[Violation]:
    """Every totality and typing fault of a pseudofunctor's tables.

    Each table must hold exactly the keys its source requires, its values
    must be declared in the target, and each value must have the endpoints
    or boundary its key dictates: ``F(f): F(x) → F(y)``, ``F(a): F(f) ⇒
    F(g)``, ``psi[(g, f)]: F(g∘f) ⇒ F(g)∘F(f)`` and ``sigma[x]: F(id_x) ⇒
    id_F(x)``.  Violations are shaped as in `table_violations`.
    """
    S, T = F.source, F.target
    s_obj, s_one, s_two = (S._cache[k] for k in ("obj_pos", "one_by_id", "two_by_id"))
    t_obj, t_one, t_two = (T._cache[k] for k in ("obj_pos", "one_by_id", "two_by_id"))
    f0, f1 = F.f0, F.f1
    out = table_violations(
        "f0", f0, ((x, ()) for x in S.objects), t_obj,
        lambda k: k in s_obj, "a source object", kind="object",
    )
    out += table_violations(
        "f1", f1, ((c.id, (f0.get(c.src), f0.get(c.tgt))) for c in S.one_cells),
        t_one, lambda k: k in s_one, "a source 1-cell",
    )
    out += table_violations(
        "f2", F.f2, ((t.id, (f1.get(t.src), f1.get(t.tgt))) for t in S.two_cells),
        t_two, lambda k: k in s_two, "a source 2-cell",
    )
    out += table_violations(
        "psi", F.psi,
        (((g.id, f.id), (f1.get(S.hcomp1.get((g.id, f.id))),
                         T.hcomp1.get((f1.get(g.id), f1.get(f.id)))))
         for g, f in composable_pairs(S)),
        t_two,
        lambda k: k[0] in s_one and k[1] in s_one and s_one[k[0]].src == s_one[k[1]].tgt,
        "a composable pair of the source",
    )
    out += table_violations(
        "sigma", F.sigma,
        ((x, (f1.get(S.id1.get(x)), T.id1.get(f0.get(x)))) for x in S.objects),
        t_two, lambda k: k in s_obj, "a source object",
    )
    return out


def _psfun_law_violations(F: PsFun) -> list[Violation]:
    """Every law violation of ``F``, whose tables must be total and well typed.

    Each law equates two 2-cells of one frame of the target, so when the
    target is thin (`FinBicat.is_thin`) every equation holds, and a
    comparison cell ``x ⇒ y`` is invertible exactly when some cell
    ``y ⇒ x`` exists, as in `core._law_violations`.
    """
    S, T = F.source, F.target
    out: list[Violation] = []
    add = out.append

    thin = T.is_thin()
    if thin:
        invertible = partial(has_reverse, T)
    else:
        invertible = partial(is_invertible2, T)
        for c in S.one_cells:
            if F.f2[S.id2[c.id]] != T.id2[F.f1[c.id]]:
                add(Violation("psfun:identities", (c.id,), "identity 2-cell not preserved"))
        for b, a in vertical_pairs(S):
            lhs = F.f2[S.vcomp[(b.id, a.id)]]
            rhs = T.vcomp[(F.f2[b.id], F.f2[a.id])]
            if lhs != rhs:
                add(Violation("psfun:vertical", (b.id, a.id), "composite not preserved"))

    for key, p in F.psi.items():
        if not invertible(p):
            add(Violation("psfun:compositor-invertible", key, ""))
    for x, s in F.sigma.items():
        if not invertible(s):
            add(Violation("psfun:unit-invertible", (x,), ""))
    if out or thin:
        return out

    for b in S.two_cells:  # b: g ⇒ g'
        for a in S.over_into(S.one(b.src).src):  # a: f ⇒ f'
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

    for h, g, f in composable_triples(S):
        hg = S.hcomp1[(h.id, g.id)]
        gf = S.hcomp1[(g.id, f.id)]
        route1 = vfold(
            T,
            F.f2[S.assoc[(h.id, g.id, f.id)]],
            F.psi[(hg, f.id)],
            whisker_right(T, F.psi[(h.id, g.id)], F.f1[f.id]),
        )
        route2 = vfold(
            T,
            F.psi[(h.id, gf)],
            whisker_left(T, F.f1[h.id], F.psi[(g.id, f.id)]),
            T.assoc[(F.f1[h.id], F.f1[g.id], F.f1[f.id])],
        )
        if route1 != route2:
            add(Violation("psfun:hexagon", (h.id, g.id, f.id), ""))

    for c in S.one_cells:
        fid = F.f1[c.id]
        ida = S.id1[c.src]
        lhs = vfold(T, whisker_left(T, fid, F.sigma[c.src]), T.runit[fid])
        psi_inv = two_cell_inverse(T, F.psi[(c.id, ida)])
        rhs = vfold(T, psi_inv, F.f2[S.runit[c.id]])
        if lhs != rhs:
            add(Violation("psfun:right-unit", (c.id,), ""))
        idb = S.id1[c.tgt]
        lhs = vfold(T, whisker_right(T, F.sigma[c.tgt], fid), T.lunit[fid])
        psi_inv = two_cell_inverse(T, F.psi[(idb, c.id)])
        rhs = vfold(T, psi_inv, F.f2[S.lunit[c.id]])
        if lhs != rhs:
            add(Violation("psfun:left-unit", (c.id,), ""))
    return out


def validate_psfun(F: PsFun) -> PsFunReport:
    """Exhaustively check a pseudofunctor's tables against its laws.

    The law checks presume total, well-typed tables, so the structural
    faults of the source and then the target come first, read through
    `structural_violations`' cache, so no side's laws are checked here, and
    named ``source:structure:<table>`` or ``target:structure:<table>``.
    Then the pseudofunctor's own structural problems (missing or mistyped
    entries) short-circuit the law checks, and invertibility failures of the
    comparison cells short-circuit the coherence checks, which compose their
    inverses.  On a thin target the equational laws hold outright
    (`_psfun_law_violations`).
    """
    violations = [
        Violation(f"{side}:{v.law}", v.cells, v.detail)
        for side, B in (("source", F.source), ("target", F.target))
        for v in structural_violations(B)
    ]
    if not violations:
        violations = structural_psfun_violations(F)
    if not violations:
        violations = _psfun_law_violations(F)
    return PsFunReport(not violations, violations)


def require_pseudofunctor(F: PsFun, what: str) -> None:
    """Raise `PreconditionError` naming every law ``F`` (called ``what``) violates."""
    report = validate_psfun(F)
    if not report.passed:
        raise PreconditionError(f"{what} violates: {', '.join(sorted(report.laws_failed()))}")


def maps_into(F: PsFun, W_src: WClass, W_tgt: WClass) -> tuple[bool, Optional[str]]:
    """Whether ``F`` carries every member of one class into the other.

    Returns the first escaping member alongside the verdict.
    """
    for w in sorted(W_src.members, key=F.source.pos1):
        if F.f1[w] not in W_tgt:
            return False, w
    return True, None


def conjugate(F: PsFun, a: str, g1: str, f1: str, g2: str, f2: str) -> str:
    """``psi[(g2, f2)] ⊙ F(a) ⊙ psi[(g1, f1)]⁻¹``: ``F(a)`` between composite images.

    For ``a: g1∘f1 ⇒ g2∘f2`` this runs ``F(g1)∘F(f1) ⇒ F(g2)∘F(f2)``;
    `InvertibilityError` when ``psi[(g1, f1)]`` has no inverse.
    """
    T = F.target
    return vfold(T, inverse_cell(T, F.psi[(g1, f1)]), F.f2[a], F.psi[(g2, f2)])
