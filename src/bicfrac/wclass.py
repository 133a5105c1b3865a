"""Classes of 1-cells and the axioms that make them invertible formally.

A `WClass` is a plain set of 1-cell ids in a fixed finite bicategory.
`check_bf` decides, by exhaustive search, whether the class admits a
calculus of fractions: identities belong to it, it is closed under
composition and under invertible 2-cells, every cospan with one leg in the
class can be squared (BF3), and 2-cells can be pushed across members of the
class with the usual existence, invertibility and uniqueness-up-to-refinement
guarantees (BF4).

`saturate` computes the right saturation: all 1-cells ``f`` admitting ``g``
and ``h`` with both ``f∘g`` and ``g∘h`` in the class, each recorded with its
witness pair.  `quasi_units` collects the endo-1-cells isomorphic to an
identity; their right saturation is exactly the class of internal
equivalences, which `internal_equivalences_class` returns directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import (
    FinBicat,
    StructureError,
    inv_cells2,
    internal_equivalences,
    two_cell_inverse,
    vcompose_all,
    whisker_left,
    whisker_right,
)


@dataclass(frozen=True)
class WClass:
    members: frozenset[str]
    name: str = field(default="", compare=False)

    @classmethod
    def of(cls, B: FinBicat, ids: Iterable[str], name: str = "") -> "WClass":
        ids = tuple(ids)
        for f in ids:
            B.one(f)
        return cls(frozenset(ids), name)

    def __contains__(self, f: str) -> bool:
        return f in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)


def sorted_members(B: FinBicat, W: WClass) -> list[str]:
    """Members in 1-cell declaration order."""
    return sorted(W.members, key=B.pos1)


@dataclass
class AxiomVerdict:
    axiom: str
    holds: bool
    witness: Optional[tuple] = None
    counterexample: Optional[tuple] = None
    detail: str = ""
    checked: int = 0
    clauses: Optional[dict[str, "AxiomVerdict"]] = None


@dataclass
class BfReport:
    passed: bool
    verdicts: dict[str, AxiomVerdict]

    def __getitem__(self, axiom: str) -> AxiomVerdict:
        return self.verdicts[axiom]


def find_bf3_filler(
    B: FinBicat, W: WClass, w: str, f: str
) -> Optional[tuple[str, str, str, str]]:
    """Least square ``(D, v, g, rho)`` over the cospan ``(w, f)``.

    ``w: A→B`` must lie in ``W`` and ``f: C→B`` share its target.  The square
    consists of ``v ∈ W: D→C``, ``g: D→A`` and an invertible
    ``rho: f∘v ⇒ w∘g``.  Candidates are scanned in declaration order, so the
    result is canonical.
    """
    wc, fc = B.one(w), B.one(f)
    if wc.tgt != fc.tgt:
        raise StructureError(f"cospan mismatch: {w!r}, {f!r}")
    for D in B.objects:
        for v in B.hom1(D, fc.src):
            if v not in W:
                continue
            fv = B.hcomp1[(f, v)]
            for g in B.hom1(D, wc.src):
                wg = B.hcomp1[(w, g)]
                rhos = inv_cells2(B, fv, wg)
                if rhos:
                    return (D, v, g, rhos[0])
    return None


def _bf4_equation_holds(
    B: FinBicat, w: str, f: str, g: str, alpha: str, v: str, beta: str
) -> bool:
    theta_f_inv = two_cell_inverse(B, B.assoc[(w, f, v)])
    if theta_f_inv is None:
        return False
    rhs = vcompose_all(
        B, [theta_f_inv, whisker_left(B, w, beta), B.assoc[(w, g, v)]]
    )
    return whisker_right(B, alpha, v) == rhs


def _bf4_solutions(
    B: FinBicat, W: WClass, w: str, f: str, g: str, alpha: str
) -> list[tuple[str, str, str]]:
    """All ``(D, v, beta)`` solving the BF4 transfer for ``alpha: w∘f ⇒ w∘g``."""
    C = B.one(f).src
    out = []
    for D in B.objects:
        for v in B.hom1(D, C):
            if v not in W:
                continue
            fv = B.hcomp1[(f, v)]
            gv = B.hcomp1[(g, v)]
            for beta in B.cells2(fv, gv):
                if _bf4_equation_holds(B, w, f, g, alpha, v, beta):
                    out.append((D, v, beta))
    return out


def _bf4c_refinement(
    B: FinBicat, W: WClass, f: str, g: str,
    sol1: tuple[str, str, str], sol2: tuple[str, str, str],
) -> Optional[tuple[str, str, str, str]]:
    """Least ``(E, u, u2, zeta)`` reconciling two BF4 solutions, or None."""
    D1, v1, b1 = sol1
    D2, v2, b2 = sol2
    for E in B.objects:
        for u in B.hom1(E, D1):
            vu = B.hcomp1[(v1, u)]
            if vu not in W:
                continue
            for u2 in B.hom1(E, D2):
                v2u2 = B.hcomp1[(v2, u2)]
                for zeta in inv_cells2(B, vu, v2u2):
                    th_g_inv = two_cell_inverse(B, B.assoc[(g, v1, u)])
                    th_g2_inv = two_cell_inverse(B, B.assoc[(g, v2, u2)])
                    if th_g_inv is None or th_g2_inv is None:
                        continue
                    lhs = vcompose_all(B, [
                        B.assoc[(f, v1, u)],
                        whisker_right(B, b1, u),
                        th_g_inv,
                        whisker_left(B, g, zeta),
                    ])
                    rhs = vcompose_all(B, [
                        whisker_left(B, f, zeta),
                        B.assoc[(f, v2, u2)],
                        whisker_right(B, b2, u2),
                        th_g2_inv,
                    ])
                    if lhs == rhs:
                        return (E, u, u2, zeta)
    return None


def check_bf(B: FinBicat, W: WClass) -> BfReport:
    """Decide each closure axiom for ``W`` by exhaustive search.

    Verdicts record the first counterexample in declaration order, or a
    sample witness for the existential axioms.  The coherence laws of ``B``
    are not checked here: the verdicts presume a lawful base, which
    `validate_bicat` decides.
    """
    verdicts: dict[str, AxiomVerdict] = {}

    v1 = AxiomVerdict("BF1", True)
    for A in B.objects:
        v1.checked += 1
        if B.id1[A] not in W:
            v1.holds = False
            v1.counterexample = (A, B.id1[A])
            v1.detail = f"identity of {A!r} not in class"
            break
    verdicts["BF1"] = v1

    v2 = AxiomVerdict("BF2", True)
    for w2 in sorted_members(B, W):
        for w1 in (c.id for c in B.into1(B.one(w2).src) if c.id in W):
            v2.checked += 1
            comp = B.hcomp1[(w2, w1)]
            if comp not in W:
                v2.holds = False
                v2.counterexample = (w2, w1, comp)
                v2.detail = f"composite {comp!r} escapes the class"
                break
        if not v2.holds:
            break
    verdicts["BF2"] = v2

    v3 = AxiomVerdict("BF3", True)
    for w in sorted_members(B, W):
        for f in B.into1(B.one(w).tgt):
            v3.checked += 1
            filler = find_bf3_filler(B, W, w, f.id)
            if filler is None:
                v3.holds = False
                v3.counterexample = (w, f.id)
                v3.detail = "no invertible square over the cospan"
                break
            if v3.witness is None:
                v3.witness = ((w, f.id), filler)
        if not v3.holds:
            break
    verdicts["BF3"] = v3

    ca = AxiomVerdict("BF4:a", True)
    cb = AxiomVerdict("BF4:b", True)
    cc = AxiomVerdict("BF4:c", True)
    for w in sorted_members(B, W):
        for fc in B.into1(B.one(w).src):
            f = fc.id
            for g in B.hom1(fc.src, fc.tgt):
                wf = B.hcomp1[(w, f)]
                wg = B.hcomp1[(w, g)]
                for alpha in B.cells2(wf, wg):
                    sols = _bf4_solutions(B, W, w, f, g, alpha)
                    ca.checked += 1
                    if ca.holds:
                        if not sols:
                            ca.holds = False
                            ca.counterexample = (w, f, g, alpha)
                            ca.detail = "no class member transfers the 2-cell"
                        elif ca.witness is None:
                            ca.witness = ((w, f, g, alpha), sols[0])
                    if two_cell_inverse(B, alpha) is not None:
                        cb.checked += 1
                        if cb.holds:
                            inv_sols = [
                                s for s in sols if two_cell_inverse(B, s[2]) is not None
                            ]
                            if not inv_sols:
                                cb.holds = False
                                cb.counterexample = (w, f, g, alpha)
                                cb.detail = "no invertible transfer for invertible input"
                            elif cb.witness is None:
                                cb.witness = ((w, f, g, alpha), inv_sols[0])
                    if cc.holds:
                        for i, s1 in enumerate(sols):
                            for s2 in sols[i:]:
                                cc.checked += 1
                                ref = _bf4c_refinement(B, W, f, g, s1, s2)
                                if ref is None:
                                    cc.holds = False
                                    cc.counterexample = (w, f, g, alpha, s1, s2)
                                    cc.detail = "two transfers admit no common refinement"
                                    break
                                if cc.witness is None:
                                    cc.witness = ((w, f, g, alpha, s1, s2), ref)
                            if not cc.holds:
                                break

    v4 = AxiomVerdict(
        "BF4",
        ca.holds and cb.holds and cc.holds,
        clauses={"a": ca, "b": cb, "c": cc},
        checked=ca.checked,
    )
    if not v4.holds:
        first_bad = next(c for c in (ca, cb, cc) if not c.holds)
        v4.counterexample = first_bad.counterexample
        v4.detail = f"clause {first_bad.axiom.split(':')[1]}: {first_bad.detail}"
    verdicts["BF4"] = v4

    v5 = AxiomVerdict("BF5", True)
    for w in sorted_members(B, W):
        # By target 1-cell, then in declaration order (the sort is stable).
        for alpha in sorted(B.from2(w), key=lambda t: B.pos1(t.tgt)):
            if two_cell_inverse(B, alpha.id) is None:
                continue
            v5.checked += 1
            if alpha.tgt not in W:
                v5.holds = False
                v5.counterexample = (w, alpha.id, alpha.tgt)
                v5.detail = f"isomorphic 1-cell {alpha.tgt!r} escapes the class"
                break
        if not v5.holds:
            break
    verdicts["BF5"] = v5

    return BfReport(all(v.holds for v in verdicts.values()), verdicts)


def bf_report(B: FinBicat, W: WClass) -> BfReport:
    """`check_bf` of ``W``, decided once per base and member set.

    The report is kept in ``B``'s cache, which is sound because no table of
    a finished bicategory is written again.  It is shared by every caller,
    so it must be read, never modified.
    """
    key = ("bf", W.members)
    if key not in B._cache:
        B._cache[key] = check_bf(B, W)
    return B._cache[key]


@dataclass
class SaturationResult:
    members: WClass
    witnesses: dict[str, tuple[str, str]]  # f -> (g, h)


def saturate(B: FinBicat, W: WClass) -> SaturationResult:
    """Right saturation of ``W`` with a witness pair per member.

    ``f`` belongs to the saturation iff there are ``g`` and ``h`` with both
    ``f∘g`` and ``g∘h`` in ``W``.  Witness pairs are least in declaration
    order.  Members of ``W`` itself are re-derived, not copied, so a class
    that is not saturated in the formal sense would be reported faithfully;
    for classes containing the identities every member witnesses itself.
    """
    found: dict[str, tuple[str, str]] = {}
    for f in B.one_cells:
        for g in B.into1(f.src):
            if B.hcomp1[(f.id, g.id)] not in W:
                continue
            hit = None
            for h in B.into1(g.src):
                if B.hcomp1[(g.id, h.id)] in W:
                    hit = h.id
                    break
            if hit is not None:
                found[f.id] = (g.id, hit)
                break
    name = f"sat({W.name})" if W.name else "sat"
    return SaturationResult(WClass(frozenset(found), name), found)


def is_saturated(B: FinBicat, W: WClass) -> bool:
    return saturate(B, W).members.members == W.members


def quasi_units(B: FinBicat) -> WClass:
    """Endo-1-cells isomorphic to the identity of their object."""
    out = []
    for c in B.one_cells:
        if c.src == c.tgt and inv_cells2(B, c.id, B.id1[c.src]):
            out.append(c.id)
    return WClass(frozenset(out), "quasi-units")


def internal_equivalences_class(B: FinBicat) -> WClass:
    return WClass(frozenset(internal_equivalences(B)), "equivalences")
