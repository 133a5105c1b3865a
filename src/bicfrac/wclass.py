"""Classes of 1-cells and the axioms that make them invertible formally.

A `WClass` is a plain set of 1-cell ids in a fixed finite bicategory.
`check_bf` decides, by exhaustive search, whether the class admits a
calculus of fractions: identities belong to it, it is closed under
composition and under invertible 2-cells, every cospan with one leg in the
class can be squared (BF3), and 2-cells can be pushed across members of the
class with the usual existence, invertibility and uniqueness-up-to-refinement
guarantees (BF4).  Each axiom is stated once, on one of two quantifiers:
for every input no fault (BF1, BF2, BF5), or for every input a solution
(BF3 and BF4's three clauses).  The report is decided once per base and
member set.  BF4's transfer and refinement equations each compare two
composites of one frame; when that frame holds a single 2-cell the two are
equal and neither is composed.  That one-cell-frame rule presumes total,
well-typed tables, which `core.structural_violations` guarantees for every
parsed or built bicategory.

`saturate` computes the right saturation: all 1-cells ``f`` admitting ``g``
and ``h`` with both ``f∘g`` and ``g∘h`` in the class, each recorded with its
witness pair, found once per base and member set.  `quasi_units` collects
the endo-1-cells isomorphic to an identity; their right saturation is
exactly the class of internal equivalences, which
`internal_equivalences_class` returns directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
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


def _one_cell(B: FinBicat, src: str, tgt: str) -> bool:
    """Whether the frame ``src ⇒ tgt`` holds one 2-cell, which any two composites in it then are."""
    return len(B.cells2(src, tgt)) == 1


def _bf4_candidates(B: FinBicat, W: WClass, f: str, g: str) -> list[tuple[str, str, list[str]]]:
    """The ``(D, v, betas)`` a BF4 transfer into ``f, g`` draws on.

    ``v: D→src(f)`` lies in ``W`` and ``betas`` are the 2-cells
    ``f∘v ⇒ g∘v``, in declaration order.
    """
    C = B.one(f).src
    return [
        (D, v, B.cells2(B.hcomp1[(f, v)], B.hcomp1[(g, v)]))
        for D in B.objects
        for v in B.hom1(D, C) if v in W
    ]


def _bf4_solutions(
    B: FinBicat, w: str, f: str, g: str, alpha: str, candidates: list[tuple[str, str, list[str]]]
) -> tuple[tuple[str, str, str], ...]:
    """All ``(D, v, beta)`` solving the BF4 transfer for ``alpha: w∘f ⇒ w∘g``.

    The transfer equation ``alpha ∗ v == θ⁻¹ ⊙ (w ∗ beta) ⊙ θ'``, with
    ``θ`` and ``θ'`` the associators at ``(w, f, v)`` and ``(w, g, v)``,
    needs ``θ`` invertible.  Both its sides lie in the frame
    ``(w∘f)∘v ⇒ (w∘g)∘v``, so when that holds one cell (`_one_cell`) every
    ``beta`` solves it.
    """
    H = B.hcomp1
    wf, wg = H[(w, f)], H[(w, g)]
    out = []
    for D, v, betas in candidates:
        if not betas:
            continue
        theta_f_inv = two_cell_inverse(B, B.assoc[(w, f, v)])
        if theta_f_inv is None:
            continue
        if _one_cell(B, H[(wf, v)], H[(wg, v)]):
            out += [(D, v, beta) for beta in betas]
            continue
        lhs = whisker_right(B, alpha, v)
        theta_g = B.assoc[(w, g, v)]
        out += [
            (D, v, beta) for beta in betas
            if vcompose_all(B, [theta_f_inv, whisker_left(B, w, beta), theta_g]) == lhs
        ]
    return tuple(out)


def _bf4c_refinement(
    B: FinBicat, W: WClass, f: str, g: str,
    sol1: tuple[str, str, str], sol2: tuple[str, str, str],
) -> Optional[tuple[str, str, str, str]]:
    """Least ``(E, u, u2, zeta)`` reconciling two BF4 solutions, or None.

    The refinement equation
    ``θ ⊙ (b1 ∗ u) ⊙ θ_g⁻¹ ⊙ (g ∗ zeta) == (f ∗ zeta) ⊙ θ' ⊙ (b2 ∗ u2) ⊙ θ_g'⁻¹``
    needs the associators ``θ_g`` at ``(g, v1, u)`` and ``θ_g'`` at
    ``(g, v2, u2)`` invertible.  Both its sides lie in the frame
    ``f∘(v1∘u) ⇒ g∘(v2∘u2)``: when that holds one cell (`_one_cell`) any
    ``zeta`` solves it.  Otherwise the left side's first three factors,
    which depend on ``u`` only, are composed once per ``u``.
    """
    D1, v1, b1 = sol1
    D2, v2, b2 = sol2
    H = B.hcomp1
    for E in B.objects:
        for u in B.hom1(E, D1):
            vu = H[(v1, u)]
            if vu not in W:
                continue
            th_g_inv = two_cell_inverse(B, B.assoc[(g, v1, u)])
            if th_g_inv is None:
                continue
            f_vu = H[(f, vu)]
            prefix = None
            for u2 in B.hom1(E, D2):
                v2u2 = H[(v2, u2)]
                zetas = inv_cells2(B, vu, v2u2)
                if not zetas:
                    continue
                th_g2_inv = two_cell_inverse(B, B.assoc[(g, v2, u2)])
                if th_g2_inv is None:
                    continue
                if _one_cell(B, f_vu, H[(g, v2u2)]):
                    return (E, u, u2, zetas[0])
                if prefix is None:
                    prefix = vcompose_all(B, [B.assoc[(f, v1, u)], whisker_right(B, b1, u), th_g_inv])
                for zeta in zetas:
                    lhs = vcompose_all(B, [prefix, whisker_left(B, g, zeta)])
                    rhs = vcompose_all(B, [
                        whisker_left(B, f, zeta),
                        B.assoc[(f, v2, u2)],
                        whisker_right(B, b2, u2),
                        th_g2_inv,
                    ])
                    if lhs == rhs:
                        return (E, u, u2, zeta)
    return None


def _no_fault(axiom: str, cases: Iterable[tuple], W: WClass, detail: str) -> AxiomVerdict:
    """For every case, no fault: each case's last cell lies in ``W``.

    The first case whose last cell does not is the counterexample, and
    ``detail``, formatted with its cells, says why; ``checked`` counts the
    cases up to it.
    """
    verdict = AxiomVerdict(axiom, True)
    for case in cases:
        verdict.checked += 1
        if case[-1] not in W:
            verdict.holds, verdict.counterexample, verdict.detail = False, case, detail.format(*case)
            break
    return verdict


def _solved(axiom: str, cases: Iterable[tuple], detail: str, count_all: bool = False) -> AxiomVerdict:
    """For every input, a solution: ``cases`` yields ``(input, solution or None)``.

    The witness is the first input's solution and the counterexample the
    first input with none.  ``checked`` counts the inputs up to it, or every
    input with ``count_all``.
    """
    verdict = AxiomVerdict(axiom, True)
    for inp, sol in cases:
        verdict.checked += 1
        if sol is None and verdict.holds:
            verdict.holds, verdict.counterexample, verdict.detail = False, inp, detail
            if not count_all:
                break
        elif verdict.checked == 1:
            verdict.witness = (inp, sol)
    return verdict


def _refined(B: FinBicat, W: WClass, transfers: list[tuple[tuple, tuple]]) -> AxiomVerdict:
    """BF4's clause c: every two transfers of one input have a common refinement.

    `_solved` over the pairs ``(s1, s2)`` of each input's transfers, ``s1``
    at or before ``s2``.  Those pairs and their refinements depend only on
    ``(f, g, sols)``, so each such block is decided once, by `_solved`
    over its own pairs, and folded into the clause: ``checked`` adds up,
    the witness is the first pair's refinement, and the counterexample is
    the first pair without one.  Each distinct refinement is decided once.
    """
    refine = cache(partial(_bf4c_refinement, B, W))
    detail = "two transfers admit no common refinement"

    @cache
    def block(f: str, g: str, sols: tuple) -> AxiomVerdict:
        pairs = ((s1, s2) for i, s1 in enumerate(sols) for s2 in sols[i:])
        return _solved("BF4:c", ((pair, refine(f, g, *pair)) for pair in pairs), detail)

    verdict = AxiomVerdict("BF4:c", True)
    for x, sols in transfers:
        run = block(x[1], x[2], sols)
        if verdict.checked == 0 and run.witness is not None:
            pair, sol = run.witness
            verdict.witness = (x + pair, sol)
        verdict.checked += run.checked
        if not run.holds:
            verdict.holds, verdict.counterexample, verdict.detail = False, x + run.counterexample, detail
            break
    return verdict


def check_bf(B: FinBicat, W: WClass) -> BfReport:
    """Decide each closure axiom for ``W`` by exhaustive search.

    Verdicts record the first counterexample in declaration order, or a
    sample witness for the existential axioms.  The coherence laws of ``B``
    are not checked here: the verdicts presume a lawful base, which
    `validate_bicat` decides.  A BF4 equation whose two sides lie in a
    frame holding one 2-cell holds without composing either side; this
    presumes total, well-typed tables (`core.structural_violations`).  The
    transfers' candidates are found once per ``(f, g)``, and clause c is
    decided once per block of pairs (`_refined`).

    The report is decided once per base and member set and kept in ``B``'s
    cache, which is sound because no table of a finished bicategory is
    written again.  It is shared by every caller, so it must be read, never
    modified.
    """
    key = ("bf", W.members)
    if key in B._cache:
        return B._cache[key]
    members = sorted_members(B, W)
    bf1 = _no_fault(
        "BF1", ((A, B.id1[A]) for A in B.objects), W, "identity of {0!r} not in class"
    )
    bf2 = _no_fault(
        "BF2",
        (
            (w2, w1.id, B.hcomp1[(w2, w1.id)])
            for w2 in members for w1 in B.into1(B.one(w2).src) if w1.id in W
        ),
        W, "composite {2!r} escapes the class",
    )
    bf3 = _solved(
        "BF3",
        (((w, f.id), find_bf3_filler(B, W, w, f.id)) for w in members for f in B.into1(B.one(w).tgt)),
        "no invertible square over the cospan",
    )

    # BF4's inputs ``(w, f, g, alpha)`` with their transfers feed all three
    # clauses; the transfers' candidates depend on ``(f, g)`` only.
    candidates = cache(partial(_bf4_candidates, B, W))
    transfers = [
        ((w, f.id, g, alpha), _bf4_solutions(B, w, f.id, g, alpha, candidates(f.id, g)))
        for w in members
        for f in B.into1(B.one(w).src)
        for g in B.hom1(f.src, f.tgt)
        for alpha in B.cells2(B.hcomp1[(w, f.id)], B.hcomp1[(w, g)])
    ]
    ca = _solved(
        "BF4:a", ((x, sols[0] if sols else None) for x, sols in transfers),
        "no class member transfers the 2-cell", count_all=True,
    )
    cb = _solved(
        "BF4:b",
        (
            (x, next((s for s in sols if two_cell_inverse(B, s[2]) is not None), None))
            for x, sols in transfers if two_cell_inverse(B, x[3]) is not None
        ),
        "no invertible transfer for invertible input", count_all=True,
    )
    cc = _refined(B, W, transfers)
    bf4 = AxiomVerdict(
        "BF4",
        ca.holds and cb.holds and cc.holds,
        clauses={"a": ca, "b": cb, "c": cc},
        checked=ca.checked,
    )
    if not bf4.holds:
        first_bad = next(c for c in (ca, cb, cc) if not c.holds)
        bf4.counterexample = first_bad.counterexample
        bf4.detail = f"clause {first_bad.axiom.split(':')[1]}: {first_bad.detail}"

    bf5 = _no_fault(
        "BF5",
        (
            (w, alpha.id, alpha.tgt)
            for w in members
            # By target 1-cell, then in declaration order (the sort is stable).
            for alpha in sorted(B.from2(w), key=lambda t: B.pos1(t.tgt))
            if two_cell_inverse(B, alpha.id) is not None
        ),
        W, "isomorphic 1-cell {2!r} escapes the class",
    )

    verdicts = {v.axiom: v for v in (bf1, bf2, bf3, bf4, bf5)}
    B._cache[key] = BfReport(all(v.holds for v in verdicts.values()), verdicts)
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
    The pairs are found once per base and member set and kept in ``B``'s
    cache; each result is named after its own ``W``.
    """
    key = ("saturation", W.members)
    if key not in B._cache:
        B._cache[key] = _saturation_witnesses(B, W)
    found = B._cache[key]
    name = f"sat({W.name})" if W.name else "sat"
    return SaturationResult(WClass(frozenset(found), name), dict(found))


def _saturation_witnesses(B: FinBicat, W: WClass) -> dict[str, tuple[str, str]]:
    found: dict[str, tuple[str, str]] = {}
    for f in B.one_cells:
        for g in B.into1(f.src):
            if B.hcomp1[(f.id, g.id)] in W:
                h = next((h.id for h in B.into1(g.src) if B.hcomp1[(g.id, h.id)] in W), None)
                if h is not None:
                    found[f.id] = (g.id, h)
                    break
    return found


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
