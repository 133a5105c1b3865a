"""Pasting trees: a reference evaluator for the library's table lookups.

A pasting expression is a tree of nodes (`Atom`, `VComp`, `WhiskL`,
`Assoc`, `Inv`, ...).  `infer_boundary` types a tree without evaluating it
and `eval_pasting` evaluates it to a 2-cell id, checking types as it goes.
Each leaf of `eval_pasting` is one of `bicfrac.core`'s table lookups, so the
tests use the trees as an independent statement of each fixed chain the
library folds directly: `build_a5_composite` is the tree of condition A5's
composite, which `bicfrac.conditions.a5_composite` evaluates by lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from bicfrac.core import (
    CompositionError,
    FinBicat,
    TypingError,
    assoc_cell,
    assoc_inv_cell,
    hcompose1,
    hcompose2,
    inverse_cell,
    lunit_cell,
    runit_cell,
    vfold,
    whisker_left,
    whisker_right,
)
from bicfrac.psfun import PsFun


@dataclass(frozen=True)
class Atom:
    cell: str


@dataclass(frozen=True)
class IdOn:
    cell: str  # a 1-cell


@dataclass(frozen=True)
class VComp:
    upper: "PastingExpr"  # applied first
    lower: "PastingExpr"


@dataclass(frozen=True)
class HComp:
    left: "PastingExpr"  # the factor on the codomain side
    right: "PastingExpr"


@dataclass(frozen=True)
class WhiskL:
    cell: str  # 1-cell g, composed on the left
    expr: "PastingExpr"


@dataclass(frozen=True)
class WhiskR:
    expr: "PastingExpr"
    cell: str  # 1-cell f, composed on the right


@dataclass(frozen=True)
class Assoc:
    h: str
    g: str
    f: str


@dataclass(frozen=True)
class AssocInv:
    h: str
    g: str
    f: str


@dataclass(frozen=True)
class RUnit:
    cell: str


@dataclass(frozen=True)
class RUnitInv:
    cell: str


@dataclass(frozen=True)
class LUnit:
    cell: str


@dataclass(frozen=True)
class LUnitInv:
    cell: str


@dataclass(frozen=True)
class Inv:
    expr: "PastingExpr"


PastingExpr = Union[
    Atom, IdOn, VComp, HComp, WhiskL, WhiskR,
    Assoc, AssocInv, RUnit, RUnitInv, LUnit, LUnitInv, Inv,
]


def vchain(*factors: PastingExpr) -> PastingExpr:
    """Nest factors, given in application order, into VComp nodes."""
    if not factors:
        raise TypingError("empty chain")
    expr = factors[0]
    for nxt in factors[1:]:
        expr = VComp(expr, nxt)
    return expr


def _h1(B: FinBicat, g: str, f: str, ctx: PastingExpr) -> str:
    try:
        return hcompose1(B, g, f)
    except CompositionError:
        raise TypingError(f"1-cells {g!r}, {f!r} not composable in {ctx!r}") from None


def infer_boundary(B: FinBicat, e: PastingExpr) -> tuple[str, str]:
    """Source and target 1-cells of a pasting expression, without evaluating."""
    if isinstance(e, Atom):
        t = B.two(e.cell)
        return t.src, t.tgt
    if isinstance(e, IdOn):
        B.one(e.cell)
        return e.cell, e.cell
    if isinstance(e, VComp):
        s1, t1 = infer_boundary(B, e.upper)
        s2, t2 = infer_boundary(B, e.lower)
        if t1 != s2:
            raise TypingError(f"vertical mismatch: {t1!r} vs {s2!r} in {e!r}")
        return s1, t2
    if isinstance(e, HComp):
        ls, lt = infer_boundary(B, e.left)
        rs, rt = infer_boundary(B, e.right)
        if B.one(rs).tgt != B.one(ls).src:
            raise TypingError(f"horizontal mismatch in {e!r}")
        return _h1(B, ls, rs, e), _h1(B, lt, rt, e)
    if isinstance(e, WhiskL):
        s, t = infer_boundary(B, e.expr)
        if B.one(t).tgt != B.one(e.cell).src:
            raise TypingError(f"left whisker mismatch in {e!r}")
        return _h1(B, e.cell, s, e), _h1(B, e.cell, t, e)
    if isinstance(e, WhiskR):
        s, t = infer_boundary(B, e.expr)
        if B.one(e.cell).tgt != B.one(s).src:
            raise TypingError(f"right whisker mismatch in {e!r}")
        return _h1(B, s, e.cell, e), _h1(B, t, e.cell, e)
    if isinstance(e, (Assoc, AssocInv)):
        gf = _h1(B, e.g, e.f, e)
        hg = _h1(B, e.h, e.g, e)
        lhs = _h1(B, e.h, gf, e)
        rhs = _h1(B, hg, e.f, e)
        return (lhs, rhs) if isinstance(e, Assoc) else (rhs, lhs)
    if isinstance(e, (RUnit, RUnitInv)):
        c = B.one(e.cell)
        fid = _h1(B, e.cell, B.id1[c.src], e)
        return (fid, e.cell) if isinstance(e, RUnit) else (e.cell, fid)
    if isinstance(e, (LUnit, LUnitInv)):
        c = B.one(e.cell)
        idf = _h1(B, B.id1[c.tgt], e.cell, e)
        return (idf, e.cell) if isinstance(e, LUnit) else (e.cell, idf)
    if isinstance(e, Inv):
        s, t = infer_boundary(B, e.expr)
        return t, s
    raise TypingError(f"unknown pasting node {e!r}")


def eval_pasting(B: FinBicat, e: PastingExpr) -> str:
    """Evaluate a pasting expression to a 2-cell id, checking types as it goes."""
    if isinstance(e, Atom):
        B.two(e.cell)
        return e.cell
    if isinstance(e, IdOn):
        B.one(e.cell)
        return B.id2[e.cell]
    if isinstance(e, VComp):
        return vfold(B, eval_pasting(B, e.upper), eval_pasting(B, e.lower))
    if isinstance(e, HComp):
        lv = eval_pasting(B, e.left)
        rv = eval_pasting(B, e.right)
        if B.one(B.src1(rv)).tgt != B.one(B.src1(lv)).src:
            raise TypingError(f"horizontal mismatch in {e!r}")
        return hcompose2(B, lv, rv)
    if isinstance(e, WhiskL):
        return whisker_left(B, e.cell, eval_pasting(B, e.expr))
    if isinstance(e, WhiskR):
        return whisker_right(B, eval_pasting(B, e.expr), e.cell)
    if isinstance(e, Assoc):
        return assoc_cell(B, e.h, e.g, e.f)
    if isinstance(e, AssocInv):
        return assoc_inv_cell(B, e.h, e.g, e.f)
    if isinstance(e, RUnit):
        return runit_cell(B, e.cell)
    if isinstance(e, RUnitInv):
        return inverse_cell(B, runit_cell(B, e.cell))
    if isinstance(e, LUnit):
        return lunit_cell(B, e.cell)
    if isinstance(e, LUnitInv):
        return inverse_cell(B, lunit_cell(B, e.cell))
    if isinstance(e, Inv):
        return inverse_cell(B, eval_pasting(B, e.expr))
    raise TypingError(f"unknown pasting node {e!r}")


def build_a5_composite(
    F: PsFun,
    f1: str,
    f2: str,
    v_b: str,
    v_a: str,
    z_b: str,
    zp_b: str,
    sigma_b: str,
    alpha_a: str,
) -> PastingExpr:
    """Pasting tree that transports ``alpha_a`` along the comparison data.

    The arguments are those of `bicfrac.conditions.a5_composite`.  The
    factors, in application order, are an inverse associator, a whiskered
    ``sigma_b``, an associator, the compositor-conjugate of ``F(alpha_a)``
    whiskered by ``z_b``, an inverse associator, a whiskered inverse of
    ``sigma_b`` and a final associator, so the whole tree runs from
    ``(F(f1)∘v_b)∘zp_b`` to ``(F(f2)∘v_b)∘zp_b``.  Boundary mismatches in
    the data raise `TypingError`.
    """
    ff1, ff2, fv = F.f1[f1], F.f1[f2], F.f1[v_a]
    conjugate = vchain(
        Inv(Atom(F.psi[(f1, v_a)])),
        Atom(F.f2[alpha_a]),
        Atom(F.psi[(f2, v_a)]),
    )
    expr = vchain(
        AssocInv(ff1, v_b, zp_b),
        WhiskL(ff1, Atom(sigma_b)),
        Assoc(ff1, fv, z_b),
        WhiskR(conjugate, z_b),
        AssocInv(ff2, fv, z_b),
        WhiskL(ff2, Inv(Atom(sigma_b))),
        Assoc(ff2, v_b, zp_b),
    )
    infer_boundary(F.target, expr)
    return expr
