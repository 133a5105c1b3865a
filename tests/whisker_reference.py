"""Whiskering of 2-cell classes, one search per side: a reference for the library's.

`bicfrac.fractions` fills both whisker tables of a localization with one
search that swaps the roles of the two spans.  This module keeps the two
searches it replaced, each written out for its own side, as an independent
statement of the construction.  Each takes the moving class's representative
as an argument, so a test can run it from every representative of a class,
and reads only the localization's fillers, spans and class lookup and a
fresh restriction memo (`bicfrac.fractions._restrictions`).

Both return the class id of the whiskering, or None when no candidate solves
the search's equation.
"""

from __future__ import annotations

from typing import Optional

from bicfrac import fractions
from bicfrac.core import (
    assoc_cell,
    assoc_inv_cell,
    inv_cells2,
    two_cell_inverse,
    vfold,
    whisker_left,
)
from bicfrac.fractions import Localization, Span, TwoCellRep


def whisk_right(loc: Localization, T1: Span, T2: Span, psi: TwoCellRep, S: Span) -> Optional[str]:
    """Class of ``psi ∗ i_S`` for a representative ``psi`` of ``T1 ⇒ T2`` and a span ``S``."""
    B, W = loc.base, loc.wcls
    restricted = fractions._restrictions(B)

    def h1(g: str, f: str) -> str:
        return B.hcomp1[(g, f)]

    f1 = loc.fillers[(T1.id, S.id)]
    f2 = loc.fillers[(T2.id, S.id)]
    D1, x1, y1, rho1 = f1.apex, f1.left, f1.right, f1.rho
    D2, x2, y2, rho2 = f2.apex, f2.left, f2.right, f2.rho
    comp1 = loc.spans[loc.bicat.hcomp1[(T1.id, S.id)]]
    comp2 = loc.spans[loc.bicat.hcomp1[(T2.id, S.id)]]
    rho1_inv = two_cell_inverse(B, rho1)
    q1, q2 = psi.leg1, psi.leg2
    for E in B.objects:
        for e1 in B.hom1(E, D1):
            if h1(comp1.back, e1) not in W:
                continue
            x1e1 = h1(x1, e1)
            y1e1 = h1(y1, e1)
            for e2 in B.hom1(E, D2):
                x2e2 = h1(x2, e2)
                y2e2 = h1(y2, e2)
                for xi in inv_cells2(B, x1e1, x2e2):
                    route1 = vfold(
                        B,
                        restricted[(T1.back, y1, rho1_inv, S.forward, x1, e1)],
                        whisker_left(B, S.forward, xi),
                        restricted[(S.forward, x2, rho2, T2.back, y2, e2)],
                    )
                    for lam in B.hom1(E, psi.apex):
                        q1lam = h1(q1, lam)
                        q2lam = h1(q2, lam)
                        for k1 in inv_cells2(B, y1e1, q1lam):
                            for k2 in inv_cells2(B, y2e2, q2lam):
                                k2_inv = two_cell_inverse(B, k2)
                                route2 = vfold(
                                    B,
                                    whisker_left(B, T1.back, k1),
                                    restricted[(T1.back, q1, psi.alpha, T2.back, q2, lam)],
                                    whisker_left(B, T2.back, k2_inv),
                                )
                                if route1 != route2:
                                    continue
                                alpha = vfold(
                                    B,
                                    assoc_inv_cell(B, S.back, x1, e1),
                                    whisker_left(B, S.back, xi),
                                    assoc_cell(B, S.back, x2, e2),
                                )
                                beta = vfold(
                                    B,
                                    assoc_inv_cell(B, T1.forward, y1, e1),
                                    whisker_left(B, T1.forward, k1),
                                    restricted[(T1.forward, q1, psi.beta, T2.forward, q2, lam)],
                                    whisker_left(B, T2.forward, k2_inv),
                                    assoc_cell(B, T2.forward, y2, e2),
                                )
                                return loc.class_of(comp1, comp2, TwoCellRep(E, e1, e2, alpha, beta))
    return None


def whisk_left(loc: Localization, T: Span, S1: Span, S2: Span, phi: TwoCellRep) -> Optional[str]:
    """Class of ``i_T ∗ phi`` for a span ``T`` and a representative ``phi`` of ``S1 ⇒ S2``."""
    B, W = loc.base, loc.wcls
    restricted = fractions._restrictions(B)

    def h1(g: str, f: str) -> str:
        return B.hcomp1[(g, f)]

    f1 = loc.fillers[(T.id, S1.id)]
    f2 = loc.fillers[(T.id, S2.id)]
    D1, x1, y1, rho1 = f1.apex, f1.left, f1.right, f1.rho
    D2, x2, y2, rho2 = f2.apex, f2.left, f2.right, f2.rho
    comp1 = loc.spans[loc.bicat.hcomp1[(T.id, S1.id)]]
    comp2 = loc.spans[loc.bicat.hcomp1[(T.id, S2.id)]]
    rho1_inv = two_cell_inverse(B, rho1)
    p1, p2 = phi.leg1, phi.leg2
    for E in B.objects:
        for e1 in B.hom1(E, D1):
            if h1(comp1.back, e1) not in W:
                continue
            x1e1 = h1(x1, e1)
            y1e1 = h1(y1, e1)
            for e2 in B.hom1(E, D2):
                x2e2 = h1(x2, e2)
                y2e2 = h1(y2, e2)
                for lam in B.hom1(E, phi.apex):
                    p1lam = h1(p1, lam)
                    p2lam = h1(p2, lam)
                    for i1 in inv_cells2(B, x1e1, p1lam):
                        for i2 in inv_cells2(B, x2e2, p2lam):
                            i2_inv = two_cell_inverse(B, i2)
                            delta = vfold(
                                B,
                                restricted[(T.back, y1, rho1_inv, S1.forward, x1, e1)],
                                whisker_left(B, S1.forward, i1),
                                restricted[(S1.forward, p1, phi.beta, S2.forward, p2, lam)],
                                whisker_left(B, S2.forward, i2_inv),
                                restricted[(S2.forward, x2, rho2, T.back, y2, e2)],
                            )
                            for eps in B.cells2(y1e1, y2e2):
                                if whisker_left(B, T.back, eps) != delta:
                                    continue
                                alpha = vfold(
                                    B,
                                    assoc_inv_cell(B, S1.back, x1, e1),
                                    whisker_left(B, S1.back, i1),
                                    restricted[(S1.back, p1, phi.alpha, S2.back, p2, lam)],
                                    whisker_left(B, S2.back, i2_inv),
                                    assoc_cell(B, S2.back, x2, e2),
                                )
                                beta = vfold(
                                    B,
                                    assoc_inv_cell(B, T.forward, y1, e1),
                                    whisker_left(B, T.forward, eps),
                                    assoc_cell(B, T.forward, y2, e2),
                                )
                                return loc.class_of(comp1, comp2, TwoCellRep(E, e1, e2, alpha, beta))
    return None
