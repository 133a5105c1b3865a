"""Localization of a finite bicategory at a class of 1-cells.

The 1-cells of the localized bicategory are spans whose backward leg lies in
the class, and its 2-cells are equivalence classes of span maps
(`TwoCellRep`).  Because everything is finite, the localized bicategory can
be *materialized*: every span, every representative, every class and every
structural table is enumerated explicitly, producing an ordinary `FinBicat`
that is then run through the full validator.  The spans and classes are
declared first; the composition, whiskering and coherence tables are then
filled by walking the new `FinBicat`'s own domains (`core.composable_pairs`
and its siblings).  An entry landing in a frame with a single class is that
class; only frames with several classes are searched.

The decision procedure for 2-cells is `reps_equivalent`: two representatives
are identified when a common refinement of their apexes aligns both their
backward-leg and forward-leg data.  Classes are the connected components of
this relation, computed by union-find; on lawful inputs the one-step
relation is already transitive, which the test suite checks on the shipped
fixtures.

Class-level composition never depends on which representative or which
filler the search returns first; the searches here scan candidates in
declaration order and take the least solution, so results are canonical
cell-for-cell, and the independence is separately exercised by tests.

Each search compares fixed pasting shapes: chains of associators,
whiskered cells and vertical composites.  They are evaluated by direct table
lookups (`core.assoc_cell`, `core.vfold` and their siblings), each of which
checks that its factor is well typed.  Factors that do not depend on the
innermost candidates, such as a representative's 2-cell restricted along a
refinement leg, are evaluated at the first candidate that needs them, so an
input raises where it raised when every candidate evaluated its whole chain.
Each side of the witness search's equation depends on one representative
and is evaluated once per build, shared by every pair of every frame; the
other searches' factors are evaluated once per search.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from .core import (
    FinBicat,
    OneCell,
    PreconditionError,
    StructureError,
    TwoCell,
    _components_identity,
    assoc_cell,
    assoc_inv_cell,
    composable_pairs,
    composable_triples,
    inv_cells2,
    inverse_cell,
    lunit_cell,
    lwhisker_pairs,
    runit_cell,
    rwhisker_pairs,
    two_cell_inverse,
    validate_bicat,
    vfold,
    whisker_left,
    whisker_right,
)
from .wclass import WClass, check_bf, find_bf3_filler, saturate


def _restrict(B: FinBicat, b1: str, l1: str, a: str, b2: str, l2: str, z: str) -> str:
    """``a: b1∘l1 ⇒ b2∘l2`` restricted along ``z``, as ``b1∘(l1∘z) ⇒ b2∘(l2∘z)``.

    That is the chain: associator, ``a ∗ i_z``, inverse associator.
    """
    return vfold(B, assoc_cell(B, b1, l1, z), whisker_right(B, a, z), assoc_inv_cell(B, b2, l2, z))


class _Memo(dict):
    """``compute(key)`` for each key, evaluated at the key's first lookup.

    A dict, not `functools.cache`, because a hit is then a plain subscript;
    with the cache wrapper, materializing `chain(5)` and `cyclic_loop(6)`
    took 0-50% longer in five alternating runs of each.
    """

    def __init__(self, compute: Callable):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class LocalizationError(RuntimeError):
    """The materialized bicategory failed validation."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class Span:
    """A 1-cell of the localization: ``back`` points at the source object."""

    apex: str
    back: str
    forward: str

    @cached_property
    def id(self) -> str:
        """The span's 1-cell id in the localization, formatted on first use."""
        return f"({self.apex}|{self.back}|{self.forward})"

    def src_obj(self, B: FinBicat) -> str:
        return B.one(self.back).tgt

    def tgt_obj(self, B: FinBicat) -> str:
        return B.one(self.forward).tgt


@dataclass(frozen=True)
class TwoCellRep:
    """A representative of a 2-cell between spans sharing source and target.

    For spans ``S1 = (P1, w1, f1)`` and ``S2 = (P2, w2, f2)``:

    - ``leg1: apex → P1`` and ``leg2: apex → P2``
    - ``alpha: w1∘leg1 ⇒ w2∘leg2`` invertible
    - ``beta:  f1∘leg1 ⇒ f2∘leg2`` arbitrary
    - ``w1∘leg1`` must lie in the class
    """

    apex: str
    leg1: str
    leg2: str
    alpha: str
    beta: str


@dataclass(frozen=True)
class Filler:
    """A chosen square over a cospan ``(f, u)`` with ``u`` in the class.

    ``left ∈ W`` sits under ``f``, ``right`` under ``u``, and
    ``rho: f∘left ⇒ u∘right`` is invertible.
    """

    apex: str
    left: str
    right: str
    rho: str


def enumerate_spans(B: FinBicat, W: WClass) -> list[Span]:
    """All spans with backward leg in ``W``, in declaration order."""
    return [
        Span(apex, back.id, fwd.id)
        for apex in B.objects
        for back in B.from1(apex) if back.id in W
        for fwd in B.from1(apex)
    ]


def rep_sort_key(B: FinBicat, r: TwoCellRep):
    return (
        B.posO(r.apex), B.pos1(r.leg1), B.pos1(r.leg2),
        B.pos2(r.alpha), B.pos2(r.beta),
    )


def enumerate_reps(B: FinBicat, W: WClass, S1: Span, S2: Span) -> list[TwoCellRep]:
    """All valid representatives for the frame ``S1 ⇒ S2``, in canonical order."""
    out = []
    for apex in B.objects:
        for leg1 in B.hom1(apex, S1.apex):
            w1l = B.hcomp1[(S1.back, leg1)]
            if w1l not in W:
                continue
            f1l = B.hcomp1[(S1.forward, leg1)]
            for leg2 in B.hom1(apex, S2.apex):
                w2l = B.hcomp1[(S2.back, leg2)]
                f2l = B.hcomp1[(S2.forward, leg2)]
                for alpha in inv_cells2(B, w1l, w2l):
                    for beta in B.cells2(f1l, f2l):
                        out.append(TwoCellRep(apex, leg1, leg2, alpha, beta))
    return out


def _search_sides(B: FinBicat) -> _Memo:
    """The sides of the identification equation, each evaluated once.

    A side reads nothing but B's tables and a representative's data over a
    leg pair, ``key = (back1, leg1, a, back2, leg2)``; ``sides[key]`` is the
    pair ``(lhs, rhs)`` with ``lhs[z][zeta2]`` the left side
    ``a|z ⊙ (back2 ∗ zeta2)`` and ``rhs[zp][zeta1]`` the right side
    ``(back1 ∗ zeta1) ⊙ a|zp``, where ``a|z`` is ``a`` restricted along
    ``z`` (`_restrict`), shared by both.  One memo serves every search of a
    build, whatever their order.
    """

    def sides(key: tuple[str, str, str, str, str]):
        back1, _, _, back2, _ = key
        restricted = _Memo(lambda z: _restrict(B, *key, z))
        lhs = _Memo(lambda z: _Memo(lambda zeta2: vfold(B, restricted[z], whisker_left(B, back2, zeta2))))
        rhs = _Memo(lambda zp: _Memo(lambda zeta1: vfold(B, whisker_left(B, back1, zeta1), restricted[zp])))
        return lhs, rhs

    return _Memo(sides)


def rep_equivalence_witness(
    B: FinBicat, W: WClass, S1: Span, S2: Span, r1: TwoCellRep, r2: TwoCellRep
) -> Optional[tuple[str, str, str, str, str]]:
    """Least ``(E, z, zp, zeta1, zeta2)`` identifying ``r1`` and ``r2``, or None.

    ``z: E→apex(r1)`` and ``zp: E→apex(r2)`` with ``(w1∘leg1)∘z`` in the
    class, ``zeta1: leg1∘z ⇒ leg1'∘zp`` and ``zeta2: leg2∘z ⇒ leg2'∘zp``
    invertible, such that the refined backward-leg data of both
    representatives agree, and likewise the forward-leg data.

    Over a leg pair ``(back1, back2)`` the data agree when
    ``a1z ⊙ (back2 ∗ zeta2) == (back1 ∗ zeta1) ⊙ a2zp``, where ``a1z`` and
    ``a2zp`` are the reps' 2-cells restricted along ``z`` and ``zp``
    (`_restrict`).  The left side depends on ``r1``'s data, ``z`` and
    ``zeta2`` only and the right side on ``r2``'s data, ``zp`` and ``zeta1``
    only (`_search_sides`), so each is computed once per build, at its first
    use, and a candidate pair costs two comparisons.  A materialization
    shares one memo among all its searches; a call of this function has a
    memo of its own.
    """
    return _rep_witness(B, W, S1, S2, r1, r2, _search_sides(B))


def _rep_witness(
    B: FinBicat, W: WClass, S1: Span, S2: Span, r1: TwoCellRep, r2: TwoCellRep, sides: _Memo
) -> Optional[tuple[str, str, str, str, str]]:
    """`rep_equivalence_witness` reading its sides from the shared ``sides``."""
    w1, w2, f1, f2 = S1.back, S2.back, S1.forward, S2.forward
    back_lhs = sides[(w1, r1.leg1, r1.alpha, w2, r1.leg2)][0]
    back_rhs = sides[(w1, r2.leg1, r2.alpha, w2, r2.leg2)][1]
    fwd_lhs = sides[(f1, r1.leg1, r1.beta, f2, r1.leg2)][0]
    fwd_rhs = sides[(f1, r2.leg1, r2.beta, f2, r2.leg2)][1]
    w1l1 = B.hcomp1[(w1, r1.leg1)]
    for E in B.objects:
        for z in B.hom1(E, r1.apex):
            if B.hcomp1[(w1l1, z)] not in W:
                continue
            bl, fl = back_lhs[z], fwd_lhs[z]
            for zp in B.hom1(E, r2.apex):
                br, fr = back_rhs[zp], fwd_rhs[zp]
                c1src = B.hcomp1[(r1.leg1, z)]
                c1tgt = B.hcomp1[(r2.leg1, zp)]
                c2src = B.hcomp1[(r1.leg2, z)]
                c2tgt = B.hcomp1[(r2.leg2, zp)]
                for zeta1 in inv_cells2(B, c1src, c1tgt):
                    for zeta2 in inv_cells2(B, c2src, c2tgt):
                        if bl[zeta2] == br[zeta1] and fl[zeta2] == fr[zeta1]:
                            return (E, z, zp, zeta1, zeta2)
    return None


def reps_equivalent(
    B: FinBicat, W: WClass, S1: Span, S2: Span, r1: TwoCellRep, r2: TwoCellRep
) -> bool:
    return rep_equivalence_witness(B, W, S1, S2, r1, r2) is not None


@dataclass(frozen=True)
class TwoCellClass:
    """An equivalence class of representatives for one frame of spans."""

    id: str
    src: Span
    tgt: Span
    reps: tuple[TwoCellRep, ...]

    @property
    def rep(self) -> TwoCellRep:
        return self.reps[0]


def compose_spans(
    B: FinBicat, W: WClass, outer: Span, inner: Span
) -> tuple[Span, Filler]:
    """Composite span ``outer∘inner`` through the least filler square.

    `find_bf3_filler` raises `StructureError` when the spans do not compose.
    """
    raw = find_bf3_filler(B, W, outer.back, inner.forward)
    if raw is None:
        raise PreconditionError(
            f"no filler for cospan ({inner.forward!r}, {outer.back!r})"
        )
    D, left, right, rho = raw
    filler = Filler(D, left, right, rho)
    comp = Span(
        D,
        B.hcomp1[(inner.back, left)],
        B.hcomp1[(outer.forward, right)],
    )
    return comp, filler


def span_is_equivalence(B: FinBicat, W: WClass, s: Span) -> bool:
    """Whether the span is an internal equivalence in the localization.

    Holds iff the backward leg is in the class (true of every enumerated
    span) and the forward leg is in its right saturation.
    """
    return s.back in W and s.forward in saturate(B, W).members


# -- materialization ---------------------------------------------------------


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


@dataclass
class Localization:
    """A fully materialized localization with its construction data.

    ``bicat`` is the localized bicategory as an ordinary `FinBicat` whose
    1-cells are span ids and whose 2-cells are class ids.  The remaining
    fields retain the data the construction chose: the span behind each
    1-cell id, the class (with all its representatives) behind each 2-cell
    id, and the filler square behind each composition table entry.

    `materialize_fractions` shares one instance among its callers for as
    long as any of them holds it, so it is read-only; once released, the
    next call builds it afresh.
    """

    base: FinBicat
    wcls: WClass
    bicat: FinBicat
    spans: dict[str, Span]
    classes: dict[str, TwoCellClass]
    fillers: dict[tuple[str, str], Filler]
    _rep_to_class: dict[tuple[str, str], dict[TwoCellRep, str]] = field(repr=False)

    def sid(self, s: Span) -> str:
        i = s.id
        if i not in self.spans:
            raise StructureError(f"span {s!r} is not a 1-cell of the localization")
        return i

    def span(self, sid: str) -> Span:
        try:
            return self.spans[sid]
        except KeyError:
            raise StructureError(f"unknown span id {sid!r}") from None

    def cls(self, cid: str) -> TwoCellClass:
        try:
            return self.classes[cid]
        except KeyError:
            raise StructureError(f"unknown class id {cid!r}") from None

    def id_span(self, obj: str) -> Span:
        return self.span(self.bicat.id1[obj])

    def hom_spans(self, src: str, tgt: str) -> list[Span]:
        return [self.spans[i] for i in self.bicat.hom1(src, tgt)]

    def class_of(self, S1: Span, S2: Span, rep: TwoCellRep) -> str:
        """Class id of a representative of the frame ``S1 ⇒ S2``.

        The frame's table holds every representative `enumerate_reps`
        yields, so one that is not in it is not valid for the frame.
        """
        key = (self.sid(S1), self.sid(S2))
        try:
            return self._rep_to_class[key][rep]
        except KeyError:
            raise StructureError(f"invalid representative {rep!r} for {key!r}") from None


def materialize_fractions(B: FinBicat, W: WClass, *, validate: bool = True) -> Localization:
    """Construct the localization of ``B`` at ``W`` as explicit tables.

    Requires a lawful base and the closure axioms for ``W``, both checked up
    front, raising `PreconditionError`.  Each associator and unitor is
    the least invertible class of its frame.  A vertical composite or a
    whiskering of classes is a class of the frame its key dictates, so an
    entry whose frame holds one class is that class and is not searched
    for; the searches run only in frames with two or more classes.  With
    ``validate`` the resulting bicategory is validated exhaustively (on a
    thin result, by `validate_bicat`'s thin-frame rule); a failure raises
    `LocalizationError` carrying the validation report.

    The result is shared: while any caller holds it, every call with the same
    base and member set returns the same object, named after the class it
    was first built for, so it must be read, never modified.  Its validation
    report is `validate_bicat`'s, made at most once.  The base's cache refers
    to it only weakly, and once released it is built afresh.
    """
    key = ("localization", W.members)
    ref = B._cache.get(key)
    loc = ref() if ref is not None else None
    if loc is None:
        loc = _build_localization(B, W, f"{B.name}[{W.name or 'W'}^-1]")
        B._cache[key] = weakref.ref(loc)
    if validate:
        report = validate_bicat(loc.bicat)
        if not report.passed:
            laws = sorted(report.laws_failed())
            raise LocalizationError(
                f"materialized localization violates: {', '.join(laws)}", report
            )
    return loc


def _build_localization(B: FinBicat, W: WClass, name: str) -> Localization:
    """The localization's tables, after checking the base's laws and ``W``'s axioms."""
    base = validate_bicat(B)
    if not base.passed:
        laws = ", ".join(sorted(base.laws_failed()))
        raise PreconditionError(f"base bicategory violates: {laws}")
    bf = check_bf(B, W)
    if not bf.passed:
        bad = ", ".join(k for k, v in bf.verdicts.items() if not v.holds)
        raise PreconditionError(f"class {W.name or W.members!r} fails {bad}")

    spans = enumerate_spans(B, W)
    sids = {s.id: s for s in spans}
    one_cells = tuple(OneCell(s.id, s.src_obj(B), s.tgt_obj(B)) for s in spans)
    id1 = {}
    for X in B.objects:
        s = Span(X, B.id1[X], B.id1[X])
        if s.id not in sids:
            raise PreconditionError(f"identity span missing at {X!r}")
        id1[X] = s.id

    # Frames are pairs of parallel spans; the classes are not known yet, so
    # the localization's own index cannot list them.
    parallel: dict[tuple[str, str], list[Span]] = {}
    for s, c in zip(spans, one_cells):
        parallel.setdefault((c.src, c.tgt), []).append(s)
    frames = [(s1, s2) for s1, c in zip(spans, one_cells) for s2 in parallel[(c.src, c.tgt)]]

    classes: dict[str, TwoCellClass] = {}
    rep_to_class: dict[tuple[str, str], dict[TwoCellRep, str]] = {}
    two_cells: list[TwoCell] = []
    sides = _search_sides(B)
    for s1, s2 in frames:
        key = (s1.id, s2.id)
        reps = sorted(enumerate_reps(B, W, s1, s2), key=lambda r: rep_sort_key(B, r))
        uf = _UnionFind(len(reps))
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if uf.find(i) == uf.find(j):
                    continue
                if _rep_witness(B, W, s1, s2, reps[i], reps[j], sides) is not None:
                    uf.union(i, j)
        groups: dict[int, list[TwoCellRep]] = {}
        for i, r in enumerate(reps):
            groups.setdefault(uf.find(i), []).append(r)
        ordered = sorted(groups.values(), key=lambda g: rep_sort_key(B, g[0]))
        table: dict[TwoCellRep, str] = {}
        for k, group in enumerate(ordered):
            cid = f"[{key[0]}=>{key[1]}]#{k}"
            classes[cid] = TwoCellClass(cid, s1, s2, tuple(group))
            for r in group:
                table[r] = cid
            two_cells.append(TwoCell(cid, key[0], key[1]))
        rep_to_class[key] = table

    def locate(S1: Span, S2: Span, rep: TwoCellRep) -> str:
        key = (S1.id, S2.id)
        try:
            return rep_to_class[key][rep]
        except KeyError:
            raise LocalizationError(
                f"constructed representative {rep!r} missing from frame {key!r}"
            ) from None

    id2: dict[str, str] = {}
    for s in spans:
        sid = s.id
        idap = B.id1[s.apex]
        rep = TwoCellRep(
            s.apex, idap, idap,
            B.id2[B.hcomp1[(s.back, idap)]],
            B.id2[B.hcomp1[(s.forward, idap)]],
        )
        id2[sid] = locate(s, s, rep)

    # The cells are known, so every remaining table is filled by walking the
    # localization's own domains.
    mat = FinBicat(
        objects=B.objects,
        one_cells=one_cells,
        two_cells=tuple(two_cells),
        id1=id1,
        id2=id2,
        hcomp1={},
        vcomp={},
        whisk_left={},
        whisk_right={},
        assoc={},
        runit={},
        lunit={},
        name=name,
    )
    hcomp1 = mat.hcomp1
    fillers: dict[tuple[str, str], Filler] = {}
    for g, f in composable_pairs(mat):
        comp, fillers[(g.id, f.id)] = compose_spans(B, W, sids[g.id], sids[f.id])
        hcomp1[(g.id, f.id)] = comp.id

    def h1(g: str, f: str) -> str:
        return B.hcomp1[(g, f)]

    def compose_classes(S1: Span, S2: Span, S3: Span, phi: TwoCellRep, psi: TwoCellRep) -> str:
        """Class of the vertical composite of ``psi`` after ``phi``."""
        P, Q = phi.apex, psi.apex
        p1, p2 = phi.leg1, phi.leg2
        q2, q3 = psi.leg1, psi.leg2
        for D in B.objects:
            for x in B.hom1(D, P):
                p1x = h1(p1, x)
                if h1(S1.back, p1x) not in W:
                    continue
                p2x = h1(p2, x)
                for y in B.hom1(D, Q):
                    q2y = h1(q2, y)
                    for rho in inv_cells2(B, p2x, q2y):
                        # The first candidate is the answer, so no factor is
                        # worth sharing between candidates.
                        alpha = vfold(
                            B,
                            _restrict(B, S1.back, p1, phi.alpha, S2.back, p2, x),
                            whisker_left(B, S2.back, rho),
                            _restrict(B, S2.back, q2, psi.alpha, S3.back, q3, y),
                        )
                        beta = vfold(
                            B,
                            _restrict(B, S1.forward, p1, phi.beta, S2.forward, p2, x),
                            whisker_left(B, S2.forward, rho),
                            _restrict(B, S2.forward, q2, psi.beta, S3.forward, q3, y),
                        )
                        rep = TwoCellRep(D, p1x, h1(q3, y), alpha, beta)
                        return locate(S1, S3, rep)
        raise LocalizationError(
            f"no composition site for classes over {S1.id!r} ⇒ {S3.id!r}"
        )

    def forced(src: str, tgt: str) -> Optional[str]:
        """The class of the frame ``src ⇒ tgt`` when it is the frame's only one.

        Every composite and whiskering of classes is a class of its target
        frame, so an entry landing in a frame with one class is that class,
        and its search can be skipped.
        """
        cells = mat.cells2(src, tgt)
        return cells[0] if len(cells) == 1 else None

    for a in mat.two_cells:
        c1 = classes[a.id]
        for b in mat.from2(a.tgt):
            c2 = classes[b.id]
            mat.vcomp[(b.id, a.id)] = forced(a.src, b.tgt) or compose_classes(
                c1.src, c1.tgt, c2.tgt, c1.rep, c2.rep
            )

    def whisk_right_class(psi_cls: TwoCellClass, S: Span) -> str:
        """Class of ``psi ∗ i_S`` for ``psi: T1 ⇒ T2`` and a span ``S``."""
        T1, T2 = psi_cls.src, psi_cls.tgt
        psi = psi_cls.rep
        f1 = fillers[(T1.id, S.id)]
        f2 = fillers[(T2.id, S.id)]
        D1, x1, y1, rho1 = f1.apex, f1.left, f1.right, f1.rho
        D2, x2, y2, rho2 = f2.apex, f2.left, f2.right, f2.rho
        comp1 = sids[hcomp1[(T1.id, S.id)]]
        comp2 = sids[hcomp1[(T2.id, S.id)]]
        rho1_inv = two_cell_inverse(B, rho1)
        q1, q2 = psi.leg1, psi.leg2
        # Factors of the two routes that depend on one loop variable only.
        rho1_e1 = _Memo(lambda e1: _restrict(B, T1.back, y1, rho1_inv, S.forward, x1, e1))
        rho2_e2 = _Memo(lambda e2: _restrict(B, S.forward, x2, rho2, T2.back, y2, e2))
        psi_lam = _Memo(lambda lam: _restrict(B, T1.back, q1, psi.alpha, T2.back, q2, lam))
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
                            B, rho1_e1[e1], whisker_left(B, S.forward, xi), rho2_e2[e2],
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
                                        psi_lam[lam],
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
                                        _restrict(B, T1.forward, q1, psi.beta, T2.forward, q2, lam),
                                        whisker_left(B, T2.forward, k2_inv),
                                        assoc_cell(B, T2.forward, y2, e2),
                                    )
                                    rep = TwoCellRep(E, e1, e2, alpha, beta)
                                    return locate(comp1, comp2, rep)
        raise LocalizationError(
            f"no whiskering site for {psi_cls.id!r} ∗ {S.id!r}"
        )

    def whisk_left_class(T: Span, phi_cls: TwoCellClass) -> str:
        """Class of ``i_T ∗ phi`` for a span ``T`` and ``phi: S1 ⇒ S2``."""
        S1, S2 = phi_cls.src, phi_cls.tgt
        phi = phi_cls.rep
        f1 = fillers[(T.id, S1.id)]
        f2 = fillers[(T.id, S2.id)]
        D1, x1, y1, rho1 = f1.apex, f1.left, f1.right, f1.rho
        D2, x2, y2, rho2 = f2.apex, f2.left, f2.right, f2.rho
        comp1 = sids[hcomp1[(T.id, S1.id)]]
        comp2 = sids[hcomp1[(T.id, S2.id)]]
        rho1_inv = two_cell_inverse(B, rho1)
        p1, p2 = phi.leg1, phi.leg2
        # Factors of ``delta`` that depend on one loop variable only.
        rho1_e1 = _Memo(lambda e1: _restrict(B, T.back, y1, rho1_inv, S1.forward, x1, e1))
        rho2_e2 = _Memo(lambda e2: _restrict(B, S2.forward, x2, rho2, T.back, y2, e2))
        beta_lam = _Memo(lambda lam: _restrict(B, S1.forward, p1, phi.beta, S2.forward, p2, lam))
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
                                    rho1_e1[e1],
                                    whisker_left(B, S1.forward, i1),
                                    beta_lam[lam],
                                    whisker_left(B, S2.forward, i2_inv),
                                    rho2_e2[e2],
                                )
                                for eps in B.cells2(y1e1, y2e2):
                                    if whisker_left(B, T.back, eps) != delta:
                                        continue
                                    alpha = vfold(
                                        B,
                                        assoc_inv_cell(B, S1.back, x1, e1),
                                        whisker_left(B, S1.back, i1),
                                        _restrict(B, S1.back, p1, phi.alpha, S2.back, p2, lam),
                                        whisker_left(B, S2.back, i2_inv),
                                        assoc_cell(B, S2.back, x2, e2),
                                    )
                                    beta = vfold(
                                        B,
                                        assoc_inv_cell(B, T.forward, y1, e1),
                                        whisker_left(B, T.forward, eps),
                                        assoc_cell(B, T.forward, y2, e2),
                                    )
                                    rep = TwoCellRep(E, e1, e2, alpha, beta)
                                    return locate(comp1, comp2, rep)
        raise LocalizationError(
            f"no whiskering site for {T.id!r} ∗ {phi_cls.id!r}"
        )

    for g, a in lwhisker_pairs(mat):
        mat.whisk_left[(g.id, a.id)] = forced(
            hcomp1[(g.id, a.src)], hcomp1[(g.id, a.tgt)]
        ) or whisk_left_class(sids[g.id], classes[a.id])
    for b, f in rwhisker_pairs(mat):
        mat.whisk_right[(b.id, f.id)] = forced(
            hcomp1[(b.src, f.id)], hcomp1[(b.tgt, f.id)]
        ) or whisk_right_class(classes[b.id], sids[f.id])

    def invertible_class(src_sid: str, tgt_sid: str, context: str) -> str:
        """Least class in the frame that is invertible for the built tables."""
        found = inv_cells2(mat, src_sid, tgt_sid)
        if not found:
            raise LocalizationError(f"no invertible class for {context}: {src_sid!r} ⇒ {tgt_sid!r}")
        return found[0]

    # Inverses depend only on id2 and vcomp, so the coherence tables can be
    # filled in from the localization's own inverse search.
    for h, g, f in composable_triples(mat):
        lhs = hcomp1[(h.id, hcomp1[(g.id, f.id)])]
        rhs = hcomp1[(hcomp1[(h.id, g.id)], f.id)]
        mat.assoc[(h.id, g.id, f.id)] = invertible_class(lhs, rhs, "associator")
    for c in mat.one_cells:
        mat.runit[c.id] = invertible_class(hcomp1[(c.id, id1[c.src])], c.id, "right unitor")
        mat.lunit[c.id] = invertible_class(hcomp1[(id1[c.tgt], c.id)], c.id, "left unitor")
    mat.strict = _components_identity(mat)

    return Localization(
        base=B,
        wcls=W,
        bicat=mat,
        spans=sids,
        classes=classes,
        fillers=fillers,
        _rep_to_class=rep_to_class,
    )


def universal_functor_data(loc: Localization):
    """Tables of the canonical pseudofunctor from the base into the localization.

    Returns ``(f0, f1, f2, psi, sigma)`` as plain dicts; `bicfrac.psfun`
    wraps them into its pseudofunctor record.
    """
    B = loc.base
    f0 = {X: X for X in B.objects}
    f1 = {}
    for c in B.one_cells:
        f1[c.id] = loc.sid(Span(c.src, B.id1[c.src], c.id))
    f2 = {}
    for t in B.two_cells:
        f, g = B.one(t.src), B.one(t.tgt)
        A = f.src
        idA = B.id1[A]
        rep = TwoCellRep(
            A, idA, idA,
            B.id2[B.hcomp1[(idA, idA)]],
            whisker_right(B, t.id, idA),
        )
        f2[t.id] = loc.class_of(
            Span(A, idA, f.id), Span(A, idA, g.id), rep
        )
    psi = {}
    for gc, fc in composable_pairs(B):
        A = fc.src
        idA = B.id1[A]
        ug = f1[gc.id]
        uf = f1[fc.id]
        filler = loc.fillers[(ug, uf)]
        D, vp, fp = filler.apex, filler.left, filler.right
        idD = B.id1[D]
        gf = B.hcomp1[(gc.id, fc.id)]
        alpha = inverse_cell(B, runit_cell(B, B.hcomp1[(idA, vp)]))
        beta = vfold(
            B,
            assoc_inv_cell(B, gc.id, fc.id, vp),
            whisker_left(B, gc.id, filler.rho),
            whisker_left(B, gc.id, lunit_cell(B, fp)),
            inverse_cell(B, runit_cell(B, B.hcomp1[(gc.id, fp)])),
        )
        rep = TwoCellRep(D, vp, idD, alpha, beta)
        src_span = Span(A, idA, gf)
        tgt_span = loc.span(loc.bicat.hcomp1[(ug, uf)])
        psi[(gc.id, fc.id)] = loc.class_of(src_span, tgt_span, rep)
    sigma = {}
    for X in B.objects:
        sigma[X] = loc.bicat.id2[loc.bicat.id1[X]]
    return f0, f1, f2, psi, sigma


def universal_pseudofunctor(loc: Localization):
    """The canonical pseudofunctor from the base into its localization.

    Objects are fixed, a 1-cell ``f`` becomes the span with identity
    backward leg and forward leg ``f``, a 2-cell becomes the class of its
    right whiskering by the identity, and the compositor at ``(g, f)`` is
    built constructively from the filler square the composition table chose.
    """
    from .psfun import PsFun

    f0, f1, f2, psi, sigma = universal_functor_data(loc)
    return PsFun(
        source=loc.base,
        target=loc.bicat,
        f0=f0,
        f1=f1,
        f2=f2,
        psi=psi,
        sigma=sigma,
        name=f"U[{loc.bicat.name}]",
    )
