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
class; only frames with several classes are searched.  Left and right
whiskering are one search with the roles of the two spans swapped: a fixed
span on one side, a class's representative on the other.

The decision procedure for 2-cells is `reps_equivalent`: two representatives
are identified when a common refinement of their apexes aligns both their
backward-leg and forward-leg data.  On a lawful base with a class satisfying
BF1..BF5, both checked before anything is built, this is an equivalence
relation (Pronk 1996), so each frame's representatives are walked in
canonical order and each is tested only against the leader, the least
member, of each class found so far; the classes come out ordered by leader.

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
Every restriction of a 2-cell along a refinement leg is made once per
build, in one memo that all the searches read, and each side of the witness
search's equation, which depends on one representative, is evaluated once
per build, shared by every pair of every frame.

`universal_pseudofunctor` maps the base into its localization, and
`induce_g_tilde` lifts a pseudofunctor to the localizations (the source at
its class, the target at the right saturation of its class): spans map
legwise, a 2-cell class maps through `g_tilde_on_two_cell`, which conjugates
its representative by the compositor (`psfun.conjugate`), and each
comparison cell of the lift is, like each associator and unitor, the least
invertible class of its frame.  The lift is validated before it is returned.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property, partial
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
    require_lawful,
    runit_cell,
    rwhisker_pairs,
    two_cell_inverse,
    validate_bicat,
    vfold,
    whisker_left,
    whisker_right,
)
from .psfun import PsFun, PsFunReport, conjugate, maps_into, require_pseudofunctor, validate_psfun
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


def _least_invertible(B: FinBicat, src: str, tgt: str, context: str) -> str:
    """Least invertible 2-cell ``src ⇒ tgt`` of ``B``, else `LocalizationError`."""
    found = inv_cells2(B, src, tgt)
    if not found:
        raise LocalizationError(f"no invertible class for {context}: {src!r} ⇒ {tgt!r}")
    return found[0]


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


def _restrictions(B: FinBicat) -> _Memo:
    """`_restrict` for each key ``(b1, l1, a, b2, l2, z)``, evaluated once."""
    return _Memo(lambda key: _restrict(B, *key))


def _search_sides(B: FinBicat, restricted: _Memo) -> _Memo:
    """The sides of the identification equation, each evaluated once.

    A side reads nothing but B's tables and a representative's data over a
    leg pair, ``key = (back1, leg1, a, back2, leg2)``; ``sides[key]`` is the
    pair ``(lhs, rhs)`` with ``lhs[z][zeta2]`` the left side
    ``a|z ⊙ (back2 ∗ zeta2)`` and ``rhs[zp][zeta1]`` the right side
    ``(back1 ∗ zeta1) ⊙ a|zp``, where ``a|z`` is ``a`` restricted along
    ``z``, read from ``restricted`` (`_restrictions`).  One memo serves
    every search of a build, whatever their order.
    """

    def sides(key: tuple[str, str, str, str, str]):
        back1, _, _, back2, _ = key
        lhs = _Memo(lambda z: _Memo(lambda zeta2: vfold(B, restricted[key + (z,)], whisker_left(B, back2, zeta2))))
        rhs = _Memo(lambda zp: _Memo(lambda zeta1: vfold(B, whisker_left(B, back1, zeta1), restricted[key + (zp,)])))
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
    shares one restriction memo and one side memo among all its searches and
    tests each representative against its frame's class leaders only; a call
    of this function has memos of its own.
    """
    return _rep_witness(B, W, S1, S2, r1, r2, _search_sides(B, _restrictions(B)))


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
    require_lawful(B, "base bicategory")
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
    restricted = _restrictions(B)
    sides = _search_sides(B, restricted)
    for s1, s2 in frames:
        key = (s1.id, s2.id)
        # The identification is an equivalence relation (Pronk), so a
        # representative joins the first class whose leader, its least
        # member, it is identified with; the leaders come out in order.
        groups: list[list[TwoCellRep]] = []
        for r in sorted(enumerate_reps(B, W, s1, s2), key=lambda r: rep_sort_key(B, r)):
            for group in groups:
                if _rep_witness(B, W, s1, s2, group[0], r, sides) is not None:
                    group.append(r)
                    break
            else:
                groups.append([r])
        table: dict[TwoCellRep, str] = {}
        for k, group in enumerate(groups):
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
                        alpha = vfold(
                            B,
                            restricted[(S1.back, p1, phi.alpha, S2.back, p2, x)],
                            whisker_left(B, S2.back, rho),
                            restricted[(S2.back, q2, psi.alpha, S3.back, q3, y)],
                        )
                        beta = vfold(
                            B,
                            restricted[(S1.forward, p1, phi.beta, S2.forward, p2, x)],
                            whisker_left(B, S2.forward, rho),
                            restricted[(S2.forward, q2, psi.beta, S3.forward, q3, y)],
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

    def parts(X1: Span, X2: Span, rep: Optional[TwoCellRep], c1: str, c2: str, E: str, cells: Callable):
        """Candidate ``(back, forward)`` parts of one side of a whiskering, as thunks.

        A part is a 2-cell ``X1.leg∘c1 ⇒ X2.leg∘c2``.  A fixed span (``rep``
        None) whiskers its legs by each ``cells`` 2-cell ``c1 ⇒ c2``; a class
        conjugates its representative's ``alpha`` and ``beta``, restricted
        along ``lam: E → apex``, by invertible ``k1: c1 ⇒ leg1∘lam`` and
        ``k2: c2 ⇒ leg2∘lam``.
        """
        if rep is None:
            for c in cells(B, c1, c2):
                yield partial(whisker_left, B, X1.back, c), partial(whisker_left, B, X1.forward, c)
            return

        def conj(b1: str, b2: str, a: str, lam: str, k1: str, k2_inv: str) -> str:
            return vfold(B, whisker_left(B, b1, k1), restricted[(b1, rep.leg1, a, b2, rep.leg2, lam)],
                         whisker_left(B, b2, k2_inv))

        for lam in B.hom1(E, rep.apex):
            for k1 in inv_cells2(B, c1, h1(rep.leg1, lam)):
                for k2 in inv_cells2(B, c2, h1(rep.leg2, lam)):
                    k = (lam, k1, two_cell_inverse(B, k2))
                    yield (partial(conj, X1.back, X2.back, rep.alpha, *k),
                           partial(conj, X1.forward, X2.forward, rep.beta, *k))

    def whisker_class(
        T1: Span, T2: Span, S1: Span, S2: Span,
        outer_rep: Optional[TwoCellRep], inner_rep: Optional[TwoCellRep],
    ) -> str:
        """Class of ``psi ∗ i_S`` or ``i_T ∗ phi``, a class ``T1∘S1 ⇒ T2∘S2``.

        Exactly one side is a class, given by its representative; the other
        is a fixed span (``T1 == T2`` or ``S1 == S2``).  Over the filler
        squares ``rho1``, ``rho2`` refined along ``e1``, ``e2``, the least
        candidates solve ``rho1⁻¹|e1 ⊙ inner forward ⊙ rho2|e2 == outer back``;
        the new representative's ``alpha`` is the inner back part and its
        ``beta`` the outer forward part, each between associators.
        """
        f1, f2 = fillers[(T1.id, S1.id)], fillers[(T2.id, S2.id)]
        comp1, comp2 = sids[hcomp1[(T1.id, S1.id)]], sids[hcomp1[(T2.id, S2.id)]]
        rho1_inv = two_cell_inverse(B, f1.rho)
        for E in B.objects:
            for e1 in B.hom1(E, f1.apex):
                if h1(comp1.back, e1) not in W:
                    continue
                for e2 in B.hom1(E, f2.apex):
                    inner = parts(S1, S2, inner_rep, h1(f1.left, e1), h1(f2.left, e2), E, inv_cells2)
                    for in_back, in_fwd in inner:
                        lhs = vfold(
                            B,
                            restricted[(T1.back, f1.right, rho1_inv, S1.forward, f1.left, e1)],
                            in_fwd(),
                            restricted[(S2.forward, f2.left, f2.rho, T2.back, f2.right, e2)],
                        )
                        outer = parts(T1, T2, outer_rep, h1(f1.right, e1), h1(f2.right, e2), E, FinBicat.cells2)
                        for out_back, out_fwd in outer:
                            if out_back() != lhs:
                                continue
                            alpha = vfold(B, assoc_inv_cell(B, S1.back, f1.left, e1), in_back(),
                                          assoc_cell(B, S2.back, f2.left, e2))
                            beta = vfold(B, assoc_inv_cell(B, T1.forward, f1.right, e1), out_fwd(),
                                         assoc_cell(B, T2.forward, f2.right, e2))
                            return locate(comp1, comp2, TwoCellRep(E, e1, e2, alpha, beta))
        raise LocalizationError(f"no whiskering site over {comp1.id!r} ⇒ {comp2.id!r}")

    for g, a in lwhisker_pairs(mat):
        c = classes[a.id]
        mat.whisk_left[(g.id, a.id)] = forced(
            hcomp1[(g.id, a.src)], hcomp1[(g.id, a.tgt)]
        ) or whisker_class(sids[g.id], sids[g.id], c.src, c.tgt, None, c.rep)
    for b, f in rwhisker_pairs(mat):
        c = classes[b.id]
        mat.whisk_right[(b.id, f.id)] = forced(
            hcomp1[(b.src, f.id)], hcomp1[(b.tgt, f.id)]
        ) or whisker_class(c.src, c.tgt, sids[f.id], sids[f.id], c.rep, None)

    # Inverses depend only on id2 and vcomp, so the coherence tables can be
    # filled in from the localization's own inverse search.
    for h, g, f in composable_triples(mat):
        lhs = hcomp1[(h.id, hcomp1[(g.id, f.id)])]
        rhs = hcomp1[(hcomp1[(h.id, g.id)], f.id)]
        mat.assoc[(h.id, g.id, f.id)] = _least_invertible(mat, lhs, rhs, "associator")
    for c in mat.one_cells:
        mat.runit[c.id] = _least_invertible(mat, hcomp1[(c.id, id1[c.src])], c.id, "right unitor")
        mat.lunit[c.id] = _least_invertible(mat, hcomp1[(id1[c.tgt], c.id)], c.id, "left unitor")
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


def universal_pseudofunctor(loc: Localization) -> PsFun:
    """The canonical pseudofunctor from the base into its localization.

    Objects are fixed, a 1-cell ``f`` becomes the span with identity
    backward leg and forward leg ``f``, a 2-cell becomes the class of its
    right whiskering by the identity, and the compositor at ``(g, f)`` is
    built constructively from the filler square the composition table chose.
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
    return PsFun(
        source=B,
        target=loc.bicat,
        f0=f0,
        f1=f1,
        f2=f2,
        psi=psi,
        sigma=sigma,
        name=f"U[{loc.bicat.name}]",
    )


# -- lifting to localizations ------------------------------------------------


@dataclass
class GTildeResult:
    psfun: PsFun
    source_loc: Localization
    target_loc: Localization
    report: PsFunReport


def g_tilde_on_two_cell(F: PsFun, source_loc: Localization, target_loc: Localization, class_id: str) -> str:
    """Image in the target localization of a source-localization 2-cell.

    The canonical representative ``(E, l1, l2, a, b)`` of the class is mapped
    legwise through ``F``, with the representative 2-cells conjugated by the
    compositor (`psfun.conjugate`) so that they connect the composite legs of
    the image spans.
    """
    cls = source_loc.cls(class_id)
    S1, S2 = cls.src, cls.tgt
    r = cls.rep
    image = TwoCellRep(
        F.f0[r.apex],
        F.f1[r.leg1],
        F.f1[r.leg2],
        conjugate(F, r.alpha, S1.back, r.leg1, S2.back, r.leg2),
        conjugate(F, r.beta, S1.forward, r.leg1, S2.forward, r.leg2),
    )
    img_src = Span(F.f0[S1.apex], F.f1[S1.back], F.f1[S1.forward])
    img_tgt = Span(F.f0[S2.apex], F.f1[S2.back], F.f1[S2.forward])
    return target_loc.class_of(img_src, img_tgt, image)


def induce_g_tilde(
    F: PsFun,
    W_src: WClass,
    W_tgt: WClass,
    *,
    source_loc: Optional[Localization] = None,
    target_loc: Optional[Localization] = None,
) -> GTildeResult:
    """Lift ``F`` to a pseudofunctor between localizations.

    The source is localized at ``W_src`` and the target at the right
    saturation of ``W_tgt``; ``F`` must already send ``W_src`` into that
    saturation.  Comparison cells of the lift are the least invertible class
    of their frame, and the whole lift is validated before returning.
    A localization not passed in comes from `materialize_fractions`, which
    returns the one a caller already holds; one passed in must be of ``F``'s
    own source or target at exactly that class, else `PreconditionError`.
    """
    require_pseudofunctor(F, "pseudofunctor")
    sat = saturate(F.target, W_tgt).members
    ok, escape = maps_into(F, W_src, sat)
    if not ok:
        raise PreconditionError(
            f"image of {escape!r} is outside the saturated target class"
        )
    for side, loc, base, W in (("source", source_loc, F.source, W_src), ("target", target_loc, F.target, sat)):
        if loc is not None and (loc.base is not base or loc.wcls.members != W.members):
            raise PreconditionError(f"{side} localization is not the map's {side} at {sorted(W.members)!r}")
    if source_loc is None:
        source_loc = materialize_fractions(F.source, W_src)
    if target_loc is None:
        target_loc = materialize_fractions(F.target, sat)

    SB, TB = source_loc.bicat, target_loc.bicat
    f0 = {x: F.f0[x] for x in SB.objects}
    f1 = {}
    for sid in (c.id for c in SB.one_cells):
        s = source_loc.span(sid)
        f1[sid] = target_loc.sid(
            Span(F.f0[s.apex], F.f1[s.back], F.f1[s.forward])
        )
    f2 = {}
    for t in SB.two_cells:
        f2[t.id] = g_tilde_on_two_cell(F, source_loc, target_loc, t.id)

    psi = {}
    for g, f in composable_pairs(SB):
        src_cell = f1[SB.hcomp1[(g.id, f.id)]]
        tgt_cell = TB.hcomp1[(f1[g.id], f1[f.id])]
        psi[(g.id, f.id)] = _least_invertible(TB, src_cell, tgt_cell, "compositor")
    sigma = {}
    for x in SB.objects:
        sigma[x] = _least_invertible(TB, f1[SB.id1[x]], TB.id1[f0[x]], "unit comparison")

    lifted = PsFun(
        source=SB,
        target=TB,
        f0=f0,
        f1=f1,
        f2=f2,
        psi=psi,
        sigma=sigma,
        name=f"{F.name}~" if F.name else "lift",
    )
    lift_report = validate_psfun(lifted)
    if not lift_report.passed:
        laws = ", ".join(sorted(lift_report.laws_failed()))
        raise LocalizationError(f"lifted pseudofunctor violates: {laws}")
    return GTildeResult(lifted, source_loc, target_loc, lift_report)
