"""Finite bicategories given by exhaustive tables.

A `FinBicat` stores every cell and every structural operation of a finite
bicategory explicitly: objects, 1-cells, 2-cells, identities, horizontal and
vertical composition, the two whiskerings, associators and the two unitors.
Nothing is computed lazily from generators; the tables *are* the bicategory.
Construction rejects undeclared cells and indexes the cells by source and
target (`FinBicat.into1`, `from2`, `over_into`, ...).  The domain of each
binary and ternary table is walked through those indexes by one function
(`composable_pairs`, `composable_triples`, `vertical_pairs`,
`lwhisker_pairs`, `rwhisker_pairs`); the law checks, the table builders
and the export of a document's rows iterate these walks, so they alone
decide each table's domain and row order.  `structural_violations` checks
that every table is total and well typed, and `validate_bicat` runs that
check and then the axioms exhaustively, once per bicategory.  A fixed chain
of 2-cells (a pasting diagram read in application order) is evaluated by
table lookups, one per factor (`assoc_cell`, `whisker_left`,
`inverse_cell`, ...), folded by the checked vertical composite `vfold`;
each raises `TypingError` where the chain is ill typed.  Small search utilities (`two_cell_inverse`,
`internal_equivalence_witness`) decide invertibility.

Derived composition of 2-cells (`hcompose2`) is defined from the whiskering
tables; the middle-four interchange law, checked by the validator, makes the
two possible whisker orders agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Optional


class StructureError(ValueError):
    """A table refers to undeclared cells, or a declaration is malformed."""


class CompositionError(ValueError):
    """A composite was requested for a non-composable pair of cells."""


class TypingError(ValueError):
    """A whiskering or a chain of 2-cells does not type-check over the given bicategory."""


class InvertibilityError(ValueError):
    """An inverse was requested for a 2-cell that has none."""


class PreconditionError(ValueError):
    """A construction was invoked on data that fails its entry conditions."""


def entry_name(table: str, key) -> str:
    """A table entry named as in a document, e.g. ``hcomp1[('v', 'idA')]``."""
    return f"{table}[{key!r}]"


@dataclass(frozen=True)
class OneCell:
    id: str
    src: str
    tgt: str


@dataclass(frozen=True)
class TwoCell:
    id: str
    src: str  # 1-cell id
    tgt: str  # parallel 1-cell id


@dataclass
class FinBicat:
    """A finite bicategory with all structure tabulated.

    Table keys and values are cell id strings:

    - ``hcomp1[(g, f)]``       1-cell ``g∘f``, defined when ``src(g) == tgt(f)``
    - ``vcomp[(b, a)]``        2-cell ``b⊙a`` (``a`` first), when ``tgt1(a) == src1(b)``
    - ``whisk_left[(g, a)]``   ``i_g ∗ a``, when ``tgt(tgt1(a)) == src(g)``
    - ``whisk_right[(b, f)]``  ``b ∗ i_f``, when ``tgt(f) == src(src1(b))``
    - ``assoc[(h, g, f)]``     associator ``h∘(g∘f) ⇒ (h∘g)∘f``
    - ``runit[f]``             right unitor ``f∘id ⇒ f``
    - ``lunit[f]``             left unitor ``id∘f ⇒ f``

    ``strict`` declares that every associator and unitor component is an
    identity 2-cell; the validator verifies the claim.

    Declaration order of objects, 1-cells and 2-cells is the canonical order
    used whenever a search must return a least witness.
    """

    objects: tuple[str, ...]
    one_cells: tuple[OneCell, ...]
    two_cells: tuple[TwoCell, ...]
    id1: dict[str, str]
    id2: dict[str, str]
    hcomp1: dict[tuple[str, str], str]
    vcomp: dict[tuple[str, str], str]
    whisk_left: dict[tuple[str, str], str]
    whisk_right: dict[tuple[str, str], str]
    assoc: dict[tuple[str, str, str], str]
    runit: dict[str, str]
    lunit: dict[str, str]
    strict: bool = False
    name: str = field(default="", compare=False)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.objects = tuple(self.objects)
        self.one_cells = tuple(self.one_cells)
        self.two_cells = tuple(self.two_cells)
        self._build_index()

    def _build_index(self) -> None:
        """Index the cells, or raise `StructureError` naming the entry at fault.

        Only what the index cannot be built without is checked here:
        duplicate ids, undeclared endpoints and boundaries, and table keys
        and values that are not declared cells of the right kind.  Totality
        and typing of the tables are `structural_violations`' job.
        """
        obj_pos: dict[str, int] = {}
        for i, x in enumerate(self.objects):
            if x in obj_pos:
                raise StructureError(f"{entry_name('objects', x)}: duplicate id")
            obj_pos[x] = i
        one_by_id: dict[str, OneCell] = {}
        homs: dict[tuple[str, str], list[str]] = {}
        from1: dict[str, list[OneCell]] = {}
        into1: dict[str, list[OneCell]] = {}
        for c in self.one_cells:
            if c.id in one_by_id:
                raise StructureError(f"{entry_name('one_cells', c.id)}: duplicate id")
            for x in (c.src, c.tgt):
                if x not in obj_pos:
                    raise StructureError(f"{entry_name('one_cells', c.id)}: undeclared object {x!r}")
            one_by_id[c.id] = c
            homs.setdefault((c.src, c.tgt), []).append(c.id)
            from1.setdefault(c.src, []).append(c)
            into1.setdefault(c.tgt, []).append(c)
        two_by_id: dict[str, TwoCell] = {}
        frames: dict[tuple[str, str], list[str]] = {}
        from2: dict[str, list[TwoCell]] = {}
        into2: dict[str, list[TwoCell]] = {}
        over_from: dict[str, list[TwoCell]] = {}
        over_into: dict[str, list[TwoCell]] = {}
        for t in self.two_cells:
            if t.id in two_by_id or t.id in one_by_id:
                raise StructureError(f"{entry_name('two_cells', t.id)}: duplicate id")
            for leg in (t.src, t.tgt):
                if leg not in one_by_id:
                    raise StructureError(f"{entry_name('two_cells', t.id)}: undeclared 1-cell {leg!r}")
            f, g = one_by_id[t.src], one_by_id[t.tgt]
            if (f.src, f.tgt) != (g.src, g.tgt):
                raise StructureError(f"{entry_name('two_cells', t.id)}: non-parallel boundary")
            two_by_id[t.id] = t
            frames.setdefault((t.src, t.tgt), []).append(t.id)
            from2.setdefault(t.src, []).append(t)
            into2.setdefault(t.tgt, []).append(t)
            over_from.setdefault(f.src, []).append(t)
            over_into.setdefault(f.tgt, []).append(t)
        ob, one, two = obj_pos, one_by_id, two_by_id
        for name, key_sets, values in (  # each table's key parts and values
            ("id1", [ob], one), ("id2", [one], two),
            ("hcomp1", [one, one], one), ("vcomp", [two, two], two),
            ("whisk_left", [one, two], two), ("whisk_right", [two, one], two),
            ("assoc", [one, one, one], two), ("runit", [one], two), ("lunit", [one], two),
        ):
            arity = len(key_sets)
            for k, v in getattr(self, name).items():
                parts = (k,) if arity == 1 else k
                if arity > 1 and (type(k) is not tuple or len(k) != arity):
                    raise StructureError(f"{entry_name(name, k)}: malformed key")
                for p, known in zip(parts, key_sets):
                    if p not in known:
                        noun = "object" if known is ob else "cell"
                        raise StructureError(f"{entry_name(name, k)}: undeclared {noun} {p!r}")
                if v not in values:
                    raise StructureError(f"{entry_name(name, k)}: undeclared cell {v!r}")
        # A fresh dict: `dataclasses.replace` hands the original's cache to
        # the copy, and refilling that one would make it describe the copy.
        self._cache = {
            "one_by_id": one_by_id,
            "two_by_id": two_by_id,
            "obj_pos": obj_pos,
            "one_pos": {x.id: i for i, x in enumerate(self.one_cells)},
            "two_pos": {x.id: i for i, x in enumerate(self.two_cells)},
            "homs": homs,
            "from1": from1,
            "into1": into1,
            "frames": frames,
            "thin": all(len(cells) == 1 for cells in frames.values()),
            "from2": from2,
            "into2": into2,
            "over_from": over_from,
            "over_into": over_into,
            "inverse": {},
        }

    # -- lookups ----------------------------------------------------------

    def one(self, f: str) -> OneCell:
        try:
            return self._cache["one_by_id"][f]
        except KeyError:
            raise StructureError(f"unknown 1-cell {f!r}") from None

    def two(self, a: str) -> TwoCell:
        try:
            return self._cache["two_by_id"][a]
        except KeyError:
            raise StructureError(f"unknown 2-cell {a!r}") from None

    def src1(self, a: str) -> str:
        return self.two(a).src

    def tgt1(self, a: str) -> str:
        return self.two(a).tgt

    def hom1(self, x: str, y: str) -> list[str]:
        return self._cache["homs"].get((x, y), [])

    # Each index below lists cells in declaration order.

    def from1(self, x: str) -> list[OneCell]:
        """1-cells with source ``x``."""
        return self._cache["from1"].get(x, [])

    def into1(self, y: str) -> list[OneCell]:
        """1-cells with target ``y``."""
        return self._cache["into1"].get(y, [])

    def cells2(self, f: str, g: str) -> list[str]:
        return self._cache["frames"].get((f, g), [])

    def is_thin(self) -> bool:
        """Whether every frame ``f ⇒ g`` holds at most one 2-cell."""
        return self._cache["thin"]

    def from2(self, f: str) -> list[TwoCell]:
        """2-cells with source 1-cell ``f``."""
        return self._cache["from2"].get(f, [])

    def into2(self, g: str) -> list[TwoCell]:
        """2-cells with target 1-cell ``g``."""
        return self._cache["into2"].get(g, [])

    def over_from(self, x: str) -> list[TwoCell]:
        """2-cells between 1-cells with source object ``x``."""
        return self._cache["over_from"].get(x, [])

    def over_into(self, y: str) -> list[TwoCell]:
        """2-cells between 1-cells with target object ``y``."""
        return self._cache["over_into"].get(y, [])

    def pos1(self, f: str) -> int:
        return self._cache["one_pos"][f]

    def pos2(self, a: str) -> int:
        return self._cache["two_pos"][a]

    def posO(self, x: str) -> int:
        return self._cache["obj_pos"][x]

    def is_locally_discrete(self) -> bool:
        return all(t.src == t.tgt for t in self.two_cells) and all(
            self.id2.get(t.src) == t.id for t in self.two_cells
        )


# -- elementary operations -------------------------------------------------


def hcompose1(B: FinBicat, g: str, f: str) -> str:
    """Composite 1-cell ``g∘f`` (``f`` applied first)."""
    try:
        return B.hcomp1[(g, f)]
    except KeyError:
        raise CompositionError(f"1-cells not composable or missing entry: ({g!r}, {f!r})") from None


def vcompose(B: FinBicat, beta: str, alpha: str) -> str:
    """Vertical composite ``beta ⊙ alpha`` (``alpha`` applied first)."""
    try:
        return B.vcomp[(beta, alpha)]
    except KeyError:
        raise CompositionError(f"2-cells not vertically composable: ({beta!r}, {alpha!r})") from None


def whisker_left(B: FinBicat, g: str, alpha: str) -> str:
    """``i_g ∗ alpha``; `TypingError` when the pair is not whiskerable."""
    try:
        return B.whisk_left[(g, alpha)]
    except KeyError:
        raise TypingError(f"left whiskering undefined: ({g!r}, {alpha!r})") from None


def whisker_right(B: FinBicat, beta: str, f: str) -> str:
    """``beta ∗ i_f``; `TypingError` when the pair is not whiskerable."""
    try:
        return B.whisk_right[(beta, f)]
    except KeyError:
        raise TypingError(f"right whiskering undefined: ({beta!r}, {f!r})") from None


def hcompose2(B: FinBicat, beta: str, alpha: str) -> str:
    """Horizontal composite ``beta ∗ alpha``, via ``(beta ∗ i) ⊙ (i ∗ alpha)``.

    The validator's interchange check guarantees the other whisker order
    yields the same cell.
    """
    g = B.src1(beta)
    f_tgt = B.tgt1(alpha)
    return vcompose(B, whisker_right(B, beta, f_tgt), whisker_left(B, g, alpha))


def two_cell_inverse(B: FinBicat, alpha: str) -> Optional[str]:
    """The unique vertical inverse of ``alpha``, or None. Results are cached."""
    cache = B._cache["inverse"]
    if alpha in cache:
        return cache[alpha]
    t = B.two(alpha)
    result = None
    i_src = B.id2[t.src]
    i_tgt = B.id2[t.tgt]
    for beta in B.cells2(t.tgt, t.src):
        if B.vcomp.get((beta, alpha)) == i_src and B.vcomp.get((alpha, beta)) == i_tgt:
            result = beta
            break
    cache[alpha] = result
    return result


def is_invertible2(B: FinBicat, alpha: str) -> bool:
    return two_cell_inverse(B, alpha) is not None


def has_reverse(B: FinBicat, alpha: str) -> bool:
    """Whether some 2-cell runs opposite to ``alpha``.

    On a thin bicategory with total, well-typed tables this is
    `is_invertible2`: both composites with the reverse cell lie in frames
    whose one cell is an identity.
    """
    t = B.two(alpha)
    return bool(B.cells2(t.tgt, t.src))


def inv_cells2(B: FinBicat, f: str, g: str) -> list[str]:
    """Invertible 2-cells ``f ⇒ g`` in canonical order."""
    key = ("inv2", f, g)
    if key not in B._cache:
        B._cache[key] = [a for a in B.cells2(f, g) if is_invertible2(B, a)]
    return B._cache[key]


def internal_equivalence_witness(
    B: FinBicat, f: str
) -> Optional[tuple[str, str, str]]:
    """First ``(g, eta, eps)`` making ``f`` an internal equivalence, or None.

    ``eta: id_src(f) ⇒ g∘f`` and ``eps: f∘g ⇒ id_tgt(f)``, both invertible.
    """
    key = ("equiv_wit", f)
    if key in B._cache:
        return B._cache[key]
    c = B.one(f)
    found = None
    for g in B.hom1(c.tgt, c.src):
        gf = B.hcomp1.get((g, f))
        fg = B.hcomp1.get((f, g))
        if gf is None or fg is None:
            continue
        etas = inv_cells2(B, B.id1[c.src], gf)
        if not etas:
            continue
        epss = inv_cells2(B, fg, B.id1[c.tgt])
        if not epss:
            continue
        found = (g, etas[0], epss[0])
        break
    B._cache[key] = found
    return found


def internal_equivalences(B: FinBicat) -> list[str]:
    """All 1-cells admitting an internal-equivalence witness."""
    if "equivs" not in B._cache:
        B._cache["equivs"] = [
            c.id for c in B.one_cells if internal_equivalence_witness(B, c.id) is not None
        ]
    return B._cache["equivs"]


# Table lookups for the factors of a fixed chain of 2-cells.  Each checks
# that its factor is well typed and raises `TypingError` when it is not (or
# `InvertibilityError` for a missing inverse), so a chain is evaluated by
# calling them in order and folding the results with `vfold`.


def inverse_cell(B: FinBicat, a: str) -> str:
    """The vertical inverse of ``a``; `InvertibilityError` when there is none."""
    inv = two_cell_inverse(B, a)
    if inv is None:
        raise InvertibilityError(f"2-cell {a!r} is not invertible")
    return inv


def assoc_cell(B: FinBicat, h: str, g: str, f: str) -> str:
    """The associator ``h∘(g∘f) ⇒ (h∘g)∘f``.

    Raises `TypingError` unless ``g∘f``, ``h∘g``, ``h∘(g∘f)`` and
    ``(h∘g)∘f`` are all composites in the table.
    """
    H = B.hcomp1
    gf, hg = H.get((g, f)), H.get((h, g))
    if gf is None or hg is None or (h, gf) not in H or (hg, f) not in H:
        raise TypingError(f"1-cells {(h, g, f)!r} not composable in an associator")
    try:
        return B.assoc[(h, g, f)]
    except KeyError:
        raise TypingError(f"no associator for {(h, g, f)!r}") from None


def assoc_inv_cell(B: FinBicat, h: str, g: str, f: str) -> str:
    """The inverse associator ``(h∘g)∘f ⇒ h∘(g∘f)``."""
    return inverse_cell(B, assoc_cell(B, h, g, f))


def runit_cell(B: FinBicat, f: str) -> str:
    """The right unitor ``f∘id ⇒ f``; `TypingError` when ``f∘id`` is missing."""
    if (f, B.id1[B.one(f).src]) not in B.hcomp1:
        raise TypingError(f"1-cell {f!r} has no composite with its source identity")
    return B.runit[f]


def lunit_cell(B: FinBicat, f: str) -> str:
    """The left unitor ``id∘f ⇒ f``; `TypingError` when ``id∘f`` is missing."""
    if (B.id1[B.one(f).tgt], f) not in B.hcomp1:
        raise TypingError(f"1-cell {f!r} has no composite with its target identity")
    return B.lunit[f]


def vfold(B: FinBicat, first: str, *rest: str) -> str:
    """Vertical composite of 2-cells given in application order.

    Each step checks ``tgt1(u) == src1(l)`` and raises `TypingError` on a
    mismatch.
    """
    out = first
    tgt = B.two(first).tgt
    for nxt in rest:
        t = B.two(nxt)
        if t.src != tgt:
            raise TypingError(f"vertical mismatch: {out!r} ends at {tgt!r}, {nxt!r} starts at {t.src!r}")
        out = vcompose(B, nxt, out)
        tgt = t.tgt
    return out


# -- validation --------------------------------------------------------------


@dataclass
class Violation:
    law: str
    cells: tuple
    detail: str = ""

    @property
    def entry(self) -> str:
        """The entry at fault of a ``...structure:<table>`` violation, as a document names it."""
        key = self.cells[0] if len(self.cells) == 1 else self.cells
        return entry_name(self.law.rpartition(":")[2], key)


@dataclass
class ValidationReport:
    passed: bool
    violations: list[Violation]
    strict_flag: bool
    components_identity: bool

    def laws_failed(self) -> set[str]:
        return {v.law for v in self.violations}


# The domain of each binary and ternary table, walked through the indexes.
# `export_presentation` writes each table's rows in its walk's order.


def composable_pairs(B: FinBicat) -> Iterator[tuple[OneCell, OneCell]]:
    """Keys ``(g, f)`` of ``hcomp1``: ``src(g) == tgt(f)``."""
    for g in B.one_cells:
        for f in B.into1(g.src):
            yield g, f


def composable_triples(B: FinBicat) -> Iterator[tuple[OneCell, OneCell, OneCell]]:
    """Keys ``(h, g, f)`` of ``assoc``: ``src(h) == tgt(g)`` and ``src(g) == tgt(f)``."""
    for h, g in composable_pairs(B):
        for f in B.into1(g.src):
            yield h, g, f


def vertical_pairs(B: FinBicat) -> Iterator[tuple[TwoCell, TwoCell]]:
    """Keys ``(b, a)`` of ``vcomp``: ``tgt1(a) == src1(b)``."""
    for b in B.two_cells:
        for a in B.into2(b.src):
            yield b, a


def lwhisker_pairs(B: FinBicat) -> Iterator[tuple[OneCell, TwoCell]]:
    """Keys ``(g, a)`` of ``whisk_left``: ``a`` lies over 1-cells into ``src(g)``."""
    for g in B.one_cells:
        for a in B.over_into(g.src):
            yield g, a


def rwhisker_pairs(B: FinBicat) -> Iterator[tuple[TwoCell, OneCell]]:
    """Keys ``(b, f)`` of ``whisk_right``: ``b`` lies over 1-cells out of ``tgt(f)``."""
    for b in B.two_cells:
        for f in B.into1(B.one(b.src).src):
            yield b, f


def table_violations(
    name: str,
    table: dict,
    entries: Iterable[tuple[object, tuple]],
    values: dict,
    fits: Optional[Callable[[tuple], bool]] = None,
    domain: str = "",
    kind: str = "cell",
) -> list[Violation]:
    """Faults of one table against the entries its domain requires.

    ``entries`` yields each key of the domain with the ``(src, tgt)`` its
    value must have; an empty tuple, or a pair holding None, is not
    checked.  ``values`` maps declared value ids to their cells.  When the
    table holds more keys than the domain, the keys failing ``fits`` are
    extra entries, reported as not being ``domain``.  Each violation has law
    ``structure:<name>``, the key as its cells, and a detail that reads
    after the entry's name, as in ``hcomp1[('v', 'idA')]: missing entry``.
    """
    out: list[Violation] = []
    law = f"structure:{name}"

    def add(key, detail: str) -> None:
        out.append(Violation(law, key if type(key) is tuple else (key,), detail))

    found = 0
    for key, want in entries:
        v = table.get(key)
        if v is None:
            add(key, "missing entry")
            continue
        found += 1
        cell = values.get(v)
        if cell is None:
            add(key, f"undeclared {kind} {v!r}")
        elif want and (cell.src, cell.tgt) != want and None not in want:
            noun = "endpoints" if isinstance(cell, OneCell) else "boundary"
            add(key, f"value {v!r} has wrong {noun}")
    if found < len(table) and fits is not None:
        for key in table:
            if not fits(key):
                add(key, f"extra entry: not {domain}")
    return out


def structural_violations(B: FinBicat) -> list[Violation]:
    """Every totality and typing fault of the tables, table by table.

    Each table must hold exactly the keys of its domain: identities of every
    object and 1-cell, composites of composable pairs and triples, whiskers
    of whiskerable pairs, and unitors of every 1-cell.  Each value must have
    the endpoints or boundary its key dictates.  Construction has already
    checked that keys and values are declared cells of the right kind.  The
    domains are walked through the indexes, so the cost is linear in the
    size of the tables.  The list is kept in ``B``'s cache, as
    `validate_bicat`'s report is, so it must be read, never modified.
    """
    if "structure" in B._cache:
        return B._cache["structure"]
    one, two = B._cache["one_by_id"], B._cache["two_by_id"]
    H, I1 = B.hcomp1, B.id1
    out = table_violations("id1", I1, ((x, (x, x)) for x in B.objects), one)
    out += table_violations("id2", B.id2, ((c.id, (c.id, c.id)) for c in B.one_cells), two)
    out += table_violations(
        "hcomp1", H, (((g.id, f.id), (f.src, g.tgt)) for g, f in composable_pairs(B)), one,
        lambda k: one[k[0]].src == one[k[1]].tgt, "a composable pair",
    )
    out += table_violations(
        "vcomp", B.vcomp,
        (((b.id, a.id), (a.src, b.tgt)) for b, a in vertical_pairs(B)),
        two, lambda k: two[k[0]].src == two[k[1]].tgt, "a composable pair",
    )
    out += table_violations(
        "whisk_left", B.whisk_left,
        (((g.id, a.id), (H.get((g.id, a.src)), H.get((g.id, a.tgt)))) for g, a in lwhisker_pairs(B)),
        two, lambda k: one[k[0]].src == one[two[k[1]].tgt].tgt, "a whiskerable pair",
    )
    out += table_violations(
        "whisk_right", B.whisk_right,
        (((b.id, f.id), (H.get((b.src, f.id)), H.get((b.tgt, f.id)))) for b, f in rwhisker_pairs(B)),
        two, lambda k: one[two[k[0]].src].src == one[k[1]].tgt, "a whiskerable pair",
    )
    out += table_violations(
        "assoc", B.assoc,
        (((h.id, g.id, f.id),
          (H.get((h.id, H.get((g.id, f.id)))), H.get((H.get((h.id, g.id)), f.id))))
         for h, g, f in composable_triples(B)),
        two,
        lambda k: one[k[0]].src == one[k[1]].tgt and one[k[1]].src == one[k[2]].tgt,
        "a composable triple",
    )
    out += table_violations(
        "runit", B.runit, ((c.id, (H.get((c.id, I1.get(c.src))), c.id)) for c in B.one_cells), two,
    )
    out += table_violations(
        "lunit", B.lunit, ((c.id, (H.get((I1.get(c.tgt), c.id)), c.id)) for c in B.one_cells), two,
    )
    B._cache["structure"] = out
    return out


def _invertibility_violations(B: FinBicat, invertible: Callable[[str], bool]) -> list[Violation]:
    """The associators, then each 1-cell's right and left unitor, that are not ``invertible``."""
    out = [Violation("assoc:invertible", key, "") for key, th in B.assoc.items() if not invertible(th)]
    for f in B.one_cells:
        if not invertible(B.runit[f.id]):
            out.append(Violation("unitor:invertible", (f.id, "right"), ""))
        if not invertible(B.lunit[f.id]):
            out.append(Violation("unitor:invertible", (f.id, "left"), ""))
    return out


def _law_violations(B: FinBicat) -> list[Violation]:
    """Every law violation of ``B``, whose tables must be total and well typed.

    Both sides of each equational law are then 2-cells of one frame, so when
    ``B`` is thin (`FinBicat.is_thin`) every equation holds, and a coherence
    cell is invertible exactly when it `has_reverse`.  The violations, and
    their order, are those of the full check.
    """
    if B.is_thin():
        return _invertibility_violations(B, partial(has_reverse, B))
    out: list[Violation] = []
    V, H, WL, WR, A = B.vcomp, B.hcomp1, B.whisk_left, B.whisk_right, B.assoc
    add = out.append

    two = B.two_cells
    for a in two:
        ia, it = B.id2[a.src], B.id2[a.tgt]
        if V[(a.id, ia)] != a.id:
            add(Violation("hom-category:unit", (a.id,), "right identity fails"))
        if V[(it, a.id)] != a.id:
            add(Violation("hom-category:unit", (a.id,), "left identity fails"))
    for a in two:
        for b in B.from2(a.tgt):
            ba = V[(b.id, a.id)]
            for c in B.from2(b.tgt):
                if V[(c.id, ba)] != V[(V[(c.id, b.id)], a.id)]:
                    add(Violation("hom-category:assoc", (c.id, b.id, a.id), ""))

    for g, f in composable_pairs(B):
        gf = H[(g.id, f.id)]
        if WL[(g.id, B.id2[f.id])] != B.id2[gf]:
            add(Violation("whisker:identity", (g.id, f.id), "left whisker of identity"))
        if WR[(B.id2[g.id], f.id)] != B.id2[gf]:
            add(Violation("whisker:identity", (g.id, f.id), "right whisker of identity"))
    for a in two:
        ao = B.one(a.src)
        for b in B.from2(a.tgt):
            ba = V[(b.id, a.id)]
            for g in B.from1(ao.tgt):
                if WL[(g.id, ba)] != V[(WL[(g.id, b.id)], WL[(g.id, a.id)])]:
                    add(Violation("whisker:compose", (g.id, b.id, a.id), "left whisker"))
            for f in B.into1(ao.src):
                if WR[(ba, f.id)] != V[(WR[(b.id, f.id)], WR[(a.id, f.id)])]:
                    add(Violation("whisker:compose", (b.id, a.id, f.id), "right whisker"))

    for a in two:  # a: f ⇒ f' over (X → Y)
        for b in B.over_from(B.one(a.src).tgt):  # b: g ⇒ g' over (Y → Z)
            one = V[(WR[(b.id, a.tgt)], WL[(b.src, a.id)])]
            other = V[(WL[(b.tgt, a.id)], WR[(b.id, a.src)])]
            if one != other:
                add(Violation("interchange", (b.id, a.id), ""))

    out += _invertibility_violations(B, partial(is_invertible2, B))

    for a in two:  # naturality of the associator in each slot
        ao = B.one(a.src)
        for g in B.into1(ao.src):  # slot h
            for f in B.into1(g.src):
                lhs = V[(A[(a.tgt, g.id, f.id)], WR[(a.id, H[(g.id, f.id)])])]
                rhs = V[(WR[(WR[(a.id, g.id)], f.id)], A[(a.src, g.id, f.id)])]
                if lhs != rhs:
                    add(Violation("assoc:natural", (a.id, g.id, f.id), "outer slot"))
        for h in B.from1(ao.tgt):  # slot g
            for f in B.into1(ao.src):
                lhs = V[(A[(h.id, a.tgt, f.id)], WL[(h.id, WR[(a.id, f.id)])])]
                rhs = V[(WR[(WL[(h.id, a.id)], f.id)], A[(h.id, a.src, f.id)])]
                if lhs != rhs:
                    add(Violation("assoc:natural", (h.id, a.id, f.id), "middle slot"))
        for h in B.one_cells:  # slot f
            for g in B.hom1(ao.tgt, h.src):
                lhs = V[(A[(h.id, g, a.tgt)], WL[(h.id, WL[(g, a.id)])])]
                rhs = V[(WL[(H[(h.id, g)], a.id)], A[(h.id, g, a.src)])]
                if lhs != rhs:
                    add(Violation("assoc:natural", (h.id, g, a.id), "inner slot"))

    for a in two:
        ao = B.one(a.src)
        lhs = V[(B.runit[a.tgt], WR[(a.id, B.id1[ao.src])])]
        if lhs != V[(a.id, B.runit[a.src])]:
            add(Violation("unitor:natural", (a.id, "right"), ""))
        lhs = V[(B.lunit[a.tgt], WL[(B.id1[ao.tgt], a.id)])]
        if lhs != V[(a.id, B.lunit[a.src])]:
            add(Violation("unitor:natural", (a.id, "left"), ""))

    for k, h, g in composable_triples(B):
        kh, hg = H[(k.id, h.id)], H[(h.id, g.id)]
        khg = A[(k.id, h.id, g.id)]
        for f in B.into1(g.src):
            gf = H[(g.id, f.id)]
            two_step = V[(A[(kh, g.id, f.id)], A[(k.id, h.id, gf)])]
            three_step = V[(
                WR[(khg, f.id)],
                V[(A[(k.id, hg, f.id)], WL[(k.id, A[(h.id, g.id, f.id)])])],
            )]
            if two_step != three_step:
                add(Violation("pentagon", (k.id, h.id, g.id, f.id), ""))

    for g, f in composable_pairs(B):
        lhs = V[(WR[(B.runit[g.id], f.id)], A[(g.id, B.id1[f.tgt], f.id)])]
        if lhs != WL[(g.id, B.lunit[f.id])]:
            add(Violation("triangle", (g.id, f.id), ""))
    return out


def _components_identity(B: FinBicat) -> bool:
    for (h, g, f), v in B.assoc.items():
        t = B.two(v)
        if t.src != t.tgt or B.id2.get(t.src) != v:
            return False
    for table in (B.runit, B.lunit):
        for f, v in table.items():
            t = B.two(v)
            if t.src != t.tgt or B.id2.get(t.src) != v:
                return False
    return True


def validate_bicat(B: FinBicat) -> ValidationReport:
    """Exhaustively check every bicategory law over the tables.

    Structural problems (wrong table domains, mistyped entries) are reported
    first; the algebraic laws are only evaluated when the tables are total
    and well typed, since the law checks index into them freely.  Then both
    sides of every equation lie in one frame, so on a bicategory whose
    frames hold at most one 2-cell each, only the coherence cells'
    invertibility is left to decide, and it is decided by whether the
    reverse frame is inhabited (`_law_violations`).

    The report is kept in ``B``'s cache, which is sound because no table of
    a finished bicategory is written again, so each bicategory is checked at
    most once.  It is shared by every caller, so it must be read, never
    modified.
    """
    if "report" in B._cache:
        return B._cache["report"]
    violations = structural_violations(B)
    components_id = False
    if not violations:
        components_id = _components_identity(B)
        violations = _law_violations(B)
        if B.strict and not components_id:
            violations.append(
                Violation("strict-flag", (), "declared strict but has non-identity components")
            )
    B._cache["report"] = ValidationReport(
        passed=not violations,
        violations=violations,
        strict_flag=B.strict,
        components_identity=components_id,
    )
    return B._cache["report"]


def require_lawful(B: FinBicat, what: str) -> None:
    """Raise `PreconditionError` naming every law ``B`` (called ``what``) violates."""
    report = validate_bicat(B)
    if not report.passed:
        raise PreconditionError(f"{what} violates: {', '.join(sorted(report.laws_failed()))}")
