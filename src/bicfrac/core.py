"""Finite bicategories given by exhaustive tables.

A `FinBicat` stores every cell and every structural operation of a finite
bicategory explicitly: objects, 1-cells, 2-cells, identities, horizontal and
vertical composition, the two whiskerings, associators and the two unitors.
Nothing is computed lazily from generators; the tables *are* the bicategory.
Construction rejects undeclared cells and indexes the cells by source and
target (`FinBicat.into1`, `from2`, `over_into`, ...).  The domain of each
binary and ternary table is walked through those indexes by one function
(`composable_pairs`, `composable_triples`, `vertical_pairs`,
`lwhisker_pairs`, `rwhisker_pairs`), which the law checks iterate.  Each
of the nine tables is stated once, in `TABLES`: the kinds of its key parts
and values, a walk of its keys in row order and one rule over whole key
columns giving the frame, the ``(src, tgt)``, each value must have
(`Table.frames` pairs each key with its own).  Construction, both
structural checks, the document reader and writer, and the builders that
fill tables read it, and `psfun.PSFUN_TABLES` states a pseudofunctor's
five tables the same way.  `structural_violations` checks
that every table is total and well typed, deciding the tables whole, one
column of keys or values at a time (`columns`, which applies each table's
own rule), and walking their domains only to name faults; `validate_bicat`
runs that check and then the axioms exhaustively, once per bicategory.  A
fixed chain of 2-cells (a pasting diagram read in application order) is
evaluated by table lookups, one per factor (`assoc_cell`, `whisker_left`,
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
from itertools import chain, filterfalse, repeat
from typing import Callable, Iterable, Iterator, Optional

from . import columns


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
        and values that are not declared cells of the right kind.  A table's
        keys and values are checked by set inclusion one column at a time
        (`columns.declared`); its entries are walked only when that fails,
        to name the first one at fault.  Totality and typing of the tables
        are `structural_violations`' job, which presumes this check.
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
        declared = {"object": obj_pos, "1-cell": one_by_id, "2-cell": two_by_id}
        for spec in TABLES.values():
            name, table, arity = spec.name, getattr(self, spec.name), len(spec.parts)
            if columns.declared(table, [declared[kind] for kind in spec.parts], declared[spec.value]):
                continue
            for k, v in table.items():
                parts = (k,) if arity == 1 else k
                if arity > 1 and (type(k) is not tuple or len(k) != arity):
                    raise StructureError(f"{entry_name(name, k)}: malformed key")
                for p, kind in zip(parts, spec.parts):
                    if p not in declared[kind]:
                        noun = "object" if kind == "object" else "cell"
                        raise StructureError(f"{entry_name(name, k)}: undeclared {noun} {p!r}")
                if v not in declared[spec.value]:
                    raise StructureError(f"{entry_name(name, k)}: undeclared cell {v!r}")
        # A fresh dict: `dataclasses.replace` hands the original's cache to
        # the copy, and refilling that one would make it describe the copy.
        self._cache = {
            "one_by_id": one_by_id,
            "two_by_id": two_by_id,
            "obj_pos": obj_pos,
            "declared": declared,
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


@dataclass(frozen=True)
class Table:
    """One table's domain and frames, stated once.

    ``parts`` are the kinds of a key's parts and ``value`` the kind of its
    value, each ``"object"``, ``"1-cell"`` or ``"2-cell"``.  ``walk`` yields
    the domain's keys in row order, the order a document lists them: a bare
    id for a key of one part, else a tuple of ids.  ``frame`` is the rule
    for the ``(src, tgt)`` the values must have, over whole columns of keys:
    given, for each key part, a callable returning a fresh iterator over
    that column (`columns.key_columns`), it returns an iterator of sources
    and one of targets, holding None wherever it looks up a missing entry.
    It is None when the values have no frame.  A key outside the domain is
    an extra entry, not ``noun``.  ``walk`` and ``frame`` take the tables'
    owner first: a `FinBicat`, or a `PsFun` for its own tables.
    """

    name: str
    parts: tuple[str, ...]
    value: str
    noun: str
    walk: Callable[[object], Iterable]
    frame: Optional[Callable[..., tuple[Iterator, Iterator]]]

    def frames(self, owner) -> Iterator[tuple[object, tuple]]:
        """Each key of the domain with the frame of its value, or ``()`` when the values have none, in row order."""
        if self.frame is None:
            return zip(self.walk(owner), repeat(()))
        keys = list(self.walk(owner))  # the rule reads each column afresh, some more than once
        return zip(keys, zip(*self.frame(owner, *columns.key_columns(keys, len(self.parts)))))


def _one_ids(B: FinBicat) -> Iterator[str]:
    return (c.id for c in B.one_cells)


def _composites(B: FinBicat, left: Iterable, right: Iterable) -> Iterator:
    """``g∘f`` for each ``g`` of ``left`` and ``f`` of ``right`` in step, None where ``hcomp1`` has none."""
    return map(B.hcomp1.get, zip(left, right))


# The nine tables of a `FinBicat`, in the order a document lists them.
TABLES: dict[str, Table] = {t.name: t for t in (
    Table("id1", ("object",), "1-cell", "an object", lambda B: B.objects, lambda B, x: (x(), x())),
    Table("id2", ("1-cell",), "2-cell", "a 1-cell", _one_ids, lambda B, f: (f(), f())),
    Table("hcomp1", ("1-cell", "1-cell"), "1-cell", "a composable pair",
          lambda B: ((g.id, f.id) for g, f in composable_pairs(B)),
          lambda B, g, f: (columns.ends(B, "1-cell", f)[0], columns.ends(B, "1-cell", g)[1])),
    Table("vcomp", ("2-cell", "2-cell"), "2-cell", "a composable pair",
          lambda B: ((b.id, a.id) for b, a in vertical_pairs(B)),
          lambda B, b, a: (columns.ends(B, "2-cell", a)[0], columns.ends(B, "2-cell", b)[1])),
    Table("whisk_left", ("1-cell", "2-cell"), "2-cell", "a whiskerable pair",
          lambda B: ((g.id, a.id) for g, a in lwhisker_pairs(B)),
          lambda B, g, a: tuple(_composites(B, g(), end) for end in columns.ends(B, "2-cell", a))),
    Table("whisk_right", ("2-cell", "1-cell"), "2-cell", "a whiskerable pair",
          lambda B: ((b.id, f.id) for b, f in rwhisker_pairs(B)),
          lambda B, b, f: tuple(_composites(B, end, f()) for end in columns.ends(B, "2-cell", b))),
    Table("assoc", ("1-cell", "1-cell", "1-cell"), "2-cell", "a composable triple",
          lambda B: ((h.id, g.id, f.id) for h, g, f in composable_triples(B)),
          lambda B, h, g, f: (_composites(B, h(), _composites(B, g(), f())),
                              _composites(B, _composites(B, h(), g()), f()))),
    Table("runit", ("1-cell",), "2-cell", "a 1-cell", _one_ids,
          lambda B, f: (_composites(B, f(), map(B.id1.get, columns.ends(B, "1-cell", f)[0])), f())),
    Table("lunit", ("1-cell",), "2-cell", "a 1-cell", _one_ids,
          lambda B, f: (_composites(B, map(B.id1.get, columns.ends(B, "1-cell", f)[1]), f()), f())),
)}


def table_violations(table: Table, owner, values: dict) -> list[Violation]:
    """Faults of ``owner``'s ``table`` against its domain.

    ``values`` maps the declared value ids to their cells.  A key of the
    domain that the table lacks is a missing entry, and a key outside it an
    extra one; a value must be declared and lie in its key's frame.  Each
    violation has law ``structure:<name>``, the key as its cells, and a
    detail that reads after the entry's name, as in
    ``hcomp1[('v', 'idA')]: missing entry``.
    """
    entries = getattr(owner, table.name)
    out: list[Violation] = []
    law = f"structure:{table.name}"

    def add(key, detail: str) -> None:
        out.append(Violation(law, key if type(key) is tuple else (key,), detail))

    found = 0
    for key, want in table.frames(owner):
        v = entries.get(key)
        if v is None:
            add(key, "missing entry")
            continue
        found += 1
        cell = values.get(v)
        if cell is None:
            add(key, f"undeclared {'object' if table.value == 'object' else 'cell'} {v!r}")
        elif want and (cell.src, cell.tgt) != want and None not in want:
            noun = "endpoints" if isinstance(cell, OneCell) else "boundary"
            add(key, f"value {v!r} has wrong {noun}")
    if found < len(entries):
        domain = set(table.walk(owner))
        for key in entries:
            if key not in domain:
                add(key, f"extra entry: not {table.noun}")
    return out


def structural_violations(B: FinBicat) -> list[Violation]:
    """Every totality and typing fault of the tables, table by table.

    Each table must hold exactly the keys of its domain (`TABLES`), and each
    value must lie in the frame its key dictates.

    The tables are first decided whole, one column of keys or values at a
    time (`columns.well_formed`), which presumes what construction checks:
    every key is a declared cell, or tuple of cells, of the right kind.
    Only when that fails are the domains walked (`table_violations`), to
    name every fault.  The list is kept in ``B``'s cache, as
    `validate_bicat`'s report is, so it must be read, never modified.
    """
    if "structure" in B._cache:
        return B._cache["structure"]
    declared = B._cache["declared"]
    B._cache["structure"] = out = [] if columns.well_formed(B, TABLES) else [
        v for t in TABLES.values() for v in table_violations(t, B, declared[t.value])
    ]
    return out


def _invertibility_violations(B: FinBicat, invertible: Callable[[str], bool]) -> list[Violation]:
    """The associators, then each 1-cell's right and left unitor, that are not ``invertible``.

    Each distinct coherence cell is decided once.
    """
    bad = set(filterfalse(invertible, dict.fromkeys(_coherence_cells(B))))
    if not bad:
        return []
    out = [Violation("assoc:invertible", key, "") for key, th in B.assoc.items() if th in bad]
    for f in B.one_cells:
        if B.runit[f.id] in bad:
            out.append(Violation("unitor:invertible", (f.id, "right"), ""))
        if B.lunit[f.id] in bad:
            out.append(Violation("unitor:invertible", (f.id, "left"), ""))
    return out


def _coherence_cells(B: FinBicat) -> Iterator[str]:
    """The associator, then the right and left unitor components, in table order."""
    return chain(B.assoc.values(), B.runit.values(), B.lunit.values())


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
    """Whether every associator and unitor component is an identity 2-cell.

    On well-typed tables an identity 2-cell is a value of ``id2``.
    """
    return {*B.id2.values()}.issuperset(_coherence_cells(B))


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
