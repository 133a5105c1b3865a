"""Whole-table checks of a `FinBicat`'s tables, one column at a time.

Construction (`FinBicat._build_index`) and `core.structural_violations`
walk a bicategory's tables entry by entry, and only those walks name a
fault.  The checks here decide the same questions over whole tables, one
column of keys or values at a time, with set, map and zip operations that
run in C, and each is true exactly when its walk would find nothing.  So
the walks run only when a check fails, and what they report is unchanged.

No frame is stated here.  `well_formed` decides the domains itself, by the
tables' sizes and the fit of the ``hcomp1`` and ``vcomp`` keys, and checks
every table's values against that table's own frame rule (`core.TABLES`),
a rule over whole columns read through `key_columns` and `ends`, which the
entry walks read too.

The checks read each column through a fresh iterator over its table rather
than copying it out, so they allocate little beyond a few small sets.  They
live apart from `core` because a process that finds no cached bytecode
compiles each module on import, and compiling `core` with them inside
raised the process's peak memory.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from operator import attrgetter, eq, itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:
    from .core import FinBicat


def declared(table: dict, key_sets: list[dict], values: dict) -> bool:
    """Whether each key of ``table`` has its parts in ``key_sets`` and each value is in ``values``.

    A key of several parts is a tuple of that length, and a key of one part
    is bare.  The check is one set inclusion per column of keys, and one for
    the values.
    """
    keys = table.keys()
    arity = len(key_sets)
    if arity == 1:
        parts = [keys]
    elif {*map(type, keys)} <= {tuple} and {*map(len, keys)} <= {arity}:
        parts = [{*map(itemgetter(i), keys)} for i in range(arity)]
    else:
        return False
    try:
        cells = {*table.values()}
    except TypeError:  # an unhashable value, which the entry walk reports
        return False
    return values.keys() >= cells and all(
        known.keys() >= part for known, part in zip(key_sets, parts)
    )


def well_formed(B: FinBicat, tables: dict) -> bool:
    """Whether every table of ``B`` holds exactly its domain, with values in their frames.

    ``tables`` states each table, in order, as `core.TABLES` does.  Keys
    must be declared cells of the right kind, as construction checks, so
    that keys that fit their domain, as many as it has, are all of it.  Each
    table but ``hcomp1`` must be as large as its domain, counted from the
    indexes, and each key of ``hcomp1`` and ``vcomp`` must fit its domain.
    Then, one column of keys or values at a time, each value must lie in the
    frame its table's rule gives its key.  The rest follows:

    - the other tables' keys fit, since each looks up its composites in
      ``hcomp1``, which holds composable pairs only, so a key that does not
      fit finds none, and no value lies in a frame that holds None;
    - ``hcomp1`` holds every composable pair ``(g, f)``, since
      ``whisk_left`` then holds ``(g, id2[f])``, which looks it up.
    """

    def per_object(left: Callable, right: Callable) -> int:
        return sum(len(left(x)) * len(right(x)) for x in B.objects)

    n1 = len(B.one_cells)
    sizes = (
        len(B.objects), n1,
        sum(len(B.from2(f.id)) * len(B.into2(f.id)) for f in B.one_cells),
        per_object(B.from1, B.over_into), per_object(B.over_from, B.into1),
        sum(len(B.from1(g.tgt)) * len(B.into1(g.src)) for g in B.one_cells), n1, n1,
    )
    if tuple(len(getattr(B, name)) for name in tables if name != "hcomp1") != sizes:
        return False
    src, tgt = {}, {}  # each cell's ends, by id; cheaper to look up than the cells
    for c in chain(B.one_cells, B.two_cells):
        src[c.id], tgt[c.id] = c.src, c.tgt
    hg, hf = key_columns(B.hcomp1, 2)
    vb, va = key_columns(B.vcomp, 2)
    got = [map(src.get, hg()), map(src.get, vb())]
    want = [map(tgt.get, hf()), map(tgt.get, va())]
    for t in tables.values():
        entries = getattr(B, t.name)
        got += map(src.get, entries.values()), map(tgt.get, entries.values())
        want += t.frame(B, *key_columns(entries, len(t.parts)))
    return all(map(eq, chain(*got), chain(*want)))


def key_columns(keys: Iterable, width: int) -> list[Callable[[], Iterator]]:
    """For each of the ``width`` parts of ``keys``, a callable returning a fresh iterator over that column.

    ``keys`` is iterated afresh on each call, so it must be a collection,
    such as a list or a table; a key of one part is bare.
    """
    if width == 1:
        return [keys.__iter__]
    return [partial(map, itemgetter(i), keys) for i in range(width)]


def ends(B: FinBicat, kind: str, column: Callable[[], Iterable]) -> tuple[Iterator, Iterator]:
    """The sources and the targets of the ``kind`` cells of ``B`` that ``column`` names.

    Each id must be declared, as construction checks of every table's keys
    and values; the cells are read from the declared-cell index.
    """
    cell = B._cache["declared"][kind].__getitem__
    return map(attrgetter("src"), map(cell, column())), map(attrgetter("tgt"), map(cell, column()))
