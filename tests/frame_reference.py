"""Each table's frame, one key at a time: a reference for `Table.frames`.

`bicfrac.core.TABLES` and `bicfrac.psfun.PSFUN_TABLES` state the frame of
each table as one rule over whole columns of keys.  This module keeps the
per-key rules those replaced, as an independent statement: each maps a
key's parts to the ``(src, tgt)`` its value must have, holding None where it
looks up a missing entry, or to ``()`` when the values have none.  They read
only the owner's tables and the cell lookups of `FinBicat` (`one`, `two`,
`src1`, `tgt1`).
"""

from __future__ import annotations

from bicfrac.core import Table


def _assoc(B, h: str, g: str, f: str) -> tuple:
    H = B.hcomp1
    return H.get((h, H.get((g, f)))), H.get((H.get((h, g)), f))


# The nine tables of a `FinBicat`, then the five of a `PsFun`, by name.
FRAMES = {
    "id1": lambda B, x: (x, x),
    "id2": lambda B, f: (f, f),
    "hcomp1": lambda B, g, f: (B.one(f).src, B.one(g).tgt),
    "vcomp": lambda B, b, a: (B.two(a).src, B.two(b).tgt),
    "whisk_left": lambda B, g, a: (B.hcomp1.get((g, B.two(a).src)), B.hcomp1.get((g, B.two(a).tgt))),
    "whisk_right": lambda B, b, f: (B.hcomp1.get((B.two(b).src, f)), B.hcomp1.get((B.two(b).tgt, f))),
    "assoc": _assoc,
    "runit": lambda B, f: (B.hcomp1.get((f, B.id1.get(B.one(f).src))), f),
    "lunit": lambda B, f: (B.hcomp1.get((B.id1.get(B.one(f).tgt), f)), f),
    "f0": lambda F, x: (),
    "f1": lambda F, f: (F.f0.get(F.source.one(f).src), F.f0.get(F.source.one(f).tgt)),
    "f2": lambda F, a: (F.f1.get(F.source.src1(a)), F.f1.get(F.source.tgt1(a))),
    "psi": lambda F, g, f: (F.f1.get(F.source.hcomp1.get((g, f))),
                            F.target.hcomp1.get((F.f1.get(g), F.f1.get(f)))),
    "sigma": lambda F, x: (F.f1.get(F.source.id1.get(x)), F.target.id1.get(F.f0.get(x))),
}


def frames(table: Table, owner) -> list[tuple[object, tuple]]:
    """Each key of ``table``'s domain over ``owner`` with its frame, in row order."""
    rule = FRAMES[table.name]
    return [(key, rule(owner, *(key if len(table.parts) > 1 else (key,)))) for key in table.walk(owner)]
