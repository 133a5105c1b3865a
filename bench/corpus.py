"""Seeded instance families for the benchmark, built through bicfrac's public API.

Every family is a strict 2-category assembled by `bicfrac.builders.build_strict`.
The seed renames every cell and permutes the declaration order of objects,
1-cells and 2-cells; declaration order is bicfrac's canonical search order, so
different seeds make the searches meet cells in a different order.  Sizes are
not drawn from the seed: each workload runs a fixed deck of sizes, so every seed
asks for the same amount of work (see README.md).

Instances reach the code under test as documents written by
`export_presentation` and then given ``"strict": false``, the form a user's
document takes and the one the command line's default path sees.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from bicfrac import build_strict


class Names:
    """Distinct random cell names drawn from one seeded stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self, prefix: str) -> str:
        while True:
            name = f"{prefix}{self.rng.randrange(10**5):05d}"
            if name not in self.used:
                self.used.add(name)
                return name


@dataclass
class Instance:
    """Arguments for `build_strict`, with the generated name of each role.

    ``roles`` maps a role such as ``"obj3"``, ``"a0_2"`` or ``"loop1"`` to
    the generated cell id, so maps between instances and closed-form
    expectations can refer to cells without knowing their names.
    """

    family: str
    size: int
    spec: dict
    roles: dict[str, str]
    classes: dict[str, list[str]] = field(default_factory=dict)

    def build(self):
        return build_strict(**self.spec)


def _shuffled(rng: random.Random, items: list) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def chain(n: int, rng: random.Random) -> Instance:
    """The poset 0 < 1 < ... < n-1 as a locally discrete bicategory.

    One 1-cell ``a{i}_{j}: i -> j`` for each ``i <= j``; identity 2-cells
    only.  Classes: ``all`` (every 1-cell) and ``ids`` (the identities).
    """
    names = Names(rng)
    roles: dict[str, str] = {}
    for i in range(n):
        roles[f"obj{i}"] = names.fresh("o")
    for i in range(n):
        for j in range(i, n):
            roles[f"a{i}_{j}"] = names.fresh("c")
            roles[f"i{i}_{j}"] = names.fresh("t")
    a = lambda i, j: roles[f"a{i}_{j}"]  # noqa: E731
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    one_cells = [(a(i, j), roles[f"obj{i}"], roles[f"obj{j}"]) for i, j in _shuffled(rng, pairs)]
    hcomp1 = {
        (a(j, k), a(i, j)): a(i, k)
        for i in range(n) for j in range(i, n) for k in range(j, n)
    }
    spec = dict(
        name=f"chain{n}",
        objects=_shuffled(rng, [roles[f"obj{i}"] for i in range(n)]),
        one_cells=one_cells,
        hcomp1=hcomp1,
        id1={roles[f"obj{i}"]: a(i, i) for i in range(n)},
        id2_names={a(i, j): roles[f"i{i}_{j}"] for i, j in pairs},
    )
    classes = {
        "all": [c[0] for c in one_cells],
        "ids": [a(i, i) for i in range(n)],
    }
    return Instance("chain", n, spec, roles, classes)


def cyclic_loop(k: int, rng: random.Random) -> Instance:
    """The appendix toy with a Z/k loop on ``id_B``.

    Objects ``A`` and ``B``, 1-cells ``idA``, ``idB`` and ``v: A -> B``, and
    2-cells ``loop^1 .. loop^{k-1}`` on ``idB`` with ``loop^i . loop^j =
    loop^{i+j mod k}``; whiskering a loop onto ``v`` gives the identity of
    ``v``, as in the toy.  Classes: ``Wmin`` (identities) and ``W`` (all).
    """
    names = Names(rng)
    roles = {r: names.fresh("o") for r in ("A", "B")}
    roles.update({r: names.fresh("c") for r in ("idA", "idB", "v")})
    roles.update({r: names.fresh("t") for r in ("iA", "iB", "iv")})
    for i in range(1, k):
        roles[f"loop{i}"] = names.fresh("t")
    A, B, idA, idB, v = (roles[r] for r in ("A", "B", "idA", "idB", "v"))
    loop = lambda i: roles["iB"] if i % k == 0 else roles[f"loop{i % k}"]  # noqa: E731
    loops = range(1, k)
    spec = dict(
        name=f"cyclic_loop{k}",
        objects=_shuffled(rng, [A, B]),
        one_cells=_shuffled(rng, [(idA, A, A), (idB, B, B), (v, A, B)]),
        hcomp1={(idA, idA): idA, (idB, idB): idB, (v, idA): v, (idB, v): v},
        id1={A: idA, B: idB},
        two_cells=_shuffled(rng, [(loop(i), idB, idB) for i in loops]),
        id2_names={idA: roles["iA"], idB: roles["iB"], v: roles["iv"]},
        vcomp={(loop(i), loop(j)): loop(i + j) for i in loops for j in loops},
        whisk_left={(idB, loop(i)): loop(i) for i in loops},
        whisk_right={
            **{(loop(i), idB): loop(i) for i in loops},
            **{(loop(i), v): roles["iv"] for i in loops},
        },
    )
    classes = {"Wmin": [idA, idB], "W": [idA, idB, v]}
    return Instance("cyclic_loop", k, spec, roles, classes)


def loop_quotient(src: Instance, tgt: Instance) -> dict:
    """`strict_psfun` tables of the quotient ``cyclic_loop(k) -> cyclic_loop(d)``.

    ``d`` must divide ``k``; ``loop^i`` goes to ``loop^{i mod d}``.
    """
    k, d = src.size, tgt.size
    if k % d:
        raise ValueError(f"{d} does not divide {k}")
    s, t = src.roles, tgt.roles
    f2 = {s[r]: t[r] for r in ("iA", "iB", "iv")}
    for i in range(1, k):
        f2[s[f"loop{i}"]] = t["iB"] if i % d == 0 else t[f"loop{i % d}"]
    return dict(
        f0={s["A"]: t["A"], s["B"]: t["B"]},
        f1={s[r]: t[r] for r in ("idA", "idB", "v")},
        f2=f2,
    )


def clear_strict_flag(text: str) -> str:
    """Exported document text with ``"strict"`` set to false."""
    doc = json.loads(text)
    doc["strict"] = False
    return json.dumps(doc, indent=2) + "\n"
