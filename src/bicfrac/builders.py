"""Ready-made finite bicategories, 1-cell classes and pseudofunctors.

Every fixture here is a strict 2-category, assembled through `build_strict`.
It declares the cells and fills each table by walking its domain with
`core`'s walks, taking the forced entries (identity 2-cells, whiskers and
vertical composites involving identities, and identity associators and
unitors) and the given ones.  Callers declare only the cells and the handful
of genuinely non-trivial table entries.  The tables are then checked by
`structural_violations` alone: a missing entry, a mistyped composite or a
composition that is not associative or unital on the nose raises
`StructureError` naming the first entry at fault.

The catalog:

- `appendix_toy`    two objects, one connecting 1-cell, one non-identity
                    2-cell ``loop`` on an identity; its square is either the
                    identity or ``loop`` again, giving two lawful variants
- `toyq`            the same shape with ``loop`` collapsed away
- `iso2`            two objects made strictly isomorphic by a pair of 1-cells
- `arrow2`          two parallel 1-cells joined by a non-invertible 2-cell
- `trivial_one`     one object, identity cells only
- `discrete2`       two objects, identity cells only

plus the standard 1-cell classes on each, the pseudofunctors used by the
condition checkers, and `theorem_suite`, the named list of
(pseudofunctor, source class, target class) triples exercised by the
cross-validation tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    FinBicat,
    OneCell,
    StructureError,
    TwoCell,
    composable_pairs,
    composable_triples,
    lwhisker_pairs,
    rwhisker_pairs,
    structural_violations,
    vertical_pairs,
)
from .psfun import PsFun, identity_psfun
from .wclass import WClass


def build_strict(
    name: str,
    objects: list[str],
    one_cells: list[tuple[str, str, str]],
    hcomp1: dict[tuple[str, str], str],
    id1: dict[str, str],
    two_cells: list[tuple[str, str, str]] = (),
    id2_names: Optional[dict[str, str]] = None,
    vcomp: Optional[dict[tuple[str, str], str]] = None,
    whisk_left: Optional[dict[tuple[str, str], str]] = None,
    whisk_right: Optional[dict[tuple[str, str], str]] = None,
) -> FinBicat:
    """Assemble a strict 2-category from its non-forced table entries.

    ``two_cells`` lists only the non-identity 2-cells; ``vcomp``,
    ``whisk_left`` and ``whisk_right`` only the entries where no factor is an
    identity 2-cell.  Every associator and unitor is the identity 2-cell of
    its source 1-cell.  An entry that is neither forced nor given is left
    out, and the first fault `structural_violations` finds, such as a
    missing entry or an associator of a non-associative composition, raises
    `StructureError` naming the entry.
    """
    id2_names = id2_names or {}
    vcomp = vcomp or {}
    whisk_left = whisk_left or {}
    whisk_right = whisk_right or {}

    ones = [OneCell(*c) for c in one_cells]
    id2 = {c.id: id2_names.get(c.id, f"i_{c.id}") for c in ones}
    twos = [TwoCell(id2[c.id], c.id, c.id) for c in ones]
    twos += [TwoCell(*t) for t in two_cells]
    identity2 = set(id2.values())
    B = FinBicat(
        objects=tuple(objects),
        one_cells=tuple(ones),
        two_cells=tuple(twos),
        id1=dict(id1),
        id2=id2,
        hcomp1=dict(hcomp1),
        vcomp={},
        whisk_left={},
        whisk_right={},
        assoc={},
        runit={c.id: id2[c.id] for c in ones},
        lunit={c.id: id2[c.id] for c in ones},
        strict=True,
        name=name,
    )
    H = B.hcomp1

    def fill(table: dict, key: tuple, value: Optional[str]) -> None:
        if value is not None:
            table[key] = value

    # ``id2.get`` of a missing composite is None, so such entries stay out.
    for b, a in vertical_pairs(B):
        key = (b.id, a.id)
        fill(B.vcomp, key, b.id if a.id in identity2 else a.id if b.id in identity2 else vcomp.get(key))
    for g, a in lwhisker_pairs(B):
        key = (g.id, a.id)
        fill(B.whisk_left, key, id2.get(H.get((g.id, a.src))) if a.id in identity2 else whisk_left.get(key))
    for b, f in rwhisker_pairs(B):
        key = (b.id, f.id)
        fill(B.whisk_right, key, id2.get(H.get((b.src, f.id))) if b.id in identity2 else whisk_right.get(key))
    for h, g, f in composable_triples(B):
        fill(B.assoc, (h.id, g.id, f.id), id2.get(H.get((h.id, H.get((g.id, f.id))))))

    faults = structural_violations(B)
    if faults:
        raise StructureError(f"{faults[0].entry}: {faults[0].detail}")
    return B


def appendix_toy(loop_square: str = "identity") -> FinBicat:
    """Two objects joined by ``v``, with an involutive 2-cell on ``id_B``.

    With ``loop_square="identity"`` the 2-cell ``loop`` squares to the
    identity, making it invertible; with ``"loop"`` it is idempotent and
    not invertible.  Both variants satisfy every law.
    """
    if loop_square not in ("identity", "loop"):
        raise ValueError(f"unknown loop_square {loop_square!r}")
    return build_strict(
        name=f"toy[{loop_square}]",
        objects=["A", "B"],
        one_cells=[("idA", "A", "A"), ("idB", "B", "B"), ("v", "A", "B")],
        hcomp1={
            ("idA", "idA"): "idA",
            ("idB", "idB"): "idB",
            ("v", "idA"): "v",
            ("idB", "v"): "v",
        },
        id1={"A": "idA", "B": "idB"},
        two_cells=[("loop", "idB", "idB")],
        id2_names={"idA": "iA", "idB": "iB", "v": "iv"},
        vcomp={("loop", "loop"): "iB" if loop_square == "identity" else "loop"},
        whisk_left={("idB", "loop"): "loop"},
        whisk_right={("loop", "idB"): "loop", ("loop", "v"): "iv"},
    )


def toy_classes(B: FinBicat) -> dict[str, WClass]:
    """Standard classes on the toy: everything, identities only, no ``idA``."""
    return {
        "W": WClass.of(B, ["idA", "idB", "v"], "W"),
        "Wmin": WClass.of(B, ["idA", "idB"], "Wmin"),
        "WnoId": WClass.of(B, ["idB", "v"], "WnoId"),
    }


def toyq() -> FinBicat:
    """The toy shape with only identity 2-cells."""
    return build_strict(
        name="toyq",
        objects=["A", "B"],
        one_cells=[("idA", "A", "A"), ("idB", "B", "B"), ("v", "A", "B")],
        hcomp1={
            ("idA", "idA"): "idA",
            ("idB", "idB"): "idB",
            ("v", "idA"): "v",
            ("idB", "v"): "v",
        },
        id1={"A": "idA", "B": "idB"},
        id2_names={"idA": "iA", "idB": "iB", "v": "iv"},
    )


def toyq_classes(B: FinBicat) -> dict[str, WClass]:
    return {
        "W": WClass.of(B, ["idA", "idB", "v"], "W"),
        "Wmin": WClass.of(B, ["idA", "idB"], "Wmin"),
    }


def iso2() -> FinBicat:
    """Two objects made strictly isomorphic: ``e'∘e = id`` and ``e∘e' = id``."""
    return build_strict(
        name="iso2",
        objects=["X", "Y"],
        one_cells=[
            ("idX", "X", "X"), ("idY", "Y", "Y"),
            ("e", "X", "Y"), ("ep", "Y", "X"),
        ],
        hcomp1={
            ("idX", "idX"): "idX", ("idY", "idY"): "idY",
            ("e", "idX"): "e", ("idY", "e"): "e",
            ("ep", "idY"): "ep", ("idX", "ep"): "ep",
            ("ep", "e"): "idX", ("e", "ep"): "idY",
        },
        id1={"X": "idX", "Y": "idY"},
    )


def iso2_classes(B: FinBicat) -> dict[str, WClass]:
    return {
        "W": WClass.of(B, ["idX", "idY", "e", "ep"], "W"),
        "Wmin": WClass.of(B, ["idX", "idY"], "Wmin"),
    }


def arrow2() -> FinBicat:
    """Two parallel 1-cells joined by a single non-invertible 2-cell."""
    return build_strict(
        name="arrow2",
        objects=["X", "Y"],
        one_cells=[
            ("idX", "X", "X"), ("idY", "Y", "Y"),
            ("a", "X", "Y"), ("b", "X", "Y"),
        ],
        hcomp1={
            ("idX", "idX"): "idX", ("idY", "idY"): "idY",
            ("a", "idX"): "a", ("idY", "a"): "a",
            ("b", "idX"): "b", ("idY", "b"): "b",
        },
        id1={"X": "idX", "Y": "idY"},
        two_cells=[("nu", "a", "b")],
        whisk_left={("idY", "nu"): "nu"},
        whisk_right={("nu", "idX"): "nu"},
    )


def trivial_one() -> FinBicat:
    """A single object with identity cells only."""
    return build_strict(
        name="trivial_one",
        objects=["pt"],
        one_cells=[("idpt", "pt", "pt")],
        hcomp1={("idpt", "idpt"): "idpt"},
        id1={"pt": "idpt"},
    )


def discrete2() -> FinBicat:
    """Two objects with identity cells only and no cells between them."""
    return build_strict(
        name="discrete2",
        objects=["X", "Y"],
        one_cells=[("idX", "X", "X"), ("idY", "Y", "Y")],
        hcomp1={("idX", "idX"): "idX", ("idY", "idY"): "idY"},
        id1={"X": "idX", "Y": "idY"},
    )


# -- pseudofunctors between the fixtures -------------------------------------


def strict_psfun(
    source: FinBicat,
    target: FinBicat,
    f0: dict[str, str],
    f1: dict[str, str],
    f2: dict[str, str],
    name: str = "",
) -> PsFun:
    """A pseudofunctor with identity comparison cells.

    Suits maps between strict fixtures that preserve composition on the
    nose; `validate_psfun` still gets the final word.
    """
    psi = {
        (g.id, f.id): target.id2[target.hcomp1[(f1[g.id], f1[f.id])]]
        for g, f in composable_pairs(source)
    }
    sigma = {x: target.id2[target.id1[f0[x]]] for x in source.objects}
    return PsFun(source, target, dict(f0), dict(f1), dict(f2), psi, sigma, name)


def collapse_loop(toy: FinBicat, quotient: FinBicat) -> PsFun:
    """Quotient map from the toy onto its 2-discrete shape, killing ``loop``."""
    return strict_psfun(
        toy,
        quotient,
        f0={"A": "A", "B": "B"},
        f1={"idA": "idA", "idB": "idB", "v": "v"},
        f2={"iA": "iA", "iB": "iB", "iv": "iv", "loop": "iB"},
        name="collapse-loop",
    )


def point_into_discrete2(pt: FinBicat, d2: FinBicat) -> PsFun:
    """Inclusion of the one-object fixture onto the first object."""
    return strict_psfun(
        pt,
        d2,
        f0={"pt": "X"},
        f1={"idpt": "idX"},
        f2={"i_idpt": "i_idX"},
        name="point-into-discrete2",
    )


def fold_discrete2(d2: FinBicat, pt: FinBicat) -> PsFun:
    """Both objects onto the point; collapses the discrete pair."""
    return strict_psfun(
        d2,
        pt,
        f0={"X": "pt", "Y": "pt"},
        f1={"idX": "idpt", "idY": "idpt"},
        f2={"i_idX": "i_idpt", "i_idY": "i_idpt"},
        name="fold-discrete2",
    )


@dataclass
class SuiteCase:
    """One localization-comparison scenario: a map and a class on each side."""

    name: str
    psfun: PsFun
    w_src: WClass
    w_tgt: WClass


def theorem_suite() -> list[SuiteCase]:
    """The named scenarios exercised by the cross-validation checks.

    Covers identity maps at matched and mismatched classes, the loop
    quotient at both class choices, a non-surjective inclusion, and the
    strict-isomorphism fixture with a saturated target class.
    """
    toy = appendix_toy()
    tc = toy_classes(toy)
    q = toyq()
    qc = toyq_classes(q)
    pt = trivial_one()
    d2 = discrete2()
    i2 = iso2()
    ic = iso2_classes(i2)
    return [
        SuiteCase("identity-toy-full", identity_psfun(toy), tc["W"], tc["W"]),
        SuiteCase("identity-toy-min", identity_psfun(toy), tc["Wmin"], tc["Wmin"]),
        SuiteCase("identity-toy-mixed", identity_psfun(toy), tc["Wmin"], tc["W"]),
        SuiteCase("collapse-loop-min", collapse_loop(toy, q), tc["Wmin"], qc["Wmin"]),
        SuiteCase("collapse-loop-full", collapse_loop(toy, q), tc["W"], qc["W"]),
        SuiteCase(
            "point-into-discrete2",
            point_into_discrete2(pt, d2),
            WClass.of(pt, ["idpt"], "ids"),
            WClass.of(d2, ["idX", "idY"], "ids"),
        ),
        SuiteCase("identity-iso2-mixed", identity_psfun(i2), ic["Wmin"], ic["W"]),
    ]
