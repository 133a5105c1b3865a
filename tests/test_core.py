"""Tables, cell operations, pasting evaluation and the law checker."""

import dataclasses

import pytest

from bicfrac.builders import appendix_toy, build_strict, discrete2, iso2, toyq
from bicfrac.core import (
    FinBicat,
    InvertibilityError,
    StructureError,
    TypingError,
    hcompose1,
    hcompose2,
    internal_equivalence_witness,
    internal_equivalences,
    inv_cells2,
    is_invertible2,
    two_cell_inverse,
    validate_bicat,
    vcompose,
    vfold,
    whisker_left,
    whisker_right,
)
from pasting_reference import (
    Assoc,
    Atom,
    IdOn,
    Inv,
    LUnit,
    RUnit,
    VComp,
    WhiskL,
    WhiskR,
    eval_pasting,
    infer_boundary,
    vchain,
)


@pytest.fixture
def toy():
    return appendix_toy()


@pytest.fixture
def loopy():
    return appendix_toy(loop_square="loop")


def test_lookup_order_follows_declaration(toy):
    assert toy.hom1("A", "B") == ["v"]
    assert toy.hom1("B", "B") == ["idB"]
    assert [t.id for t in toy.two_cells] == ["iA", "iB", "iv", "loop"]
    assert toy.cells2("idB", "idB") == ["iB", "loop"]
    assert toy.cells2("v", "idA") == []


def test_structural_errors_at_construction(toy):
    with pytest.raises(StructureError):
        dataclasses.replace(toy, objects=("A", "A", "B"))
    bad = list(toy.two_cells)
    bad[3] = dataclasses.replace(bad[3], tgt="v")
    with pytest.raises(StructureError):
        dataclasses.replace(toy, two_cells=tuple(bad))


def test_cell_operations(toy):
    assert hcompose1(toy, "idB", "v") == "v"
    assert vcompose(toy, "loop", "loop") == "iB"
    assert whisker_left(toy, "idB", "loop") == "loop"
    assert whisker_right(toy, "loop", "v") == "iv"
    assert vfold(toy, "loop", "loop", "loop") == "loop"


def test_horizontal_composition_of_two_cells(toy):
    # Both whisker orders must agree; this is the interchange identity.
    assert hcompose2(toy, "loop", "iv") == "iv"
    left = vcompose(toy, whisker_right(toy, "loop", "v"), whisker_left(toy, "idB", "iv"))
    right = vcompose(toy, whisker_left(toy, "idB", "iv"), whisker_right(toy, "loop", "v"))
    assert left == right == "iv"


def test_inverses(toy, loopy):
    assert two_cell_inverse(toy, "loop") == "loop"
    assert two_cell_inverse(loopy, "loop") is None
    assert is_invertible2(toy, "loop")
    assert not is_invertible2(loopy, "loop")
    assert inv_cells2(toy, "idB", "idB") == ["iB", "loop"]
    assert inv_cells2(loopy, "idB", "idB") == ["iB"]


def test_a_replaced_copy_leaves_the_original_index_alone(toy):
    assert two_cell_inverse(toy, "loop") == "loop"
    vcomp = dict(toy.vcomp)
    vcomp[("loop", "loop")] = "loop"
    other = dataclasses.replace(toy, vcomp=vcomp)
    assert two_cell_inverse(other, "loop") is None
    assert two_cell_inverse(toy, "loop") == "loop"
    assert toy.cells2("idB", "idB") == ["iB", "loop"]


def test_internal_equivalences(toy):
    assert internal_equivalences(toy) == ["idA", "idB"]
    assert internal_equivalence_witness(toy, "v") is None
    i2 = iso2()
    assert internal_equivalences(i2) == ["idX", "idY", "e", "ep"]
    g, eta, eps = internal_equivalence_witness(i2, "e")
    assert g == "ep"


def test_locally_discrete_flag(toy):
    assert not toy.is_locally_discrete()
    assert toyq().is_locally_discrete()
    assert discrete2().is_locally_discrete()


def test_infer_boundary_and_eval(toy):
    e = vchain(Atom("loop"), Atom("loop"))
    assert infer_boundary(toy, e) == ("idB", "idB")
    assert eval_pasting(toy, e) == "iB"
    w = WhiskR(Atom("loop"), "v")
    assert infer_boundary(toy, w) == ("v", "v")
    assert eval_pasting(toy, w) == "iv"
    assert eval_pasting(toy, IdOn("v")) == "iv"
    assert eval_pasting(toy, Assoc("idB", "idB", "v")) == "iv"
    assert eval_pasting(toy, RUnit("v")) == "iv"
    assert eval_pasting(toy, LUnit("v")) == "iv"


def test_eval_inverse_nodes(toy, loopy):
    assert eval_pasting(toy, Inv(Atom("loop"))) == "loop"
    with pytest.raises(InvertibilityError):
        eval_pasting(loopy, Inv(Atom("loop")))


def test_typing_errors(toy):
    with pytest.raises(TypingError):
        infer_boundary(toy, VComp(Atom("iv"), Atom("loop")))
    with pytest.raises(TypingError):
        infer_boundary(toy, WhiskL("v", Atom("loop")))
    with pytest.raises(TypingError):
        eval_pasting(toy, WhiskR(Atom("iv"), "v"))


def test_whisker_nesting_matches_cell_table(toy):
    e = WhiskL("idB", WhiskR(Atom("loop"), "v"))
    assert eval_pasting(toy, e) == whisker_left(
        toy, "idB", whisker_right(toy, "loop", "v")
    )


def test_validator_passes_known_instances(toy, loopy):
    for B in (toy, loopy, toyq(), iso2(), discrete2()):
        rep = validate_bicat(B)
        assert rep.passed, rep.violations
    stripped = dataclasses.replace(toy, strict=False)
    assert not stripped.strict
    assert validate_bicat(stripped).passed


def test_validator_catches_broken_vcomp(toy):
    vc = dict(toy.vcomp)
    vc[("loop", "iB")] = "iB"  # composing with the identity must give loop back
    rep = validate_bicat(dataclasses.replace(toy, vcomp=vc))
    assert not rep.passed


def test_validator_catches_broken_whisker(toy):
    wr = dict(toy.whisk_right)
    wr[("loop", "v")] = "iv"  # already iv; break the other entry instead
    wr[("iB", "v")] = "iv"
    rep = validate_bicat(dataclasses.replace(toy, whisk_right=wr))
    assert rep.passed  # those are the true values
    wr[("loop", "idB")] = "iB"
    rep = validate_bicat(dataclasses.replace(toy, whisk_right=wr))
    assert not rep.passed


def test_validator_catches_strict_flag_lie(toy):
    assoc = dict(toy.assoc)
    assoc[("idB", "idB", "idB")] = "loop"
    rep = validate_bicat(dataclasses.replace(toy, assoc=assoc))
    assert not rep.passed
    assert any("strict" in law for law in rep.laws_failed()) or rep.violations


def test_validator_catches_missing_table_entry(toy):
    hc = dict(toy.hcomp1)
    del hc[("idB", "v")]
    rep = validate_bicat(dataclasses.replace(toy, hcomp1=hc))
    assert not rep.passed


def test_construction_errors_name_the_entry(toy):
    with pytest.raises(StructureError, match=r"^one_cells\['v'\]: duplicate id$"):
        dataclasses.replace(toy, one_cells=toy.one_cells + toy.one_cells[-1:])
    hc = dict(toy.hcomp1)
    hc[("v", "ghost")] = "v"
    with pytest.raises(StructureError, match=r"^hcomp1\[\('v', 'ghost'\)\]: undeclared cell 'ghost'$"):
        dataclasses.replace(toy, hcomp1=hc)


def test_structural_violations_name_each_faulty_entry(toy):
    from bicfrac.core import structural_violations

    assert structural_violations(toy) == []
    hc = dict(toy.hcomp1)
    hc[("v", "idA")] = "idB"  # wrong endpoints
    hc[("v", "v")] = "v"  # not composable
    del hc[("idB", "v")]
    found = {(v.entry, v.detail) for v in structural_violations(dataclasses.replace(toy, hcomp1=hc))}
    assert ("hcomp1[('v', 'idA')]", "value 'idB' has wrong endpoints") in found
    assert ("hcomp1[('v', 'v')]", "extra entry: not a composable pair") in found
    assert ("hcomp1[('idB', 'v')]", "missing entry") in found


# `appendix_toy`'s arguments to `build_strict`.
TOY_SPEC = dict(
    name="toy",
    objects=["A", "B"],
    one_cells=[("idA", "A", "A"), ("idB", "B", "B"), ("v", "A", "B")],
    hcomp1={("idA", "idA"): "idA", ("idB", "idB"): "idB", ("v", "idA"): "v", ("idB", "v"): "v"},
    id1={"A": "idA", "B": "idB"},
    two_cells=[("loop", "idB", "idB")],
    id2_names={"idA": "iA", "idB": "iB", "v": "iv"},
    vcomp={("loop", "loop"): "iB"},
    whisk_left={("idB", "loop"): "loop"},
    whisk_right={("loop", "idB"): "loop", ("loop", "v"): "iv"},
)


def toy_spec(**tables) -> dict:
    """The toy's arguments with the named tables' entries replaced; a None value drops the entry."""
    spec = dict(TOY_SPEC)
    for table, changes in tables.items():
        entries = dict(spec[table])
        for key, value in changes.items():
            if value is None:
                del entries[key]
            else:
                entries[key] = value
        spec[table] = entries
    return spec


# Two parallel 1-cells ``a, b: X → Y`` with ``a∘idX = b``: composition is
# well typed and associative, but not unital at ``a``.
NON_UNITAL = dict(
    name="non-unital",
    objects=["X", "Y"],
    one_cells=[("idX", "X", "X"), ("idY", "Y", "Y"), ("a", "X", "Y"), ("b", "X", "Y")],
    hcomp1={
        ("idX", "idX"): "idX", ("idY", "idY"): "idY",
        ("a", "idX"): "b", ("idY", "a"): "a", ("b", "idX"): "b", ("idY", "b"): "b",
    },
    id1={"X": "idX", "Y": "idY"},
)

# One object with 1-cells ``a`` and ``b``: ``(a∘a)∘a = b`` but ``a∘(a∘a) = id``.
NON_ASSOCIATIVE = dict(
    name="non-associative",
    objects=["pt"],
    one_cells=[("idpt", "pt", "pt"), ("a", "pt", "pt"), ("b", "pt", "pt")],
    hcomp1={
        ("idpt", "idpt"): "idpt",
        ("idpt", "a"): "a", ("a", "idpt"): "a", ("idpt", "b"): "b", ("b", "idpt"): "b",
        ("a", "a"): "b", ("a", "b"): "idpt", ("b", "a"): "b", ("b", "b"): "idpt",
    },
    id1={"pt": "idpt"},
)


@pytest.mark.parametrize("spec, message", [
    (toy_spec(hcomp1={("idB", "v"): None}), "hcomp1[('idB', 'v')]: missing entry"),
    (toy_spec(hcomp1={("v", "idA"): "idB"}), "hcomp1[('v', 'idA')]: value 'idB' has wrong endpoints"),
    (toy_spec(vcomp={("loop", "loop"): None}), "vcomp[('loop', 'loop')]: missing entry"),
    (toy_spec(whisk_right={("loop", "v"): None}), "whisk_right[('loop', 'v')]: missing entry"),
    (NON_UNITAL, "runit['a']: value 'i_a' has wrong boundary"),
    (NON_ASSOCIATIVE, "assoc[('a', 'a', 'a')]: value 'i_idpt' has wrong boundary"),
], ids=["missing-composite", "composite-endpoints", "missing-vcomp", "missing-whisker",
        "non-unital", "non-associative"])
def test_build_strict_names_the_first_faulty_entry(spec, message):
    with pytest.raises(StructureError) as err:
        build_strict(**spec)
    assert str(err.value) == message


def test_build_strict_spec_builds_the_toy():
    assert build_strict(**TOY_SPEC) == appendix_toy()
