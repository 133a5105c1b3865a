"""Randomized invariants over pasting expressions, classes, and witnesses."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from bicfrac.builders import appendix_toy, arrow2, iso2, theorem_suite, toy_classes
from bicfrac.conditions import check_A, check_B, check_EF, recheck_witness
from bicfrac.core import (
    InvertibilityError,
    TypingError,
    assoc_cell,
    assoc_inv_cell,
    inverse_cell,
    is_invertible2,
    lunit_cell,
    runit_cell,
    two_cell_inverse,
    vcompose,
    vfold,
    whisker_left,
    whisker_right,
)
from bicfrac.fractions import materialize_fractions, reps_equivalent
from bicfrac.wclass import check_bf
from pasting_reference import (
    Assoc,
    AssocInv,
    Atom,
    HComp,
    IdOn,
    Inv,
    LUnit,
    LUnitInv,
    RUnit,
    RUnitInv,
    VComp,
    WhiskL,
    WhiskR,
    eval_pasting,
    infer_boundary,
    vchain,
)

BICATS = {"toy": appendix_toy(), "iso2": iso2(), "arrow2": arrow2()}

MODEST = settings(max_examples=60, deadline=None)


def leaf_exprs(B):
    out = []
    for t in B.two_cells:
        out.append(Atom(t.id))
    for c in B.one_cells:
        out.append(IdOn(c.id))
        out.append(RUnit(c.id))
        out.append(RUnitInv(c.id))
        out.append(LUnit(c.id))
        out.append(LUnitInv(c.id))
    for h in B.one_cells:
        for g in B.one_cells:
            if g.tgt != h.src:
                continue
            for f in B.one_cells:
                if f.tgt != g.src:
                    continue
                out.append(Assoc(h.id, g.id, f.id))
                out.append(AssocInv(h.id, g.id, f.id))
    return out


def grow(B, e, rng):
    """Wrap e in one random constructor that stays well typed."""
    f, g = infer_boundary(B, e)
    x = B.one(f).src
    y = B.one(f).tgt
    choices = [lambda: Inv(e)]
    outs = [c.id for c in B.one_cells if c.src == y]
    ins = [c.id for c in B.one_cells if c.tgt == x]
    if outs:
        h = outs[rng.randrange(len(outs))]
        choices.append(lambda h=h: WhiskL(h, e))
    if ins:
        k = ins[rng.randrange(len(ins))]
        choices.append(lambda k=k: WhiskR(e, k))
    stack = [t.id for t in B.two_cells if t.src == g]
    if stack:
        nxt = stack[rng.randrange(len(stack))]
        choices.append(lambda nxt=nxt: VComp(e, Atom(nxt)))
    side = [t.id for t in B.two_cells if B.one(t.src).tgt == x]
    if side:
        beside = side[rng.randrange(len(side))]
        choices.append(lambda beside=beside: HComp(e, Atom(beside)))
    return choices[rng.randrange(len(choices))]()


@st.composite
def pasting_exprs(draw):
    name = draw(st.sampled_from(sorted(BICATS)))
    B = BICATS[name]
    leaves = leaf_exprs(B)
    e = leaves[draw(st.integers(0, len(leaves) - 1))]
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 4))):
        e = grow(B, e, rng)
    return name, e


@MODEST
@given(pasting_exprs())
def test_eval_lands_on_inferred_boundary(case):
    name, e = case
    B = BICATS[name]
    f, g = infer_boundary(B, e)
    try:
        a = eval_pasting(B, e)
    except InvertibilityError:
        return
    assert B.src1(a) == f and B.tgt1(a) == g


@MODEST
@given(pasting_exprs())
def test_strict_flag_never_changes_results(case):
    name, e = case
    B = BICATS[name]
    stripped = dataclasses.replace(B, strict=False)
    try:
        a = eval_pasting(B, e)
    except InvertibilityError:
        a = None
    try:
        b = eval_pasting(stripped, e)
    except InvertibilityError:
        b = None
    assert a == b


# Each pasting factor as a tree node and as the table lookup that replaces it.
FACTORS = {
    "atom": (Atom, lambda B, a: a),
    "inv": (lambda a: Inv(Atom(a)), inverse_cell),
    "assoc": (Assoc, assoc_cell),
    "assoc_inv": (AssocInv, assoc_inv_cell),
    "runit": (RUnit, runit_cell),
    "runit_inv": (RUnitInv, lambda B, f: inverse_cell(B, runit_cell(B, f))),
    "lunit": (LUnit, lunit_cell),
    "lunit_inv": (LUnitInv, lambda B, f: inverse_cell(B, lunit_cell(B, f))),
    "lwhisk": (lambda g, a: WhiskL(g, Atom(a)), whisker_left),
    "rwhisk": (lambda a, f: WhiskR(Atom(a), f), whisker_right),
}
ARGS = {  # the kind of cell each argument is: 1 for a 1-cell, 2 for a 2-cell
    "atom": (2,), "inv": (2,), "assoc": (1, 1, 1), "assoc_inv": (1, 1, 1),
    "runit": (1,), "runit_inv": (1,), "lunit": (1,), "lunit_inv": (1,),
    "lwhisk": (1, 2), "rwhisk": (2, 1),
}
CHAIN_BICATS = {**BICATS, "loopy": appendix_toy(loop_square="loop")}


def outcome(thunk):
    """The cell a thunk returns, or the class of the bicfrac error it raises."""
    try:
        return thunk()
    except ValueError as exc:
        return type(exc)


def chain_outcomes(B, factors):
    """``eval_pasting`` of the chain's tree, and the same chain folded from lookups.

    The fold composes each factor as soon as it is evaluated, as a `VComp`
    node does, so both raise at the same factor.
    """

    def fold():
        out = None
        for kind, args in factors:
            cell = FACTORS[kind][1](B, *args)
            out = cell if out is None else vfold(B, out, cell)
        return out

    tree = vchain(*(FACTORS[kind][0](*args) for kind, args in factors))
    return outcome(lambda: eval_pasting(B, tree)), outcome(fold)


@st.composite
def factor_chains(draw):
    """Random factor chains, mostly ill typed, over lawful fixtures."""
    name = draw(st.sampled_from(sorted(CHAIN_BICATS)))
    B = CHAIN_BICATS[name]
    cells = {1: st.sampled_from([c.id for c in B.one_cells]),
             2: st.sampled_from([t.id for t in B.two_cells])}
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(FACTORS)))
        factors.append((kind, tuple(draw(cells[k]) for k in ARGS[kind])))
    return name, factors


@settings(max_examples=300, deadline=None)
@given(factor_chains())
def test_table_lookups_agree_with_eval_pasting(case):
    name, factors = case
    B = CHAIN_BICATS[name]
    tree, lookups = chain_outcomes(B, factors)
    assert tree == lookups
    if isinstance(tree, str):
        cells = [FACTORS[kind][1](B, *args) for kind, args in factors]
        assert vfold(B, *cells) == tree


@pytest.mark.parametrize("name,factors,error", [
    ("toy", [("assoc", ("v", "v", "idA"))], TypingError),  # v∘v is not composable
    ("toy", [("lwhisk", ("v", "loop"))], TypingError),  # loop lives over B, v starts at A
    ("toy", [("atom", ("iv",)), ("atom", ("loop",))], TypingError),  # v then idB
    ("loopy", [("atom", ("loop",)), ("inv", ("loop",))], InvertibilityError),
    ("loopy", [("atom", ("iv",)), ("atom", ("loop",)), ("inv", ("loop",))], TypingError),
    ("toy", [("runit_inv", ("v",)), ("lwhisk", ("idB", "iv")), ("assoc", ("idB", "v", "idA"))], "iv"),
])
def test_table_lookups_raise_where_eval_pasting_raises(name, factors, error):
    assert chain_outcomes(CHAIN_BICATS[name], factors) == (error, error)


@MODEST
@given(st.data())
def test_interchange_on_random_pairs(data):
    B = BICATS[data.draw(st.sampled_from(sorted(BICATS)))]
    beta = data.draw(st.sampled_from([t.id for t in B.two_cells]))
    y = B.one(B.two(beta).src).src
    pool = [t.id for t in B.two_cells if B.one(t.src).tgt == y]
    if not pool:
        return
    alpha = data.draw(st.sampled_from(pool))
    g, gp = B.two(alpha).src, B.two(alpha).tgt
    f, fp = B.two(beta).src, B.two(beta).tgt
    left = vcompose(B, whisker_right(B, beta, gp), whisker_left(B, f, alpha))
    right = vcompose(B, whisker_left(B, fp, alpha), whisker_right(B, beta, g))
    assert left == right


@MODEST
@given(st.data())
def test_inverse_is_an_involution(data):
    B = BICATS[data.draw(st.sampled_from(sorted(BICATS)))]
    a = data.draw(st.sampled_from([t.id for t in B.two_cells]))
    inv = two_cell_inverse(B, a)
    if inv is None:
        assert not is_invertible2(B, a)
    else:
        assert two_cell_inverse(B, inv) == a


@MODEST
@given(st.data())
def test_rep_equivalence_is_reflexive_and_symmetric(data):
    B = appendix_toy()
    W = toy_classes(B)[data.draw(st.sampled_from(["W", "Wmin"]))]
    loc = materialize_fractions(B, W, validate=False)
    cls = loc.classes[data.draw(st.sampled_from(sorted(loc.classes)))]
    r = data.draw(st.sampled_from(cls.reps))
    assert reps_equivalent(B, W, cls.src, cls.tgt, r, r)
    other = data.draw(st.sampled_from(cls.reps))
    assert reps_equivalent(B, W, cls.src, cls.tgt, r, other)
    assert reps_equivalent(B, W, cls.src, cls.tgt, other, r)


@MODEST
@given(st.data())
def test_class_partition_matches_pairwise_equivalence(data):
    B = appendix_toy()
    W = toy_classes(B)["W"]
    loc = materialize_fractions(B, W, validate=False)
    c1 = loc.classes[data.draw(st.sampled_from(sorted(loc.classes)))]
    c2 = loc.classes[data.draw(st.sampled_from(sorted(loc.classes)))]
    if (c1.src, c1.tgt) != (c2.src, c2.tgt):
        return
    same = reps_equivalent(B, W, c1.src, c1.tgt, c1.rep, c2.rep)
    assert same == (c1.id == c2.id)


@MODEST
@given(st.data())
def test_every_stored_rep_resolves_to_its_class(data):
    B = appendix_toy()
    W = toy_classes(B)[data.draw(st.sampled_from(["W", "Wmin"]))]
    loc = materialize_fractions(B, W, validate=False)
    cls = loc.classes[data.draw(st.sampled_from(sorted(loc.classes)))]
    rep = data.draw(st.sampled_from(cls.reps))
    assert loc.class_of(cls.src, cls.tgt, rep) == cls.id


SUITE = list(theorem_suite())


@MODEST
@given(st.data())
def test_passing_witnesses_survive_recheck(data):
    case = data.draw(st.sampled_from(SUITE))
    fam = data.draw(st.sampled_from(["A", "EF"]))
    i = data.draw(st.integers(1, 5 if fam == "A" else 3))
    try:
        if fam == "A":
            r = check_A(case.psfun, case.w_src, case.w_tgt, i)
        else:
            r = check_EF(case.psfun, case.w_src, i)
    except Exception:
        return
    if r.holds and r.witness is not None:
        assert recheck_witness(case.psfun, r, case.w_src, case.w_tgt)


def test_locally_discrete_fixtures_trivialize_the_unique_cell_conditions():
    from bicfrac.builders import discrete2, point_into_discrete2, trivial_one
    from bicfrac.wclass import WClass

    pt, d2 = trivial_one(), discrete2()
    F = point_into_discrete2(pt, d2)
    Wp = WClass(frozenset({"idpt"}), "W")
    assert check_A(F, Wp, WClass(frozenset({"idX", "idY"}), "W"), 4).holds
    assert check_B(F, Wp, 4).holds


def test_bf_verdict_stable_across_repeated_calls():
    B = appendix_toy()
    W = toy_classes(B)["W"]
    first = check_bf(B, W)
    second = check_bf(B, W)
    assert first.passed == second.passed
    assert {k: v.holds for k, v in first.verdicts.items()} == {
        k: v.holds for k, v in second.verdicts.items()
    }
