"""Decision procedures for the condition families and their cross-checks.

The expected verdicts and counterexamples below were derived by hand from
the table definitions before the checkers existed: the loop 2-cell
whiskered onto ``v`` equals the whiskered identity, so any class
containing ``v`` forces the two apart only over ``idB``, which pins every
failing condition to the pair ``(iB, loop)``.
"""

import dataclasses
import hashlib
import random

import pytest

from bicfrac import conditions
from bicfrac.builders import appendix_toy, strict_psfun, theorem_suite, toy_classes
from bicfrac.conditions import (
    _problem_a5,
    a5_composite,
    check_A,
    check_B,
    check_EF,
    check_X,
    check_family,
    cross_validate_theorems,
    is_weak_equivalence,
    recheck_witness,
)
from bicfrac.core import PreconditionError, TypingError
from bicfrac.fractions import materialize_fractions, universal_pseudofunctor
from bicfrac.psfun import identity_psfun
from bicfrac.wclass import WClass
from pasting_reference import (
    Assoc,
    AssocInv,
    Atom,
    Inv,
    VComp,
    WhiskL,
    WhiskR,
    build_a5_composite,
    eval_pasting,
)
from test_fractions import bench_corpus


@pytest.fixture(scope="module")
def toy():
    return appendix_toy()


@pytest.fixture(scope="module")
def classes(toy):
    return toy_classes(toy)


@pytest.fixture(scope="module")
def suite():
    return {c.name: c for c in theorem_suite()}


@pytest.fixture(scope="module")
def UW(toy, classes):
    return universal_pseudofunctor(materialize_fractions(toy, classes["W"]))


# -- the A family over the scenario suite -------------------------------------

A_FAILURES = {
    "identity-toy-full": {},
    "identity-toy-min": {},
    "identity-toy-mixed": {
        "A2": ("A", "B", "A", "idA", "v"),
        "A4": ("iB", "loop", "v"),
    },
    "collapse-loop-min": {"A4": ("iB", "loop", "idB")},
    "collapse-loop-full": {},
    "point-into-discrete2": {"A1": ("Y",)},
    "identity-iso2-mixed": {},
}


@pytest.mark.parametrize("name", sorted(A_FAILURES))
def test_a_family_verdicts(suite, name):
    case = suite[name]
    fails = {}
    for i in range(1, 6):
        r = check_A(case.psfun, case.w_src, case.w_tgt, i)
        assert r.examined >= 0
        if not r.holds:
            assert r.counterexample is not None
            fails[r.tag] = r.counterexample
        else:
            assert r.counterexample is None
    assert fails == A_FAILURES[name]


def test_a4_counterexample_content_is_the_collapse_pair(suite):
    r = check_A(*_args(suite["identity-toy-mixed"]), 4)
    g1, g2, z = r.counterexample
    assert {g1, g2} == {"iB", "loop"} and z == "v"


def _args(case):
    return case.psfun, case.w_src, case.w_tgt


def test_a_witnesses_recheck(suite):
    for case in suite.values():
        for i in range(1, 6):
            r = check_A(*_args(case), i)
            if r.holds and r.witness is not None:
                assert recheck_witness(case.psfun, r, case.w_src, case.w_tgt), (
                    case.name,
                    r.tag,
                )


def test_check_a_preconditions(toy, classes):
    F = identity_psfun(toy)
    with pytest.raises(PreconditionError, match="BF1"):
        check_A(F, classes["WnoId"], classes["W"], 1)
    with pytest.raises(PreconditionError, match="saturated target"):
        check_A(F, classes["W"], classes["Wmin"], 1)
    for which in (6, 0, True, False, 1.0, "1"):
        with pytest.raises(ValueError, match="condition index"):
            check_A(F, classes["W"], classes["W"], which)
    for which in (True, 4):
        with pytest.raises(ValueError, match="condition index"):
            check_EF(F, classes["W"], which)


# -- the composite that transports a 2-cell along the comparison data ----------


def test_a5_composite_on_identity_data(toy, classes):
    F = identity_psfun(toy)
    e = build_a5_composite(F, "idB", "idB", "idB", "idB", "idB", "idB", "iB", "iB")
    assert eval_pasting(toy, e) == "iB"
    e = build_a5_composite(F, "idB", "idB", "idB", "idB", "idB", "idB", "iB", "loop")
    assert eval_pasting(toy, e) == "loop"


def test_a5_composite_factor_shape(toy):
    F = identity_psfun(toy)
    e = build_a5_composite(F, "idB", "idB", "idB", "idB", "idB", "idB", "iB", "loop")
    factors = []
    while isinstance(e, VComp):
        factors.append(e.lower)
        e = e.upper
    factors.append(e)
    factors.reverse()
    kinds = [type(f) for f in factors]
    assert kinds == [AssocInv, WhiskL, Assoc, WhiskR, AssocInv, WhiskL, Assoc]
    assert isinstance(factors[1].expr, Atom)
    assert isinstance(factors[5].expr, Inv)
    mid = factors[3].expr
    chain = []
    while isinstance(mid, VComp):
        chain.append(mid.lower)
        mid = mid.upper
    chain.append(mid)
    chain.reverse()
    assert [type(c) for c in chain] == [Inv, Atom, Atom]


def test_a5_composite_rejects_mismatched_boundaries(toy):
    F = identity_psfun(toy)
    with pytest.raises(TypingError):
        build_a5_composite(F, "idB", "idB", "v", "idB", "idB", "idB", "iB", "loop")


def test_a5_nontrivial_universal_is_solved(toy, classes):
    # The loop as a 2-cell between whiskered identities needs the composite
    # route: the witness transports it through sigma and the compositors.
    r = check_A(identity_psfun(toy), classes["W"], classes["W"], 5)
    assert r.holds
    u, w = r.witness
    assert recheck_witness(identity_psfun(toy), r, classes["W"], classes["W"])


# -- A5's composite by table lookups, against the reference tree ---------------


def tree_a5_composite(F, *args):
    """`a5_composite` evaluated as the reference pasting tree."""
    return eval_pasting(F.target, build_a5_composite(F, *args))


def outcome(thunk):
    """What a thunk returns, or the class of the error it raises."""
    try:
        return thunk()
    except (ValueError, KeyError) as exc:
        return type(exc)


def a5_candidate_outcomes(F, W_A, W_B):
    """``(lookups, tree)`` outcomes of the composite at each A5 candidate."""
    prob = _problem_a5(F, W_A, W_B)
    out = []
    for u in prob.universals():
        f1, f2, v_b, _ = u
        for v_a, z_b, zp_b, sig, alpha_a in prob.candidates(u):
            args = (F, f1, f2, v_b, v_a, z_b, zp_b, sig, alpha_a)
            out.append((outcome(lambda: a5_composite(*args)), outcome(lambda: tree_a5_composite(*args))))
    return out


def with_tree_a5(monkeypatch, thunk):
    """The outcome of ``thunk`` with A5 evaluating its composite as a tree."""
    with monkeypatch.context() as m:
        m.setattr(conditions, "a5_composite", tree_a5_composite)
        return outcome(thunk)


LOOP_MAPS = [(3, 1), (3, 3), (4, 1), (4, 2), (4, 4), (5, 1), (5, 5)]
LOOP_PAIRS = [("Wmin", "Wmin"), ("Wmin", "W"), ("W", "W")]


def loop_map(k, d):
    """The `bench/corpus.py` map ``cyclic_loop(k) -> cyclic_loop(d)`` and both sides' classes.

    The identity when ``d == k``, the loop quotient otherwise.
    """
    corpus = bench_corpus()
    insts = [corpus.cyclic_loop(n, random.Random(n)) for n in dict.fromkeys((k, d))]
    built = [inst.build() for inst in insts]
    classes = [{c: WClass.of(B, m, c) for c, m in inst.classes.items()} for inst, B in zip(insts, built)]
    if d == k:
        return identity_psfun(built[0]), classes[0], classes[0]
    F = strict_psfun(built[0], built[1], **corpus.loop_quotient(*insts))
    return F, classes[0], classes[1]


def test_a5_composite_matches_the_tree_at_every_suite_candidate(suite):
    seen = 0
    for case in suite.values():
        for lookups, tree in a5_candidate_outcomes(*_args(case)):
            assert lookups == tree, case.name
            seen += 1
    assert seen == 76


@pytest.mark.parametrize("k,d", LOOP_MAPS)
def test_a5_composite_matches_the_tree_on_loop_maps(k, d, monkeypatch):
    F, s_classes, t_classes = loop_map(k, d)
    for a, b in LOOP_PAIRS:
        W_A, W_B = s_classes[a], t_classes[b]
        outcomes = a5_candidate_outcomes(F, W_A, W_B)
        assert outcomes, (a, b)
        for lookups, tree in outcomes:
            assert lookups == tree, (a, b)
        report = outcome(lambda: check_A(F, W_A, W_B, 5))
        assert with_tree_a5(monkeypatch, lambda: check_A(F, W_A, W_B, 5)) == report, (a, b)


def test_mutated_a5_witnesses_recheck_as_with_the_tree(suite, monkeypatch):
    instances = [_args(case) for case in suite.values()]
    for k, d in LOOP_MAPS:
        F, s_classes, t_classes = loop_map(k, d)
        instances += [(F, s_classes[a], t_classes[b]) for a, b in LOOP_PAIRS]
    seen = set()
    for F, W_A, W_B in instances:
        r = check_A(F, W_A, W_B, 5)
        if r.witness is None:
            continue
        u, w = r.witness
        pool = ["ghost"] + [
            x for B in (F.source, F.target)
            for x in (*B.objects, *(c.id for c in B.one_cells), *(t.id for t in B.two_cells))
        ]
        for i in range(len(w)):
            for x in dict.fromkeys(pool):
                forged = dataclasses.replace(r, witness=(u, w[:i] + (x,) + w[i + 1:]))
                lookups = outcome(lambda: recheck_witness(F, forged, W_A, W_B))
                tree = with_tree_a5(monkeypatch, lambda: recheck_witness(F, forged, W_A, W_B))
                assert lookups == tree, (F.name, i, x)
                seen.add(lookups)
    # True only comes back from a forgery whose composite was evaluated, and
    # a forgery naming an undeclared cell is rejected, not raised on.
    assert seen == {True, False}


def test_a5_reports_agree_with_the_tree_on_mutated_maps(suite, monkeypatch):
    # Each compositor and 2-cell image in turn is dropped or replaced by any
    # target 2-cell.  A compositor that is both ill typed and not invertible
    # makes the lookups raise InvertibilityError where the tree, typed
    # before it is evaluated, raised TypingError; A5's `holds` rejects the
    # candidate either way, so the reports must agree.
    loopy = appendix_toy(loop_square="loop")
    instances = [_args(case) for case in suite.values()]
    instances.append((identity_psfun(loopy), toy_classes(loopy)["W"], toy_classes(loopy)["W"]))
    F, s_classes, t_classes = loop_map(4, 2)
    instances += [(F, s_classes[a], t_classes[b]) for a, b in LOOP_PAIRS]
    verdicts = set()
    for F, W_A, W_B in instances:
        for table in ("psi", "f2"):
            entries = getattr(F, table)
            for key in entries:
                for new in [None] + [t.id for t in F.target.two_cells]:
                    mutated = dict(entries)
                    if new is None:
                        del mutated[key]
                    else:
                        mutated[key] = new
                    G = dataclasses.replace(F, **{table: mutated})
                    report = outcome(lambda: check_A(G, W_A, W_B, 5))
                    assert with_tree_a5(monkeypatch, lambda: check_A(G, W_A, W_B, 5)) == report, (table, key, new)
                    verdicts.add(getattr(report, "holds", report))
    assert verdicts == {True, False, KeyError}


# -- the B family --------------------------------------------------------------


def test_b_family_on_universal_map(UW, classes):
    for i in range(1, 6):
        r = check_B(UW, classes["W"], i)
        assert r.holds, r
        if r.witness is not None:
            assert recheck_witness(UW, r, classes["W"])


def test_b_precondition_requires_equivalence_images(toy, classes):
    with pytest.raises(PreconditionError, match="internal equivalence"):
        check_B(identity_psfun(toy), classes["W"], 1)


def test_b4_uses_the_class_member_that_separates(UW, classes):
    r = check_B(UW, classes["W"], 4)
    u, w = r.witness
    assert set(u) == {"iB", "loop"}
    assert w == ("v",)


# -- the EF family -------------------------------------------------------------


def test_ef3_counterexample_is_the_collapsed_pair(UW, classes):
    r = check_EF(UW, classes["W"], 3)
    assert not r.holds
    f1, f2, cls, a, b = r.counterexample
    assert (f1, f2) == ("idB", "idB")
    assert {a, b} == {"iB", "loop"}
    assert "two distinct" in r.detail


def test_ef_family_on_identity(toy, classes):
    F = identity_psfun(toy)
    for i in range(1, 4):
        r = check_EF(F, classes["Wmin"], i)
        assert r.holds, r.tag
        assert recheck_witness(F, r, classes["Wmin"])


def test_ef1_fails_when_identities_do_not_compose_on_the_nose(UW, classes):
    # The materialized composition table routes the identity cospan at B
    # through the apex A, so no section pair composes to the identity span.
    r = check_EF(UW, classes["W"], 1)
    assert not r.holds
    assert r.counterexample == ("B",)


def test_ef3_on_collapse_reports_lost_distinction(toy):
    from bicfrac.builders import collapse_loop, toyq

    F = collapse_loop(toy, toyq())
    r = check_EF(F, toy_classes(toy)["Wmin"], 3)
    assert not r.holds
    assert "two distinct" in r.detail


# -- the X family and weak equivalence -----------------------------------------


def test_weak_equivalence_verdicts(toy, classes, UW):
    assert is_weak_equivalence(identity_psfun(toy)).passed
    rep = is_weak_equivalence(UW)
    assert not rep.passed
    x2b = rep["X2b"]
    assert not x2b.holds
    assert set(x2b.counterexample) == {"iB", "loop"}
    assert {r.tag for r in rep.reports} == {"X1", "X2a", "X2b", "X2c"}
    with pytest.raises(KeyError):
        rep["X9"]


def test_universal_map_at_minimal_class_is_weak_equivalence(toy, classes):
    Umin = universal_pseudofunctor(materialize_fractions(toy, classes["Wmin"]))
    assert is_weak_equivalence(Umin).passed


def test_check_x_rejects_unknown_tags(toy):
    for which in ("X3", "B1", 1, True):
        with pytest.raises(ValueError, match="unknown condition"):
            check_X(identity_psfun(toy), which)


def test_a_missing_class_is_a_value_error_before_any_precondition(toy, classes):
    F, W = identity_psfun(toy), classes["W"]
    calls = [
        (lambda: check_family(F, "A", W, None), "A1 needs the target class"),
        (lambda: check_family(F, "A", None, W), "A1 needs the source class"),
        (lambda: check_family(F, "B"), "B2 needs the source class"),
        (lambda: check_family(F, "EF"), "EF2 needs the source class"),
        (lambda: check_A(F, W, None, 3), "A3 needs the target class"),
        (lambda: check_B(F, None, 1), "B1 needs the source class"),
        (lambda: check_B(F, None, 2), "B2 needs the source class"),
        (lambda: check_B(F, None, 3), "B3 needs the source class"),
        (lambda: check_EF(F, None, 2), "EF2 needs the source class"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
    assert check_EF(F, None, 1).holds
    assert [r.tag for r in check_family(F, "X")] == ["X1", "X2a", "X2b", "X2c"]


def test_replaying_a_witness_without_its_class_is_a_value_error(toy, classes):
    F, W = identity_psfun(toy), classes["W"]
    a1, ef2 = check_A(F, W, W, 1), check_EF(F, W, 2)
    for report, W_A, W_B, message in [
        (a1, W, None, "A1 needs the target class"),
        (a1, None, W, "A1 needs the source class"),
        (ef2, None, None, "EF2 needs the source class"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            recheck_witness(F, report, W_A, W_B)
    assert recheck_witness(F, check_EF(F, None, 1))
    for which in (1, 3):  # B1 and B3 read no class, though B's precondition does
        assert recheck_witness(F, check_B(F, classes["Wmin"], which)) is True


def test_mutated_witness_is_rejected(toy, classes):
    F = identity_psfun(toy)
    r = check_A(F, classes["W"], classes["W"], 1)
    u, _ = r.witness
    forged = type(r)(r.tag, True, (u, ("A", "B", "idA", "idA")), None, r.examined)
    assert not recheck_witness(F, forged, classes["W"], classes["W"])
    for rep in (r, check_EF(F, classes["Wmin"], 3)):
        u, w = rep.witness
        shapes = ((u,), (u, w, ()), (1, 2), (u, None), ([["A"]], ["x"]))
        for bad in ((u, w[:-1]), (u, w + w[-1:]), (u[:-1], w), (u + u[-1:], w), *shapes):
            forged = dataclasses.replace(rep, witness=bad)
            assert recheck_witness(F, forged, classes["W"], classes["W"]) is False, (rep.tag, bad)
        as_json = dataclasses.replace(rep, witness=[list(u), list(w)])
        assert recheck_witness(F, as_json, classes["W"], classes["W"]) is True, rep.tag
        for tag in ("Z9", 1, ["A1"]):
            forged = dataclasses.replace(rep, tag=tag)
            assert recheck_witness(F, forged, classes["W"], classes["W"]) is False, tag
    vacuous = type(r)("A1", True, None, None, 0)
    with pytest.raises(ValueError):
        recheck_witness(F, vacuous, classes["W"], classes["W"])


# -- every report and every replay, pinned --------------------------------------


X_TAGS = ("X1", "X2a", "X2b", "X2c")


def condition_reports(F, W_A, W_B):
    """Each A, B, EF and X report on one instance, in tag order.

    A check that raises `PreconditionError` contributes its tag and message.
    """
    out = []
    for prefix, check, args, upto in (
        ("A", check_A, (F, W_A, W_B), 5),
        ("B", check_B, (F, W_A), 5),
        ("EF", check_EF, (F, W_A), 3),
    ):
        for i in range(1, upto + 1):
            try:
                out.append(check(*args, i))
            except PreconditionError as e:
                out.append((f"{prefix}{i}", "PreconditionError", str(e)))
    return out + [check_X(F, t) for t in X_TAGS]


def digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# sha256 of every report on the suite and on the loop maps at each class
# pair, and of the accepted single-position forgeries of the suite's
# witnesses; both generated by the exhaustive search before the candidate
# generators became the only statement of each condition's typing.
REPORTS_DIGEST = "fa56546c59cc74e64d02f6927df51f4476840c17f4b0bd1982867ef3dd6d8600"
FORGERY_DIGEST = "832d3de5a5c85c411d30ee2074b3dd7fcccd52a3593791a341d19a8a2caea77d"


def suite_and_loop_instances(suite):
    """The suite's instances, then each loop map at each class pair: 28 in all."""
    instances = [_args(case) for case in suite.values()]
    for k, d in LOOP_MAPS:
        F, s_classes, t_classes = loop_map(k, d)
        instances += [(F, s_classes[a], t_classes[b]) for a, b in LOOP_PAIRS]
    return instances


def test_condition_reports_match_the_pinned_digest(suite):
    instances = suite_and_loop_instances(suite)
    rows = [
        dataclasses.astuple(r) if isinstance(r, conditions.ConditionReport) else r
        for inst in instances
        for r in condition_reports(*inst)
    ]
    assert len(rows) == 17 * len(instances)
    assert digest(rows) == REPORTS_DIGEST


def test_every_single_position_forgery_replays_as_a_bool(suite):
    accepted, tried = [], 0
    for case in suite.values():
        F = case.psfun
        pool = ["ghost"] + list(dict.fromkeys(
            x for B in (F.source, F.target)
            for x in (*B.objects, *(c.id for c in B.one_cells), *(t.id for t in B.two_cells))
        ))
        for r in condition_reports(*_args(case)):
            if not isinstance(r, conditions.ConditionReport) or r.witness is None:
                continue
            u, w = r.witness
            cells = u + w
            for i in range(len(cells)):
                for x in pool:
                    forged = cells[:i] + (x,) + cells[i + 1:]
                    witness = (forged[:len(u)], forged[len(u):])
                    ok = recheck_witness(F, dataclasses.replace(r, witness=witness), case.w_src, case.w_tgt)
                    assert type(ok) is bool, (case.name, r.tag, i, x)
                    tried += 1
                    if ok:
                        accepted.append((case.name, r.tag, i, x))
    assert tried > 3000
    assert digest(sorted(accepted)) == FORGERY_DIGEST


# -- cross-validation ----------------------------------------------------------

COVERAGE = {
    "identity-toy-full": (True, False, False, False),
    "identity-toy-min": (True, True, True, True),
    "identity-toy-mixed": (True, False, True, True),
    "collapse-loop-min": (True, True, True, False),
    "collapse-loop-full": (True, False, False, False),
    "point-into-discrete2": (True, True, True, True),
    "identity-iso2-mixed": (True, False, True, True),
}

SUBCHECKS = (
    "lift-biconditional",
    "minimal-class-agreement",
    "strict-family-implication",
    "equivalence-reflection",
)


@pytest.mark.parametrize("name", sorted(COVERAGE))
def test_cross_validation_finds_no_disagreement(suite, name):
    case = suite[name]
    rep = cross_validate_theorems(case.psfun, case.w_src, case.w_tgt)
    assert rep.passed, rep.findings
    assert tuple(rep[s].ran for s in SUBCHECKS) == COVERAGE[name]
    for s in rep.subchecks:
        if s.ran:
            assert s.agrees is True
        else:
            assert s.agrees is None and s.reason.startswith("skipped")


def test_cross_validation_reports_vacuous_implications(suite):
    rep = cross_validate_theorems(*_args(suite["collapse-loop-min"]))
    assert "vacuous" in rep["strict-family-implication"].reason
    rep = cross_validate_theorems(*_args(suite["point-into-discrete2"]))
    assert "EF1" in rep["strict-family-implication"].reason


# sha256 of every sub-check (name, ran, agrees, reason) and the findings of
# `cross_validate_theorems` on the suite and the loop maps at each class
# pair, generated while each sub-check still decided its own families.
THEOREMS_DIGEST = "31bad2b3b83aee00c7729d24dd7ee5cd7e0f9cf9bb763502abedef9b2acac107"


@pytest.fixture(scope="module")
def theorem_instances(suite):
    return suite_and_loop_instances(suite)


def test_cross_validation_reports_match_the_pinned_digest(theorem_instances):
    rows = []
    for inst in theorem_instances:
        rep = cross_validate_theorems(*inst)
        rows.append((tuple(map(dataclasses.astuple, rep.subchecks)), rep.findings))
    assert len(rows) == 28
    assert digest(rows) == THEOREMS_DIGEST


def test_cross_validation_decides_each_condition_at_most_once(theorem_instances, monkeypatch):
    decided = []
    decide, check_ef3 = conditions._decide, conditions._check_ef3
    monkeypatch.setattr(conditions, "_decide", lambda tag, prob: decided.append(tag) or decide(tag, prob))
    monkeypatch.setattr(conditions, "_check_ef3", lambda F: decided.append("EF3") or check_ef3(F))
    for i, inst in enumerate(theorem_instances):
        decided.clear()
        cross_validate_theorems(*inst)
        assert "A1" in decided and "X1" in decided, i
        twice = sorted({t for t in decided if decided.count(t) > 1})
        assert not twice, (i, twice)
