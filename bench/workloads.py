"""The three workloads: the corpus each one sets up and what one task does.

A task has two halves.  ``decide`` is the work a user waits for and is the
only part timed; it parses a fresh `FinBicat` from a document, so no cache
inside bicfrac is warm when it starts.  ``check`` holds the output to the
oracle and counts towards neither the task time nor ``wall_s``.

Every call into bicfrac goes through ``Tracer.call`` with a span name
``<module>.<function>``; see spans.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from bicfrac import (
    ConditionReport,
    Presentation,
    WClass,
    check_A,
    check_bf,
    cross_validate_theorems,
    export_presentation,
    identity_psfun,
    induce_g_tilde,
    is_weak_equivalence,
    load_document,
    materialize_fractions,
    parse_presentation,
    quasi_units,
    recheck_witness,
    saturate,
    universal_pseudofunctor,
    validate_bicat,
    validate_psfun,
)
from bicfrac import cli
from bicfrac.builders import strict_psfun

import corpus
import oracle
from spans import Tracer


class SetupError(RuntimeError):
    """A generated instance or document failed its own acceptance check."""


@dataclass
class Task:
    id: str
    decide: Callable[[], dict]
    check: Callable[[dict], list[str]]


# -- helpers shared by the workloads -------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``bicfrac <argv>`` in this process; returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["bicfrac", *argv]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main()
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    finally:
        sys.argv = saved
    return code, out.getvalue() + err.getvalue()


def cli_span(command: str) -> str:
    return "cli." + command.replace("-", "_")


def accept_instance(tr: Tracer, B, classes: dict[str, list[str]]) -> dict[str, WClass]:
    """Validate a generated instance and the closure axioms of its classes."""
    if not tr.call("core.validate_base", validate_bicat, B).passed:
        raise SetupError(f"generated instance {B.name} fails validate_bicat")
    out = {}
    for name, members in classes.items():
        W = WClass.of(B, members, name)
        report = tr.call("wclass.check_bf", check_bf, B, W)
        tr.count("wclass.bf_checked", bf_checked(report))
        if not report.passed:
            raise SetupError(f"class {name} of {B.name} fails the closure axioms")
        out[name] = W
    return out


def write_document(tr: Tracer, path: Path, pres: Presentation) -> str:
    text = corpus.clear_strict_flag(tr.call("presentation.export", export_presentation, pres))
    path.write_text(text, encoding="utf-8")
    tr.count("presentation.bytes_written", len(text.encode()))
    return text


def accept_document(tr: Tracer, path: Path) -> None:
    """A generated document must pass ``bicfrac validate`` as written."""
    code, text = tr.call("cli.validate", run_cli, ["validate", str(path), "--format", "machine"])
    if code != 0:
        raise SetupError(f"generated document {path.name} fails validation: {text[:500]}")


def report_summary(r: ConditionReport) -> list:
    return [r.tag, r.holds, r.witness, r.counterexample, r.examined]


def replay(tr: Tracer, problems: list[str], F, reports, W_A=None, W_B=None) -> None:
    """Every witness of a holding condition must pass `recheck_witness`."""
    for r in reports:
        if r.holds and r.witness is not None:
            if not tr.call("conditions.recheck", recheck_witness, F, r, W_A, W_B):
                problems.append(f"witness of {r.tag} does not replay")


def count_localization(tr: Tracer, loc) -> None:
    reps = sum(len(c.reps) for c in loc.classes.values())
    tr.count("fractions.spans", len(loc.spans))
    tr.count("fractions.classes", len(loc.classes))
    tr.count("fractions.reps", reps)


def bf_checked(report) -> int:
    return sum(v.checked for v in report.verdicts.values())


# -- chain-localize ------------------------------------------------------------
#
# chain(n) at every 1-cell and at the identities: many spans, no 2-cells but
# identities.  Time goes to materialization and to validating its output.

CHAIN_DECK = {
    "full": [("all", 4)] * 10 + [("all", 3)] * 12 + [("all", 2)] * 2 + [("ids", 6), ("ids", 5)],
    "tiny": [("all", 3), ("ids", 3)],
}


def chain_setup(rng: random.Random, size: str, tr: Tracer, root: Path) -> list[Task]:
    deck = list(CHAIN_DECK[size])
    rng.shuffle(deck)
    tasks = []
    for i, (cls, n) in enumerate(deck):
        inst = corpus.chain(n, rng)
        B = tr.call("builders.build", inst.build)
        classes = accept_instance(tr, B, inst.classes)
        path = root / f"chain{n}-{i}.json"
        text = write_document(tr, path, Presentation(B, classes, {}, B.name))
        accept_document(tr, path)
        tasks.append(Task(
            f"chain{n}-{cls}#{i}",
            partial(chain_decide, tr, path, cls, len(text.encode())),
            partial(chain_check, tr, n, cls),
        ))
    return tasks


def chain_decide(tr: Tracer, path: Path, cls: str, nbytes: int) -> dict:
    pres = tr.call("presentation.load", load_document, path)
    tr.count("presentation.bytes_read", nbytes)
    B, W = pres.bicat, pres.classes[cls]
    bf = tr.call("wclass.check_bf", check_bf, B, W)
    loc = tr.call("fractions.materialize", materialize_fractions, B, W, validate=False)
    valid = tr.call("core.validate_loc", validate_bicat, loc.bicat)
    U = tr.call("fractions.universal", universal_pseudofunctor, loc)
    u_valid = tr.call("psfun.validate", validate_psfun, U)
    weq = tr.call("conditions.is_weak_equivalence", is_weak_equivalence, U)
    count_localization(tr, loc)
    tr.count("wclass.bf_checked", bf_checked(bf))
    tr.count("conditions.examined", sum(r.examined for r in weq.reports))
    return {
        "bf": bf.passed,
        "spans": len(loc.bicat.one_cells),
        "classes": len(loc.bicat.two_cells),
        "loc_valid": valid.passed,
        "U_valid": u_valid.passed,
        "weq": weq.passed,
        "X": [report_summary(r) for r in weq.reports],
        "_U": U,
        "_weq": weq,
    }


def chain_check(tr: Tracer, n: int, cls: str, out: dict) -> list[str]:
    problems: list[str] = []
    spans, classes = oracle.chain_sizes(n, cls)
    oracle.expect(problems, "closure axioms hold", out["bf"], True)
    oracle.expect(problems, "spans", out["spans"], spans)
    oracle.expect(problems, "classes", out["classes"], classes)
    oracle.expect(problems, "localization validates", out["loc_valid"], True)
    oracle.expect(problems, "universal map validates", out["U_valid"], True)
    # Inverting only identities changes nothing, so U is then an equivalence;
    # inverting every 1-cell of a chain with two or more objects creates
    # 1-cells n-1 -> 0 that U cannot reach.
    oracle.expect(problems, "U is a weak equivalence", out["weq"], cls == "ids" or n == 1)
    replay(tr, problems, out["_U"], out["_weq"].reports)
    return problems


# -- loop-reps -------------------------------------------------------------------
#
# cyclic_loop(k) with the identity and the quotients onto cyclic_loop(d):
# few spans, many 2-cells.  Time goes to the lift and the condition searches.

LOOP_DECK = {
    "full": [(3, 1), (3, 3)] + [(4, 1), (4, 2), (4, 4)] * 2 + [(5, 1), (5, 5)],
    "tiny": [(2, 1), (2, 2)],
}
LOOP_PAIRS = [("Wmin", "Wmin"), ("Wmin", "W"), ("W", "W")]


def loop_setup(rng: random.Random, size: str, tr: Tracer, root: Path) -> list[Task]:
    tasks = []
    for i, (k, d) in enumerate(LOOP_DECK[size]):
        src = corpus.cyclic_loop(k, rng)
        S = tr.call("builders.build", src.build)
        s_classes = accept_instance(tr, S, src.classes)
        path = root / f"loop{k}-{i}.json"
        nbytes = 0
        if d == k:
            psfuns, refs = {}, {}
        else:
            tgt = corpus.cyclic_loop(d, rng)
            T = tr.call("builders.build", tgt.build)
            t_classes = accept_instance(tr, T, tgt.classes)
            F = tr.call("builders.strict_psfun", strict_psfun, S, T,
                        **corpus.loop_quotient(src, tgt), name="q")
            if not tr.call("psfun.validate", validate_psfun, F).passed:
                raise SetupError(f"quotient cyclic_loop({k}) -> cyclic_loop({d}) fails validation")
            tpath = root / f"loop{d}-{i}-target.json"
            nbytes += len(write_document(tr, tpath, Presentation(T, t_classes, {}, T.name)).encode())
            accept_document(tr, tpath)
            psfuns, refs = {"q": F}, {"q": ("self", tpath.name)}
        pres = Presentation(S, s_classes, psfuns, S.name, refs)
        nbytes += len(write_document(tr, path, pres).encode())
        accept_document(tr, path)
        for a, b in LOOP_PAIRS:
            tasks.append(Task(
                f"loop{k}to{d}-{a}-{b}#{i}",
                partial(loop_decide, tr, path, d != k, a, b, nbytes),
                partial(loop_check, tr, k, d, a, b),
            ))
    rng.shuffle(tasks)
    return tasks


def loop_decide(tr: Tracer, path: Path, quotient: bool, a: str, b: str, nbytes: int) -> dict:
    pres = tr.call("presentation.load", load_document, path)
    tr.count("presentation.bytes_read", nbytes)
    S = pres.bicat
    if quotient:
        F = pres.psfuns["q"]
        t_classes = pres.ref_docs[pres.psfun_refs["q"][1]].classes
    else:
        F = tr.call("psfun.identity", identity_psfun, S)
        t_classes = pres.classes
    ws, wt = pres.classes[a], t_classes[b]
    a_reports = [tr.call("conditions.check_A", check_A, F, ws, wt, i) for i in range(1, 6)]
    src_loc = tr.call("fractions.materialize", materialize_fractions, S, ws, validate=False)
    sat = tr.call("wclass.saturate", saturate, F.target, wt).members
    tgt_loc = tr.call("fractions.materialize", materialize_fractions, F.target, sat, validate=False)
    src_valid = tr.call("core.validate_loc", validate_bicat, src_loc.bicat)
    tgt_valid = tr.call("core.validate_loc", validate_bicat, tgt_loc.bicat)
    lift = tr.call("psfun.lift", induce_g_tilde, F, ws, wt, source_loc=src_loc, target_loc=tgt_loc)
    weq = tr.call("conditions.is_weak_equivalence", is_weak_equivalence, lift.psfun)
    rechecks = [
        tr.call("conditions.recheck", recheck_witness, F, r, ws, wt)
        for r in a_reports if r.holds and r.witness is not None
    ]
    theorems = tr.call("conditions.cross_validate", cross_validate_theorems, F, ws, wt)
    for loc in (src_loc, tgt_loc):
        count_localization(tr, loc)
    tr.count("conditions.examined", sum(r.examined for r in (*a_reports, *weq.reports)))
    return {
        "A": [report_summary(r) for r in a_reports],
        "source": [len(src_loc.bicat.one_cells), len(src_loc.bicat.two_cells)],
        "target": [len(tgt_loc.bicat.one_cells), len(tgt_loc.bicat.two_cells)],
        "saturated": sorted(sat.members) == sorted(wt.members),
        "valid": [src_valid.passed, tgt_valid.passed],
        "lift_weq": weq.passed,
        "X": [report_summary(r) for r in weq.reports],
        "rechecks": rechecks,
        "findings": list(theorems.findings),
        "subchecks": [[s.name, s.ran, s.agrees] for s in theorems.subchecks],
        "_lift": lift.psfun,
        "_weq": weq,
    }


def loop_check(tr: Tracer, k: int, d: int, a: str, b: str, out: dict) -> list[str]:
    problems: list[str] = []
    oracle.expect(problems, "source localization size", out["source"], list(oracle.loop_sizes(k, a)))
    # Nothing composes into Wmin or W from outside it, so saturating changes neither.
    oracle.expect(problems, "target class is saturated", out["saturated"], True)
    oracle.expect(problems, "target localization size", out["target"], list(oracle.loop_sizes(d, b)))
    oracle.expect(problems, "localizations validate", out["valid"], [True, True])
    oracle.lift_biconditional(problems, [r[1] for r in out["A"]], out["lift_weq"])
    if d == k and a == b:
        oracle.expect(problems, "the identity lifts to a weak equivalence", out["lift_weq"], True)
    oracle.expect(problems, "A witnesses replay", all(out["rechecks"]), True)
    oracle.expect(problems, "cross-validation findings", out["findings"], [])
    replay(tr, problems, out["_lift"], out["_weq"].reports)
    return problems


# -- nonstrict-docs ------------------------------------------------------------
#
# Localized instances written as non-strict documents and driven through the
# command line: the only workload that reads and writes documents, and whose
# base has non-identity associators.

DOC_DECK = {
    "full": [("loop", 2), ("loop", 4)] + [("chain", 4)] * 4,
    "tiny": [("loop", 2), ("chain", 2)],
}


@dataclass
class DocContext:
    """What the oracle knows about one localized document."""

    strip: str  # directory prefix removed from command output
    objects: int
    quasi_units: list[str]
    identity: object  # identity pseudofunctor of the parsed document
    qclass: WClass
    universal: object = None  # universal map into its localization at the quasi-units


def docs_setup(rng: random.Random, size: str, tr: Tracer, root: Path) -> list[Task]:
    tasks = []
    strip = str(root) + "/"
    for i, (family, n) in enumerate(DOC_DECK[size]):
        inst = corpus.chain(n, rng) if family == "chain" else corpus.cyclic_loop(n, rng)
        wname = "all" if family == "chain" else "W"
        B = tr.call("builders.build", inst.build)
        accept_instance(tr, B, {wname: inst.classes[wname]})
        base_text = corpus.clear_strict_flag(tr.call(
            "presentation.export", export_presentation, Presentation(B, {}, {}, B.name)))
        base = tr.call("presentation.parse", parse_presentation, base_text).bicat
        W = WClass.of(base, inst.classes[wname], wname)
        loc = tr.call("fractions.materialize", materialize_fractions, base, W, validate=False)
        count_localization(tr, loc)
        L = loc.bicat
        if not tr.call("core.validate_loc", validate_bicat, L).passed:
            raise SetupError(f"localization of {B.name} fails validate_bicat")
        qu = tr.call("wclass.quasi_units", quasi_units, L)
        everything = WClass(frozenset(c.id for c in L.one_cells), "all")
        path = root / f"{family}{n}-{i}-loc.json"
        text = write_document(tr, path, Presentation(L, {"quasi-units": qu, "all": everything}, {}, L.name))

        # What the oracle replays witnesses against: the document as parsed.
        doc = tr.call("presentation.parse", parse_presentation, text)
        q = doc.classes["quasi-units"]
        ident = tr.call("psfun.identity", identity_psfun, doc.bicat)
        ctx = DocContext(strip, len(L.objects), sorted(q.members), ident, q)
        f = str(path)
        jobs = [
            (["validate", f], 0),
            (["check-bf", f, "--class", "all"], 0),
            (["check", f, "--conditions", "all", "--psfun", "identity",
              "--class-src", "quasi-units", "--class-tgt", "quasi-units"], None),
        ]
        if family == "loop":
            ctx.universal = universal_for_replay(tr, doc.bicat, q)
            out = str(root / f"{family}{n}-{i}-loc-qu.json")
            jobs += [
                (["saturate", f, "--class", "quasi-units"], 0),
                (["localize", f, "--class", "quasi-units", "--out", out], 0),
                (["validate", out], 0),
                (["check", f, "--conditions", "B", "--psfun", "UW", "--class-src", "quasi-units"], 0),
                (["check", f, "--conditions", "X", "--psfun", "UW", "--class-src", "quasi-units"], 0),
                (["check", f, "--conditions", "EF", "--psfun", "UW", "--class-src", "quasi-units"], None),
            ]
        for argv, code in jobs:
            tasks.append(Task(
                " ".join([argv[0], Path(argv[1]).name, *argv[2:]]).replace(strip, ""),
                partial(cli_decide, tr, argv, ctx),
                partial(cli_check, tr, argv, code, ctx),
            ))
    return tasks


def universal_for_replay(tr: Tracer, L, q: WClass):
    loc = tr.call("fractions.materialize", materialize_fractions, L, q, validate=False)
    count_localization(tr, loc)
    U = tr.call("fractions.universal", universal_pseudofunctor, loc)
    if not tr.call("psfun.validate", validate_psfun, U).passed:
        raise SetupError("universal map of a localized document fails validation")
    return U


def cli_decide(tr: Tracer, argv: list[str], ctx: DocContext) -> dict:
    code, text = tr.call(cli_span(argv[0]), run_cli, [*argv, "--format", "machine"])
    return {"code": code, "stdout": text.replace(ctx.strip, "")}


def cli_check(tr: Tracer, argv: list[str], want_code, ctx: DocContext, out: dict) -> list[str]:
    problems: list[str] = []
    try:
        payload = json.loads(out["stdout"])
    except json.JSONDecodeError:
        return [f"exit {out['code']} without a machine report: {out['stdout'][:300]}"]
    tr.count("presentation.bytes_read", Path(argv[1]).stat().st_size)
    command = argv[0]
    if command == "validate":
        oracle.expect(problems, "document validates", payload["passed"], True)
    elif command == "check-bf":
        # Every 1-cell of a localization at all 1-cells is an equivalence, and
        # the equivalences satisfy the closure axioms.
        oracle.expect(problems, "closure axioms hold", payload["passed"], True)
        tr.count("wclass.bf_checked", sum(v["checked"] for v in payload["verdicts"]))
    elif command == "saturate":
        members, added = set(payload["members"]), set(payload["added"])
        oracle.expect(problems, "saturation contains the class",
                      set(ctx.quasi_units) <= members, True)
        oracle.expect(problems, "added members", added, members - set(ctx.quasi_units))
    elif command == "localize":
        oracle.expect(problems, "localization keeps the objects", payload["objects"], ctx.objects)
        written = tr.call("presentation.load", load_document, argv[-1])
        size = Path(argv[-1]).stat().st_size
        tr.count("presentation.bytes_written", size)
        tr.count("presentation.bytes_read", size)
        oracle.expect(problems, "written document matches the report",
                      [len(written.bicat.one_cells), len(written.bicat.two_cells)],
                      [payload["one_cells"], payload["two_cells"]])
    elif command == "check":
        reports = payload["reports"]
        holds = {r["tag"]: r["holds"] for r in reports}
        oracle.expect(problems, "conditions decided", list(holds), oracle.FAMILY_TAGS[argv[3]])
        tr.count("conditions.examined", sum(r["examined"] for r in reports))
        if want_code is None:
            want_code = 0 if all(holds.values()) else 1
        if "identity" in argv:
            F, W_B = ctx.identity, ctx.qclass
            oracle.all_hold(problems, holds, [f"A{i}" for i in range(1, 6)],
                            "the identity lifts to the identity")
            oracle.all_hold(problems, holds, [f"B{i}" for i in range(1, 6)],
                            "A and B agree at the quasi-unit class")
            oracle.all_hold(problems, holds, ["X1", "X2a", "X2b", "X2c"],
                            "the identity is a weak equivalence")
            oracle.strict_implies_single(problems, holds)
        else:
            F, W_B = ctx.universal, None
            oracle.all_hold(problems, holds, [f"B{i}" for i in range(1, 6)],
                            "the universal map induces the identity of its localization")
            oracle.all_hold(problems, holds, ["X1", "X2a", "X2b", "X2c"],
                            "inverting quasi-units, which are already invertible, is an equivalence")
        for r in reports:
            if r["holds"] and r["witness"] is not None:
                rep = ConditionReport(r["tag"], True, witness=tuple(map(tuple, r["witness"])))
                if not tr.call("conditions.recheck", recheck_witness, F, rep, ctx.qclass, W_B):
                    problems.append(f"witness of {r['tag']} does not replay")
    oracle.expect(problems, "exit code", out["code"], want_code)
    return problems


WORKLOADS = {
    "chain-localize": chain_setup,
    "loop-reps": loop_setup,
    "nonstrict-docs": docs_setup,
}
