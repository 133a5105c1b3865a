"""Command dispatch over presentation documents.

Subcommands map one-to-one onto the library entry points: ``validate``
runs the law checker, ``check-bf`` and ``saturate`` work on a named
1-cell class, ``localize`` materializes the bicategory of fractions,
``check`` decides a condition family for a pseudofunctor, and
``cross-validate`` replays the relationships between the families.
``demo appendix-toy`` walks the shipped two-object example end to end.

Exit codes: 0 when every requested check passes, 1 when a check fails,
2 for usage or document errors, 3 when a precondition is violated (among
them a lawless bicategory, or a map that is not a pseudofunctor).  A
reader that closes the output early (``| head``) ends the command with exit
code 1 and nothing on stderr.
Reports are plain text by default; ``--format machine`` emits one JSON
object holding the library's report dataclasses, by `dataclasses.asdict`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path
from typing import Optional

from .conditions import ConditionReport, check_family, cross_validate_theorems
from .core import PreconditionError, require_lawful, validate_bicat
from .fractions import LocalizationError, materialize_fractions, universal_pseudofunctor
from .presentation import (
    Presentation,
    PresentationError,
    export_presentation,
    load_document,
    parse_presentation,
)
from .psfun import identity_psfun, require_pseudofunctor, validate_psfun
from .wclass import WClass, check_bf, saturate


class UsageError(ValueError):
    """Bad invocation that is not a failed check."""


def fixture_text(name: str) -> str:
    """Text of a fixture shipped inside the package."""
    ref = resources.files("bicfrac").joinpath("fixtures").joinpath(f"{name}.json")
    if not ref.is_file():
        raise UsageError(f"no shipped fixture named {name!r}")
    return ref.read_text(encoding="utf-8")


def load_fixture(name: str) -> Presentation:
    return parse_presentation(fixture_text(name))


# -- argument plumbing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "machine"),
        default=argparse.SUPPRESS,
        help="report style; machine emits one JSON object",
    )

    p = argparse.ArgumentParser(
        prog="bicfrac",
        description="Finite bicategories, fraction localizations and transfer conditions.",
    )
    p.set_defaults(format="text")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", parents=[common], help="run the law checker on a document")
    s.add_argument("file")

    s = sub.add_parser("check-bf", parents=[common], help="decide the closure axioms for a class")
    s.add_argument("file")
    s.add_argument("--class", dest="wname", metavar="NAME")

    s = sub.add_parser("saturate", parents=[common], help="compute the right saturation of a class")
    s.add_argument("file")
    s.add_argument("--class", dest="wname", metavar="NAME")

    s = sub.add_parser("localize", parents=[common], help="materialize the bicategory of fractions")
    s.add_argument("file")
    s.add_argument("--class", dest="wname", metavar="NAME")
    s.add_argument("--out", metavar="FILE", help="write the result as a document")

    s = sub.add_parser("check", parents=[common], help="decide a condition family for a pseudofunctor")
    s.add_argument("file")
    s.add_argument("--conditions", required=True, choices=("A", "B", "EF", "X", "all"))
    s.add_argument("--psfun", required=True, metavar="NAME",
                   help="declared name, or 'identity' / 'UW'")
    s.add_argument("--class-src", dest="wsrc", metavar="NAME")
    s.add_argument("--class-tgt", dest="wtgt", metavar="NAME")

    s = sub.add_parser("cross-validate", parents=[common],
                       help="replay the relationships between condition families")
    s.add_argument("files", nargs="+", metavar="file")
    s.add_argument("--psfun", default="identity", metavar="NAME")
    s.add_argument("--class-src", dest="wsrc", metavar="NAME")
    s.add_argument("--class-tgt", dest="wtgt", metavar="NAME")

    s = sub.add_parser("demo", parents=[common], help="walk a shipped scenario end to end")
    s.add_argument("scenario", choices=("appendix-toy",))

    return p


def _load(path: str) -> Presentation:
    p = Path(path)
    if not p.is_file() and Path(path + ".json").is_file():
        p = Path(path + ".json")
    return load_document(p)


def _pick_class(classes: dict[str, WClass], name: Optional[str], where: str) -> WClass:
    if name is not None:
        if name not in classes:
            raise UsageError(
                f"{where} declares no class {name!r} "
                f"(has: {', '.join(sorted(classes)) or 'none'})"
            )
        return classes[name]
    if "W" in classes:
        return classes["W"]
    if len(classes) == 1:
        return next(iter(classes.values()))
    raise UsageError(f"{where} declares no class 'W'; pass one explicitly")


def _show_report(r: ConditionReport, out: list[str]) -> None:
    mark = "pass" if r.holds else "FAIL"
    out.append(f"  [{mark}] {r.tag} (candidates examined: {r.examined})")
    if r.holds and r.witness is not None:
        u, w = r.witness
        out.append(f"         hardest input {tuple(u)} solved by {tuple(w)}")
    if r.holds and r.witness is None:
        out.append("         vacuous: no qualifying input")
    if not r.holds:
        out.append(f"         counterexample {tuple(r.counterexample)}"
                   + (f": {r.detail}" if r.detail else ""))


# -- subcommand handlers -------------------------------------------------------


def _law_check(what: str, violations: list, text: list[str], sizes: str = "") -> list[dict]:
    """One side's law check: text lines (20 violations at most) and payload entries."""
    if not violations:
        text.append(f"  {what}: all laws hold{sizes}")
    else:
        text.append(f"  {what}: {len(violations)} violation(s)")
        text.extend(f"    {v.law} at {v.cells}: {v.detail}" for v in violations[:20])
    return [asdict(v) for v in violations]


def _cmd_validate(args) -> tuple[dict, list[str]]:
    pres = _load(args.file)
    B = pres.bicat
    rep = validate_bicat(B)
    text = [f"validate {args.file}"]
    sizes = (f" ({len(B.objects)} objects, {len(B.one_cells)} one-cells, "
             f"{len(B.two_cells)} two-cells)")
    payload: dict = {
        "command": "validate",
        "file": args.file,
        "passed": rep.passed,
        "violations": _law_check("bicategory", rep.violations, text, sizes),
        "strict_flag": rep.strict_flag,
        "components_identity": rep.components_identity,
        "psfuns": {},
    }
    ok = rep.passed
    for name, F in pres.psfuns.items():
        frep = validate_psfun(F)
        payload["psfuns"][name] = {
            "passed": frep.passed,
            "violations": _law_check(f"pseudofunctor {name!r}", frep.violations, text),
        }
        ok = ok and frep.passed
    text.append("PASS" if ok else "FAIL")
    payload["passed"] = ok
    return payload, text


def _cmd_check_bf(args) -> tuple[dict, list[str]]:
    pres = _load(args.file)
    B = pres.bicat
    W = _pick_class(pres.classes, args.wname, args.file)
    require_lawful(B, "bicategory")
    rep = check_bf(B, W)
    text = [f"check-bf {args.file} --class {W.name}"]
    verdicts = []
    for v in rep.verdicts.values():
        verdicts.append({k: x for k, x in asdict(v).items() if k != "clauses"})
        mark = "pass" if v.holds else "FAIL"
        line = f"  [{mark}] {v.axiom}"
        if not v.holds and v.counterexample is not None:
            line += f"  counterexample {tuple(v.counterexample)}"
        if not v.holds and v.detail:
            line += f": {v.detail}"
        text.append(line)
    text.append("PASS" if rep.passed else "FAIL")
    payload = {
        "command": "check-bf",
        "file": args.file,
        "class": W.name,
        "passed": rep.passed,
        "verdicts": verdicts,
    }
    return payload, text


def _cmd_saturate(args) -> tuple[dict, list[str]]:
    pres = _load(args.file)
    B = pres.bicat
    W = _pick_class(pres.classes, args.wname, args.file)
    res = saturate(B, W)
    members = sorted(res.members.members, key=B.pos1)
    grew = sorted(res.members.members - W.members, key=B.pos1)
    text = [f"saturate {args.file} --class {W.name}"]
    text.append(f"  members: {', '.join(members) if members else '(empty)'}")
    for f in members:
        g, h = res.witnesses[f]
        text.append(f"    {f}: composite with {g} lies in the class, {g} with {h}")
    if grew:
        text.append(f"  added beyond the class: {', '.join(grew)}")
    else:
        text.append("  added beyond the class: none")
    payload = {
        "command": "saturate",
        "file": args.file,
        "class": W.name,
        "members": members,
        "added": grew,
        "witnesses": {f: list(res.witnesses[f]) for f in members},
    }
    return payload, text


def _cmd_localize(args) -> tuple[dict, list[str]]:
    pres = _load(args.file)
    W = _pick_class(pres.classes, args.wname, args.file)
    loc = materialize_fractions(pres.bicat, W)
    L = loc.bicat
    text = [f"localize {args.file} --class {W.name}"]
    text.append(
        f"  result: {len(L.objects)} objects, {len(L.one_cells)} one-cells "
        f"(spans), {len(L.two_cells)} two-cells (classes); all laws hold"
    )
    payload = {
        "command": "localize",
        "file": args.file,
        "class": W.name,
        "objects": len(L.objects),
        "one_cells": len(L.one_cells),
        "two_cells": len(L.two_cells),
        "validated": True,
        "out": args.out,
    }
    if args.out:
        out_pres = Presentation(L, {}, {}, L.name)
        Path(args.out).write_text(export_presentation(out_pres), encoding="utf-8")
        text.append(f"  written to {args.out}")
    text.append("PASS")
    return payload, text


def _resolve_check(
    pres: Presentation, file: str, name: str, wsrc: Optional[str], wtgt: Optional[str]
):
    """The pseudofunctor and classes a ``check`` invocation refers to.

    A map whose source or target is lawless, or that is not a pseudofunctor,
    raises `PreconditionError` naming the laws it breaks.
    """
    B = pres.bicat
    if wsrc is not None:
        w_src = _pick_class(pres.classes, wsrc, file)
    else:
        try:
            w_src = _pick_class(pres.classes, None, file)
        except UsageError:
            w_src = None
    if name == "identity":
        F = identity_psfun(B)
        tgt_classes = pres.classes
    elif name == "UW":
        if w_src is None:
            raise UsageError("--psfun UW needs a declared class (--class-src)")
        loc = materialize_fractions(B, w_src)
        F = universal_pseudofunctor(loc)
        tgt_classes = None  # transported below
    elif name in pres.psfuns:
        F = pres.psfuns[name]
        sref, tref = pres.psfun_refs[name]
        tgt_classes = pres.classes if tref == "self" else pres.ref_docs[tref].classes
    else:
        raise UsageError(
            f"{file} declares no pseudofunctor {name!r} "
            f"(has: {', '.join(sorted(pres.psfuns)) or 'none'}; "
            "'identity' and 'UW' are always available)"
        )
    require_lawful(F.source, "source bicategory")
    require_lawful(F.target, "target bicategory")
    require_pseudofunctor(F, f"pseudofunctor {name!r}")

    def target_class() -> WClass:
        if name == "UW":
            base = _pick_class(pres.classes, wtgt, file) if wtgt is not None else w_src
            return WClass(
                frozenset(F.f1[w] for w in base.members), f"U({base.name})"
            )
        if tgt_classes is None or not tgt_classes:
            raise UsageError("the target document declares no classes (--class-tgt)")
        return _pick_class(tgt_classes, wtgt, "target document")

    return F, w_src, target_class


def _cmd_check(args) -> tuple[dict, list[str]]:
    F, w_src, target_class = _resolve_check(
        _load(args.file), args.file, args.psfun, args.wsrc, args.wtgt
    )
    text = [f"check {args.file} --conditions {args.conditions} --psfun {args.psfun}"]
    reports: list[ConditionReport] = []
    for fam in ["A", "B", "EF", "X"] if args.conditions == "all" else [args.conditions]:
        w_tgt = None
        if fam == "X":
            text.append("  family X:")
        elif w_src is None:
            raise UsageError(f"family {fam} needs a source class (--class-src)")
        elif fam == "A":
            w_tgt = target_class()
            text.append(f"  family A at ({w_src.name}, {w_tgt.name}):")
        else:
            text.append(f"  family {fam} at {w_src.name}:")
        for r in check_family(F, fam, w_src, w_tgt):
            reports.append(r)
            _show_report(r, text)
    passed = all(r.holds for r in reports)
    text.append("PASS" if passed else "FAIL")
    payload = {
        "command": "check",
        "file": args.file,
        "psfun": args.psfun,
        "conditions": args.conditions,
        "reports": [asdict(r) for r in reports],
        "passed": passed,
    }
    return payload, text


def _cmd_cross_validate(args) -> tuple[dict, list[str]]:
    text: list[str] = []
    entries = []
    for fname in args.files:
        F, w_src, target_class = _resolve_check(
            _load(fname), fname, args.psfun, args.wsrc, args.wtgt
        )
        if w_src is None:
            raise UsageError("cross-validate needs a source class (--class-src)")
        rep = cross_validate_theorems(F, w_src, target_class())
        text.append(f"cross-validate {fname} --psfun {args.psfun}")
        for s in rep.subchecks:
            mark = "ran " if s.ran else "skip"
            text.append(f"  [{mark}] {s.name}: {s.reason}")
        text.append("  findings: " + ("none" if rep.passed else "; ".join(rep.findings)))
        entries.append({"file": fname, **asdict(rep), "passed": rep.passed})
    passed = all(e["passed"] for e in entries)
    text.append("PASS" if passed else "FAIL")
    return {"command": "cross-validate", "files": entries, "passed": passed}, text


def _demo_reports(pres: Presentation) -> dict:
    """The BF report, the universal map U(W) and its EF and B reports for one toy variant."""
    B = pres.bicat
    W = pres.classes["W"]
    out = {"bf": check_bf(B, W)}
    out["UW"] = UW = universal_pseudofunctor(materialize_fractions(B, W))
    out.update((r.tag, r) for fam in ("EF", "B") for r in check_family(UW, fam, W))
    return out


def _demo_verdicts(reports: dict) -> dict[str, bool]:
    """BF, strict-family and single-class verdicts of `_demo_reports`."""
    UW = reports["UW"]
    out = {k: r.holds for k, r in reports.items() if k not in ("bf", "UW")}
    out.update(bf=reports["bf"].passed, collapse=UW.f2["loop"] == UW.f2["iB"])
    return out


def _cmd_demo(args) -> tuple[dict, list[str]]:
    reports = _demo_reports(load_fixture("appx-toy"))
    UW = reports["UW"]

    facts: list[tuple[str, bool, str]] = []
    facts.append(("closure axioms hold for W", reports["bf"].passed, ""))
    u_loop, u_i = UW.f2["loop"], UW.f2["iB"]
    facts.append((
        "U2(loop) = U2(iB) in the fraction bicategory",
        u_loop == u_i,
        f"both map to {u_loop}",
    ))
    ef3 = reports["EF3"]
    cex_ok = (not ef3.holds) and set(ef3.counterexample[3:]) == {"iB", "loop"}
    facts.append((
        "EF3 fails: the 2-cell preimage is not unique",
        cex_ok,
        f"counterexample {tuple(ef3.counterexample)}" if ef3.counterexample else "",
    ))
    facts.append((
        "B1..B5 all hold for the universal map",
        all(reports[f"B{i}"].holds for i in range(1, 6)),
        "",
    ))
    same = _demo_verdicts(reports) == _demo_verdicts(_demo_reports(load_fixture("appx-toy-loopy")))
    facts.append((
        "verdicts identical on both loop-monoid variants",
        same,
        "loop squares to the identity in one, to itself in the other",
    ))

    text = ["demo appendix-toy"]
    for name, ok, detail in facts:
        mark = "pass" if ok else "FAIL"
        text.append(f"  [{mark}] {name}" + (f" ({detail})" if detail else ""))
    passed = all(ok for _, ok, _ in facts)
    text.append("PASS" if passed else "FAIL")
    payload = {
        "command": "demo",
        "scenario": "appendix-toy",
        "facts": [
            {"name": n, "passed": ok, "detail": d} for n, ok, d in facts
        ],
        "passed": passed,
    }
    return payload, text


_HANDLERS = {
    "validate": _cmd_validate,
    "check-bf": _cmd_check_bf,
    "saturate": _cmd_saturate,
    "localize": _cmd_localize,
    "check": _cmd_check,
    "cross-validate": _cmd_cross_validate,
    "demo": _cmd_demo,
}


def run_command(argv: list[str]) -> int:
    """Dispatch one invocation; returns the exit code, printing reports.

    The code is 0 when the report passed or has no verdict (``saturate``,
    ``localize``), 1 when it failed.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        payload, text = _HANDLERS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PresentationError as e:
        print(f"document error: {e}", file=sys.stderr)
        return 2
    except (PreconditionError, LocalizationError) as e:
        print(f"precondition violation: {e}", file=sys.stderr)
        return 3
    if args.format == "machine":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(text))
    return 0 if payload.get("passed", True) else 1


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone; as Python's `signal` docs advise, point stdout
        # at devnull so the interpreter's own flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
