"""Record what the command line prints for every shipped fixture.

For each fixture document and each class it declares, runs ``bicfrac`` in a
fresh process and writes the exit code, stdout and stderr of every command
to one file under ``OUTDIR/<fixture>/``, plus each document that
``localize --out`` writes.  The commands are ``validate``, ``check-bf``,
``saturate`` and ``localize --out`` at each class, ``check --conditions all
--psfun identity`` and ``cross-validate`` at each class pair, ``check
--conditions B --psfun UW`` at each class, and ``demo appendix-toy``, each
run once with text output and once with ``--format machine``.  A fixture
that declares no class runs the class-taking commands once without
``--class``.

Run it at two commits and compare the directories; any difference is a
change in what a user sees:

    python3 scripts/cli_matrix.py /tmp/before    # at the old commit
    python3 scripts/cli_matrix.py /tmp/after     # at the new commit
    diff -r /tmp/before /tmp/after
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "src" / "bicfrac" / "fixtures"
OUT_NAME = "localized.json"


def commands(doc_name: str, classes: list[str]) -> list[list[str]]:
    """Every invocation recorded for one fixture, file names relative."""
    one = [["--class", c] for c in classes] or [[]]
    pairs = [
        ["--class-src", s, "--class-tgt", t] for s in classes for t in classes
    ] or [[]]
    out = [["validate", doc_name]]
    for opt in one:
        out.append(["check-bf", doc_name, *opt])
        out.append(["saturate", doc_name, *opt])
        out.append(["localize", doc_name, *opt, "--out", OUT_NAME])
    for opt in pairs:
        out.append(["check", doc_name, "--conditions", "all", "--psfun", "identity", *opt])
    for opt in one:
        out.append(["check", doc_name, "--conditions", "B", "--psfun", "UW",
                    *(["--class-src", opt[1]] if opt else [])])
    for opt in pairs:
        out.append(["cross-validate", doc_name, "--psfun", "identity", *opt])
    return out


def slug(argv: list[str]) -> str:
    words = [a.lstrip("-").replace(".json", "") for a in argv if a != OUT_NAME]
    return "_".join(w for w in words if w)


def run(cmd: list[str], cwd: Path, dest: Path) -> None:
    """Run ``bicfrac <cmd>`` in ``cwd`` in both formats, recording each as ``dest/<slug>``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in (cmd, [*cmd, "--format", "machine"]):
        proc = subprocess.run(
            [sys.executable, "-m", "bicfrac", *argv],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
        name = slug(argv)
        dest.mkdir(parents=True, exist_ok=True)
        (dest / f"{name}.txt").write_text(
            f"$ bicfrac {' '.join(argv)}\nexit {proc.returncode}\n"
            f"--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}",
            encoding="utf-8",
        )
        written = cwd / OUT_NAME
        if written.exists():
            shutil.move(written, dest / f"{name}.written.json")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/cli_matrix.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    docs = sorted(FIXTURE_DIR.glob("*.json"))
    if not docs:
        print(f"no fixture documents in {FIXTURE_DIR}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for doc in docs:  # copied together so psfun references resolve
            shutil.copy(doc, work / doc.name)
        for doc in docs:
            classes = list(json.loads(doc.read_text(encoding="utf-8")).get("classes") or {})
            for cmd in commands(doc.name, classes):
                run(cmd, work, outdir / doc.stem)
        run(["demo", "appendix-toy"], work, outdir / "demo")
    print(f"wrote {sum(1 for _ in outdir.rglob('*.txt'))} command records to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
