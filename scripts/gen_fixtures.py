"""Regenerate the fixture documents from the in-code builders.

Writes them into ``src/bicfrac/fixtures/``, which ships with the package so
``bicfrac demo`` works from any directory.  With ``--check`` it writes
nothing and exits 1, naming each fixture whose committed text differs from
the regenerated text:

    python3 scripts/gen_fixtures.py
    python3 scripts/gen_fixtures.py --check
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "src" / "bicfrac" / "fixtures"
sys.path.insert(0, str(ROOT / "src"))

from bicfrac.builders import (  # noqa: E402
    appendix_toy,
    arrow2,
    collapse_loop,
    discrete2,
    iso2,
    iso2_classes,
    point_into_discrete2,
    toy_classes,
    toyq,
    toyq_classes,
    trivial_one,
)
from bicfrac.presentation import Presentation, export_presentation  # noqa: E402
from bicfrac.psfun import identity_psfun  # noqa: E402
from bicfrac.wclass import WClass  # noqa: E402


def catalog() -> dict[str, Presentation]:
    toy = appendix_toy()
    loopy = appendix_toy(loop_square="loop")
    q = toyq()
    pt = trivial_one()
    d2 = discrete2()
    i2 = iso2()

    docs = {
        "appx-toy": Presentation(
            toy, toy_classes(toy), {"identity": identity_psfun(toy)}, "appx-toy",
            {"identity": ("self", "self")},
        ),
        "appx-toy-loopy": Presentation(
            loopy, toy_classes(loopy), {"identity": identity_psfun(loopy)},
            "appx-toy-loopy", {"identity": ("self", "self")},
        ),
        "toyq": Presentation(q, toyq_classes(q), {}, "toyq"),
        "iso2": Presentation(
            i2, iso2_classes(i2), {"identity": identity_psfun(i2)}, "iso2",
            {"identity": ("self", "self")},
        ),
        "arrow2": Presentation(
            arrow2(), {"W": WClass.of(arrow2(), ["idX", "idY"], "W")}, {}, "arrow2",
        ),
        "discrete2": Presentation(
            d2, {"W": WClass.of(d2, ["idX", "idY"], "W")}, {}, "discrete2",
        ),
        "collapse-loop": Presentation(
            toy, toy_classes(toy), {"collapse": collapse_loop(toy, q)},
            "collapse-loop", {"collapse": ("self", "toyq.json")},
        ),
        "point-into-discrete2": Presentation(
            pt, {"W": WClass.of(pt, ["idpt"], "W")},
            {"point": point_into_discrete2(pt, d2)},
            "point-into-discrete2", {"point": ("self", "discrete2.json")},
        ),
    }
    return docs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="write nothing; exit 1 if a committed fixture differs from its regenerated text",
    )
    args = parser.parse_args(argv)
    stale = []
    for name, pres in catalog().items():
        text = export_presentation(pres)
        path = FIXTURE_DIR / f"{name}.json"
        if args.check:
            if not path.is_file() or path.read_text(encoding="utf-8") != text:
                stale.append(path.name)
            continue
        FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path.name} ({len(text)} bytes)")
    for name in stale:
        print(f"stale fixture: {name} is missing or differs from its regenerated text",
              file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
