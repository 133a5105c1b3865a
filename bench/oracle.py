"""Expected answers that do not come from the code under test.

Sizes of the localizations follow from closed forms.  Verdicts are held to
the relationships the paper proves between them, not to values recorded from
an earlier run: the induced lift is a weak equivalence exactly when A1..A5
hold, the identity lifts to a weak equivalence, the universal map satisfies
B1..B5, and every witness a holding condition returns must replay.  Each
check returns a list of problems; an empty list means the output agrees.
"""

from __future__ import annotations


def chain_sizes(n: int, cls: str) -> tuple[int, int]:
    """(spans, classes) of ``chain(n)`` localized at ``all`` or ``ids``.

    At the identities nothing is inverted: one span and one 2-cell class per
    1-cell, n(n+1)/2 of each.  At all 1-cells a span ``s <- x -> t`` needs
    ``x <= min(s, t)``, giving sum over (s, t) of (min(s, t) + 1), which is
    n(n+1)(2n+1)/6; every pair of parallel spans carries exactly one class,
    giving sum over (s, t) of (min(s, t) + 1)^2.
    """
    if cls == "ids":
        k = n * (n + 1) // 2
        return k, k
    if cls == "all":
        spans = n * (n + 1) * (2 * n + 1) // 6
        classes = sum((min(s, t) + 1) ** 2 for s in range(n) for t in range(n))
        return spans, classes
    raise ValueError(f"no closed form for class {cls!r}")


def loop_sizes(k: int, cls: str) -> tuple[int, int]:
    """(spans, classes) of ``cyclic_loop(k)`` localized at ``Wmin`` or ``W``.

    At the identities the spans are the three 1-cells and the classes are
    the k 2-cells on ``id_B`` plus the identities of ``id_A`` and ``v``.  At
    all 1-cells there are five spans, and the loop dies because its whisker
    onto ``v`` is an identity, leaving seven classes whatever k is.
    """
    if cls == "Wmin":
        return 3, k + 2
    if cls == "W":
        return 5, 7
    raise ValueError(f"no closed form for class {cls!r}")


def expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def lift_biconditional(problems: list[str], a_holds: list[bool], lift_is_weq: bool) -> None:
    """The lift is a weak equivalence iff A1..A5 all hold."""
    if lift_is_weq != all(a_holds):
        problems.append(
            f"lift weak-equivalence={lift_is_weq} but A1..A5 = {a_holds}"
        )


def strict_implies_single(problems: list[str], holds: dict[str, bool]) -> None:
    """EF1..EF3 all holding forces B1..B5 all holding."""
    ef = [holds[f"EF{i}"] for i in range(1, 4) if f"EF{i}" in holds]
    b = [holds[f"B{i}"] for i in range(1, 6) if f"B{i}" in holds]
    if len(ef) == 3 and len(b) == 5 and all(ef) and not all(b):
        problems.append("EF1..EF3 hold but some of B1..B5 fail")


FAMILY_TAGS = {
    "A": [f"A{i}" for i in range(1, 6)],
    "B": [f"B{i}" for i in range(1, 6)],
    "EF": [f"EF{i}" for i in range(1, 4)],
    "X": ["X1", "X2a", "X2b", "X2c"],
}
FAMILY_TAGS["all"] = [t for fam in ("A", "B", "EF", "X") for t in FAMILY_TAGS[fam]]


def all_hold(problems: list[str], holds: dict[str, bool], tags: list[str], why: str) -> None:
    """Each of ``tags`` that was decided must hold."""
    bad = [t for t in tags if t in holds and not holds[t]]
    if bad:
        problems.append(f"{', '.join(bad)} fail, but {why}")
