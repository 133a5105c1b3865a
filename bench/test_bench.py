"""The benchmark's own tests: smoke runs, a planted wrong answer, determinism.

    python3 -m pytest -q bench

Runs use the two-task ``--size tiny`` corpus, so the whole file takes
seconds.  Scratch files go under ``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def tiny(workload: str, seed: int = 1, trace: int = 0):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines, proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    result, _, stderr = tiny(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, stderr
    assert result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        if m["unit"] == "s" and m["name"] != "trace.overhead_s":
            assert got["value"] > 0, m["name"]


def test_planted_off_by_one_class_count_fails(monkeypatch, capsys):
    """A localization reporting one 2-cell too many must count as failed."""
    sys.path.insert(0, str(HERE))
    import run

    run.import_bicfrac()
    import workloads
    from bicfrac import TwoCell

    real = workloads.materialize_fractions

    def planted(B, W, **kwargs):
        loc = real(B, W, **kwargs)
        L = loc.bicat
        f = L.one_cells[0].id
        extra = L.two_cells + (TwoCell("planted", f, f),)
        return dataclasses.replace(loc, bicat=dataclasses.replace(L, two_cells=extra, _cache={}))

    monkeypatch.setattr(workloads, "materialize_fractions", planted)
    code = run.main(["--workload", "chain-localize", "--seed", "3", "--seconds", "0.5",
                     "--size", "tiny"])
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert code == 0
    assert result["failed"] > 0 and not result["correct"]
    assert "classes: got" in captured.err


def test_same_seed_gives_identical_outputs():
    digests = []
    for _ in range(2):
        _, lines, _ = tiny("loop-reps", seed=7)
        digests.append([ln for ln in lines if ln.startswith("# corpus_digest=")])
    assert digests[0] == digests[1] and digests[0]
    _, lines, _ = tiny("loop-reps", seed=8)
    other = [ln for ln in lines if ln.startswith("# corpus_digest=")]
    assert other != digests[0]


def test_fails_without_the_sources():
    """Beside BENCHMARK.json alone, the benchmark exits non-zero and prints no result."""
    bare = ROOT / ".bench_run" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare, script=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
