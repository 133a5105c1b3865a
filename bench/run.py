"""Run one benchmark workload against the bicfrac sources beside this directory.

    python3 bench/run.py --workload chain-localize --seed 1 --seconds 30 --trace 0

One process, one thread, one client: tasks run back to back in a closed
loop.  The corpus made from ``--seed`` is set up three times (``setup_s`` is
the median, plus the import time) and then decided in whole passes until
``--seconds`` are used up.  Every task's output goes to the oracle; a task
that raises or disagrees counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead; its spans are written under ``.bench_run/``.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
MIN_P90_SAMPLES = 100  # ten tasks beyond the 90th percentile
LAYERS = ["builders", "presentation", "core", "wclass", "fractions", "psfun", "conditions", "cli"]
# Span names reported as their own per-layer metric (``<name>_s``).  Each one
# occurs in every workload, in its set-up or in its tasks.
NAMED_SPANS = [
    "builders.build",
    "presentation.load",
    "presentation.export",
    "core.validate_base",
    "core.validate_loc",
    "fractions.materialize",
    "wclass.check_bf",
    "psfun.validate",
    "conditions.recheck",
    "cli.validate",
]
COUNTERS = [
    "fractions.spans",
    "fractions.classes",
    "fractions.reps",
    "wclass.bf_checked",
    "presentation.bytes_read",
    "presentation.bytes_written",
    "conditions.examined",
]


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a two-task corpus for the benchmark's own tests")
    return p.parse_args(argv)


def import_bicfrac():
    """Import bicfrac from this checkout's sources, never from elsewhere."""
    if not (SRC / "bicfrac" / "__init__.py").is_file():
        raise SystemExit(f"error: no bicfrac sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import bicfrac

    if Path(bicfrac.__file__).resolve().parent != SRC / "bicfrac":
        raise SystemExit(f"error: imported bicfrac from {bicfrac.__file__}, not {SRC}")
    return bicfrac


def digest(out: dict) -> str:
    public = {k: v for k, v in out.items() if not k.startswith("_")}
    return hashlib.sha256(json.dumps(public, sort_keys=True, default=repr).encode()).hexdigest()


class Run:
    """One workload run: set-ups, passes, verdicts and timings."""

    def __init__(self, args, workloads, spans):
        self.args = args
        self.setup_fn = workloads.WORKLOADS[args.workload]
        self.SetupError = workloads.SetupError
        self.tr = spans.Tracer(False)
        self.run_dir = ROOT / ".bench_run" / f"{args.workload}-s{args.seed}-{os.getpid()}"
        self.setup_times: list[float] = []
        self.task_times: list[float] = []
        self.pass_walls: dict[int, float] = {}  # decide time of each pass
        self.traced_passes: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.first_digest: dict[str, str] = {}

    def setup(self):
        tasks = None
        doc_digests = set()
        for r in range(SETUP_REPEATS):
            self.tr.enabled = bool(self.args.trace)
            self.tr.group = f"setup:{r}"
            root = self.run_dir / f"setup{r}"
            root.mkdir(parents=True)
            t0 = time.perf_counter()
            tasks = self.setup_fn(random.Random(self.args.seed), self.args.size, self.tr, root)
            self.setup_times.append(time.perf_counter() - t0)
            doc_digests.add(hashlib.sha256(b"".join(
                p.name.encode() + p.read_bytes() for p in sorted(root.iterdir())
            )).hexdigest())
        if len(doc_digests) != 1:
            raise self.SetupError("one seed wrote different documents on different set-ups")
        self.corpus_digest = doc_digests.pop()
        return tasks

    def run_pass(self, p: int, tasks) -> None:
        traced = bool(self.args.trace) and p % 2 == 1
        self.tr.enabled = traced
        self.tr.group = f"pass:{p}"
        if traced:
            self.traced_passes.append(p)
        wall = 0.0
        for task in tasks:
            self.tr.task = task.id
            self.attempted += 1
            gc.collect()
            t0 = time.perf_counter()
            try:
                with self.tr.span("bench.task"):
                    out = task.decide()
            except Exception:
                dt = time.perf_counter() - t0
                problems = ["raised:\n" + traceback.format_exc(limit=6)]
            else:
                dt = time.perf_counter() - t0
                try:
                    problems = task.check(out)
                except Exception:
                    problems = ["oracle raised:\n" + traceback.format_exc(limit=6)]
                d = digest(out)
                if self.first_digest.setdefault(task.id, d) != d:
                    problems.append("output differs from the first pass")
            wall += dt
            self.task_times.append(dt)
            if problems:
                self.failed += 1
                print(f"FAIL {task.id} (pass {p}): " + "; ".join(problems), file=sys.stderr)
        self.pass_walls[p] = wall

    def decide_all(self, tasks) -> None:
        start = time.perf_counter()
        budget = self.args.seconds
        min_passes = 2 if self.args.trace else 1
        p = 0
        while True:
            t0 = time.perf_counter()
            self.run_pass(p, tasks)
            p += 1
            elapsed = time.perf_counter() - start
            enough = p >= min_passes and (
                len(self.task_times) >= MIN_P90_SAMPLES or self.args.size == "tiny"
            )
            if enough and elapsed + (time.perf_counter() - t0) > budget:
                break
            if elapsed > max(2 * budget, 120):
                break  # a far slower machine: stop well inside the time limit

    def end_to_end(self, import_s: float) -> dict:
        times = self.task_times
        p90 = statistics.quantiles(times, n=10)[8] if len(times) >= 2 else times[0]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "wall_s": (statistics.median(self.pass_walls.values()), "s"),
            "task_p50_s": (statistics.median(times), "s"),
            "task_p90_s": (p90, "s"),
            "setup_s": (import_s + statistics.median(self.setup_times), "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }

    def groups(self) -> tuple[list[str], list[str]]:
        return (
            [f"setup:{r}" for r in range(SETUP_REPEATS)],
            [f"pass:{p}" for p in self.traced_passes],
        )

    def per_cycle(self, value) -> float:
        """``value(group)``: median over set-ups plus median over traced passes."""
        setups, passes = self.groups()
        return statistics.median(map(value, setups)) + statistics.median(map(value, passes))

    def per_layer(self, layer_of) -> dict:
        tr = self.tr
        self_times = {g: tr.self_times(g) for gs in self.groups() for g in gs}
        totals = {g: tr.totals(g) for gs in self.groups() for g in gs}
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.per_cycle(lambda g: sum(
                t for name, t in self_times[g].items() if layer_of(name) == layer
            )), "s")
        for name in NAMED_SPANS:
            out[f"{name}_s"] = (self.per_cycle(lambda g: totals[g].get(name, 0.0)), "s")
        for name in COUNTERS:
            out[name] = (self.per_cycle(lambda g: tr.counts[g].get(name, 0.0)), "count")
        classes, reps = out["fractions.classes"][0], out["fractions.reps"][0]
        out["fractions.classes_per_rep"] = (classes / reps if reps else 0.0, "ratio")
        untraced = [w for p, w in self.pass_walls.items() if p not in self.traced_passes]
        traced = [self.pass_walls[p] for p in self.traced_passes]
        out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
        return out

    def span_summary(self) -> list[str]:
        """Median set-up and traced-pass time of every span name, as comment lines."""
        setups, passes = self.groups()
        totals = {g: self.tr.totals(g) for g in setups + passes}
        names = sorted({n for t in totals.values() for n in t})
        lines = [f"#   {'span':<34} {'set-up s':>10} {'pass s':>10}"]
        for name in names:
            per = [statistics.median(totals[g].get(name, 0.0) for g in gs) for gs in (setups, passes)]
            lines.append(f"#   {name:<34} {per[0]:10.4f} {per[1]:10.4f}")
        return lines


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    import_bicfrac()
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    run = Run(args, workloads, spans)
    try:
        tasks = run.setup()
        run.decide_all(tasks)
    except workloads.SetupError as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.run_dir, ignore_errors=True)

    if args.trace:
        metrics = run.per_layer(spans.layer_of)
        trace_path = ROOT / ".bench_run" / f"trace-{args.workload}-s{args.seed}.json"
        run.tr.write(trace_path)
    else:
        metrics = run.end_to_end(import_s)

    n = len(run.task_times)
    run_digest = hashlib.sha256("".join(
        f"{k}={v};" for k, v in sorted(run.first_digest.items())
    ).encode()).hexdigest()
    print(f"# workload={args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"tasks/pass={len(tasks)} passes={len(run.pass_walls)} samples={n} "
          f"beyond_p90={n - int(0.9 * n)} failed={run.failed} "
          f"fail_ratio={run.failed / max(run.attempted, 1):.4f}")
    print(f"# corpus_digest={run.corpus_digest} output_digest={run_digest}")
    print("# set-up seconds: " + " ".join(f"{t:.4f}" for t in run.setup_times)
          + f"  import: {import_s:.4f}")
    print("# pass seconds: " + " ".join(f"{t:.4f}" for t in run.pass_walls.values()))
    if args.trace:
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
        print("\n".join(run.span_summary()))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
