"""End-to-end benchmark of the contingency service.

Run from the repository root::

    python3 perfbench/run.py --workload cold-mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test

Each workload (see ``scenarios.py`` and ``BENCHMARK.json``) is a closed
loop from one client thread against ``ContingencyService``.  A run sets the
workload up, then issues ops until ``--seconds`` of call time have passed
and at least the workload's window of ops is done, checking every returned
range against the true answer.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then with spans recorded around every layer's
public calls (``spans.py``), and reports the per-layer split plus the
tracing overhead.  Program counts and the range digest cover the first
window of ops only, so they repeat exactly for a seed.

Spans are recorded in the client process only: time spent inside process
pool workers is part of the ``parallel.pool`` layer's caller-side self time.
Admission control is off on every workload (the default service has none,
and a single closed-loop client never queues), so it is not measured.

The run refuses to start when a ``REPRO_*`` environment variable is set,
and it writes only under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / ".bench_out"
#: Set-up is repeated this many times per run (once here, the rest in fresh
#: processes) and reported as the median.
SETUP_SAMPLES = 3
#: Hard cap on one pass, so a run always ends well within its time limit.
PASS_LIMIT_S = 75.0

END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "plan.calls": "count",
    "plan.self_ms": "ms",
    "core.cells.decompositions": "count",
    "core.cells.self_ms": "ms",
    "core.cells.sat_calls": "count",
    "core.cells.cells": "count",
    "core.cells.cells_per_sat_call": "ratio",
    "plan.program.compiles": "count",
    "plan.program.self_ms": "ms",
    "solvers.milp.bound_calls": "count",
    "solvers.milp.self_ms": "ms",
    "relational.calls": "count",
    "relational.self_ms": "ms",
    "service.fingerprint.calls": "count",
    "service.fingerprint.self_ms": "ms",
    "service.cache.self_ms": "ms",
    "service.cache.report.hit_rate": "ratio",
    "service.cache.program.hit_rate": "ratio",
    "service.cache.decomposition.hit_rate": "ratio",
    "service.cache.decomposition.evictions": "count",
    "service.store.reads": "count",
    "service.store.read_hit_rate": "ratio",
    "service.store.writes": "count",
    "service.store.self_ms": "ms",
    "service.store.bytes_per_entry": "B",
    "service.self_ms": "ms",
    "service.write_p50_ms": "ms",
    "service.write_p95_ms": "ms",
    "service.append.migrated": "count",
    "service.append.invalidated": "count",
    "service.append.migrate_ratio": "ratio",
    "service.batch.warm_ms": "ms",
    "service.batch.execute_ms": "ms",
    "parallel.pool.self_ms": "ms",
    "parallel.pool.tasks_dispatched": "count",
    "parallel.pool.sessions_shipped": "count",
    "parallel.pool.programs_shipped": "count",
    "parallel.pool.warm_hit_rate": "ratio",
    "parallel.pool.tasks_retried": "count",
    "parallel.pool.worker_restarts": "count",
    "unattributed.self_ms": "ms",
    "trace.overhead.queries_per_s": "1/s",
    "trace.overhead.latency_p50_ms": "ms",
}

#: Program counts that must repeat exactly for a seed; the self-test runs
#: each traced workload twice and compares them.
REPEATABLE = ("core.cells.sat_calls", "service.cache.report.hit_rate",
              "service.cache.program.hit_rate",
              "service.cache.decomposition.hit_rate",
              "service.append.migrated", "service.append.invalidated",
              "parallel.pool.tasks_dispatched")

#: The layer count each workload exists to exercise; the self-test requires
#: it to be non-zero.
DEFINING_COUNTS = {
    "cold-mixed": ("core.cells.sat_calls",),
    "serve-zipf": ("service.store.reads",),
    "append-batch": ("parallel.pool.tasks_dispatched",
                     "service.append.migrated"),
}


def refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def prepare_imports() -> None:
    """Refuse environment knobs, then import the program from ``src/``."""
    knobs = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if knobs:
        refuse(f"refusing to run with {', '.join(knobs)} set: environment "
               "knobs would change what is measured")
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        refuse(f"no program sources under {source}")
    sys.path.insert(0, str(source))
    # Temporary files of this process and its children stay in the checkout.
    OUTPUT.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(OUTPUT)
    tempfile.tempdir = str(OUTPUT)
    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        refuse(f"imported repro from {repro.__file__}, not from {source}")


# ---------------------------------------------------------------------- #
# Measurement
# ---------------------------------------------------------------------- #
@dataclass
class Pass:
    """What one timed pass over a workload observed."""

    busy_s: float = 0.0
    ops: int = 0
    queries: int = 0
    attempted: int = 0
    failed: int = 0
    reads_ms: list = field(default_factory=list)
    writes_ms: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    digest: str = ""
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    @property
    def queries_per_s(self) -> float:
        return self.queries / self.busy_s if self.busy_s else 0.0


def percentile(values: list, share: float) -> float:
    import numpy as np

    return float(np.percentile(values, share)) if values else 0.0


def peak_rss_mb(pids: list[int]) -> float:
    """Summed peak resident set size (VmHWM) of the given processes."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def program_counts(scenario) -> dict:
    """The program's own cumulative statistics, plus the store's size."""
    counts = scenario.service.statistics().as_dict()
    store = scenario.service.store
    if store is not None:
        counts["store_entries"] = store.entry_count()
        counts["store_bytes"] = os.path.getsize(store.path)
    return counts


def close_window(result: Pass, scenario) -> None:
    """Counts and memory cover set-up plus the window's ops, so they do not
    grow with however many more ops a faster program fits into the run."""
    result.after = program_counts(scenario)
    result.peak_rss_mb = peak_rss_mb([os.getpid(), *scenario.worker_pids()])


def measure(scenario, seconds: float, recorder=None) -> Pass:
    """Issue ops until ``seconds`` of call time and the window are done."""
    result = Pass(before=program_counts(scenario))
    digest = hashlib.sha256()
    wall_start = time.perf_counter()
    index = 0
    while ((result.busy_s < seconds or index < scenario.window)
           and time.perf_counter() - wall_start < PASS_LIMIT_S):
        steps = scenario.prepare(index)
        if recorder is not None:
            recorder.op = index
            recorder.active = True
        for step in steps:
            started = time.perf_counter()
            try:
                value = step.call()
                error = None
            except Exception as exc:  # every failure counts against the run
                value, error = None, exc
            elapsed = time.perf_counter() - started
            result.busy_s += elapsed
            (result.reads_ms if step.kind == "read"
             else result.writes_ms).append(elapsed * 1e3)
            if step.check is None:
                result.attempted += 1
                result.failed += error is not None
            elif error is not None:
                result.attempted += step.queries
                result.failed += step.queries
            else:
                answered, wrong, ranges = step.check(value)
                result.attempted += answered
                result.failed += wrong
                result.queries += answered
                if index < scenario.window:
                    digest.update(repr((index, ranges)).encode())
            if error is not None and len(result.errors) < 5:
                result.errors.append(f"op {index}: {error!r}")
        if recorder is not None:
            recorder.active = False
        index += 1
        if index == scenario.window:
            close_window(result, scenario)
    if not result.after:
        close_window(result, scenario)
    result.ops = index
    result.digest = digest.hexdigest()[:16]
    return result


def make_scenario(workload: str, seed: int, size: str):
    from scenarios import SCENARIOS

    cls = SCENARIOS[workload]
    if workload == "append-batch":
        return cls(seed, str(OUTPUT), size, workers=min(2, os.cpu_count()))
    return cls(seed, str(OUTPUT), size)


def setup_sample(workload: str, seed: int, size: str) -> float:
    """Set-up time of the workload in a fresh process, imports included."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed), "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {completed.stderr[-2000:]}")
    return float(json.loads(completed.stdout.strip().splitlines()[-1])[
        "setup_s"])


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after, before = after.get(key) or {}, before.get(key) or {}
    return float(after or 0) - float(before or 0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(run: Pass, scenario, recorder) -> dict[str, float]:
    window = scenario.window
    self_ms = recorder.self_times(window)
    cells = recorder.cell_count(window)
    after, before = run.after, run.before

    def hit_rate(cache: str) -> float:
        hits = delta(after, before, cache, "hits")
        return ratio(hits, hits + delta(after, before, cache, "misses"))

    def calls(*names: str) -> int:
        return sum(recorder.count(name, window) for name in names)

    sat_calls = delta(after, before, "decomposition_solver_calls")
    store_reads = delta(after, before, "store", "reads")
    migrated = delta(after, before, "delta_migrations")
    invalidated = delta(after, before, "delta_invalidations")
    pool_addressed = (delta(after, before, "worker_pool", "warm_hits")
                      + delta(after, before, "worker_pool",
                              "programs_shipped"))
    return {
        "plan.calls": calls("PCBoundSolver.plan"),
        "plan.self_ms": self_ms["plan"],
        "core.cells.decompositions": delta(after, before,
                                           "decompositions_computed"),
        "core.cells.self_ms": self_ms["core.cells"],
        "core.cells.sat_calls": sat_calls,
        "core.cells.cells": cells,
        "core.cells.cells_per_sat_call": ratio(cells, sat_calls),
        "plan.program.compiles": calls("compile_plan"),
        "plan.program.self_ms": self_ms["plan.program"],
        "solvers.milp.bound_calls": calls("BoundProgram.bound",
                                          "BoundProgram.bound_batch"),
        "solvers.milp.self_ms": self_ms["solvers.milp"],
        "relational.calls": calls("AggregateQuery.execute", "Relation.filter",
                                  "Relation.append"),
        "relational.self_ms": self_ms["relational"],
        "service.fingerprint.calls": calls("fingerprint_query",
                                           "fingerprint_relation"),
        "service.fingerprint.self_ms": self_ms["service.fingerprint"],
        "service.cache.self_ms": self_ms["service.cache"],
        "service.cache.report.hit_rate": hit_rate("report_cache"),
        "service.cache.program.hit_rate": hit_rate("program_cache"),
        "service.cache.decomposition.hit_rate": hit_rate(
            "decomposition_cache"),
        "service.cache.decomposition.evictions": delta(
            after, before, "decomposition_cache", "evictions"),
        "service.store.reads": store_reads,
        "service.store.read_hit_rate": ratio(
            delta(after, before, "store", "hits"), store_reads),
        "service.store.writes": delta(after, before, "store", "writes"),
        "service.store.self_ms": self_ms["service.store"],
        "service.store.bytes_per_entry": ratio(
            after.get("store_bytes", 0), after.get("store_entries", 0)),
        "service.self_ms": self_ms["service"],
        "service.append.migrated": migrated,
        "service.append.invalidated": invalidated,
        "service.append.migrate_ratio": ratio(migrated,
                                              migrated + invalidated),
        "service.batch.warm_ms": scenario.batch_warm_s * 1e3,
        "service.batch.execute_ms": scenario.batch_execute_s * 1e3,
        "parallel.pool.self_ms": self_ms["parallel.pool"],
        "parallel.pool.tasks_dispatched": delta(after, before, "worker_pool",
                                                "tasks_dispatched"),
        "parallel.pool.sessions_shipped": delta(after, before, "worker_pool",
                                                "sessions_shipped"),
        "parallel.pool.programs_shipped": delta(after, before, "worker_pool",
                                                "programs_shipped"),
        "parallel.pool.warm_hit_rate": ratio(
            delta(after, before, "worker_pool", "warm_hits"), pool_addressed),
        "parallel.pool.tasks_retried": delta(after, before, "worker_pool",
                                             "tasks_retried"),
        "parallel.pool.worker_restarts": delta(after, before, "worker_pool",
                                               "worker_restarts"),
        "unattributed.self_ms": self_ms["unattributed"],
    }


def stamp() -> dict[str, object]:
    """Hardware and software the result was measured with."""
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            completed = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=False)
            if completed.returncode == 0:
                sha = completed.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "source_sha256": source.hexdigest()[:16],
    }


# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #
def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full",
                 started: float = STARTED) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and report lines.

    Set-up is timed from ``started``: process start for a command-line run,
    so the imports count."""
    scenario = make_scenario(workload, seed, size)
    try:
        scenario.setup()
        setup_s = time.perf_counter() - started
        plain = measure(scenario, seconds)
    finally:
        scenario.close()
    lines = [f"workload {workload} seed {seed} size {size}: "
             f"{' '.join(type(scenario).__doc__.split(chr(10) * 2)[0].split())}",
             f"service config: {scenario.service_config()}",
             f"ops {plain.ops} (window {scenario.window}), reads "
             f"{len(plain.reads_ms)}, writes {len(plain.writes_ms)}, "
             f"queries {plain.queries}, busy {plain.busy_s:.2f} s",
             f"range digest (window) {plain.digest}"]
    runs = [plain]
    if not trace:
        samples = [setup_s] + [setup_sample(workload, seed, size)
                               for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": sorted(samples)[len(samples) // 2],
            "queries_per_s": plain.queries_per_s,
            "latency_p50_ms": percentile(plain.reads_ms, 50),
            "latency_p95_ms": percentile(plain.reads_ms, 95),
            "peak_rss_mb": plain.peak_rss_mb,
        }
        units = END_TO_END
        lines.append("setup samples (s): "
                     + ", ".join(f"{sample:.3f}" for sample in samples))
        lines.append(f"write latency p50 {percentile(plain.writes_ms, 50):.3f}"
                     f" ms, p95 {percentile(plain.writes_ms, 95):.3f} ms")
    else:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        scenario = make_scenario(workload, seed, size)
        try:
            scenario.setup()
            recorder.install()
            try:
                traced = measure(scenario, seconds, recorder)
            finally:
                recorder.uninstall()
        finally:
            scenario.close()
        runs.append(traced)
        spans_path = OUTPUT / f"spans-{workload}-{seed}.jsonl.gz"
        recorder.write(str(spans_path))
        metrics = layer_metrics(traced, scenario, recorder)
        metrics.update({
            # Append latency is measured on the untraced pass.
            "service.write_p50_ms": percentile(plain.writes_ms, 50),
            "service.write_p95_ms": percentile(plain.writes_ms, 95),
            "trace.overhead.queries_per_s": (traced.queries_per_s
                                             - plain.queries_per_s),
            "trace.overhead.latency_p50_ms": (
                percentile(traced.reads_ms, 50)
                - percentile(plain.reads_ms, 50)),
        })
        metrics = {name: metrics[name] for name in PER_LAYER}
        units = PER_LAYER
        lines.append(f"traced pass: ops {traced.ops}, {len(recorder.spans)} "
                     f"spans written to {spans_path.relative_to(ROOT)}, "
                     f"digest {traced.digest}")
        if traced.digest != plain.digest:
            lines.append("warning: traced and untraced ranges differ")
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    for run in runs:
        lines.extend(run.errors)
    lines.append(f"error_frac {ratio(failed, attempted):.6f} "
                 f"({failed} failed / {attempted} attempted)")
    result = {
        "correct": failed == 0 and all(run.digest == plain.digest
                                       for run in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines


def self_test() -> int:
    """Run every workload at reduced size in both modes and check the output."""
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {metric["name"]: metric["unit"] for metric in declared[kind]}
        if listed != units:
            problems.append(f"BENCHMARK.json {kind} differs from run.py")
    from scenarios import SCENARIOS

    if [w["name"] for w in declared["workloads"]] != list(SCENARIOS):
        problems.append("BENCHMARK.json workloads differ from scenarios.py")
    for workload in SCENARIOS:
        for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
            result, lines = run_workload(workload, 1, 0.5, trace, "small",
                                         time.perf_counter())
            print("\n".join(lines))
            metrics = result["metrics"]
            label = f"{workload} trace={int(trace)}"
            if {name: metric["unit"] for name, metric in metrics.items()} \
                    != units:
                problems.append(f"{label}: metric names or units wrong")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed ops")
            for name in DEFINING_COUNTS[workload] if trace else ():
                if not metrics[name]["value"]:
                    problems.append(f"{label}: {name} is zero")
            if trace:
                again, _ = run_workload(workload, 1, 0.5, trace, "small",
                                        time.perf_counter())
                for name in REPEATABLE:
                    if again["metrics"][name] != metrics[name]:
                        problems.append(f"{label}: {name} did not repeat")
            if not trace and not all(metrics[name]["value"] > 0
                                     for name in END_TO_END):
                problems.append(f"{label}: an end-to-end metric is zero")
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=("cold-mixed", "serve-zipf", "append-batch"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="input size (small is for the self-test)")
    parser.add_argument("--out", help="also write the stamped result here")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare_imports()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        scenario = make_scenario(args.workload, args.seed, args.size)
        try:
            scenario.setup()
            print(json.dumps({"setup_s": time.perf_counter() - STARTED}))
        finally:
            scenario.close()
        return 0
    result, lines = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.size)
    info = stamp()
    print("stamp: " + json.dumps(info, sort_keys=True))
    print("\n".join(lines))
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:14.4f} {metric['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "stamp": info, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "result": result,
        }, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
