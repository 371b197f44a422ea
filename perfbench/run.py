"""Benchmark for the blotto solvers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (see workloads.py for why each exists): cli-small, commit-large
and nash-large, which BENCHMARK.json gates, and sweep-verify, which runs
the same way but is not gated.  ``all`` runs each of them untraced and
traced in child processes and prints one table.

--trace 0 measures the end-to-end metrics with tracing off: a closed loop
with one client cycles through a fixed, seeded list of distinct operations
for S seconds after a warm-up (at least one whole pass), with the fresh
imports behind setup_s spread over the loop; then every distinct result is
checked.
--trace 1 gives the per-layer metrics: it runs the workload's fixed list of
operations once untraced and once with the span tracer installed, checks
that both returned the same results, and reports counts and self times from
the spans (so counts repeat exactly for a seed), plus the import split.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  attempted and failed count distinct operations, so for a seed
they repeat exactly.  A fuller record (environment, every sample, failure
census, span attribution, tracing overhead) goes to perfbench/out/.
"""

from __future__ import annotations

import os

# One client on a two-core machine: keep numerical libraries single-threaded.
# Set before numpy is imported here or in any child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from layers import PER_LAYER, per_layer_metrics, wrap_points  # noqa: E402
from tracer import Tracer, aggregate, concat, load_spans, write_spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("cli-small", "commit-large", "nash-large")  # gated in BENCHMARK.json
UNGATED = ("sweep-verify",)
SETUP_REPEATS = 11
IMPORT_REPEATS = 3

# (name, unit) of the end-to-end metrics, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_ops_share", "share"),
    ("peak_rss_mb", "MB"),
]


@dataclass
class Record:
    op: object
    seconds: float
    output: object
    failure: str | None  # census class, None when the operation succeeded
    detail: str = ""


def fresh_import(flags: tuple[str, ...] = ()) -> tuple[float, str]:
    """Wall seconds for a new interpreter to ``import blotto``, and its stderr."""
    from workloads import child_env  # imports blotto, so not before main() checked src/

    start = perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", "import blotto"], capture_output=True,
                          text=True, env=child_env(), cwd=ROOT, timeout=120, check=True)
    return perf_counter() - start, proc.stderr


def import_split() -> dict[str, float]:
    """Split one ``import blotto`` into interpreter start, numpy, scipy and
    blotto's own modules, from ``-X importtime``.  Only what blotto really
    imports is counted, so a dependency it drops reads 0.  A module is
    charged to the outermost of numpy and scipy that pulled it in (numpy
    submodules that scipy loads are scipy's cost)."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        wall, stderr = fresh_import(("-X", "importtime"))
        cumulative = {"numpy": 0.0, "scipy": 0.0, "blotto": 0.0}
        stack: list[tuple[int, str]] = []
        # Lines come children-first; reversed, each line follows its parent.
        for line in reversed(stderr.splitlines()):
            if not line.startswith("import time:") or "imported package" in line:
                continue
            _, cum, raw = line.split("|")
            level, top = len(raw) - len(raw.lstrip()), raw.strip().split(".")[0]
            while stack and stack[-1][0] >= level:
                stack.pop()
            ancestors = {name for _, name in stack}
            charged = {"numpy", "scipy"} if top != "blotto" else {"blotto"}
            if top in cumulative and not ancestors & charged:
                cumulative[top] += int(cum) / 1e6
            stack.append((level, top))
        runs.append({
            "import.interpreter_s": wall - cumulative["blotto"],
            "import.numpy_s": cumulative["numpy"],
            "import.scipy_s": cumulative["scipy"],
            "import.blotto_s": cumulative["blotto"] - cumulative["numpy"] - cumulative["scipy"],
        })
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def environment() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None  # an exported tree (no .git) has no commit to report
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_op(wl, op, failure_class) -> Record:
    start = perf_counter()
    try:
        output = wl.run(op)
    except Exception as exc:  # a failed operation is recorded, not fatal
        return Record(op, perf_counter() - start, exc, failure_class(exc), str(exc)[:300])
    return Record(op, perf_counter() - start, output, None)


def check_all(wl, records: list[Record]) -> None:
    """Correctness checks, after timing: a failed check fails the operation."""
    for rec in records:
        if rec.failure is None:
            problem = wl.check(rec.op, rec.output)
            if problem:
                rec.failure, rec.detail = "check", problem


def census(workload: str, records: list[Record]) -> list[dict]:
    counts = Counter((rec.op.kind, rec.op.n, rec.failure) for rec in records if rec.failure)
    examples = {}
    for rec in records:
        if rec.failure:
            examples.setdefault((rec.op.kind, rec.op.n, rec.failure), rec.detail)
    return [
        {"workload": workload, "op": kind, "n": n, "class": cls, "count": count, "example": examples[(kind, n, cls)]}
        for (kind, n, cls), count in sorted(counts.items(), key=lambda item: (item[0][1], item[0][0], item[0][2]))
    ]


def peak_rss_mb(wl) -> float:
    kb = wl.peak_child_kb if hasattr(wl, "peak_child_kb") else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _metric(value: float | None, unit: str) -> dict:
    """One metric of the result line; a name the program no longer has is
    reported as absent (value null), never as a number."""
    if value is None:
        return {"value": None, "unit": unit, "absent": True}
    return {"value": value, "unit": unit}


def golden_identical(wl, records: list[Record]) -> int:
    """CLI reports byte-identical to the golden corpus (0 off cli-small)."""
    if not hasattr(wl, "golden_identical"):
        return 0
    return sum(wl.golden_identical(rec.op, rec.output) for rec in records if rec.failure is None)


def end_to_end(wl, seconds: float, failure_class, fingerprint) -> tuple[dict, list[Record], dict]:
    """Cycle through the workload's fixed list of distinct operations for
    ``seconds`` of operation time, always finishing at least one pass.

    The list depends only on the seed and ``seconds``, so which operations
    were attempted and which failed repeats exactly for a seed.  Every
    distinct operation is checked once, after timing; a repeat must return
    exactly what its first run returned.  The fresh imports behind setup_s
    are spread over the loop, between operations and outside its time, so
    they sample the same stretch of machine time as the operations.
    """
    def outcome(rec: Record) -> bytes:
        return hashlib.blake2b(f"{rec.failure}:{fingerprint(rec.output)}".encode()).digest()

    ops = wl.ops(wl.distinct_ops(seconds))
    for op in ops[:wl.warmup_ops]:
        run_op(wl, op, failure_class)
    first: list[Record] = []
    outcomes: list[bytes] = []
    repeats_differ: set[int] = set()
    times_ms: list[float] = []
    setup: list[float] = []
    paused = 0.0
    start = perf_counter()
    while len(times_ms) < len(ops) or perf_counter() - start - paused < seconds:
        if len(setup) < SETUP_REPEATS and perf_counter() - start - paused >= len(setup) * seconds / SETUP_REPEATS:
            pause = perf_counter()
            setup.append(fresh_import()[0])
            paused += perf_counter() - pause
        k = len(times_ms) % len(ops)
        rec = run_op(wl, ops[k], failure_class)
        times_ms.append(rec.seconds * 1e3)
        pause = perf_counter()
        if len(first) < len(ops):
            first.append(rec)
            outcomes.append(outcome(rec))
        elif outcome(rec) != outcomes[k]:
            repeats_differ.add(k)
        paused += perf_counter() - pause
    loop_s = perf_counter() - start - paused
    while len(setup) < SETUP_REPEATS:
        setup.append(fresh_import()[0])
    check_all(wl, first)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_ms_p50": _percentile(times_ms, 0.5),
        "op_ms_p90": _percentile(times_ms, 0.9),
        "ops_per_s": len(times_ms) / loop_s,
        "ok_ops_share": sum(rec.failure is None for rec in first) / len(first),
        "peak_rss_mb": peak_rss_mb(wl),
    }
    extra = {
        "loop_s": loop_s, "timed_ops": len(times_ms), "distinct_ops": len(ops),
        "repeats_differ": sorted(repeats_differ), "setup_samples_s": setup,
        "samples_ms": times_ms,
    }
    return metrics, first, extra


def traced(wl, failure_class, fingerprint) -> tuple[dict, list[Record], dict]:
    ops = wl.ops(wl.traced_ops)
    for op in ops[:wl.warmup_ops]:
        run_op(wl, op, failure_class)

    start = perf_counter()
    plain = [run_op(wl, op, failure_class) for op in ops]
    plain_s = perf_counter() - start

    tracer = Tracer(wrap_points(), failure_class)
    cli = hasattr(wl, "spans_dir")
    if cli:  # every CLI child process traces itself
        wl.spans_dir = BENCH / "out" / f"spans-{os.getpid()}"
        wl.spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.install()
    start = perf_counter()
    records = []
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            records.append(run_op(wl, op, failure_class))
    finally:
        traced_s = perf_counter() - start
        left = tracer.restore()
    spans, absent = tracer.spans, set(tracer.absent)
    if cli:
        groups = []
        for i, path in enumerate(wl.spans_files):
            if path.exists():  # absent only if the child died before writing
                group, missing = load_spans(path, i)
                path.unlink()
                groups.append(group)
                absent.update(missing)
        wl.spans_dir.rmdir()
        wl.spans_dir = None
        spans = concat(groups)

    mismatched = [i for i, (a, b) in enumerate(zip(plain, records)) if fingerprint(a.output) != fingerprint(b.output)]
    check_all(wl, records)
    stats = aggregate(spans)
    extra_metrics = import_split()
    extra_metrics["cli.golden_bytes_identical"] = golden_identical(wl, plain)
    metrics = per_layer_metrics(stats, absent, extra_metrics)
    attribution = {
        key: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, "outcomes": dict(s.outcomes)}
        for key, s in sorted(stats.items(), key=lambda item: -item[1].self_s)
    }
    extra = {
        "ops": len(ops),
        "untraced_ops_per_s": len(ops) / plain_s,
        "traced_ops_per_s": len(ops) / traced_s,
        "tracing_overhead": traced_s / plain_s - 1,
        "traced_matches_untraced": not mismatched,
        "mismatched_ops": mismatched,
        "not_restored": left,
        "absent": sorted(absent),
        "attribution": attribution,
        "spans": len(spans),
    }
    write_spans(BENCH / "out" / f"spans-{wl.name}-seed{wl.seed}.json", spans, sorted(absent))
    return metrics, records, extra


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    if trace:
        metrics, records, extra = traced(wl, workloads.failure_class, workloads.fingerprint)
        units = dict(PER_LAYER)
        correct = (
            extra["traced_matches_untraced"] and not extra["not_restored"]
            and not any(rec.failure == "check" for rec in records)
        )
    else:
        metrics, records, extra = end_to_end(wl, seconds, workloads.failure_class, workloads.fingerprint)
        units = dict(END_TO_END)
        correct = not any(rec.failure == "check" for rec in records) and not extra["repeats_differ"]
        extra["golden_bytes_identical"] = golden_identical(wl, records)
    failures = census(name, records)
    failed = sum(rec.failure is not None for rec in records)

    print(f"workload {name}  seed {seed}  trace {trace}  ops {len(records)}  failed {failed}  correct {correct}")
    for key, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {key:56s} {shown:>12s} {units[key]}")
    if trace:
        print(f"  tracing overhead: {extra['untraced_ops_per_s']:.4g} ops/s untraced, "
              f"{extra['traced_ops_per_s']:.4g} traced, on the same {extra['ops']} operations")
        print("  largest self times (s):")
        for key, stat in list(extra["attribution"].items())[:8]:
            print(f"    {key:52s} {stat['self_s']:9.4f}  calls {stat['calls']}")
    else:
        print(f"  {extra['distinct_ops']} distinct operations, {extra['timed_ops']} timed runs of them "
              f"in {extra['loop_s']:.2f} s; setup_s is the median of {SETUP_REPEATS} fresh imports")
        if extra["repeats_differ"]:
            print(f"  repeats returned something else than the first run: ops {extra['repeats_differ'][:20]}")
    for row in failures:
        print(f"  failed: {row['count']:4d} x {row['op']} n={row['n']} class={row['class']}  ({row['example'][:100]})")

    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "census": failures,
        "environment": environment(),
        "first_runs": [{"op": rec.op.kind, "n": rec.op.n, "ms": rec.seconds * 1e3, "failure": rec.failure} for rec in records],
        **extra,
    }
    with open(BENCH / "out" / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    line = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {key: _metric(value, units[key]) for key, value in metrics.items()},
    }
    print(json.dumps(line), flush=True)
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    rows = []
    for name in WORKLOAD_NAMES + UNGATED:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=900,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace {trace}: exit {proc.returncode}")
                return proc.returncode
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            rows.append((name, trace, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("\nend-to-end metrics (tracing off)")
    print(f"{'workload':14s}" + "".join(f"{key:>14s}" for key, _ in END_TO_END) + f"{'failed':>9s}")
    for name, trace, line in rows:
        if trace == 0:
            cells = "".join(f"{line['metrics'][key]['value']:>14.5g}" for key, _ in END_TO_END)
            print(f"{name:14s}{cells}{line['failed']:>6d}/{line['attempted']}")
    print("units: " + ", ".join(f"{key} {unit}" for key, unit in END_TO_END))
    return 0 if all(line["correct"] for _, _, line in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, *UNGATED, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "blotto" / "__init__.py").is_file():
        print(f"error: no blotto package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    (BENCH / "out").mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
