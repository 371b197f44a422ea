"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Runs every workload at a tiny size through the traced path of run.py and
checks that

* the traced run returns exactly what the untraced run returned;
* every wrapped module attribute is the original object again afterwards;
* two short timed runs of one seed attempt the same operations, fail the
  same ones and return the same result on every repeat;
* a wrap point whose function does not exist is reported as absent;
* the metric names and units in BENCHMARK.json are the ones reported.

Exits 0 when every check passes.
"""

from __future__ import annotations

import importlib
import json
import sys

import run  # sets the thread variables before numpy is imported
import workloads
from layers import PER_LAYER, per_layer_metrics, wrap_points
from tracer import Tracer, WrapPoint, aggregate


def tiny_workloads():
    yield workloads.CommitLarge(0, sizes=(4, 7))
    yield workloads.NashLarge(0, sizes=(3, 6))
    yield workloads.SweepVerify(0, sweep_n=3, ratios=(0.5, 2.0), grid=workloads.GridSpec(40, 1))
    yield workloads.CliSmall(0)


def snapshot():
    return {
        (p.module, p.attr): getattr(importlib.import_module(p.module), p.attr, None)
        for p in wrap_points()
    }


def main() -> int:
    problems = []
    workloads.OUT.mkdir(exist_ok=True)
    before = snapshot()
    for wl in tiny_workloads():
        wl.warmup_ops, wl.traced_ops = 0, 2
        metrics, records, extra = run.traced(wl, workloads.failure_class, workloads.fingerprint)
        if not extra["traced_matches_untraced"]:
            problems.append(f"{wl.name}: traced results differ at ops {extra['mismatched_ops']}")
        if extra["not_restored"]:
            problems.append(f"{wl.name}: not restored: {extra['not_restored']}")
        if not extra["spans"]:
            problems.append(f"{wl.name}: the traced run recorded no spans")
        if set(metrics) != {name for name, _ in PER_LAYER}:
            problems.append(f"{wl.name}: per-layer metric names differ from PER_LAYER")
        changed = [key for key, value in snapshot().items() if value is not before[key]]
        if changed:
            problems.append(f"{wl.name}: attributes changed after the run: {changed}")
        print(f"{wl.name}: {len(records)} ops, {extra['spans']} spans, "
              f"traced == untraced: {extra['traced_matches_untraced']}")

    run.SETUP_REPEATS = 1
    timed = []
    for _ in range(2):
        wl = workloads.NashLarge(0, sizes=(3, 200))
        metrics, records, extra = run.end_to_end(wl, 0.5, workloads.failure_class, workloads.fingerprint)
        timed.append([(rec.op.n, workloads.fingerprint(rec.op.args), rec.failure) for rec in records])
        if extra["repeats_differ"] or extra["timed_ops"] < len(records):
            problems.append(f"timed run: repeats differ at {extra['repeats_differ']}, "
                            f"{extra['timed_ops']} timed runs of {len(records)} operations")
    if timed[0] != timed[1]:
        problems.append("two timed runs of one seed attempted or failed different operations")
    print(f"timed: {len(timed[0])} distinct operations, {sum(f is not None for *_, f in timed[0])} failed, in both runs")

    missing = Tracer([WrapPoint("blotto.nash", "brentq", "nash"),
                      WrapPoint("blotto.nash", "no_such_function", "nash")], workloads.failure_class)
    missing.install()
    missing.restore()
    if missing.absent != ["nash.no_such_function"]:
        problems.append(f"absent names: {missing.absent}")
    measured_elsewhere = {name: 0.0 for name, _ in PER_LAYER if name.startswith("import.")}
    measured_elsewhere["cli.golden_bytes_identical"] = 0
    absent_metrics = per_layer_metrics(aggregate([]), {"nash.brentq"}, measured_elsewhere)
    if absent_metrics["nash.brentq.calls"] is not None or absent_metrics["nash.nash_poly.calls"] != 0:
        problems.append("a missing wrap point is not reported as absent")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")

    for problem in problems:
        print("FAIL:", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
