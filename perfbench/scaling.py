"""Scaling report: one optimal_commitment and one solve_nash per size.

    python3 perfbench/scaling.py

Not gated and not part of the timed workloads: single calls, so the times
are rough.  Each size in SIZES draws one instance with default_rng(SEED),
as ``blotto gen --n N --seed 0`` would.  A call that raises is recorded as
a failure with its class and message, never left out.  Writes
perfbench/out/scaling-seed0.json and prints a table.  The n=2048
commitment alone takes about a minute.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np

import run  # sets the thread variables before numpy is used
from workloads import OUT, failure_class, gen_instance, optimal_commitment, solve_nash

SIZES = (2, 8, 32, 128, 512, 2048)
SEED = 0


def main() -> int:
    rows = []
    print(f"{'n':>6s} {'call':20s} {'seconds':>10s}  outcome")
    for n in SIZES:
        instance = gen_instance(np.random.default_rng(SEED), n)
        for name, solver in (("optimal_commitment", optimal_commitment), ("solve_nash", solve_nash)):
            start = perf_counter()
            try:
                solver(instance)
                outcome, message = "ok", ""
            except Exception as exc:  # failures are part of the report
                outcome, message = failure_class(exc), str(exc)[:200]
            seconds = perf_counter() - start
            rows.append({"n": n, "call": name, "seconds": seconds, "outcome": outcome, "message": message})
            print(f"{n:6d} {name:20s} {seconds:10.4f}  {outcome} {message[:60]}", flush=True)
    OUT.mkdir(exist_ok=True)
    report = {"seed": SEED, "environment": run.environment(), "rows": rows}
    (OUT / f"scaling-seed{SEED}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
