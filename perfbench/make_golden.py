"""Record the golden corpus that the cli-small workload checks against.

    python3 perfbench/make_golden.py

For every size in SIZES and K < INSTANCES_PER_SIZE it takes the instance
``blotto gen --n N --seed K`` prints, sets commit_a to the equal split,
runs each cli-small command on it with ``python -m blotto.cli``, and
writes the inputs, stdout and exit status to golden/corpus.json.  Run it
only to re-record the reference outputs on purpose; the benchmark compares
later commits against whatever this recorded.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import environment
from workloads import GOLDEN, OUT, ROOT, CliSmall, child_env

SIZES = (2, 3, 5, 16)
VERIFY_SIZES = (2, 3)
INSTANCES_PER_SIZE = 8


def _cli(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "blotto.cli", *args], capture_output=True, text=True, env=env, cwd=ROOT)


def main() -> int:
    env = child_env()
    inputs = OUT / "golden-inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    instances, outputs = {}, {}
    for n in SIZES:
        for k in range(INSTANCES_PER_SIZE):
            data = json.loads(_cli(["gen", "--n", str(n), "--seed", str(k)], env).stdout)
            data["commit_a"] = [data["budget_a"] / n] * n
            key = CliSmall.key(n, k)
            instances[key] = data
            path = inputs / f"{key}.json"
            path.write_text(json.dumps(data))
            for command in CliSmall.commands:
                if command == "verify" and n not in VERIFY_SIZES:
                    continue
                extra = list(CliSmall.sweep_args) if command == "sweep" else []
                proc = _cli([command, "--instance", str(path), *extra], env)
                outputs[f"{command}/{key}"] = {"exit": proc.returncode, "stdout": proc.stdout}
                print(f"{command:17s} {key:7s} exit {proc.returncode}", flush=True)
    corpus = {
        "recorded_at": environment()["git_commit"],
        "sizes": list(SIZES),
        "verify_sizes": list(VERIFY_SIZES),
        "instances_per_size": INSTANCES_PER_SIZE,
        "instances": instances,
        "outputs": outputs,
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
