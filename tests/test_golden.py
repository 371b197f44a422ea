"""Golden-corpus replay: every CLI report in perfbench/golden/corpus.json is
reproduced byte for byte.

The corpus holds the instances ``blotto gen --n N --seed K`` printed (with
commit_a set to the equal split) and the exit status and report of each
cli-small command on them.  Each entry is replayed in-process through
blotto.cli.main with the same arguments the benchmark uses.
"""

import json
import sys
from pathlib import Path

import pytest

from blotto.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CORPUS = json.loads((PERFBENCH / "golden" / "corpus.json").read_text())

sys.path.insert(0, str(PERFBENCH))
from workloads import CliSmall  # noqa: E402  (perfbench is not a package)


@pytest.mark.parametrize("entry", sorted(CORPUS["outputs"]))
def test_report_is_byte_identical(entry, tmp_path):
    command, key = entry.split("/")
    instance = tmp_path / f"{key}.json"
    instance.write_text(json.dumps(CORPUS["instances"][key]))
    out = tmp_path / "report"
    extra = list(CliSmall.sweep_args) if command == "sweep" else []
    code = main([command, "--instance", str(instance), "--out", str(out), *extra])
    expected = CORPUS["outputs"][entry]
    assert code == expected["exit"]
    assert out.read_bytes() == expected["stdout"].encode()
