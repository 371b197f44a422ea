"""Check or re-record the pinned digest tables in tests/digests.json.

The tables pin solver outputs bit for bit: each entry maps a key (an
instance and its arguments) to a sha256 prefix of the output, or to a
tuple holding one.  The tests read them with load_digests, and each table
has an entry function in its test module that recomputes one entry from
its key, the same function its test calls.

    python tests/record_digests.py --check   # exit 0 when every entry is reproduced
    python tests/record_digests.py --write   # recompute every entry and rewrite the file

--check lists each key whose recomputed value differs, and exits 1 if any
does.  --write keeps the keys and rewrites the values from the code as it
is; a change that uses it explains every changed entry in CHANGES.md.
Both use the blotto on PYTHONPATH, or else this checkout's src/.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import sys
import warnings
from pathlib import Path

TESTS = Path(__file__).resolve().parent
DIGESTS = TESTS / "digests.json"

# table name (test module.table) -> the module's entry function
TABLES = {
    "test_commitment.PINNED_DIGESTS": "pinned_entry",
    "test_commitment.TIED_DIGESTS": "tied_entry",
    "test_commitment.PASS_DIGESTS": "pass_entry",
    "test_commitment.EXTREME_DIGESTS": "extreme_entry",
    "test_nash.PINNED_DIGESTS": "pinned_entry",
    "test_oracle.BEST_RESPONSE_DIGESTS": "best_response_entry",
    "test_oracle.COMMITMENT_DIGESTS": "commitment_entry",
}


def _tuple(x):
    return tuple(x) if isinstance(x, list) else x


def load_all() -> dict[str, dict]:
    """Every table, {key: value}; JSON lists are read back as tuples."""
    tables = json.loads(DIGESTS.read_text())
    return {name: {_tuple(k): _tuple(v) for k, v in entries} for name, entries in tables.items()}


def load_digests(table: str) -> dict:
    return load_all()[table]


def _dump(tables: dict[str, dict]) -> str:
    """The file's text: one entry a line, keys in sorted order."""
    blocks = []
    for name, table in tables.items():
        lines = [f"    {json.dumps([list(k) if isinstance(k, tuple) else k, v])}"
                 for k, v in sorted(table.items())]
        blocks.append(f"  {json.dumps(name)}: [\n" + ",\n".join(lines) + "\n  ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def compute(table: str, key):
    """The entry for key of table, from the code as it is."""
    fn = getattr(importlib.import_module(table.split(".")[0]), TABLES[table])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # expected overflow at extreme scales
        return fn(*key) if isinstance(key, tuple) else fn(key)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="list every entry that differs")
    mode.add_argument("--write", action="store_true", help="rewrite every entry from the code")
    args = parser.parse_args(argv)
    if importlib.util.find_spec("blotto") is None:
        sys.path.insert(1, str(TESTS.parent / "src"))  # after tests/, the script's own directory
    recorded = load_all()
    if set(recorded) != set(TABLES):
        sys.exit(f"{DIGESTS.name} holds tables {sorted(recorded)}, expected {sorted(TABLES)}")
    computed, differ, raised = {}, 0, 0
    for table in TABLES:
        computed[table] = {}
        for key, value in sorted(recorded[table].items()):
            try:
                new = _tuple(json.loads(json.dumps(compute(table, key))))
            except Exception as exc:  # an entry that now raises is a difference, not a crash
                new = f"raised {type(exc).__name__}: {exc}"
                raised += 1
            computed[table][key] = new
            if new != value:
                differ += 1
                print(f"{table} {key!r}: recorded {value!r}, computed {new!r}")
    total = sum(len(t) for t in recorded.values())
    if args.write:
        if raised:
            sys.exit(f"{raised} entries raised; {DIGESTS.name} is left as it was")
        DIGESTS.write_text(_dump(computed))
        print(f"wrote {total} entries, {differ} changed, to {DIGESTS}")
        return 0
    print(f"{total - differ} of {total} entries reproduced")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
