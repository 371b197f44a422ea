"""Command-line front end.

Subcommands: solve-br, solve-commitment, solve-nash, compare, sweep,
verify, gen.  Instances are single JSON objects ({"budget_a", "budget_b",
"values_a", "values_b"}, plus an optional "commit_a" leader allocation for
solve-br), reports are JSON, sweeps are CSV.  Exit status 0 on success, 2
on input errors, 3 on solver-invariant failures.  Identical inputs always
produce byte-identical outputs.

Reports are the library's result types: solve-br prints a
BestResponseResult, solve-commitment a CommitmentSolution, solve-nash a
NashSolution and compare a ComparisonReport, each through one rule
(_report): a dataclass is the dict of its fields, an Allocation the list of
its amounts, a tuple a list.  So a report lists exactly its type's fields; a
field added to a result type shows in the report, and the golden replay
(tests/test_golden.py) flags it.  The three commands that only solve the
instance share _cmd_solve, which reads its solver's name from _SOLVERS;
solve-br has its own command for the "commit_a" it reads.

What loads when: this module loads what ``import blotto`` loads (the data
model and the best response).  Any other public name of the package
resolves through the package on its first access here (see __getattr__),
so each command compiles only the modules it runs: solve-commitment loads
blotto.commitment, solve-nash blotto.nash, compare and sweep
blotto.analysis (with commitment and nash), verify blotto.commitment and
blotto.oracle, and solve-br and gen nothing more.  Commands look those
solvers up on this module when they run, so a solver patched here, as a
test or the benchmark tracer does, is the one called.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .best_response import best_response
from .game_core import (
    Allocation,
    GameInstance,
    InputError,
    SolverInvariantError,
    canonical_ordering,
    instance_from_dict,
    total_utility,
)

# The package, and this module as the commands see it (it is __main__
# under ``python -m blotto.cli``).
_package = sys.modules[__package__]
_cli = sys.modules[__name__]


def __getattr__(name: str):
    """A public name of the package, loaded through it on first access."""
    if name not in _package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_package, name)


EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3

# verify tolerances: closed forms must beat the oracle up to noise, and the
# oracle must land this close to them (absolute, desk-scale values).
VERIFY_BR_ATOL = 1e-4
VERIFY_COMMIT_ATOL = 1e-3
VERIFY_SOUND_ATOL = 1e-9

GEN_LOW, GEN_HIGH = 0.1, 10.0


def _load_instance(path: str) -> tuple[GameInstance, dict]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read instance file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputError(f"{path}: cannot parse JSON: {exc}") from exc
    try:
        return instance_from_dict(data), data
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _emit(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
    else:
        try:
            Path(output_path).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {output_path}: {exc}") from exc


def _dump(payload: dict, output_path: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", output_path)


def _report(value):
    """A result as JSON data: a dataclass is the dict of its fields, an
    Allocation the list of its amounts, a tuple a list."""
    if isinstance(value, Allocation):
        return value.amounts.tolist()
    if dataclasses.is_dataclass(value):
        return {f.name: _report(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_report(x) for x in value]
    return value


def _cmd_solve_br(args: argparse.Namespace) -> int:
    instance, raw = _load_instance(args.instance)
    if "commit_a" not in raw:
        raise InputError(
            f"{args.instance}: solve-br needs a \"commit_a\" array "
            f"(the leader allocation to respond to)"
        )
    try:
        commit = Allocation(raw["commit_a"], instance.budget_a)
    except InputError as exc:
        raise InputError(f"{args.instance}: commit_a: {exc}") from exc
    _dump(_report(best_response(instance, commit)), args.out)
    return EXIT_OK


# Each command that only solves the instance, by the name of its solver.
_SOLVERS = {
    "solve-commitment": "optimal_commitment",
    "solve-nash": "solve_nash",
    "compare": "compare_equilibria",
}


def _cmd_solve(args: argparse.Namespace) -> int:
    instance, _ = _load_instance(args.instance)
    _dump(_report(getattr(_cli, _SOLVERS[args.command])(instance)), args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    instance, _ = _load_instance(args.instance)
    r_min, r_max, steps = args.r_min, args.r_max, args.steps
    for flag, value in (("--r-min", r_min), ("--r-max", r_max)):
        if not math.isfinite(value):
            raise InputError(f"{flag} must be finite, got {value}")
    if r_min <= 0:
        raise InputError(f"--r-min must be positive, got {r_min}")
    if steps < 2:
        raise InputError(f"--steps must be >= 2, got {steps}")
    if r_max < r_min:
        raise InputError("--r-max must be >= --r-min")
    rows = _cli.budget_sweep(instance, np.linspace(r_min, r_max, steps))
    buffer = io.StringIO()
    _cli.write_sweep_csv(rows, buffer)
    _emit(buffer.getvalue(), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    grid = _cli.GridSpec(resolution=args.resolution, refinement_rounds=args.refine)
    instance, _ = _load_instance(args.instance)
    failures = []

    se = _cli.optimal_commitment(instance)
    proportional = Allocation(
        instance.values_a / instance.values_a.sum() * instance.budget_a,
        instance.budget_a,
    )
    for label, leader in (("commitment", se.allocation), ("proportional", proportional)):
        reply = best_response(instance, leader)
        closed = total_utility(instance, "b", leader, reply.allocation)
        _, grid_utility = _cli.oracle_best_response(instance, leader, grid)
        if closed < grid_utility - VERIFY_SOUND_ATOL:
            failures.append(
                f"best response at {label} point is beaten by the grid: "
                f"{closed!r} < {grid_utility!r}"
            )
        if abs(closed - grid_utility) > VERIFY_BR_ATOL:
            failures.append(
                f"best response at {label} point is {abs(closed - grid_utility):.3g} "
                f"from the grid optimum (tolerance {VERIFY_BR_ATOL})"
            )

    _, oracle_u, oracle_support = _cli.oracle_commitment(instance, grid)
    if se.leader_utility < oracle_u - VERIFY_COMMIT_ATOL:
        failures.append(
            f"commitment solver ({se.leader_utility!r}) is beaten by the "
            f"grid ({oracle_u!r}) beyond {VERIFY_COMMIT_ATOL}"
        )
    # The solver's support must be a canonical prefix.  The grid's only
    # matters when the grid beats the solver: a near-optimal grid point the
    # solver already beats may have any support.
    _, ordering = canonical_ordering(instance)
    position = ordering.to_original(np.arange(instance.n))  # canonical position of j
    supports = [("solver", se.support)]
    if oracle_u > se.leader_utility + VERIFY_SOUND_ATOL:
        supports.append(("grid-optimal", oracle_support))
    for label, support in supports:
        canon_positions = sorted(int(position[j]) for j in support)
        if canon_positions != list(range(len(canon_positions))):
            failures.append(
                f"{label} support {sorted(support)} is not a prefix "
                f"in canonical ratio order (positions {canon_positions})"
            )

    payload = {
        "checks_failed": failures,
        "grid": {"resolution": grid.resolution, "refinement_rounds": grid.refinement_rounds},
        "solver_leader_utility": se.leader_utility,
        "grid_leader_utility": oracle_u,
    }
    _dump(payload, args.out)
    if failures:
        raise SolverInvariantError("; ".join(failures))
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise InputError(f"gen requires --n >= 1, got {args.n}")
    if args.seed < 0:
        raise InputError(f"gen requires --seed >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    payload = {
        "budget_a": float(rng.uniform(GEN_LOW, GEN_HIGH)),
        "budget_b": float(rng.uniform(GEN_LOW, GEN_HIGH)),
        "values_a": [float(x) for x in rng.uniform(GEN_LOW, GEN_HIGH, args.n)],
        "values_b": [float(x) for x in rng.uniform(GEN_LOW, GEN_HIGH, args.n)],
    }
    _dump(payload, args.out)
    return EXIT_OK


_COMMANDS = {
    "solve-br": _cmd_solve_br,
    **dict.fromkeys(_SOLVERS, _cmd_solve),
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blotto",
        description="Lottery Colonel Blotto solvers: best response, "
        "Stackelberg commitment, Nash equilibrium, and comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_io(p, instance=True):
        if instance:
            p.add_argument("--instance", required=True, metavar="PATH")
        p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        return p

    with_io(sub.add_parser("solve-br", help="follower best response to commit_a"))
    with_io(sub.add_parser("solve-commitment", help="leader's optimal commitment"))
    with_io(sub.add_parser("solve-nash", help="Nash equilibrium"))
    with_io(sub.add_parser("compare", help="solve both equilibria and compare"))

    sweep = with_io(sub.add_parser("sweep", help="utilities across budget ratios (CSV)"))
    sweep.add_argument("--r-min", type=float, required=True)
    sweep.add_argument("--r-max", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)

    verify = with_io(sub.add_parser("verify", help="cross-check solvers against grid oracles"))
    verify.add_argument("--resolution", type=int, default=500)
    verify.add_argument("--refine", type=int, default=3)

    gen = with_io(sub.add_parser("gen", help="generate a random instance"), instance=False)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverInvariantError as exc:
        print(f"solver invariant failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
