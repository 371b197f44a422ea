"""The benchmark's workloads: seeded inputs, the operations run on them, and
the correctness check applied to every result.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished.  Inputs are drawn here from the same
distribution as ``blotto gen`` (budgets and values U[0.1, 10]) with
``numpy.random.default_rng(seed)``; the solvers only ever see the drawn
instances.  The budget pairs of a list are stratified over the square (see
stratified_budgets).  A list depends only on the seed and its length, never
on how fast the program runs.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden" / "corpus.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from blotto import (  # noqa: E402  (needs SRC on sys.path)
    Allocation,
    GameInstance,
    InputError,
    SolverInvariantError,
    best_response,
    budget_sweep,
    canonical_ordering,
    oracle_best_response,
    oracle_commitment,
    optimal_commitment,
    solve_nash,
    total_utility,
)
from blotto.oracle import GridSpec  # noqa: E402

GEN_LOW, GEN_HIGH = 0.1, 10.0
PASS_SHARE = 0.6


def child_env() -> dict:
    """Environment for child interpreters: this process's, with src/ first
    on PYTHONPATH (the package is run from source, not installed)."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def gen_instance(rng: np.random.Generator, n: int) -> GameInstance:
    """One instance, drawn in the same order as ``blotto gen``."""
    return GameInstance(
        budget_a=float(rng.uniform(GEN_LOW, GEN_HIGH)),
        budget_b=float(rng.uniform(GEN_LOW, GEN_HIGH)),
        values_a=rng.uniform(GEN_LOW, GEN_HIGH, n),
        values_b=rng.uniform(GEN_LOW, GEN_HIGH, n),
    )


def stratified_budgets(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` (budget_a, budget_b) pairs, each uniform on
    [GEN_LOW, GEN_HIGH]^2 as in ``blotto gen``, spread over the square: one
    pair in each of ``count`` distinct cells of an m x m grid (all of them
    when count = m^2), in random order.  A solve's cost follows the budget
    ratio, so without the grid the median cost of a list moves with how
    its pairs happen to bunch; with it, it varies less between seeds."""
    m = math.isqrt(count - 1) + 1
    cells = rng.permutation(m * m)[:count]
    unit = (np.stack(np.divmod(cells, m), axis=1) + rng.random((count, 2))) / m
    return GEN_LOW + (GEN_HIGH - GEN_LOW) * unit


def draw_instance(rng: np.random.Generator, n: int, budgets) -> GameInstance:
    """An instance with the given budgets and values drawn U[GEN_LOW, GEN_HIGH]."""
    return GameInstance(
        budget_a=float(budgets[0]),
        budget_b=float(budgets[1]),
        values_a=rng.uniform(GEN_LOW, GEN_HIGH, n),
        values_b=rng.uniform(GEN_LOW, GEN_HIGH, n),
    )


def tolerance(name: str) -> float:
    """A tolerance constant, read from whichever blotto module defines it,
    so the checks use exactly the package's own values."""
    for module in ("game_core", "nash", "cli", "best_response", "commitment", "analysis", "oracle"):
        try:
            value = getattr(importlib.import_module(f"blotto.{module}"), name, None)
        except ImportError:
            continue
        if value is not None:
            return float(value)
    raise LookupError(f"no blotto module defines {name}")


BUDGET_SUM_RTOL = tolerance("BUDGET_SUM_RTOL")
MUTUAL_BR_RTOL = tolerance("MUTUAL_BR_RTOL")
VERIFY_BR_ATOL = tolerance("VERIFY_BR_ATOL")
VERIFY_COMMIT_ATOL = tolerance("VERIFY_COMMIT_ATOL")
VERIFY_SOUND_ATOL = tolerance("VERIFY_SOUND_ATOL")


class CliExit(Exception):
    """A CLI process exited with a non-zero status."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip()[-300:]}")
        self.code = code


def failure_class(exc: BaseException) -> str:
    """Census class of a failed operation: input_error (InputError, exit 2),
    invariant (SolverInvariantError, exit 3), or the exception's name."""
    if isinstance(exc, CliExit):
        return {2: "input_error", 3: "invariant"}.get(exc.code, f"exit_{exc.code}")
    if isinstance(exc, InputError):
        return "input_error"
    if isinstance(exc, SolverInvariantError):
        return "invariant"
    return type(exc).__name__


def _plain(obj):
    if is_dataclass(obj):
        return tuple((f.name, _plain(getattr(obj, f.name))) for f in fields(obj))
    if isinstance(obj, np.ndarray):
        return tuple(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return tuple(_plain(x) for x in obj)
    if isinstance(obj, BaseException):
        return (type(obj).__name__, str(obj))
    return obj


def fingerprint(output) -> str:
    """Exact text form of an operation's result (or raised error), for
    checking that a traced run returns what the untraced run returned."""
    return repr(_plain(output))


@dataclass(frozen=True)
class Op:
    kind: str
    n: int
    args: tuple


def _close(got: float, want: float, tol: float) -> bool:
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return abs(got - want) <= tol


def _budget_error(amounts, budget: float) -> str | None:
    total = float(np.sum(amounts))
    if abs(total - budget) > BUDGET_SUM_RTOL * budget:
        return f"allocation sums to {total!r}, budget {budget!r}"
    return None


def _mutual_br_error(instance: GameInstance, alloc_a: Allocation, alloc_b: Allocation) -> str | None:
    reply_b = best_response(instance, alloc_a).allocation.amounts
    gap_b = float(np.max(np.abs(reply_b - alloc_b.amounts)))
    if gap_b > MUTUAL_BR_RTOL * instance.budget_b:
        return f"alloc_b is {gap_b:.3g} from the follower's best response"
    swapped = GameInstance(instance.budget_b, instance.budget_a, instance.values_b, instance.values_a)
    reply_a = best_response(swapped, alloc_b).allocation.amounts
    gap_a = float(np.max(np.abs(reply_a - alloc_a.amounts)))
    if gap_a > MUTUAL_BR_RTOL * instance.budget_a:
        return f"alloc_a is {gap_a:.3g} from the leader's best response"
    return None


def _is_canonical_prefix(instance: GameInstance, support) -> bool:
    _, ordering = canonical_ordering(instance)
    return set(support) == {int(j) for j in ordering.permutation[: len(support)]}


def commitment_error(instance: GameInstance, se) -> str | None:
    """Budget identity, canonical-prefix support, and a best response that
    reproduces the support."""
    problem = _budget_error(se.allocation.amounts, instance.budget_a)
    if problem:
        return problem
    if not _is_canonical_prefix(instance, se.support):
        return f"support {sorted(se.support)} is not a canonical-ratio prefix"
    realized = set(best_response(instance, se.allocation).support)
    if realized != set(se.support):
        return f"best response support {sorted(realized)} != {sorted(se.support)}"
    return None


class Workload:
    """A seeded list of operations: cycles of cycle_len operations, one per
    slot of the cycle (a size, or a command)."""

    name = ""
    warmup_ops = 0  # operations run untimed first, to finish lazy set-up
    traced_ops = 0  # length of the fixed list the traced run measures
    cycle_len = 1
    nominal_ops_per_s = 1.0  # rough rate on a 2-vCPU Xeon; sizes the timed list

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self, count: int) -> list[Op]:
        """The list of ``count`` operations for this seed (whole cycles,
        cut to count): the same seed and count give the same list."""
        cycles = -(-count // self.cycle_len)
        return self._cycles(np.random.default_rng(self.seed), cycles)[:count]

    def distinct_ops(self, seconds: float) -> int:
        """Length of the list a timed run cycles through: a square number
        of cycles (so stratified_budgets fills its whole grid) that takes
        about PASS_SHARE of the run at the nominal rate, so that one pass
        ends inside the run even when the machine is slow."""
        m = max(1, round(math.sqrt(PASS_SHARE * seconds * self.nominal_ops_per_s / self.cycle_len)))
        return m * m * self.cycle_len

    def _cycles(self, rng: np.random.Generator, cycles: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, output) -> str | None:
        raise NotImplementedError


class CommitLarge(Workload):
    """optimal_commitment on fresh instances, cycling through the sizes.

    One call's cost varies about 20x between instances of one size: it
    grows with the budget ratio x_a/x_b (the log cost correlates 0.8-0.9
    with the log ratio).  So the median of a run only repeats across seeds
    when the run sees several hundred instances with stratified budgets;
    at n up to 32 a 30-second run has 675.  Larger n is covered, ungated,
    by scaling.py.
    """

    name = "commit-large"
    warmup_ops = 3
    traced_ops = 60
    nominal_ops_per_s = 36.0

    def __init__(self, seed: int, sizes=(8, 16, 32)):
        super().__init__(seed)
        self.sizes = sizes
        self.cycle_len = len(sizes)

    def _cycles(self, rng, cycles):
        budgets = [stratified_budgets(rng, cycles) for _ in self.sizes]
        return [Op("optimal_commitment", n, (draw_instance(rng, n, budgets[j][c]),))
                for c in range(cycles) for j, n in enumerate(self.sizes)]

    def run(self, op):
        return optimal_commitment(op.args[0])

    def check(self, op, output):
        return commitment_error(op.args[0], output)


class NashLarge(Workload):
    """solve_nash on fresh instances.  n=512 appears twice per cycle so the
    median operation sits inside one size class, not on the edge between
    two; the 90th percentile then falls inside the n=2048 class.  The
    median is put among the n=512 calls (about 40 ms) rather than the
    n=64 or n=128 ones (5-10 ms), because short calls are the ones that
    brief stalls of a shared machine slow the most: across ten seeds the
    median call time per size spread by about 0.3 at n=64, 0.2 at n=128
    and 0.1 at n=512."""

    name = "nash-large"
    warmup_ops = 5
    traced_ops = 50
    nominal_ops_per_s = 19.0

    def __init__(self, seed: int, sizes=(64, 128, 512, 512, 2048)):
        super().__init__(seed)
        self.sizes = sizes
        self.cycle_len = len(sizes)

    def _cycles(self, rng, cycles):
        budgets = [stratified_budgets(rng, cycles) for _ in self.sizes]
        return [Op("solve_nash", n, (draw_instance(rng, n, budgets[j][c]),))
                for c in range(cycles) for j, n in enumerate(self.sizes)]

    def run(self, op):
        return solve_nash(op.args[0])

    def check(self, op, output):
        instance = op.args[0]
        return (
            _budget_error(output.alloc_a.amounts, instance.budget_a)
            or _budget_error(output.alloc_b.amounts, instance.budget_b)
            or _mutual_br_error(instance, output.alloc_a, output.alloc_b)
        )


def worked_example() -> GameInstance:
    """The two-battlefield worked example: v_a=(1,5), v_b=(1,0.5), x_b=1."""
    return GameInstance(1.0, 1.0, np.array([1.0, 5.0]), np.array([1.0, 0.5]))


class SweepVerify(Workload):
    """Alternates budget_sweep with the verify path.

    A verify operation is the call sequence of ``blotto verify`` on one
    instance: optimal_commitment; then best_response, total_utility and
    oracle_best_response at the commitment point and at the proportional
    leader allocation; then oracle_commitment.  Like ``blotto verify`` it
    fails with SolverInvariantError when the grid-optimal support is not a
    prefix in canonical ratio order; near the follower's indifference
    threshold the grid can land on either side of it, so this happens on
    a few valid instances.  The comparisons with the grid are the check,
    made after timing.  Per cycle: three n=8 sweeps and the
    worked-example sweep, alternating with three n=3 and one n=2 verifies.
    An n=3 verify takes about twice as long as an n=8 sweep, and the two
    n=2 operations are far faster than either, so the median falls inside
    the n=8 sweeps (the sweep loop moves it) and the 90th percentile inside
    the n=3 verifies (the batched grid kernel moves it).
    """

    name = "sweep-verify"
    warmup_ops = 8
    traced_ops = 32
    cycle_len = 8
    nominal_ops_per_s = 10.5

    def __init__(self, seed: int, sweep_n=8, ratios=tuple(np.geomspace(0.25, 4.0, 8)), grid=GridSpec(500, 3)):
        super().__init__(seed)
        self.sweep_n, self.ratios, self.grid = sweep_n, ratios, grid

    def _cycles(self, rng, cycles):
        slots = [("budget_sweep", self.sweep_n), ("verify", 3)] * 3 + [("verify", 2)]
        budgets = [stratified_budgets(rng, cycles) for _ in slots]
        ops = []
        for c in range(cycles):
            ops.extend(Op(kind, n, (draw_instance(rng, n, budgets[j][c]),)) for j, (kind, n) in enumerate(slots))
            ops.insert(len(ops) - 1, Op("budget_sweep", 2, (worked_example(),)))
        return ops

    def run(self, op):
        instance = op.args[0]
        if op.kind == "budget_sweep":
            return budget_sweep(instance, self.ratios)
        se = optimal_commitment(instance)
        va = instance.values_a
        proportional = Allocation(va / va.sum() * instance.budget_a, instance.budget_a)
        points = []
        for leader in (se.allocation, proportional):
            reply = best_response(instance, leader)
            closed = total_utility(instance, "b", leader, reply.allocation)
            _, grid_utility = oracle_best_response(instance, leader, self.grid)
            points.append((closed, grid_utility))
        _, oracle_utility, oracle_support = oracle_commitment(instance, self.grid)
        if not _is_canonical_prefix(instance, oracle_support):
            raise SolverInvariantError(
                f"grid-optimal support {sorted(oracle_support)} is not a prefix in canonical ratio order"
            )
        return se, points, oracle_utility

    def check(self, op, output):
        if op.kind == "budget_sweep":
            if len(output) != len(self.ratios):
                return f"{len(output)} rows for {len(self.ratios)} ratios"
            bad = [row for row in output if math.isnan(row.se_u_a) or math.isnan(row.ne_u_a)]
            if bad:
                return f"{len(bad)} nan rows: {bad[0].diagnostic}"
            return None
        se, points, oracle_utility = output
        for label, (closed, grid_utility) in zip(("commitment", "proportional"), points):
            if closed < grid_utility - VERIFY_SOUND_ATOL:
                return f"best response at the {label} point {closed!r} is beaten by the grid {grid_utility!r}"
            if abs(closed - grid_utility) > VERIFY_BR_ATOL:
                return f"best response at the {label} point is {abs(closed - grid_utility):.3g} from the grid optimum"
        if se.leader_utility < oracle_utility - VERIFY_COMMIT_ATOL:
            return f"commitment {se.leader_utility!r} is beaten by the grid {oracle_utility!r}"
        return commitment_error(op.args[0], se)


@dataclass(frozen=True)
class CliResult:
    stdout: bytes


# Golden-report fields and the package tolerance each is compared with.
_LEADER_UTILITY = {"leader_utility", "solver_leader_utility", "grid_leader_utility", "se_u_a", "ne_u_a"}
_FOLLOWER_UTILITY = {"follower_utility", "se_u_b", "ne_u_b"}
_RELATIVE = {"mu_star", "water_level", "alpha", "y", "candidate_roots", "leader_ratio", "follower_ratio", "cor1_upper"}
_ALLOCATIONS = {"alloc_a": "a", "alloc_b": "b"}


class CliSmall(Workload):
    """One fresh ``python -m blotto.cli`` process per operation.

    Inputs come from the golden corpus (``golden/corpus.json``): instances
    made by ``blotto gen --n N --seed K`` with commit_a set to the equal
    split, and the reports the CLI printed for them when the corpus was
    recorded.  Each cycle runs every command once; the seed picks which
    corpus instance each operation uses, and the size rotates from cycle to
    cycle.  verify only runs at n <= 3 (its default grid raises above).
    """

    name = "cli-small"
    warmup_ops = 1
    traced_ops = 6
    nominal_ops_per_s = 1.3
    commands = ("solve-br", "solve-commitment", "solve-nash", "compare", "sweep", "verify")
    sweep_args = ("--r-min", "0.5", "--r-max", "2", "--steps", "3")
    cycle_len = len(commands)

    def __init__(self, seed: int):
        super().__init__(seed)
        with open(GOLDEN) as fh:
            corpus = json.load(fh)
        self.sizes = tuple(corpus["sizes"])
        self.verify_sizes = tuple(corpus["verify_sizes"])
        self.per_size = corpus["instances_per_size"]
        self.golden = corpus["outputs"]
        self.instances = corpus["instances"]
        self.input_dir = OUT / "cli-inputs"
        self.input_dir.mkdir(parents=True, exist_ok=True)
        for key, data in self.instances.items():
            (self.input_dir / f"{key}.json").write_text(json.dumps(data))
        self.spans_dir: Path | None = None  # set: run traced children
        self.spans_files: list[Path] = []
        self.peak_child_kb = 0
        self.env = child_env()
        self.calls = 0

    @staticmethod
    def key(n: int, k: int) -> str:
        return f"n{n}-s{k}"

    def argv(self, command: str, key: str) -> list[str]:
        extra = list(self.sweep_args) if command == "sweep" else []
        return [command, "--instance", str(self.input_dir / f"{key}.json"), *extra]

    def _cycles(self, rng, cycles):
        ops = []
        for c in range(cycles):
            for j, command in enumerate(self.commands):
                if command == "verify":
                    n = self.verify_sizes[c % len(self.verify_sizes)]
                else:
                    n = self.sizes[(c + j) % len(self.sizes)]
                key = self.key(n, int(rng.integers(self.per_size)))
                ops.append(Op(f"cli:{command}", n, (command, key)))
        return ops

    def run(self, op):
        command, key = op.args
        self.calls += 1
        tag = f"cli-{os.getpid()}-{self.calls}"
        if self.spans_dir is None:
            prefix = [sys.executable, "-m", "blotto.cli"]
        else:
            spans = self.spans_dir / f"{tag}.json"
            self.spans_files.append(spans)
            prefix = [sys.executable, str(BENCH / "trace_cli.py"), str(spans)]
        out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([*prefix, *self.argv(command, key)], stdout=out, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        stdout, stderr = out_path.read_bytes(), err_path.read_text(errors="replace")
        out_path.unlink()
        err_path.unlink()
        if proc.returncode != 0:
            raise CliExit(proc.returncode, stderr)
        return CliResult(stdout)

    def golden_identical(self, op, output) -> bool:
        command, key = op.args
        return output.stdout.decode() == self.golden[f"{command}/{key}"]["stdout"]

    def check(self, op, output):
        command, key = op.args
        want = self.golden[f"{command}/{key}"]
        if want["exit"] != 0:
            return f"the corpus records exit {want['exit']} for {command} {key}"
        data = self.instances[key]
        budgets = {"a": data["budget_a"], "b": data["budget_b"]}
        got = output.stdout.decode()
        try:
            if command == "sweep":
                return _compare_csv(got, want["stdout"])
            return _compare_json(json.loads(got), json.loads(want["stdout"]), command, budgets, ())
        except (ValueError, TypeError, KeyError) as exc:
            return f"malformed {command} report: {exc}"


def _field_tol(key: str) -> float | None:
    if key in _LEADER_UTILITY:
        return VERIFY_COMMIT_ATOL
    if key in _FOLLOWER_UTILITY:
        return VERIFY_BR_ATOL
    return None


def _compare_json(got, want, command, budgets, path) -> str | None:
    where = "/".join(path) or "report"
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{where}: keys differ"
        for key in sorted(want):
            problem = _compare_json(got[key], want[key], command, budgets, path + (key,))
            if problem:
                return problem
        return None
    key = path[-1] if path else ""
    if key in _ALLOCATIONS or key == "allocation":
        player = _ALLOCATIONS.get(key, "b" if command == "solve-br" else "a")
        budget = budgets[player]
        if len(got) != len(want):
            return f"{where}: length differs"
        gap = max(abs(g - w) for g, w in zip(got, want))
        if gap > MUTUAL_BR_RTOL * budget:
            return f"{where}: {gap:.3g} from the corpus"
        return _budget_error(got, budget)
    if key in _RELATIVE and want is not None:
        pairs = zip(got, want) if isinstance(want, list) else [(got, want)]
        if isinstance(want, list) and len(got) != len(want):
            return f"{where}: length differs"
        for g, w in pairs:
            if g is None or not _close(g, w, MUTUAL_BR_RTOL * max(abs(w), 1e-300)):
                return f"{where}: {g!r} vs corpus {w!r}"
        return None
    tol = _field_tol(key)
    if tol is not None:
        return None if _close(got, want, tol) else f"{where}: {got!r} vs corpus {want!r}"
    return None if got == want else f"{where}: {got!r} vs corpus {want!r}"


def _compare_csv(got: str, want: str) -> str | None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines) or got_lines[:1] != want_lines[:1]:
        return "sweep: header or row count differs"
    header = want_lines[0].split(",")
    for g_line, w_line in zip(got_lines[1:], want_lines[1:]):
        for name, g, w in zip(header, g_line.split(","), w_line.split(",")):
            tol = _field_tol(name)
            if tol is None:
                if g != w:
                    return f"sweep {name}: {g} vs corpus {w}"
            elif not _close(float(g), float(w), tol):
                return f"sweep {name}: {g} vs corpus {w}"
    return None


WORKLOADS = {cls.name: cls for cls in (CliSmall, CommitLarge, NashLarge, SweepVerify)}
