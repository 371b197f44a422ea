"""Layer boundaries the traced run wraps, and the per-layer metrics built
from the spans recorded there.

The layers are blotto's modules.  Each wrap point is a name as the calling
module sees it, so ``commitment.best_response`` counts only the best
responses the commitment solver asks for, while ``best_response.best_response``
adds up every caller.
"""

from __future__ import annotations

import math

from tracer import Stat, WrapPoint


def _rows(args, result):
    return len(result)


def _roots(args, result):
    return len(result.candidate_roots)


def _nan_rows(args, result):
    return sum(1 for row in result if math.isnan(row.se_u_a) or math.isnan(row.ne_u_a))


_MEASURES = {"batch_leader_utilities": _rows, "solve_nash": _roots, "budget_sweep": _nan_rows}

_CALLS_BY_MODULE = {
    # the benchmark's own calls into the public API (library workloads)
    "workloads": ("optimal_commitment", "solve_nash", "budget_sweep", "best_response",
                  "oracle_best_response", "oracle_commitment"),
    "blotto.cli": ("best_response", "optimal_commitment", "solve_nash", "compare_equilibria",
                   "budget_sweep", "oracle_best_response", "oracle_commitment",
                   "canonical_ordering", "total_utility"),
    "blotto.analysis": ("optimal_commitment", "solve_nash", "check_coincidence"),
    "blotto.commitment": ("solve_case1", "solve_case2_full_support", "solve_case2_partial_support",
                          "best_response", "canonical_ordering", "total_utility",
                          "threshold_allocation_outside_support"),
    "blotto.nash": ("brentq", "nash_poly", "best_response", "total_utility"),
    "blotto.oracle": ("batch_leader_utilities", "best_response"),
}


def wrap_points(include_bench: bool = True) -> list[WrapPoint]:
    points = []
    for module, names in _CALLS_BY_MODULE.items():
        if module == "workloads" and not include_bench:
            continue
        caller = "bench" if module == "workloads" else module.rsplit(".", 1)[-1]
        points.extend(WrapPoint(module, name, caller, _MEASURES.get(name)) for name in names)
    return points


# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("import.interpreter_s", "s"),
    ("import.numpy_s", "s"),
    ("import.scipy_s", "s"),
    ("import.blotto_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.golden_bytes_identical", "count"),
    ("commitment.optimal_commitment.self_s", "s"),
    ("commitment.solve_case2_partial_support.calls", "count"),
    ("commitment.solve_case2_partial_support.self_s", "s"),
    ("commitment.solve_case1.calls", "count"),
    ("commitment.solve_case2_full_support.calls", "count"),
    ("commitment.infeasible_share", "share"),
    ("commitment.best_response.calls", "count"),
    ("commitment.threshold_allocation_outside_support.self_s", "s"),
    ("best_response.best_response.calls", "count"),
    ("best_response.best_response.self_s", "s"),
    ("oracle.batch_leader_utilities.rows", "count"),
    ("oracle.batch_leader_utilities.self_s", "s"),
    ("oracle.batch_leader_utilities.rows_per_s", "1/s"),
    ("oracle.oracle_best_response.calls", "count"),
    ("oracle.oracle_best_response.self_s", "s"),
    ("oracle.oracle_commitment.calls", "count"),
    ("oracle.oracle_commitment.self_s", "s"),
    ("nash.solve_nash.self_s", "s"),
    ("nash.nash_poly.calls", "count"),
    ("nash.brentq.calls", "count"),
    ("nash.brentq.self_s", "s"),
    ("nash.best_response.calls", "count"),
    ("nash.roots_per_solve", "count"),
    ("nash.fail.input_error", "count"),
    ("nash.fail.invariant", "count"),
    ("analysis.budget_sweep.self_s", "s"),
    ("analysis.check_coincidence.calls", "count"),
    ("analysis.check_coincidence.self_s", "s"),
    ("analysis.optimal_commitment.calls", "count"),
    ("analysis.solve_nash.calls", "count"),
    ("analysis.nan_rows", "count"),
    ("game_core.canonical_ordering.calls", "count"),
    ("game_core.canonical_ordering.self_s", "s"),
    ("game_core.total_utility.calls", "count"),
    ("game_core.total_utility.self_s", "s"),
]

_CASE_SOLVERS = ("commitment.solve_case1", "commitment.solve_case2_full_support",
                 "commitment.solve_case2_partial_support")


def _is_absent(key: str, absent: set[str]) -> bool:
    """A name is absent when the program no longer has it: its own wrap
    point, or else every wrap point of that attribute, is missing."""
    points = [f"{p.caller}.{p.attr}" for p in wrap_points()]
    if key in points:
        return key in absent
    attr = key.rsplit(".", 1)[-1]
    same_attr = [p for p in points if p.rsplit(".", 1)[-1] == attr]
    return bool(same_attr) and all(p in absent for p in same_attr)


def per_layer_metrics(stats: dict[str, Stat], absent: set[str], extra: dict[str, float]):
    """{name: value} for every PER_LAYER metric; None marks a name the
    program does not have at this commit."""
    empty = Stat()
    out = {}
    for name, _ in PER_LAYER:
        if name in extra:
            out[name] = extra[name]
            continue
        if name == "commitment.infeasible_share":
            calls = sum(stats.get(k, empty).calls for k in _CASE_SOLVERS)
            nones = sum(stats.get(k, empty).outcomes["none"] for k in _CASE_SOLVERS)
            out[name] = nones / calls if calls else 0.0
            continue
        base, field = name.rsplit(".", 1)
        if name.startswith("nash.fail."):
            base = "nash.solve_nash"
        elif name == "nash.roots_per_solve":
            base = "nash.solve_nash"
        elif name == "analysis.nan_rows":
            base = "analysis.budget_sweep"
        if _is_absent(base, absent):
            out[name] = None
            continue
        stat = stats.get(base, empty)
        if name.startswith("nash.fail."):
            out[name] = stat.outcomes[field]
        elif name == "nash.roots_per_solve":
            out[name] = stat.size / stat.outcomes["ok"] if stat.outcomes["ok"] else 0.0
        elif field in ("rows", "nan_rows"):
            out[name] = stat.size
        elif field == "rows_per_s":
            out[name] = stat.size / stat.total_s if stat.total_s else 0.0
        else:
            out[name] = getattr(stat, field)
    return out
