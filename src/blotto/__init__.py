"""Solvers for two-player lottery Colonel Blotto games.

Computes the follower's closed-form best response, the leader's optimal
Stackelberg commitment, the Nash equilibrium of the simultaneous game, and
comparisons between the two solution concepts (coincidence threshold,
leader-advantage bounds, budget-ratio sweeps).  Brute-force grid oracles
are included for independent verification on small instances.

What loads when: ``import blotto`` loads the data model (blotto.game_core)
and the follower's best response (blotto.best_response).  The commitment,
nash, analysis and oracle modules load on the first access to one of their
names, as in ``blotto.solve_nash`` or ``from blotto import
optimal_commitment``, so a caller compiles only the solvers it uses.  The
best response loads with the package because the function shares its
submodule's name: the first import of a submodule binds the submodule to
the package attribute, which would hide a function bound after it.
"""

import importlib

# Each public name by the module that defines it.
_EXPORTS = {
    "game_core": (
        "Allocation",
        "BattlefieldOrdering",
        "GameInstance",
        "InputError",
        "PreconditionError",
        "SolverInvariantError",
        "canonical_ordering",
        "instance_from_dict",
        "instance_to_dict",
        "merge_battlefields",
        "split_battlefield",
        "total_utility",
        "utility_per_battlefield",
    ),
    "best_response": ("BestResponseResult", "best_response", "follower_marginal_utility"),
    "commitment": ("CommitmentSolution", "optimal_commitment"),
    "nash": ("NashSolution", "nash_poly", "solve_nash"),
    "analysis": (
        "AdvantageBounds",
        "CoincidenceReport",
        "ComparisonReport",
        "SweepRow",
        "budget_sweep",
        "check_coincidence",
        "coincidence_threshold",
        "compare_equilibria",
        "leader_advantage_bounds",
        "write_sweep_csv",
    ),
    "oracle": ("GridSpec", "oracle_best_response", "oracle_commitment"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Load a public name's module on first access and bind the name here."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


# The data model and the best response load with the package (see above).
for _name in (*_EXPORTS["game_core"], *_EXPORTS["best_response"]):
    __getattr__(_name)
del _name
