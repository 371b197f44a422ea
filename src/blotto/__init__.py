"""Solvers for two-player lottery Colonel Blotto games.

Computes the follower's closed-form best response, the leader's optimal
Stackelberg commitment, the Nash equilibrium of the simultaneous game, and
comparisons between the two solution concepts (coincidence threshold,
leader-advantage bounds, budget-ratio sweeps).  Brute-force grid oracles
are included for independent verification on small instances.
"""

from .game_core import (
    Allocation,
    BattlefieldOrdering,
    GameInstance,
    InputError,
    PreconditionError,
    SolverInvariantError,
    canonical_ordering,
    instance_from_dict,
    instance_to_dict,
    merge_battlefields,
    split_battlefield,
    total_utility,
    utility_per_battlefield,
)
from .best_response import BestResponseResult, best_response, follower_marginal_utility
from .commitment import CommitmentSolution, optimal_commitment
from .nash import NashSolution, nash_poly, solve_nash
from .analysis import (
    AdvantageBounds,
    CoincidenceReport,
    ComparisonReport,
    SweepRow,
    budget_sweep,
    check_coincidence,
    coincidence_threshold,
    compare_equilibria,
    leader_advantage_bounds,
    write_sweep_csv,
)
from .oracle import GridSpec, oracle_best_response, oracle_commitment

__all__ = [
    "AdvantageBounds",
    "Allocation",
    "BattlefieldOrdering",
    "BestResponseResult",
    "CoincidenceReport",
    "CommitmentSolution",
    "ComparisonReport",
    "GameInstance",
    "GridSpec",
    "InputError",
    "NashSolution",
    "PreconditionError",
    "SolverInvariantError",
    "SweepRow",
    "best_response",
    "budget_sweep",
    "canonical_ordering",
    "check_coincidence",
    "coincidence_threshold",
    "compare_equilibria",
    "follower_marginal_utility",
    "instance_from_dict",
    "instance_to_dict",
    "leader_advantage_bounds",
    "merge_battlefields",
    "nash_poly",
    "optimal_commitment",
    "oracle_best_response",
    "oracle_commitment",
    "solve_nash",
    "split_battlefield",
    "total_utility",
    "utility_per_battlefield",
    "write_sweep_csv",
]

__version__ = "0.1.0"
