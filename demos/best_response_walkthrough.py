#!/usr/bin/env python3
"""Walk through the follower's best response on a small two-battlefield game.

The follower's optimal reply has a water-filling structure: battlefields are
ranked by v_bj / x_aj, a common marginal utility (the water level) forms on
the profitable prefix, and everything below that level is abandoned.  This
script prints the reply for a few leader commitments and cross-checks one of
them against the brute-force grid oracle.
"""

import numpy as np

from blotto import (
    Allocation,
    GameInstance,
    GridSpec,
    best_response,
    follower_marginal_utility,
    oracle_best_response,
    total_utility,
)

# Leader values battlefield 1 five times higher than the follower does.
game = GameInstance(
    budget_a=2.0,
    budget_b=1.0,
    values_a=np.array([1.0, 5.0]),
    values_b=np.array([1.0, 0.5]),
)

print("game:", game)
print()

for committed in ([1.0, 1.0], [0.543, 1.457], [1.9, 0.1]):
    leader = Allocation(np.array(committed), game.budget_a)
    reply = best_response(game, leader)
    print(f"leader commits {committed}")
    print(f"  follower reply   {np.round(reply.allocation.amounts, 4)}")
    print(f"  support          {reply.support}")
    print(f"  water level      {reply.water_level:.6f}")
    # On-support marginals sit exactly at the water level; off-support
    # marginals at zero investment would already be below it.
    for j in range(game.n):
        x_bj = reply.allocation.amounts[j]
        marginal = follower_marginal_utility(game, j, leader.amounts[j], x_bj)
        tag = "on support " if j in reply.support else "off support"
        print(f"  battlefield {j}: {tag} marginal {marginal:.6f}")
    print(f"  follower utility {total_utility(game, 'b', leader, reply.allocation):.6f}")
    print()

# Sanity: the closed form should match an exact grid search.
leader = Allocation(np.array([0.543, 1.457]), game.budget_a)
closed = best_response(game, leader)
closed_utility = total_utility(game, "b", leader, closed.allocation)
grid_alloc, grid_utility = oracle_best_response(game, leader, GridSpec(2000, 2))
print("cross-check against the grid oracle (resolution 2000, 2 refinements):")
print(f"  closed form utility {closed_utility:.9f}  at {np.round(closed.allocation.amounts, 6)}")
print(f"  grid search utility {grid_utility:.9f}  at {np.round(grid_alloc.amounts, 6)}")
print(f"  gap {abs(closed_utility - grid_utility):.3e}")
