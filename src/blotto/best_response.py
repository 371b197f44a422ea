"""Closed-form follower best response via water filling.

Given a strictly positive leader allocation, the follower's unique optimal
reply is supported on the battlefields with the largest ratios
values_b[j] / x_a[j]: sort by that ratio descending, take the longest
prefix whose last member still beats the prefix water level

    lambda_k = (sum_{l<=k} sqrt(x_al * v_bl))^2 / (x_b + sum_{l<=k} x_al)^2,

and fill x_bj = sqrt(x_aj * v_bj) / sqrt(lambda_{k*}) - x_aj on that
prefix, zero elsewhere.  The water level equals the follower's marginal
utility on every supported battlefield.

_water_fill is the one implementation of this rule, for a whole array of
leader allocations: _reply passes one row, the grid oracle
(oracle.batch_leader_utilities) every grid point.  _reply is the reply to
one leader allocation, as a validated Allocation with its sort order,
last support position and water level.  best_response wraps it for a
GameInstance; nash._mutual_br calls it directly for the leader's reply to
the follower, with the two players' roles swapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game_core import (
    Allocation,
    GameInstance,
    InputError,
    PreconditionError,
    SolverInvariantError,
    _check_alloc,
    _check_index,
    _real_number,
)

# Follower entries below this fraction of budget_b count as zero / off-support.
SUPPORT_FLOOR_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class BestResponseResult:
    """Follower's optimal reply.

    support lists the battlefields with positive follower allocation, as
    original indices ordered by descending values_b[j] / x_a[j]; the water
    level is the common marginal utility on the support.
    """

    allocation: Allocation
    support: tuple[int, ...]
    water_level: float


def follower_marginal_utility(
    instance: GameInstance, j: int, x_aj: float, x_bj: float
) -> float:
    """d u_bj / d x_bj = x_aj * v_bj / (x_aj + x_bj)^2, for finite,
    non-negative amounts that are not both zero."""
    j = _check_index(instance, j)
    x_aj, x_bj = _real_number("x_aj", x_aj), _real_number("x_bj", x_bj)
    if not (0 <= x_aj < np.inf and 0 <= x_bj < np.inf):
        raise InputError("allocation amounts must be finite and non-negative")
    if x_aj + x_bj <= 0:
        raise InputError(
            "marginal utility undefined when both allocations are zero"
        )
    return x_aj * float(instance.values_b[j]) / (x_aj + x_bj) ** 2


def _require_positive_leader(amounts: np.ndarray) -> None:
    """The leader's amounts, of one allocation or of each row, must be > 0."""
    bad = amounts <= 0
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)  # the first entry <= 0
        raise PreconditionError(
            f"best response needs a strictly positive leader allocation; "
            f"entry {', '.join(map(str, at))} is {amounts[at]!r}. Callers that must "
            f"handle zeros should clamp entries to a floor of "
            f"1e-12 * budget_a first."
        )


def _water_fill(xa: np.ndarray, vb: np.ndarray, budget_b: float):
    """Water filling for each row of an (m, n) array of positive leader
    allocations.

    Returns (order, k, filled, root_sum, spend), one entry or row per
    allocation: the stable sort by descending vb / xa, the last support
    position k in that order (-1 if none), the unclamped follower fill in
    sorted order (zero past k), and the prefix sums sum sqrt(x_al * v_bl)
    and budget_b + sum x_al at k, whose squared ratio is the water level.
    """
    m, n = xa.shape
    rows = np.arange(m)
    # ndarray methods and ufunc methods, not the np.* wrappers: this runs
    # once per best_response, and each wrapper costs about a microsecond.
    with np.errstate(over="ignore"):  # a ratio or fill above the float range is inf
        order = (-(vb / xa)).argsort(axis=1, kind="stable")
        xa_s = xa[rows[:, None], order]
        vb_s = vb[order]

        roots = np.sqrt(xa_s * vb_s)
        sum_roots = np.add.accumulate(roots, axis=1)
        sum_xa = np.add.accumulate(xa_s, axis=1)
        satisfied = vb_s / xa_s > (sum_roots / (budget_b + sum_xa)) ** 2
        k = n - 1 - satisfied[:, ::-1].argmax(axis=1)  # last satisfied position
        k[~satisfied[rows, k]] = -1

        root_sum = sum_roots[rows, k]
        spend = budget_b + sum_xa[rows, k]
        filled = roots * (spend / root_sum)[:, None] - xa_s
    np.putmask(filled, np.arange(n) > k[:, None], 0.0)
    return order, k, filled, root_sum, spend


def _reply(values_b: np.ndarray, budget_b: float, xa: np.ndarray):
    """The follower's reply to the strictly positive leader amounts xa:
    (allocation, order, k, filled, water_level), the validated Allocation
    of budget_b and, in _water_fill's sorted order, the fills after the
    support floor guard.  Raises PreconditionError when an entry of xa is
    not positive, and InputError when the fills are not a valid
    allocation."""
    _require_positive_leader(xa)
    order, k, filled, root_sum, spend = _water_fill(xa[None, :], values_b, budget_b)
    order, k, filled = order[0], int(k[0]), filled[0]
    if k < 0:  # impossible while budget_b > 0
        raise SolverInvariantError(
            f"empty best-response support for leader allocation {xa!r}"
        )
    water_level = float((root_sum[0] / spend[0]) ** 2)

    # Boundary noise guard: zero out sub-floor entries, keep the sum exact.
    floor = SUPPORT_FLOOR_RTOL * budget_b
    tiny = (filled > 0) & (filled <= floor)
    np.putmask(filled, filled < 0, 0.0)
    if tiny.any():
        lost = filled[tiny].sum()
        filled[tiny] = 0.0
        filled[int(np.argmax(filled))] += lost

    amounts = np.empty(order.size)
    amounts[order] = filled
    return Allocation(amounts, budget_b), order, k, filled, water_level


def best_response(instance: GameInstance, leader_alloc: Allocation) -> BestResponseResult:
    """Unique follower best response to a strictly positive leader allocation."""
    _check_alloc(instance, leader_alloc, "a")
    allocation, order, k, filled, water_level = _reply(
        instance.values_b, instance.budget_b, leader_alloc.amounts
    )
    support = tuple(order[: k + 1][filled[: k + 1] > 0].tolist())
    return BestResponseResult(
        allocation=allocation, support=support, water_level=water_level
    )
