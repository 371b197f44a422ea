"""Brute-force grid oracles for cross-checking the closed-form solvers.

oracle_best_response searches the follower's discrete simplex directly on
raw per-battlefield payoffs (no water-filling formulas involved), so it is
an independent check of best_response.  oracle_commitment grids the leader
simplex and replies with the closed-form best response at every grid
point (batch_leader_utilities, on the same water-filling kernel as
best_response), checking the commitment solver end to end.

Both searches work on integer grid units.  The follower's payoff is a sum
of concave single-battlefield terms, so at every stage, coarse and refined,
the follower search takes the largest marginal increments of one unit:
that attains the optimum over all compositions exactly (separable concave
resource allocation).  The leader-side search has no such structure and
enumerates its compositions.  POINT_CAP bounds both players' work: the
leader's grid points and the follower's table of marginal gains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .best_response import _water_fill, best_response
from .game_core import (
    Allocation,
    GameInstance,
    InputError,
    PreconditionError,
    _check_alloc,
    total_utility,
)

POINT_CAP = 10_000_000
# Refinement shrinks the step by 4x and searches +/- 2 old steps around the
# incumbent, i.e. +/- 8 new steps per coordinate.
REFINE_FACTOR = 4
REFINE_HALO = 2 * REFINE_FACTOR


@dataclass(frozen=True)
class GridSpec:
    """Grid search parameters: subdivisions per budget and local passes.

    Each search stage is held to POINT_CAP leader grid points or follower
    marginal gains; a stage over it raises InputError.
    """

    resolution: int
    refinement_rounds: int = 0

    def __post_init__(self):
        if int(self.resolution) < 2:
            raise InputError(f"resolution must be >= 2, got {self.resolution}")
        if int(self.refinement_rounds) < 0:
            raise InputError("refinement_rounds must be >= 0")
        object.__setattr__(self, "resolution", int(self.resolution))
        object.__setattr__(self, "refinement_rounds", int(self.refinement_rounds))


def _compositions(total: int, n: int) -> np.ndarray:
    """All length-n integer vectors >= 1 summing to total, lex order."""
    shift = total - n
    if shift < 0:
        return np.empty((0, n), dtype=np.int64)
    if n == 1:
        return np.array([[total]], dtype=np.int64)
    m = comb(shift + n - 1, n - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(shift + n - 1), n - 1)
        ),
        dtype=np.int64,
        count=m * (n - 1),
    ).reshape(m, n - 1)
    ext = np.concatenate(
        [
            np.full((m, 1), -1, dtype=np.int64),
            bars,
            np.full((m, 1), shift + n - 1, dtype=np.int64),
        ],
        axis=1,
    )
    return np.diff(ext, axis=1)


def _box_compositions(total: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integer vectors with lo <= c <= hi and sum(c) == total, lex order."""
    grids = np.meshgrid(*(np.arange(l, h + 1) for l, h in zip(lo, hi)), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return pts[pts.sum(axis=1) == total]


def _box_point_count(lo: np.ndarray, hi: np.ndarray) -> int:
    count = 1
    for l, h in zip(lo, hi):
        count *= int(h - l + 1)
    return count


def _greedy_box_max(
    instance: GameInstance,
    xa: np.ndarray,
    step: float,
    total: int,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Exact maximizer of the follower payoff on a box-constrained simplex.

    Each battlefield's payoff c -> (c*step)*v_bj/(x_aj + c*step) is concave
    in c, so granting the total - sum(lo) largest marginal increments above
    lo reaches the true discrete optimum.  Ties break toward the smallest
    battlefield index.
    """
    n = instance.n
    width = int((hi - lo).max())
    if n * width > POINT_CAP:
        raise InputError(
            f"follower gain table needs {n * width} entries at resolution "
            f"{total} with n={n}, over point_cap {POINT_CAP}"
        )
    c = lo[:, None] + np.arange(width)
    a0, a1 = c * step, (c + 1) * step
    x = xa[:, None]
    gain = instance.values_b[:, None] * (a1 / (x + a1) - a0 / (x + a0))
    gain[c >= hi[:, None]] = -np.inf
    # A stable sort of the C-order table ranks equal gains by battlefield.
    top = np.argsort(-gain, axis=None, kind="stable")[: total - int(lo.sum())]
    return lo + np.bincount(top // width, minlength=n)


def batch_leader_utilities(instance: GameInstance, leader_points: np.ndarray) -> np.ndarray:
    """Leader utility of each row of leader_points after the follower replies.

    Every row must be a strictly positive allocation of budget_a; the
    follower's reply to each row comes from the same water-filling kernel
    as best_response.  Returns one utility per row.
    """
    pts = np.asarray(leader_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != instance.n:
        raise InputError("leader_points must be an (m, n) array")
    if np.any(pts <= 0):
        raise PreconditionError("all grid leader allocations must be positive")
    order, _, filled, _, _ = _water_fill(pts, instance.values_b, instance.budget_b)
    xa_s = np.take_along_axis(pts, order, axis=1)
    xb_s = np.clip(filled, 0.0, None)
    return (xa_s * instance.values_a[order] / (xa_s + xb_s)).sum(axis=1)


def oracle_best_response(
    instance: GameInstance, leader_alloc: Allocation, grid: GridSpec
) -> tuple[Allocation, float]:
    """Grid-search the follower's reply; returns (allocation, utility).

    Finds the best split of budget_b into grid.resolution units, then runs
    grid.refinement_rounds local passes that shrink the step by 4x inside a
    +/- 2-step window around the incumbent.  Every stage is the exact
    marginal-gain pass of _greedy_box_max, so each returns the optimum
    over all compositions of its box.
    """
    _check_alloc(instance, leader_alloc, "a")
    xa = leader_alloc.amounts
    if np.any(xa <= 0):
        raise PreconditionError("oracle_best_response needs positive leader entries")

    total = grid.resolution
    step = instance.budget_b / total
    lo = np.zeros(instance.n, dtype=np.int64)
    hi = np.full(instance.n, total, dtype=np.int64)
    counts = _greedy_box_max(instance, xa, step, total, lo, hi)

    for _ in range(grid.refinement_rounds):
        total *= REFINE_FACTOR
        step /= REFINE_FACTOR
        center = counts * REFINE_FACTOR
        lo = np.maximum(center - REFINE_HALO, 0)
        hi = np.minimum(center + REFINE_HALO, total)
        counts = _greedy_box_max(instance, xa, step, total, lo, hi)

    alloc = Allocation(counts / total * instance.budget_b, instance.budget_b)
    return alloc, total_utility(instance, "b", leader_alloc, alloc)


def oracle_commitment(
    instance: GameInstance, grid: GridSpec
) -> tuple[Allocation, float, tuple[int, ...]]:
    """Grid-search the leader's commitment; follower replies in closed form.

    Leader grid entries are floored at one grid step so every point is a
    valid best-response input.  Returns the utility-maximizing leader
    point, its utility, and the follower support it induces.  Raises when
    the enumeration would exceed POINT_CAP.
    """
    n = instance.n
    total = grid.resolution
    count = comb(total - 1, n - 1)
    if count > POINT_CAP:
        raise InputError(
            f"leader grid needs {count} points at resolution {total} with "
            f"n={n}, over point_cap {POINT_CAP}"
        )
    counts_grid = _compositions(total, n)
    utilities = batch_leader_utilities(
        instance, counts_grid / total * instance.budget_a
    )
    best = counts_grid[int(np.argmax(utilities))]

    for _ in range(grid.refinement_rounds):
        total *= REFINE_FACTOR
        center = best * REFINE_FACTOR
        lo = np.maximum(center - REFINE_HALO, 1)
        hi = np.minimum(center + REFINE_HALO, total)
        if _box_point_count(lo, hi) > POINT_CAP:
            raise InputError(f"leader refinement box exceeds point_cap {POINT_CAP}")
        counts_grid = _box_compositions(total, lo, hi)
        utilities = batch_leader_utilities(
            instance, counts_grid / total * instance.budget_a
        )
        best = counts_grid[int(np.argmax(utilities))]

    alloc = Allocation(best / total * instance.budget_a, instance.budget_a)
    reply = best_response(instance, alloc)
    return alloc, total_utility(instance, "a", alloc, reply.allocation), reply.support
