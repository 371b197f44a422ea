"""Brute-force grid oracles for cross-checking the closed-form solvers.

oracle_best_response searches the follower's discrete simplex directly on
raw per-battlefield payoffs (no water-filling formulas involved), so it is
an independent check of best_response.  oracle_commitment grids the leader
simplex and replies with the closed-form best response at every grid
point (batch_leader_utilities, on the same water-filling kernel as
best_response), checking the commitment solver end to end.

Both searches use integer compositions of the grid resolution.  When an
exhaustive enumeration would exceed the point cap, the follower-side
search falls back to an exact marginal-increment (greedy) pass: the
follower's payoff is a sum of concave single-battlefield terms, for which
greedy unit allocation attains the enumeration optimum.  The leader-side
search has no such structure and raises instead.
"""

from __future__ import annotations

import heapq
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
)

DEFAULT_POINT_CAP = 10_000_000
# Refinement shrinks the step by 4x and searches +/- 2 old steps around the
# incumbent, i.e. +/- 8 new steps per coordinate.
REFINE_FACTOR = 4
REFINE_HALO = 2 * REFINE_FACTOR


@dataclass(frozen=True)
class GridSpec:
    """Grid search parameters: subdivisions per budget and local passes."""

    resolution: int
    refinement_rounds: int = 0
    point_cap: int = DEFAULT_POINT_CAP

    def __post_init__(self):
        if int(self.resolution) < 2:
            raise InputError(f"resolution must be >= 2, got {self.resolution}")
        if int(self.refinement_rounds) < 0:
            raise InputError("refinement_rounds must be >= 0")
        if int(self.point_cap) < 1:
            raise InputError("point_cap must be >= 1")
        object.__setattr__(self, "resolution", int(self.resolution))
        object.__setattr__(self, "refinement_rounds", int(self.refinement_rounds))
        object.__setattr__(self, "point_cap", int(self.point_cap))


def _compositions(total: int, n: int, min_part: int = 0) -> np.ndarray:
    """All length-n integer vectors >= min_part summing to total, lex order."""
    shift = total - n * min_part
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
    return np.diff(ext, axis=1) - 1 + min_part


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


def _follower_payoff_rows(
    instance: GameInstance, xa: np.ndarray, step: float, counts: np.ndarray
) -> np.ndarray:
    amounts = counts * step
    return (amounts * instance.values_b / (xa + amounts)).sum(axis=1)


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
    in c, so repeatedly granting one unit to the largest marginal increment
    reaches the true discrete optimum.  Ties break toward the smallest
    battlefield index.
    """
    vb = instance.values_b

    def gain(j: int, c: int) -> float:
        a0, a1 = c * step, (c + 1) * step
        return vb[j] * (a1 / (xa[j] + a1) - a0 / (xa[j] + a0))

    counts = lo.copy()
    remaining = total - int(counts.sum())
    heap = [(-gain(j, counts[j]), j) for j in range(len(lo)) if counts[j] < hi[j]]
    heapq.heapify(heap)
    while remaining > 0:
        _, j = heapq.heappop(heap)
        counts[j] += 1
        remaining -= 1
        if counts[j] < hi[j]:
            heapq.heappush(heap, (-gain(j, counts[j]), j))
    return counts


def _follower_stage_max(
    instance: GameInstance,
    xa: np.ndarray,
    step: float,
    total: int,
    lo: np.ndarray,
    hi: np.ndarray,
    grid: GridSpec,
    boxed: bool,
) -> np.ndarray:
    """One search stage: enumerate when affordable, else exact greedy."""
    n = instance.n
    count = _box_point_count(lo, hi) if boxed else comb(total + n - 1, n - 1)
    if count > grid.point_cap:
        return _greedy_box_max(instance, xa, step, total, lo, hi)
    counts = (
        _box_compositions(total, lo, hi) if boxed else _compositions(total, n)
    )
    payoffs = _follower_payoff_rows(instance, xa, step, counts)
    return counts[int(np.argmax(payoffs))]


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

    Runs a full composition search of budget_b at grid.resolution, then
    grid.refinement_rounds local passes that shrink the step by 4x inside
    a +/- 2-step window around the incumbent.
    """
    _check_alloc(instance, leader_alloc, "a")
    xa = leader_alloc.amounts
    if np.any(xa <= 0):
        raise PreconditionError("oracle_best_response needs positive leader entries")

    total = grid.resolution
    step = instance.budget_b / total
    lo = np.zeros(instance.n, dtype=np.int64)
    hi = np.full(instance.n, total, dtype=np.int64)
    counts = _follower_stage_max(instance, xa, step, total, lo, hi, grid, boxed=False)

    for _ in range(grid.refinement_rounds):
        total *= REFINE_FACTOR
        step /= REFINE_FACTOR
        center = counts * REFINE_FACTOR
        lo = np.maximum(center - REFINE_HALO, 0)
        hi = np.minimum(center + REFINE_HALO, total)
        counts = _follower_stage_max(instance, xa, step, total, lo, hi, grid, boxed=True)

    amounts = counts / total * instance.budget_b
    utility = float((amounts * instance.values_b / (xa + amounts)).sum())
    return Allocation(amounts, instance.budget_b), utility


def oracle_commitment(
    instance: GameInstance, grid: GridSpec
) -> tuple[Allocation, float, tuple[int, ...]]:
    """Grid-search the leader's commitment; follower replies in closed form.

    Leader grid entries are floored at one grid step so every point is a
    valid best-response input.  Returns the utility-maximizing leader
    point, its utility, and the follower support it induces.  Raises when
    the enumeration would exceed grid.point_cap.
    """
    n = instance.n
    total = grid.resolution
    count = comb(total - 1, n - 1)
    if count > grid.point_cap:
        raise InputError(
            f"leader grid needs {count} points at resolution {total} with "
            f"n={n}; raise point_cap (currently {grid.point_cap})"
        )
    counts_grid = _compositions(total, n, min_part=1)
    utilities = batch_leader_utilities(
        instance, counts_grid / total * instance.budget_a
    )
    best = counts_grid[int(np.argmax(utilities))]

    for _ in range(grid.refinement_rounds):
        total *= REFINE_FACTOR
        center = best * REFINE_FACTOR
        lo = np.maximum(center - REFINE_HALO, 1)
        hi = np.minimum(center + REFINE_HALO, total)
        if _box_point_count(lo, hi) > grid.point_cap:
            raise InputError(
                f"leader refinement box exceeds point_cap {grid.point_cap}"
            )
        counts_grid = _box_compositions(total, lo, hi)
        utilities = batch_leader_utilities(
            instance, counts_grid / total * instance.budget_a
        )
        best = counts_grid[int(np.argmax(utilities))]

    amounts = best / total * instance.budget_a
    alloc = Allocation(amounts, instance.budget_a)
    reply = best_response(instance, alloc)
    utility = float(
        (amounts * instance.values_a / (amounts + reply.allocation.amounts)).sum()
    )
    return alloc, utility, reply.support
