"""Brute-force grid oracles for cross-checking the closed-form solvers.

oracle_best_response searches the follower's discrete simplex directly on
raw per-battlefield payoffs (no water-filling formulas involved), so it is
an independent check of best_response.  oracle_commitment grids the leader
simplex and replies with the closed-form best response at every grid
point (batch_leader_utilities, on the same water-filling kernel as
best_response), checking the commitment solver end to end.

Both searches work on integer grid units and share one stage loop
(_grid_search): a coarse stage, then refinement stages, each a box
lo <= c <= hi of counts summing to the stage's total.  The follower's
payoff is a sum of concave single-battlefield terms, so in every box the
follower search takes the largest marginal increments of one unit: that
attains the optimum over all compositions exactly (separable concave
resource allocation).  The leader-side search has no such structure and
enumerates the compositions of its box in lex order, in blocks of
_LEADER_BLOCK_ELEMENTS grid entries, at least one row (_box_blocks).
Each block is unranked from counts of the box's kept prefixes per partial
sum (_box_tables), so a leader stage holds those O(n * total) counts and
one block of integer rows and float work, never the whole stage.
POINT_CAP bounds both players' work: the rows of a leader stage, read
from the counts before any row is built, and the follower's table of
marginal gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .best_response import _require_positive_leader, _water_fill, best_response
from .game_core import (
    BUDGET_SUM_RTOL,
    Allocation,
    GameInstance,
    InputError,
    _check_alloc,
    _real_array,
    _whole_number,
    total_utility,
)

POINT_CAP = 10_000_000
# Refinement shrinks the step by 4x and searches +/- 2 old steps around the
# incumbent, i.e. +/- 8 new steps per coordinate.
REFINE_FACTOR = 4
REFINE_HALO = 2 * REFINE_FACTOR
# Leader grid entries (rows x n) a stage scores at a time, at least one row;
# the water fill's float temporaries are this size, not the stage's.
_LEADER_BLOCK_ELEMENTS = 16384


@dataclass(frozen=True)
class GridSpec:
    """Grid search parameters: subdivisions per budget and local passes.

    Each search stage is held to POINT_CAP leader grid rows or follower
    marginal gains; a stage over it raises InputError.  Both fields take
    integers or integral floats; bools, strings, fractions and non-finite
    values raise InputError.
    """

    resolution: int
    refinement_rounds: int = 0

    def __post_init__(self):
        resolution = _whole_number("resolution", self.resolution)
        rounds = _whole_number("refinement_rounds", self.refinement_rounds)
        if resolution < 2:
            raise InputError(f"resolution must be >= 2, got {self.resolution}")
        if rounds < 0:
            raise InputError("refinement_rounds must be >= 0")
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "refinement_rounds", rounds)


def _interval_sums(
    counts: np.ndarray, start: int, first: np.ndarray, last: np.ndarray
) -> np.ndarray:
    """Sum of counts over the sums first .. last, per entry; counts[i]
    belongs to the sum start + i, and sums outside counts add nothing."""
    cum = np.append(0, np.cumsum(counts))
    size = len(counts)
    return cum[np.clip(last - start + 1, 0, size)] - cum[np.clip(first - start, 0, size)]


def _check_grid(grid) -> None:
    if not isinstance(grid, GridSpec):
        raise InputError(f"grid must be a GridSpec, got {type(grid).__name__}")


def _box_tables(total: int, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Where the kept prefixes of a box end, and how many rows follow each.

    A prefix c[:j+1] is kept when it lies in the box and the coordinates
    after j can still bring its sum to total.  Its sum then lies in the
    window low[j] .. high[j], every sum there is reached, and every kept
    prefix completes to at least one row.  A forward pass counts the kept
    prefixes per sum, O(n * total) and no row built.  It raises InputError
    at the first coordinate whose kept prefixes pass POINT_CAP, before
    that coordinate's window is built, so no table is larger than the
    stage.  A backward pass counts each kept sum's completions to a row.
    Returns low and, per coordinate, the cumulative completion counts over
    its window, led by a 0; the first table ends on the number of rows.
    """
    n = len(lo)
    # rest_lo[j], rest_hi[j]: bounds on the sum of coordinates after j.
    rest_lo = np.append(np.cumsum(lo[::-1])[::-1][1:], 0)
    rest_hi = np.append(np.cumsum(hi[::-1])[::-1][1:], 0)
    low = np.maximum(total - rest_hi, np.cumsum(lo))
    high = np.minimum(total - rest_lo, np.cumsum(hi))
    prefixes, start = np.ones(1, dtype=np.int64), 0
    for j in range(n):
        sums = start + np.arange(len(prefixes))
        # Values of coordinate j that keep the prefix, per previous sum.
        width = np.minimum(hi[j], high[j] - sums) - np.maximum(lo[j], low[j] - sums) + 1
        count = int(prefixes @ np.clip(width, 0, None))
        if count > POINT_CAP:
            raise InputError(
                f"leader grid needs at least {count} points at resolution "
                f"{total} with n={n}, over point_cap {POINT_CAP}"
            )
        sums = np.arange(low[j], high[j] + 1)
        prefixes, start = _interval_sums(prefixes, start, sums - hi[j], sums - lo[j]), low[j]
    completions = [np.ones(len(prefixes), dtype=np.int64)]
    for j in range(n - 2, -1, -1):
        sums = np.arange(low[j], high[j] + 1)
        after = _interval_sums(completions[0], low[j + 1], sums + lo[j + 1], sums + hi[j + 1])
        completions.insert(0, after)
    return low, [np.append(0, np.cumsum(c)) for c in completions]


def _box_blocks(total: int, lo: np.ndarray, hi: np.ndarray, block: int) -> Iterator[np.ndarray]:
    """The rows of _box_compositions in lex order, block rows at a time
    (the last block may be shorter).

    Each block is unranked from _box_tables' counts: row r's coordinate j
    is the one whose kept sum's completions hold r's rank among the rows
    that share r's prefix, found by one searchsorted on that coordinate's
    cumulative counts.  The last coordinate is what remains of total.  No
    row depends on the block size.
    """
    low, cums = _box_tables(total, lo, hi)
    stop = int(cums[0][-1])
    for first in range(0, stop, block):
        rank = np.arange(first, min(first + block, stop))
        sums = np.zeros_like(rank)
        rows = np.empty((len(rank), len(lo)), dtype=np.int64)
        for j, cum in enumerate(cums[:-1]):
            # From the rank among the rows that share c[:j] to a position in
            # coordinate j's table, past the sums below what c[:j+1] can reach.
            rank += cum[np.maximum(sums + lo[j] - low[j], 0)]
            index = np.searchsorted(cum, rank, side="right") - 1
            rank -= cum[index]
            rows[:, j] = low[j] + index - sums
            sums = low[j] + index
        rows[:, -1] = total - sums
        yield rows


def _box_compositions(total: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integer vectors with lo <= c <= hi and sum(c) == total, lex order.

    The whole stage as one array, joined from the blocks that
    oracle_commitment scores (_box_blocks); a stage over POINT_CAP rows
    raises InputError before any row is built.
    """
    blocks = _box_blocks(total, lo, hi, max(1, _LEADER_BLOCK_ELEMENTS // len(lo)))
    return np.concatenate([np.empty((0, len(lo)), dtype=np.int64), *blocks])


def _greedy_box_max(
    instance: GameInstance, xa: np.ndarray, total: int, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Exact maximizer of the follower payoff on a box-constrained simplex.

    Each battlefield's payoff c -> (c*step)*v_bj/(x_aj + c*step) is concave
    in c, so granting the total - sum(lo) largest marginal increments above
    lo reaches the true discrete optimum.  Ties break toward the smallest
    battlefield index.
    """
    n = instance.n
    step = instance.budget_b / total
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


def _grid_search(
    n: int, grid: GridSpec, floor: int, best_in_box: Callable[..., np.ndarray]
) -> tuple[np.ndarray, int]:
    """Coarse stage, then grid.refinement_rounds refinement stages.

    Every stage is a box lo <= c <= hi of integer counts summing to total;
    best_in_box(total, lo, hi) returns the stage's best counts.  The coarse
    stage is the box [floor, resolution].  Each refinement multiplies total
    by REFINE_FACTOR and searches +/- REFINE_HALO new units around the
    scaled incumbent, clipped to [floor, total].  Returns the last stage's
    counts and total.
    """
    total = grid.resolution
    lo = np.full(n, floor, dtype=np.int64)
    hi = np.full(n, total, dtype=np.int64)
    counts = best_in_box(total, lo, hi)
    for _ in range(grid.refinement_rounds):
        total *= REFINE_FACTOR
        center = counts * REFINE_FACTOR
        lo = np.maximum(center - REFINE_HALO, floor)
        hi = np.minimum(center + REFINE_HALO, total)
        counts = best_in_box(total, lo, hi)
    return counts, total


def batch_leader_utilities(instance: GameInstance, leader_points: np.ndarray) -> np.ndarray:
    """Leader utility of each row of leader_points after the follower replies.

    Every row must be a strictly positive allocation of budget_a: finite,
    and summing to budget_a within BUDGET_SUM_RTOL, like an Allocation.
    The first row that is not raises InputError.  The follower's reply to
    each row comes from the same water-filling kernel as best_response.
    Returns one utility per row.
    """
    pts = _real_array(leader_points, "leader_points")
    if pts.ndim != 2 or pts.shape[1] != instance.n:
        raise InputError("leader_points must be an (m, n) array")
    _require_positive_leader(pts)
    budget = instance.budget_a
    sums = pts.sum(axis=1)  # nan or inf when a row holds one
    bad = ~(np.abs(sums - budget) <= BUDGET_SUM_RTOL * budget)
    if bad.any():
        i = int(np.argmax(bad))
        raise InputError(
            f"leader_points row {i} sums to {float(sums[i])!r}; every row must be "
            f"finite and sum to budget_a {budget!r}"
        )
    order, _, filled, _, _ = _water_fill(pts, instance.values_b, instance.budget_b)
    xa_s = np.take_along_axis(pts, order, axis=1)
    xb_s = np.clip(filled, 0.0, None)
    return (xa_s * instance.values_a[order] / (xa_s + xb_s)).sum(axis=1)


def oracle_best_response(
    instance: GameInstance, leader_alloc: Allocation, grid: GridSpec
) -> tuple[Allocation, float]:
    """Grid-search the follower's reply; returns (allocation, utility).

    Splits budget_b into grid.resolution units, then refines
    grid.refinement_rounds times (see _grid_search).  Every stage is the
    exact marginal-gain pass of _greedy_box_max, so each returns the
    optimum over all compositions of its box.  Raises InputError when grid
    is not a GridSpec.
    """
    _check_grid(grid)
    _check_alloc(instance, leader_alloc, "a")
    xa = leader_alloc.amounts
    _require_positive_leader(xa)
    counts, total = _grid_search(instance.n, grid, 0, partial(_greedy_box_max, instance, xa))
    alloc = Allocation(counts / total * instance.budget_b, instance.budget_b)
    return alloc, total_utility(instance, "b", leader_alloc, alloc)


def oracle_commitment(
    instance: GameInstance, grid: GridSpec
) -> tuple[Allocation, float, tuple[int, ...]]:
    """Grid-search the leader's commitment; follower replies in closed form.

    Leader grid entries are floored at one grid step so every point is a
    valid best-response input.  Each stage streams the compositions of its
    box (_box_blocks, held to POINT_CAP rows) in blocks of
    _LEADER_BLOCK_ELEMENTS entries, scores each block, and keeps a running
    first maximum: the first row of highest utility, or the first NaN if
    any, as np.argmax over the whole stage picks.  Every row's reply and
    utility depend on that row alone, so the blocks give the same bits as
    one call on the whole stage.  Returns the utility-maximizing leader
    point, its utility, and the follower support it induces.  Raises
    InputError when grid is not a GridSpec, when the resolution is below n
    (no grid point), or when a stage would pass POINT_CAP.
    """
    _check_grid(grid)
    n = instance.n
    if grid.resolution < n:
        raise InputError(
            f"leader grid at resolution {grid.resolution} has no point with "
            f"n={n}: every battlefield needs at least one unit"
        )

    def best_in_box(total: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        best = best_utility = None
        for rows in _box_blocks(total, lo, hi, max(1, _LEADER_BLOCK_ELEMENTS // n)):
            utilities = batch_leader_utilities(instance, rows / total * instance.budget_a)
            i = int(np.argmax(utilities))
            if np.isnan(utilities[i]):
                return rows[i]  # the stage's first NaN, as argmax over it picks
            if best is None or utilities[i] > best_utility:
                best, best_utility = rows[i].copy(), utilities[i]
        return best

    best, total = _grid_search(n, grid, 1, best_in_box)
    alloc = Allocation(best / total * instance.budget_a, instance.budget_a)
    reply = best_response(instance, alloc)
    return alloc, total_utility(instance, "a", alloc, reply.allocation), reply.support
