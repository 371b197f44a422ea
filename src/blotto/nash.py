"""Pure Nash equilibrium of the simultaneous-move game.

solve_nash works on the ratio-class quotient (game_core.ratio_quotient),
so n below counts ratio classes.  The equilibrium itself splits a class
in proportion to values_a, which is how the quotient's amounts are spread
back over it.

The equilibrium is characterized by a positive root mu* of a degree-2n
polynomial built from the value ratios rho_h = v_bh / v_ah and the budget
ratio r = x_a / x_b; both players' allocations then follow in closed form.
The root always lies in [min_h rho_h * r, max_h rho_h * r] and the
polynomial changes sign across that interval, so a scan plus bracketed
root refinement by Brent's method (brentq, below) finds it.  A root whose
reconstruction is not a valid pair of allocations, or not a mutual best
response, is dropped; when no root survives, solve_nash raises
SolverInvariantError.

The scan samples f at SCAN_CELLS + 1 points.  Where the product
prod_j (mu + rho_j)^2 overflows, f is NaN, and every later point
overflows too; one probe of the last point and a bisection on single
points find the first such point, and only the points before it are
evaluated (at n = 512 most points of a `gen` instance overflow).  The
kept points are evaluated in row blocks of _SCAN_BLOCK_ELEMENTS (mu, h)
pairs, at least one row, that reuse two preallocated buffers, so the
scan holds about 1 MiB at any n, not SCAN_CELLS * n floats.  Overflow
inside the scan is expected and runs with numpy's warnings off.  The
scan is sampled, not certified: two roots inside one cell leave no sign
change and are both missed.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .best_response import best_response
from .game_core import (
    Allocation,
    GameInstance,
    InputError,
    SolverInvariantError,
    _real_number,
    ratio_quotient,
    total_utility,
)

# Number of scan cells used to bracket sign changes of f on the interval.
SCAN_CELLS = 4096
# (mu, h) pairs the scan evaluates at a time (at least one row of n); its
# working memory is two float64 buffers of this size (512 KiB each).
_SCAN_BLOCK_ELEMENTS = 65536
# Relative tolerance on the located root.
ROOT_RTOL = 1e-12
# Mutual-best-response acceptance tolerance (relative to each budget).
MUTUAL_BR_RTOL = 1e-6
# brentq's absolute root tolerance and iteration cap (scipy's defaults).
BRENT_XTOL = 2e-12
BRENT_MAXITER = 100


@dataclass(frozen=True, eq=False)
class NashSolution:
    """Equilibrium profile; candidate_roots lists every root of f located on
    the interval, including the ones dropped because they do not rebuild a
    valid mutual best response.  From about n = 64 ratio classes the
    product form overflows above some mu, where f is NaN, so the roots
    there are not located; that is why most solves fail at n >= 512."""

    mu_star: float
    alloc_a: Allocation
    alloc_b: Allocation
    leader_utility: float
    follower_utility: float
    candidate_roots: tuple[float, ...] = ()


def nash_poly(instance: GameInstance, mu: float) -> float:
    """Evaluate f(mu) = sum_h v_bh * mu * (mu - rho_h * r) * prod_{j != h}
    (mu + rho_j)^2 in product form (no coefficient expansion)."""
    mu = _real_number("mu", mu)
    if not (math.isfinite(mu) and mu > 0):
        raise InputError(f"nash_poly requires a finite mu > 0, got {mu}")
    return float(_poly_values(instance, np.array([mu]))[0])


def _products(mus: np.ndarray, rho: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """fl(prod_j (mu + rho_j)^2) for each mu, as a column, leaving the
    squares in the C-contiguous (mus.size, n) buffer sq.  The one place the
    scan and its overflow search form the product, so both round alike."""
    np.add(mus[:, None], rho, out=sq)  # strictly positive
    np.square(sq, out=sq)
    return sq.prod(axis=1, keepdims=True)


def _first_overflow(rho: np.ndarray, grid: np.ndarray) -> int:
    """Index of the first row of the ascending grid whose product
    (_products) is inf, or grid.size when none is: one probe of the last
    row, then a bisection on single rows.  The rows after it overflow too
    (see solve_nash), so the overflowing rows are a suffix of the grid."""
    sq = np.empty((1, rho.size))

    def overflows(i: int) -> bool:
        return bool(np.isinf(_products(grid[i : i + 1], rho, sq)[0, 0]))

    if not overflows(grid.size - 1):
        return grid.size
    return bisect.bisect_left(range(grid.size - 1), True, key=overflows)


def _poly_values(instance: GameInstance, mus: np.ndarray) -> np.ndarray:
    """nash_poly over a vector of mu values, in blocks of
    _SCAN_BLOCK_ELEMENTS (mu, h) pairs, at least one row.  Each row only
    depends on its own mu, and a reduction along a C-contiguous row does
    not depend on the rows beside it, so the result is bit for bit that of
    one call per mu."""
    rho = instance.values_b / instance.values_a
    r = instance.budget_a / instance.budget_b
    rho_r = rho * r
    rows = max(1, _SCAN_BLOCK_ELEMENTS // rho.size)
    out = np.empty(mus.size)
    squares = np.empty((min(rows, mus.size), rho.size))
    terms = np.empty_like(squares)
    for start in range(0, mus.size, rows):
        # The recorded reports depend on this exact operation order:
        # (v_b * (mu - rho * r) * full) / squares, never
        # terms * (full / squares), which rounds differently.
        mu = mus[start : start + rows]
        sq, tm = squares[: mu.size], terms[: mu.size]
        full = _products(mu, rho, sq)
        np.subtract(mu[:, None], rho_r, out=tm)
        np.multiply(instance.values_b, tm, out=tm)
        np.multiply(tm, full, out=tm)
        np.divide(tm, sq, out=tm)
        np.multiply(mu, tm.sum(axis=1), out=out[start : start + mu.size])
    return out


def _scan_values(instance: GameInstance, grid: np.ndarray) -> np.ndarray:
    """f over an ascending grid inside [min_h rho_h * r, max_h rho_h * r]:
    _poly_values on the rows before _first_overflow, NaN on the rest, which
    are never evaluated.  Bit for bit what _poly_values gives every row, up
    to the sign of a NaN; solve_nash's docstring says why."""
    cut = _first_overflow(instance.values_b / instance.values_a, grid)
    vals = np.full(grid.size, np.nan)
    vals[:cut] = _poly_values(instance, grid[:cut])
    return vals


def brentq(f, xa: float, xb: float) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4), ported
    step for step from scipy.optimize.brentq (Zeros/brentq.c) so that every
    root is bit-identical to scipy's called with xtol=BRENT_XTOL and
    rtol=ROOT_RTOL.  An exact zero at an endpoint is the root.  Raises
    ValueError when f(xa) and f(xb) have the same sign or f is NaN at an
    iterate, SolverInvariantError after BRENT_MAXITER iterations."""

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):  # C signbit
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # C order: xpre = xcur; xcur = xblk; xblk = xpre
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_XTOL + ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless a short interpolated step is found
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets +-inf or NaN, which bisects too
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise SolverInvariantError(f"brentq did not converge on [{xa}, {xb}]")


def _reconstruct(instance: GameInstance, mu: float) -> tuple[Allocation, Allocation]:
    rho = instance.values_b / instance.values_a
    w = instance.values_b * rho * mu / (mu + rho) ** 2
    denom = w.sum()
    with np.errstate(all="ignore"):  # w underflowing to 0 gives nan, which Allocation rejects
        x_b = w / denom * instance.budget_b
        x_a = mu * (w / rho) / denom * instance.budget_b
    return (
        Allocation(x_a, instance.budget_a),
        Allocation(x_b, instance.budget_b),
    )


def _mutual_br(instance: GameInstance, alloc_a: Allocation, alloc_b: Allocation) -> bool:
    reply_b = best_response(instance, alloc_a).allocation
    if np.max(np.abs(reply_b.amounts - alloc_b.amounts)) > MUTUAL_BR_RTOL * instance.budget_b:
        return False
    swapped = GameInstance(
        budget_a=instance.budget_b,
        budget_b=instance.budget_a,
        values_a=instance.values_b,
        values_b=instance.values_a,
    )
    reply_a = best_response(swapped, alloc_b)
    return bool(
        np.max(np.abs(reply_a.allocation.amounts - alloc_a.amounts))
        <= MUTUAL_BR_RTOL * instance.budget_a
    )


def solve_nash(instance: GameInstance) -> NashSolution:
    """Find mu* and rebuild both equilibrium allocations.

    Solves the ratio-class quotient of instance, whose mu*, roots and
    utilities it reports, and spreads each class's amounts over the class.
    A one-class quotient has lo == hi, and its root is that point.
    Otherwise this scans the root interval in SCAN_CELLS cells, refines
    every sign change with brentq (the in-repo Brent method), keeps the
    roots whose reconstructed profiles are valid allocations and mutual
    best responses, and among those returns the one with the highest
    leader utility.

    The scan evaluates f only below the first grid point whose product
    fl(prod_j (mu + rho_j)^2) is inf (_first_overflow), and takes f as NaN
    from there on.  That is what evaluating those points would give, bit
    for bit up to the NaN's sign, for two reasons:
    - Once a point overflows, every later one does.  All factors are
      positive and rounding is monotone, so each partial product at a
      larger mu is at least as large, in any fixed reduction order; a
      product of inf has no partial product of 0, so no 0 * inf arises.
    - An overflowing point's f is NaN.  Every grid mu lies in
      [min_h rho_h * r, max_h rho_h * r], so one term has mu - rho_h * r
      >= 0 and another <= 0; times inf they give +inf and -inf, or
      0 * inf, and the sum is NaN, which is never a zero or a sign change.
    The kept points are evaluated in row blocks (see _poly_values), so
    the scan's memory stays bounded at any n.  The scan and the brentq
    refinement run under np.errstate(over="ignore", invalid="ignore"):
    their overflow is expected and handled by the NaN rule above, so it
    prints no RuntimeWarning, and a caller's over="raise" does not reach
    them.  The scan is sampled: two roots inside one cell cancel out and
    are not located, so "highest leader utility" ranges over the located
    roots only, not over every equilibrium.
    Raises SolverInvariantError when no root survives, or when brentq does
    not converge in a cell.  The raised error holds its message, not the
    solve's arrays: it is raised from a frame that never held the scan
    grid, its values, rho or the quotient, so a caller that keeps the error
    keeps a few hundred bytes, not the scan (130 KiB for `gen --n 2048`).
    """
    outcome = _solve(instance)
    if isinstance(outcome, str):
        raise SolverInvariantError(outcome)
    return outcome


def _solve(instance: GameInstance) -> NashSolution | str:
    """solve_nash's work: the solution, or the message of the error that
    solve_nash raises, so that the arrays die with this frame."""
    quotient = ratio_quotient(instance)
    game = quotient.game
    rho = game.values_b / game.values_a
    r = game.budget_a / game.budget_b
    lo = float(rho.min()) * r
    hi = float(rho.max()) * r

    if lo == hi:  # one ratio class: the root is the interval itself
        roots = [lo]
    else:
        grid = np.linspace(lo, hi, SCAN_CELLS + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _scan_values(game, grid)
            roots = [float(g) for g in grid[vals == 0]]
            signs = np.sign(vals)
            for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
                try:
                    root = brentq(lambda m: nash_poly(game, m), grid[i], grid[i + 1])
                except ValueError:  # f is NaN inside the cell: no usable root
                    continue
                except SolverInvariantError as exc:  # did not converge
                    return str(exc)
                roots.append(float(root))
        if not roots:
            sampled = ", ".join(f"f({g:.6g})={v:.3g}" for g, v in zip(grid[::512], vals[::512]))
            return f"no sign change of f on [{lo:.6g}, {hi:.6g}]; samples: {sampled}"
        roots = sorted(set(roots))

    candidates = []
    for mu in roots:
        try:
            alloc_a, alloc_b = _reconstruct(game, mu)
            if _mutual_br(game, alloc_a, alloc_b):
                candidates.append((mu, alloc_a, alloc_b))
        except InputError:  # not a valid, strictly positive allocation pair
            continue
    if not candidates:
        return f"no root of f reconstructs a mutual best response; roots={roots}"

    scored = [
        (total_utility(game, "a", aa, ab), mu, aa, ab)
        for mu, aa, ab in candidates
    ]
    scored.sort(key=lambda item: item[0])
    u_a, mu_star, alloc_a, alloc_b = scored[-1]
    return NashSolution(
        mu_star=float(mu_star),
        alloc_a=quotient.spread(alloc_a),
        alloc_b=quotient.spread(alloc_b),
        leader_utility=u_a,
        follower_utility=total_utility(game, "b", alloc_a, alloc_b),
        candidate_roots=tuple(roots),
    )
