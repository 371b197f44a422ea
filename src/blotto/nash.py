"""Pure Nash equilibrium of the simultaneous-move game.

The equilibrium is characterized by a positive root mu* of a degree-2n
polynomial built from the value ratios rho_h = v_bh / v_ah and the budget
ratio r = x_a / x_b; both players' allocations then follow in closed form.
The root always lies in [min_h rho_h * r, max_h rho_h * r] and the
polynomial changes sign across that interval, so a scan plus bracketed
root refinement by Brent's method (brentq, below) finds it.  A root whose
reconstruction is not a valid pair of allocations, or not a mutual best
response, is dropped; when no root survives, solve_nash raises
SolverInvariantError.

The scan samples f at SCAN_CELLS + 1 points.  It evaluates them in row
blocks of at most _SCAN_BLOCK_ELEMENTS (mu, h) pairs, or one row when n
is larger, that reuse two preallocated buffers.  Its working memory is
two such blocks (1 MiB up to n = 65536), not SCAN_CELLS * n floats.  The
scan is sampled, not certified: two roots inside one cell leave no sign
change and are both missed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .best_response import best_response
from .game_core import (
    Allocation,
    GameInstance,
    InputError,
    SolverInvariantError,
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
    valid mutual best response (common at n >= 64, where the product form
    overflows)."""

    mu_star: float
    alloc_a: Allocation
    alloc_b: Allocation
    leader_utility: float
    follower_utility: float
    candidate_roots: tuple[float, ...] = ()


def nash_poly(instance: GameInstance, mu: float) -> float:
    """Evaluate f(mu) = sum_h v_bh * mu * (mu - rho_h * r) * prod_{j != h}
    (mu + rho_j)^2 in product form (no coefficient expansion)."""
    mu = float(mu)
    if mu <= 0:
        raise InputError(f"nash_poly requires mu > 0, got {mu}")
    return float(_poly_values(instance, np.array([mu]))[0])


def _poly_values(instance: GameInstance, mus: np.ndarray) -> np.ndarray:
    """nash_poly over a vector of mu values, _SCAN_BLOCK_ELEMENTS (mu, h)
    pairs at a time.  Each row only depends on its own mu, and a reduction
    along a C-contiguous row does not depend on the rows beside it, so the
    result is bit for bit that of one call per mu."""
    rho = instance.values_b / instance.values_a
    r = instance.budget_a / instance.budget_b
    rho_r = rho * r
    rows = max(1, _SCAN_BLOCK_ELEMENTS // rho.size)
    squares = np.empty((min(rows, mus.size), rho.size))
    terms = np.empty_like(squares)
    out = np.empty(mus.size)
    for start in range(0, mus.size, rows):
        # The recorded reports depend on this exact operation order:
        # (v_b * (mu - rho * r) * full) / squares, never
        # terms * (full / squares), which rounds differently.
        mu = mus[start : start + rows]
        sq, tm = squares[: mu.size], terms[: mu.size]
        np.add(mu[:, None], rho, out=sq)  # strictly positive
        np.square(sq, out=sq)
        full = sq.prod(axis=1, keepdims=True)
        np.subtract(mu[:, None], rho_r, out=tm)
        np.multiply(instance.values_b, tm, out=tm)
        np.multiply(tm, full, out=tm)
        np.divide(tm, sq, out=tm)
        np.multiply(mu, tm.sum(axis=1), out=out[start : start + mu.size])
    return out


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

    Scans the root interval in SCAN_CELLS cells, refines every sign change
    with brentq (the in-repo Brent method), keeps the roots whose
    reconstructed profiles are valid allocations and mutual best responses,
    and among those returns the one with the highest leader utility.  The
    scan evaluates f in row blocks (see _poly_values), so its memory stays
    bounded at any n.  It is sampled: two roots inside one cell cancel out
    and are not located, so "highest leader utility" ranges over the
    located roots only, not over every equilibrium.
    Raises SolverInvariantError when no root survives, or when brentq does
    not converge in a cell.
    """
    rho = instance.values_b / instance.values_a
    r = instance.budget_a / instance.budget_b
    lo = float(rho.min()) * r
    hi = float(rho.max()) * r

    if hi - lo <= 1e-14 * hi:  # uniform ratios: the root is the interval itself
        roots = [(lo + hi) / 2]
    else:
        grid = np.linspace(lo, hi, SCAN_CELLS + 1)
        vals = _poly_values(instance, grid)
        roots = [float(g) for g in grid[vals == 0]]
        signs = np.sign(vals)
        for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
            try:
                root = brentq(lambda m: nash_poly(instance, m), grid[i], grid[i + 1])
            except ValueError:  # f is NaN inside the cell: no usable root
                continue
            roots.append(float(root))
        if not roots:
            sampled = ", ".join(f"f({g:.6g})={v:.3g}" for g, v in zip(grid[::512], vals[::512]))
            raise SolverInvariantError(
                f"no sign change of f on [{lo:.6g}, {hi:.6g}]; samples: {sampled}"
            )
        roots = sorted(set(roots))

    candidates = []
    for mu in roots:
        try:
            alloc_a, alloc_b = _reconstruct(instance, mu)
            if _mutual_br(instance, alloc_a, alloc_b):
                candidates.append((mu, alloc_a, alloc_b))
        except InputError:  # not a valid, strictly positive allocation pair
            continue
    if not candidates:
        raise SolverInvariantError(
            f"no root of f reconstructs a mutual best response; roots={roots}"
        )

    scored = [
        (total_utility(instance, "a", aa, ab), mu, aa, ab)
        for mu, aa, ab in candidates
    ]
    scored.sort(key=lambda item: item[0])
    u_a, mu_star, alloc_a, alloc_b = scored[-1]
    return NashSolution(
        mu_star=float(mu_star),
        alloc_a=alloc_a,
        alloc_b=alloc_b,
        leader_utility=u_a,
        follower_utility=total_utility(instance, "b", alloc_a, alloc_b),
        candidate_roots=tuple(roots),
    )
