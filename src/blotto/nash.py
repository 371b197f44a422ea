"""Pure Nash equilibrium of the simultaneous-move game.

solve_nash works on the ratio-class quotient (game_core.ratio_quotient),
so n below counts ratio classes.  The equilibrium itself splits a class
in proportion to values_a, which is how the quotient's amounts are spread
back over it.

The equilibrium is characterized by a positive root mu* of a degree-2n
polynomial f built from the value ratios rho_h = v_bh / v_ah and the budget
ratio r = x_a / x_b; both players' allocations then follow in closed form.
The roots are the fixed points of T(mu) = r * sum_j w_j rho_j / sum_j w_j,
w_j = v_bj / (mu + rho_j)^2, a weighted mean of r * rho: T maps
[min_h rho_h * r, max_h rho_h * r] into itself and is nondecreasing, so by
Tarski's theorem T iterated from the two ends rises to the least root and
falls to the greatest.  solve_nash scans f's sign on the grid cells
between the two iterates, refines each sign change by Brent's method
(brentq, below) unless G = sum_h v_bh (mu - rho_h r) / (mu + rho_h)^2,
which has f's sign without its overflow, keeps one sign across the cell,
and drops a root whose reconstruction is not a valid pair of
allocations, or not a mutual best response; when no root survives, it
raises SolverInvariantError.

f is evaluated in product form, which overflows to NaN above some mu from
about n = 64 (and to -inf at the edge), in row blocks that hold about 1
MiB at any n.  The scan is sampled, not certified: two roots inside one
cell leave no sign change and are both missed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .best_response import _reply, best_response
from .game_core import (
    Allocation,
    GameInstance,
    InputError,
    SolverInvariantError,
    _real_number,
    ratio_quotient,
    total_utility,
)

# Number of scan cells on the interval; the bracket keeps whole cells.
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
# Roots that the "no root ... reconstructs" error lists (it counts the rest).
_ROOTS_IN_MESSAGE = 8


@dataclass(frozen=True, eq=False)
class NashSolution:
    """Equilibrium profile; candidate_roots lists every root of f located
    inside the bracket (see solve_nash), including the ones dropped because
    they do not rebuild a valid mutual best response.  From about n = 64
    ratio classes the product form overflows to NaN above some mu, so a
    root there shows no sign change; that is why most solves still fail
    at n >= 512."""

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
        np.add(mu[:, None], rho, out=sq)  # strictly positive
        np.square(sq, out=sq)
        full = sq.prod(axis=1, keepdims=True)
        np.subtract(mu[:, None], rho_r, out=tm)
        np.multiply(instance.values_b, tm, out=tm)
        np.multiply(tm, full, out=tm)
        np.divide(tm, sq, out=tm)
        np.multiply(mu, tm.sum(axis=1), out=out[start : start + mu.size])
    return out


def _bracket(game: GameInstance, grid: np.ndarray) -> slice:
    """The rows of the ascending root grid that can hold a root of f: from
    one cell below to one cell above the two ends of T iterated from
    grid[0] and grid[-1].  Each step moves the ends inward; the iteration
    stops once neither end moves by a whole cell, T is not finite, or the
    ends would cross.  The one-cell margins cover T's rounding."""
    rho = game.values_b / game.values_a
    r = game.budget_a / game.budget_b
    cell = float(grid[1] - grid[0])
    lo, hi = float(grid[0]), float(grid[-1])
    w = np.empty((2, rho.size))
    for _ in range(2 * SCAN_CELLS):  # each step moves an end a whole cell
        np.add(lo, rho, out=w[0])
        np.add(hi, rho, out=w[1])
        np.square(w, out=w)
        np.divide(game.values_b, w, out=w)
        t_lo, t_hi = (r * (w @ rho) / w.sum(axis=1)).tolist()
        if not (math.isfinite(t_lo) and math.isfinite(t_hi) and t_lo <= t_hi):
            break
        t_lo, t_hi = min(max(t_lo, lo), hi), min(max(t_hi, lo), hi)
        moved = max(abs(t_lo - lo), abs(t_hi - hi))
        lo, hi = t_lo, t_hi
        if moved < cell:
            break
    first = max(0, int(np.searchsorted(grid, lo, "right")) - 2)
    last = min(grid.size - 1, int(np.searchsorted(grid, hi)) + 1)
    return slice(first, last + 1)


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
    with np.errstate(all="ignore"):  # w underflowing to 0 gives nan, which Allocation rejects
        w = instance.values_b * rho * mu / (mu + rho) ** 2
        denom = w.sum()
        x_b = w / denom * instance.budget_b
        x_a = mu * (w / rho) / denom * instance.budget_b
    return (
        Allocation(x_a, instance.budget_a),
        Allocation(x_b, instance.budget_b),
    )


def _mutual_br(instance: GameInstance, alloc_a: Allocation, alloc_b: Allocation) -> bool:
    """Whether alloc_a and alloc_b are each, to MUTUAL_BR_RTOL of the
    player's budget, the other's best reply.  The follower's reply is
    best_response's; the leader's is the same water filling with the
    players' roles swapped (_reply on values_a and budget_a).  Raises
    PreconditionError when the other player's allocation has a zero
    entry, and InputError when a reply is not a valid allocation."""
    reply_b = best_response(instance, alloc_a).allocation
    if np.max(np.abs(reply_b.amounts - alloc_b.amounts)) > MUTUAL_BR_RTOL * instance.budget_b:
        return False
    reply_a = _reply(instance.values_a, instance.budget_a, alloc_b.amounts)[0]
    return bool(
        np.max(np.abs(reply_a.amounts - alloc_a.amounts)) <= MUTUAL_BR_RTOL * instance.budget_a
    )


def solve_nash(instance: GameInstance) -> NashSolution:
    """Find mu* and rebuild both equilibrium allocations.

    Solves the ratio-class quotient of instance, whose mu*, roots and
    utilities it reports, and spreads each class's amounts over the class.
    A one-class quotient has lo == hi, and its root is that point.
    Otherwise this brackets the roots by iterating T from both ends of the
    root interval (_bracket), samples f on the bracket's cells of the
    interval's SCAN_CELLS-cell grid, refines with brentq (the in-repo
    Brent method) every sign change of f across which G = f / (mu *
    prod_j (mu + rho_j)^2) does not keep one sign, keeps the roots whose
    reconstructed profiles are valid allocations and mutual best
    responses, and among those returns the one with the highest leader
    utility.

    The bracket, the scan and the brentq refinement run under
    np.errstate(over="ignore", invalid="ignore", divide="ignore"): the
    product form's overflow is expected, and it gives NaN, which is never
    a zero or a sign change, or -inf at its edge, whose false sign change
    G rules out; so it prints no RuntimeWarning, and a caller's
    over="raise" does not reach them.  A budget ratio whose root interval
    is not finite, or underflows to 0, is reported, not solved.  The scan
    is sampled: two roots inside one cell cancel out and are not located,
    so "highest leader utility" ranges over the located roots only, not
    over every equilibrium.
    Raises SolverInvariantError when no root survives, or when brentq does
    not converge in a cell.  The raised error holds its message, not the
    solve's arrays: it is raised from a frame that never held the scan
    grid, its values, rho or the quotient, so a caller that keeps the error
    keeps a few hundred bytes, not the scan.
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
    if not (0 < lo and hi < math.inf):
        flow, fault = ("overflows", "finite") if hi == math.inf else ("underflows", "positive")
        return (
            f"the budget ratio r = budget_a / budget_b = {game.budget_a:.6g} / {game.budget_b:.6g} {flow}: "
            f"the root interval [r * min rho, r * max rho] = [{lo:.6g}, {hi:.6g}] is not {fault}"
        )

    if lo == hi:  # one ratio class: the root is the interval itself
        roots = [lo]
    else:
        grid = np.linspace(lo, hi, SCAN_CELLS + 1)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            kept = _bracket(game, grid)
            cells = grid[kept]
            vals = _poly_values(game, cells)
            roots = [float(g) for g in cells[vals == 0]]
            signs = np.sign(vals)
            for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
                # f = mu * prod_j (mu + rho_j)^2 * G: where G keeps one sign
                # across the cell, f's flip is the product form's overflow edge
                mu = cells[i : i + 2, None]
                g = np.sign((game.values_b * (mu - rho * r) / (mu + rho) ** 2).sum(axis=1))
                if g[0] * g[1] > 0:
                    continue
                try:
                    root = brentq(lambda m: nash_poly(game, m), cells[i], cells[i + 1])
                except ValueError:  # f is NaN inside the cell: no usable root
                    continue
                except SolverInvariantError as exc:  # did not converge
                    return str(exc)
                roots.append(float(root))
            if not roots:
                samples = grid[::512]
                values = _poly_values(game, samples)
                sampled = ", ".join(f"f({g:.6g})={v:.3g}" for g, v in zip(samples, values))
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
        listed = roots[:_ROOTS_IN_MESSAGE]
        more = f" (the first {len(listed)} of {len(roots)})" if len(roots) > len(listed) else ""
        return f"no root of f reconstructs a mutual best response; roots={listed}{more}"

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
