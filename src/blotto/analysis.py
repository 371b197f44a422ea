"""Stackelberg-vs-Nash comparison machinery.

Covers three questions about a game instance:

* when do the two solution concepts coincide?  They always do when all
  battlefields share one values_a/values_b ratio; with exactly two ratio
  classes they coincide at a single budget ratio x_a/x_b given in closed
  form (coincidence_threshold); with three or more classes, never.  Both
  follow from the solvers' own equations: the Nash leader profile
  x_aj ~ v_bj / (mu + rho_j)^2 equals the full-support commitment
  x_aj ~ v_bj (1 / rho_j + sigma)^2 exactly when mu / rho_j + sigma rho_j
  is one value on every class (rho_j = v_bj / v_aj).  Two classes fix
  mu* = sigma rho_1 rho_2, and the threshold is the budget ratio whose
  Nash root is mu*; a strictly convex function of rho takes no value on
  three distinct ratios.  The threshold does not depend on the scale of
  either player's values.
* how large can the leader's commitment advantage be?  The Nash utility is
  floored at the leader's budget share of its total value, which caps
  SE/NE at (x_a+x_b)/x_a; for two battlefields a sharper two-sided bound
  is available in a normalized frame.
* how do the utilities move as the budget ratio varies?  budget_sweep
  resolves both equilibria along a grid of ratios and serializes to CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .commitment import CommitmentSolution, optimal_commitment
from .game_core import (
    RATIO_CLASS_RTOL,
    GameInstance,
    InputError,
    SolverInvariantError,
    _real_number,
    canonical_ordering,
    ratio_quotient,
)
from .nash import NashSolution, solve_nash

# Two ratio classes coincide with a budget ratio when it matches the
# threshold to this relative tolerance.
COINCIDENCE_RTOL = 1e-9

SWEEP_CSV_HEADER = "r,se_u_a,se_u_b,ne_u_a,ne_u_b,coincides"


@dataclass(frozen=True)
class CoincidenceReport:
    """Ratio-class partition and whether SE and NE coincide here.

    threshold is the budget ratio x_a/x_b at which the two-class game's
    equilibria collapse into each other; None unless exactly two classes.
    """

    ratio_classes: tuple[tuple[int, ...], ...]
    coincides: bool
    threshold: float | None


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Side-by-side equilibria with the leader-advantage ratios."""

    se: CommitmentSolution
    ne: NashSolution
    leader_ratio: float
    follower_ratio: float
    cor1_upper: float


@dataclass(frozen=True)
class AdvantageBounds:
    """Bounds on equilibrium utilities and their ratio.

    ne_leader_floor bounds the leader's Nash utility from below;
    se_over_ne_cap bounds SE/NE from above for any instance.  The
    two-battlefield bounds apply to the normalized frame recorded in
    normalized_frame = (va1, vb1, xa) with the second battlefield and the
    follower budget scaled to 1; utility ratios are unchanged by that
    rescaling.  All three are None when n != 2.
    """

    ne_leader_floor: float
    se_over_ne_cap: float
    two_field_lower: float | None
    two_field_upper: float | None
    normalized_frame: tuple[float, float, float] | None


@dataclass(frozen=True)
class SweepRow:
    """One budget ratio's utilities; nan + diagnostic when a solver failed."""

    r: float
    se_u_a: float
    se_u_b: float
    ne_u_a: float
    ne_u_b: float
    coincides: bool
    diagnostic: str | None = None


def coincidence_threshold(
    v_aM: float, v_bM: float, v_aMbar: float, v_bMbar: float
) -> float:
    """Budget ratio x_a/x_b at which a two-ratio-class game's Stackelberg
    and Nash equilibria coincide.

    Arguments are the class value sums for the leader and follower; the two
    classes must have distinct values_a/values_b ratios.  The function is
    symmetric in swapping the two classes.

    It follows from the equations the two solvers implement, with rho_j =
    v_bj / v_aj and sigma^2 = sum v_a^2 / v_b / sum v_b over the classes:
    - the Nash leader profile is x_aj ~ v_bj / (mu + rho_j)^2
      (nash._reconstruct), and the full-support commitment is x_aj ~ v_bj
      (1 / rho_j + sigma)^2, since CASE_2_1 has alpha = -sigma;
    - the two are equal exactly when (mu + rho_j)(1 / rho_j + sigma), that
      is mu / rho_j + sigma rho_j, takes one value on every class.  With
      two classes that gives mu* = sigma rho_1 rho_2.  With three or more
      it is impossible: mu / rho + sigma rho is strictly convex in rho, so
      it takes each value at most twice (the "never" of check_coincidence);
    - the threshold is the ratio r at which the Nash equation sum_h v_bh
      (mu - rho_h r) / (mu + rho_h)^2 = 0 has the root mu*.  With q_h =
      mu* / rho_h (q_1 = sigma rho_2, q_2 = sigma rho_1),
      r* = sum_h v_ah q_h / (1 + q_h)^2 / sum_h v_ah / (1 + q_h)^2.
    Scaling either player's values changes neither the game nor r*, and
    the evaluation is scale-free: sigma is a hypot, and with both sums'
    terms multiplied by rho_h q_h = mu*, r* = sum w_h t_h^2 / sum w_h t_h
    s_h, where w_h = v_bh / max v_b, t_h = q_h / (1 + q_h) and s_h = 1 /
    (1 + q_h) all lie in [0, 1].
    Raises SolverInvariantError when the result is not a finite positive
    float (class sums beyond about 1e+-150 can underflow or overflow).
    """
    sums = (v_aM, v_bM, v_aMbar, v_bMbar)
    reals = [_real_number("class value sum", s) for s in sums]
    if any(not (s > 0) or not math.isfinite(s) for s in reals):
        raise InputError(f"class value sums must be positive reals, got {sums}")
    inv_rho_M, inv_rho_Mbar = v_aM / v_bM, v_aMbar / v_bMbar
    if abs(inv_rho_M - inv_rho_Mbar) <= RATIO_CLASS_RTOL * max(inv_rho_M, inv_rho_Mbar):
        raise InputError(
            "the two classes must have distinct value ratios; equal ratios "
            "coincide at every budget ratio"
        )
    sigma = math.hypot(v_aM / math.sqrt(v_bM), v_aMbar / math.sqrt(v_bMbar))
    sigma /= math.sqrt(v_bM + v_bMbar)
    top = max(v_bM, v_bMbar)
    num = den = 0.0
    for v_b, inv_rho in ((v_bM, inv_rho_Mbar), (v_bMbar, inv_rho_M)):  # q_h = sigma rho_other
        t, s = sigma / (sigma + inv_rho), inv_rho / (sigma + inv_rho)
        num, den = num + v_b / top * t * t, den + v_b / top * t * s
    threshold = num / den if den > 0 else math.nan
    if not 0 < threshold < math.inf:
        raise SolverInvariantError(f"threshold of class sums {sums} is {threshold}")
    return threshold


def check_coincidence(instance: GameInstance) -> CoincidenceReport:
    """Do this instance's Stackelberg and Nash equilibria coincide?

    One ratio class: always.  Two classes: exactly when x_a/x_b equals the
    threshold (each class is collapsed to a super-battlefield by summing
    values).  Three or more classes: never.
    """
    canon, ordering = canonical_ordering(instance)
    quotient = ratio_quotient(canon)
    perm, ends = ordering.permutation.tolist(), np.cumsum(np.bincount(quotient.labels)).tolist()
    classes = tuple(tuple(perm[start:end]) for start, end in zip([0, *ends], ends))
    if len(classes) == 1:
        return CoincidenceReport(classes, True, None)
    if len(classes) > 2:
        return CoincidenceReport(classes, False, None)
    va, vb = quotient.game.values_a, quotient.game.values_b
    threshold = coincidence_threshold(float(va[0]), float(vb[0]), float(va[1]), float(vb[1]))
    r = instance.budget_a / instance.budget_b
    coincides = abs(r - threshold) <= COINCIDENCE_RTOL * max(abs(r), abs(threshold))
    return CoincidenceReport(classes, coincides, threshold)


def leader_advantage_bounds(instance: GameInstance) -> AdvantageBounds:
    """Utility bounds: the Nash floor, the SE/NE cap, and (for n = 2) the
    two-sided ratio bound formulas in the normalized frame.

    The frame keeps the caller's battlefield order: the second battlefield's
    values and the follower's budget are scaled to 1.  The two-sided
    formulas provably bracket SE/NE only when va1 <= vb1 in that frame;
    they are still reported otherwise (the small-leader-budget divergence
    argument evaluates them exactly there), so callers comparing them to a
    realized ratio must check the frame orientation themselves.
    """
    x_a, x_b = instance.budget_a, instance.budget_b
    floor = x_a / (x_a + x_b) * float(instance.values_a.sum())
    cap = (x_a + x_b) / x_a
    if instance.n != 2:
        return AdvantageBounds(floor, cap, None, None, None)

    va1 = float(instance.values_a[0] / instance.values_a[1])
    vb1 = float(instance.values_b[0] / instance.values_b[1])
    xa = x_a / x_b
    lower = (va1 + 1) / (va1 + vb1 * (xa + 1) / (vb1 * xa + va1))
    upper = (va1 + 1) / (xa * va1**2 / (xa * va1 + vb1) + xa / (xa + 1))
    return AdvantageBounds(floor, cap, lower, upper, (va1, vb1, xa))


def compare_equilibria(instance: GameInstance) -> ComparisonReport:
    """Solve both equilibria and report the utility ratios."""
    se = optimal_commitment(instance)
    ne = solve_nash(instance)
    return ComparisonReport(
        se=se,
        ne=ne,
        leader_ratio=se.leader_utility / ne.leader_utility,
        follower_ratio=se.follower_utility / ne.follower_utility,
        cor1_upper=(instance.budget_a + instance.budget_b) / instance.budget_a,
    )


def budget_sweep(instance: GameInstance, r_values: Iterable[float]) -> list[SweepRow]:
    """Re-solve both equilibria at x_a = r * x_b for each ratio r.

    The follower budget and all values are taken from the instance; only
    the leader budget moves.  Solver failures, and a ratio whose leader
    budget is not a finite float, become nan rows carrying the error text
    instead of aborting the sweep.  Rows come back sorted ascending by r.
    """
    ratios = sorted(_real_number("budget ratio", r) for r in r_values)
    if not ratios:
        raise InputError("budget_sweep needs at least one ratio")
    bad = [r for r in ratios if not math.isfinite(r)]
    if bad:
        raise InputError(f"budget ratios must be finite, got {bad[0]}")
    if ratios[0] <= 0:
        raise InputError(f"budget ratios must be positive, got {ratios[0]}")
    rows = []
    for r in ratios:
        try:
            scaled = GameInstance(
                budget_a=r * instance.budget_b,
                budget_b=instance.budget_b,
                values_a=instance.values_a,
                values_b=instance.values_b,
            )
            se = optimal_commitment(scaled)
            ne = solve_nash(scaled)
            coincides = check_coincidence(scaled).coincides
            rows.append(
                SweepRow(
                    r=r,
                    se_u_a=se.leader_utility,
                    se_u_b=se.follower_utility,
                    ne_u_a=ne.leader_utility,
                    ne_u_b=ne.follower_utility,
                    coincides=coincides,
                )
            )
        except (InputError, SolverInvariantError) as exc:
            rows.append(
                SweepRow(r, math.nan, math.nan, math.nan, math.nan, False, str(exc))
            )
    return rows


def write_sweep_csv(rows: Sequence[SweepRow], stream: TextIO) -> None:
    """Serialize sweep rows: fixed header, %.9g reals, ascending r."""
    stream.write(SWEEP_CSV_HEADER + "\n")
    for row in sorted(rows, key=lambda row: row.r):
        reals = (row.r, row.se_u_a, row.se_u_b, row.ne_u_a, row.ne_u_b)
        cells = [f"{x:.9g}" for x in reals]
        cells.append("true" if row.coincides else "false")
        stream.write(",".join(cells) + "\n")
