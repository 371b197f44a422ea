"""Leader's optimal Stackelberg commitment.

optimal_commitment solves the ratio-class quotient of the game
(game_core.ratio_quotient) and spreads each class's amount over the class.
The optimal commitment induces a follower support that is a prefix of the
battlefields sorted by ascending values_a/values_b, so a candidate is named
by its prefix length k alone: K = the first k battlefields of the canonical
order, and only one candidate per class needs to be solved.  The case
solvers take k and work on the [:k] and [k:] slices of an instance already
in that order.  Adjacent quotient ratios differ, so k alone picks the case:

* CASE_1 — k = 1, one ratio class: the total spend on K solves a
  quadratic, spread proportionally to values_a inside K.
* CASE_2_1 — k = n, K is everything: alpha has a closed form and the
  commitment is a normalized square-weight profile.
* CASE_2_2 — 1 < k < n, K is a proper prefix: a univariate
  maximization over alpha, with the spend profile recovered from alpha via
  the y-quadratic (the budget identity picks y) and the off-support
  battlefields parked exactly at the follower's indifference threshold.
  The alpha range is truncated at a radius that up to
  TRUNCATION_EXTENSIONS further passes widen.  A pass samples the reduced
  objective u_hat(alpha) at SCAN_SAMPLES points on every feasible
  interval, and another pass follows while the objective still climbs at
  a truncated end.  That test reads only the two samples next to each
  truncated end, so one small array probes those samples for every radius
  at once, and only the pass that ends the loop is scanned in full, as one
  numpy array.  (A climbing end whose two samples are both not finite
  needs its pass's full scan to decide.)  Only that pass is refined:
  golden-section search around the best samples evaluates the same
  formula on Python floats.  alpha**2 rounds differently on the two (an
  array squares, a float calls C pow), which is why the refinement is not
  batched into arrays.  At extreme scales these formulas overflow; that
  is expected, and they run with numpy's warnings off, which changes no
  value.

CASE_1 and CASE_2_2 park the battlefields outside K with one threshold
formula, _threshold_scale, which threshold_allocation_outside_support also
uses for an arbitrary K.  A case solver returns None when its spend misses
the budget identity by more than BUDGET_SUM_RTOL, and otherwise a
CandidateDraft: the spend, with two numbers read from it in O(k) by
_draft.  Its score is the leader utility if the follower's reply support
is exactly K, and its margin q says whether it is: K is the reply support
iff q < 1.  _round_trip turns a draft into a candidate, a
CommitmentSolution in the quotient's frame, through one round trip through
best_response, which alone decides the candidate's follower support and
utilities.  It drops, with a note, a draft whose support is not K or whose
numbers break down at extreme scales (a float overflow, or a spend that is
not a valid allocation).  _prefix_candidate is _round_trip of prefix k's
draft, the reference enumeration.

optimal_commitment does not solve every prefix, nor round-trip every draft
it solves.  _prefix_bounds bounds, from prefix sums, the leader utility of
any allocation whose follower reply has support exactly K, for every k at
once.  It couples the leader's share on K with the spend that parks the
battlefields outside K at their thresholds: both depend on how the spend
on K lines up with sqrt(values_b), and the bound takes the best case over
_BOUND_CELLS cells of that one parameter rather than each half's own best
case.  Prefixes are solved, and their drafts round-tripped, in one
descending order of a key: a prefix's bound, a draft's score.  The search
stops at the first key below the best valid utility so far times 1 - (n +
2) * TIE_RTOL, and a draft whose margin shows that K cannot be its reply
support is not round-tripped at all.  It keeps only the valid candidates
and folds them in ascending k, with the tie rule below.  Nothing skipped
could have changed that fold, so the result is the one solving and
round-tripping every prefix gives, bit for bit (optimal_commitment's
docstring has the argument).  When no candidate is valid,
SolverInvariantError reports every prefix's outcome from
_prefix_candidate.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .best_response import best_response
from .game_core import (
    BUDGET_SUM_RTOL,
    Allocation,
    GameInstance,
    InputError,
    SolverInvariantError,
    _check_index,
    _real_array,
    canonical_ordering,
    ratio_quotient,
    total_utility,
)

CASE_1 = "CASE_1"
CASE_2_1 = "CASE_2_1"
CASE_2_2 = "CASE_2_2"

# alpha search: samples per feasible interval, refinement width, and the
# truncation radius factor (times the largest ratio in the instance).
SCAN_SAMPLES = 1024
ALPHA_TOL = 1e-10
TRUNCATION_FACTOR = 1e3
TRUNCATION_GROWTH = 8.0
TRUNCATION_EXTENSIONS = 3
# Candidates whose utilities agree to this relative tolerance tie; ties go
# to the larger support.  Not only a tie-break inside a ratio class: with
# the band at 0 the winner changes, between utilities within 1e-9, on
# distinct-ratio games too: 104 of 1500 extreme_instance(seed, 6) draws,
# 67 of 1500 at 1e+-12, 1 of 1500 log_uniform_instance draws and
# EXTREME_DIGESTS[(6, 0)], though on 0 of 1660 gen draws.
TIE_RTOL = 1e-9
# _prefix_bounds: the cells between the peak of h and c = 1, and the
# prefixes whose (prefix, cell) grid it evaluates at a time.  32 cells
# solve 615 of 2048 prefixes on gen --n 2048 --seed 0 (one cell: 801, 1024
# cells: 562).
_BOUND_CELLS = 32
_BOUND_BLOCK_ROWS = 1024
_BOUND_ENDS = np.linspace(1.0, 0.0, _BOUND_CELLS + 1)  # (1 - c) / (1 - c_h) at c_0 .. c_m

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class CommitmentSolution:
    """Optimal (or candidate) leader commitment and its follower reply.

    support is the follower's reply support, as sorted indices; a candidate
    for support K is valid only when it equals K.  alpha is the scalar
    parameter tying the support profile together (absent for CASE_1); y is
    the squared proportionality constant of the CASE_2_2 reconstruction
    (absent otherwise).
    """

    allocation: Allocation
    support: tuple[int, ...]
    case_tag: str
    alpha: float | None
    y: float | None
    leader_utility: float
    follower_utility: float


@dataclass(frozen=True)
class CaseCoefficients:
    """Partial value sums over support prefix k (K = the first k
    battlefields) and the six polynomial coefficients built from them.

    B1-B3 and B4-B6 are the coefficients of phi1 and phi2, the two
    quadratics in the alpha parameter that drive the CASE_2_2
    reconstruction: phi2 >= 0 marks where y is real, and phi1 enters the y
    root.
    """

    v_aK: float
    v_bK: float
    v_bKbar: float
    c_K: float
    B1: float
    B2: float
    B3: float
    B4: float
    B5: float
    B6: float

    @classmethod
    def from_instance(cls, instance: GameInstance, k: int) -> "CaseCoefficients":
        va, vb = instance.values_a[:k], instance.values_b[:k]
        x_a, x_b = instance.budget_a, instance.budget_b
        v_aK = float(va.sum())
        v_bK = float(vb.sum())
        v_bKbar = float(instance.values_b[k:].sum())
        c_K = float((va**2 / vb).sum())
        return cls(
            v_aK=v_aK,
            v_bK=v_bK,
            v_bKbar=v_bKbar,
            c_K=c_K,
            B1=x_a * v_bK**2 - 2 * x_b * v_bK * v_bKbar,
            B2=4 * x_b * v_aK * v_bKbar - 2 * x_a * v_aK * v_bK,
            B3=x_a * v_aK**2 - 2 * x_b * v_bKbar * c_K,
            B4=x_a**2 * v_bK**2 - 4 * x_b * (x_a + x_b) * v_bK * v_bKbar,
            B5=8 * x_b * (x_a + x_b) * v_aK * v_bKbar - 2 * x_a**2 * v_aK * v_bK,
            B6=x_a**2 * v_aK**2 - 4 * x_b * (x_a + x_b) * c_K * v_bKbar,
        )


def _threshold_scale(budget_b: float, spend: np.ndarray, vb_on_K: np.ndarray) -> float:
    """(x_b + sum_K x_a)^2 / (sum_K sqrt(x_a * v_b))^2 on Python floats: the
    threshold spend on j outside K is v_bj times this.  At extreme scales
    the float ** and / raise OverflowError and ZeroDivisionError."""
    if np.any(spend <= 0):
        raise InputError("x_a entries on K must be strictly positive")
    denom = float(np.sqrt(spend * vb_on_K).sum()) ** 2
    return (budget_b + float(spend.sum())) ** 2 / denom


def threshold_allocation_outside_support(
    instance: GameInstance, K: Sequence[int], x_a_on_K: Sequence[float]
) -> dict[int, float]:
    """Leader spend that parks each battlefield outside K exactly at the
    follower's indifference threshold.

    With the follower best-responding on K, battlefield j outside K stays
    unattacked precisely when x_aj >= v_bj * (x_b + sum_K x_al)^2 /
    (sum_K sqrt(x_al * v_bl))^2; the optimal commitment meets this bound
    with equality.  Returns {j: x_aj} for every j not in K; K may be any
    index set in any order, not only a canonical prefix, and x_a_on_K[i] is
    the spend on battlefield K[i].
    """
    idx = [_check_index(instance, j) for j in K]
    if not idx:
        raise InputError("support candidate K must be non-empty")
    if len(set(idx)) != len(idx):
        raise InputError(f"support candidate {idx} repeats an index")
    spend = _real_array(x_a_on_K, "x_a_on_K")
    if spend.shape != (len(idx),):
        raise InputError("x_a_on_K must align with K")
    if not np.isfinite(spend).all():
        raise InputError("x_a_on_K entries must be finite")
    vb = instance.values_b
    scale = _threshold_scale(instance.budget_b, spend, vb[idx])
    out_idx = np.setdiff1d(np.arange(instance.n), idx)
    return dict(zip(out_idx.tolist(), (vb[out_idx] * scale).tolist()))


@dataclass(frozen=True, eq=False)
class CandidateDraft:
    """A case solver's commitment for support prefix K, before its
    best-response round trip: the spend (it meets the budget identity),
    alpha and y as in CommitmentSolution, and the score and margin of
    _draft, either of which can be inf or nan at extreme scales."""

    amounts: np.ndarray
    case_tag: str
    alpha: float | None
    y: float | None
    score: float
    margin: float


def _draft(
    instance: GameInstance,
    k: int,
    amounts: np.ndarray,
    case_tag: str,
    alpha: float | None,
    y: float | None,
) -> CandidateDraft | None:
    """None when the spend misses budget_a by more than BUDGET_SUM_RTOL,
    else the draft, with its score and margin.

    The score is the leader utility if the follower's reply support is
    exactly K, and the margin q says whether it is: K is the reply support
    iff q < 1.  With the follower filling K, S = sum_K sqrt(x_aj v_bj), W =
    sum_K v_aj sqrt(x_aj / v_bj) and X = sum_K x_aj, water filling gives the
    level lambda = (S / (x_b + X))^2 and the leader S * W / (x_b + X) on K.
    K is the support iff every member's marginal at zero fill, v_bj / x_aj,
    beats lambda: q = lambda * max_K x_aj / v_bj < 1.  The battlefields
    outside K sit at their threshold, so the follower leaves them alone,
    and the score adds v_aKbar.  Every sum has terms of one sign.  In the
    CASE_2 terms, x_aj = v_bj (rho_j - alpha)^2 / y on K, and q is (sum_K
    v_bj |rho_j - alpha|)^2 * max_K (rho_j - alpha)^2 / (y x_b + sum_K v_bj
    (rho_j - alpha)^2)^2.
    """
    x_a = instance.budget_a
    if abs(float(amounts.sum()) - x_a) > BUDGET_SUM_RTOL * x_a:
        return None
    on_K, va, vb = amounts[:k], instance.values_a, instance.values_b
    with np.errstate(all="ignore"):
        t = on_K / vb[:k]  # x_aj / v_bj
        root_t = np.sqrt(t)
        level = (vb[:k] @ root_t) / (instance.budget_b + on_K.sum())  # S / (x_b + X)
        score = va[k:].sum() + level * (va[:k] @ root_t)
        margin = level * level * t.max()
    return CandidateDraft(amounts, case_tag, alpha, y, float(score), float(margin))


def solve_case1(instance: GameInstance, k: int) -> CandidateDraft | None:
    """Support prefix k with a single ratio class (or k = 1).

    The total spend on K is the larger root of the budget quadratic,
    spread proportionally to values_a inside K; outside battlefields sit
    at the indifference threshold.  Returns None when the leader's budget
    cannot afford the thresholds (negative discriminant or negative root)
    or the spend misses the budget identity.
    """
    co = CaseCoefficients.from_instance(instance, k)
    x_a, x_b = instance.budget_a, instance.budget_b

    if co.v_bKbar == 0.0:  # K covers everything; spend the whole budget on it
        x_aK = x_a
    else:
        disc = (
            x_a**2 * co.v_bK**2
            - 4 * x_a * x_b * co.v_bK * co.v_bKbar
            - 4 * x_b**2 * co.v_bK * co.v_bKbar
        )
        if disc < 0:
            return None
        x_aK = (x_a * co.v_bK - 2 * x_b * co.v_bKbar + math.sqrt(disc)) / (
            2 * (co.v_bKbar + co.v_bK)
        )
        if x_aK <= 0 or x_aK > x_a:
            return None

    on_K = x_aK * instance.values_a[:k] / co.v_aK
    vb = instance.values_b
    amounts = np.concatenate([on_K, vb[k:] * _threshold_scale(x_b, on_K, vb[:k])])
    return _draft(instance, k, amounts, CASE_1, None, None)


def solve_case2_full_support(instance: GameInstance) -> CandidateDraft | None:
    """Full-support candidate with at least two distinct ratios.

    alpha = -sqrt(c_K / v_bK) in closed form; the commitment is the
    square-weight profile (v_aj/sqrt(v_bj) - alpha*sqrt(v_bj))^2 normalized
    to budget_a.  Returns None when the spend misses the budget identity.
    """
    va, vb = instance.values_a, instance.values_b
    c_K = float((va**2 / vb).sum())
    v_bK = float(vb.sum())
    alpha = -math.sqrt(c_K / v_bK)
    weights = (va / np.sqrt(vb) - alpha * np.sqrt(vb)) ** 2
    with np.errstate(all="ignore"):  # a sum that overflows gives nan amounts
        amounts = weights / weights.sum() * instance.budget_a
    return _draft(instance, instance.n, amounts, CASE_2_1, alpha, None)


def _golden_max(fn, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization of fn on [lo, hi] to bracket width tol.

    This is the refinement stage of solve_case2_partial_support.  Its scan
    evaluates u_hat on a numpy array; here the bracket, every probe and
    every value of fn are Python floats, where alpha**2 calls C pow (the
    array squares as alpha*alpha instead, which can differ in the last bit).

    Far from zero one float spacing exceeds tol (from |x| = 2**19 on for
    tol = 1e-10); the bracket then stops narrowing and cycles through the
    same states forever.  So after any step that leaves the bracket no
    narrower the state is recorded, and the search ends when such a state
    repeats.  A search that ends on width never repeats a state, so its
    result is unchanged.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    stalled = set()
    while b - a > tol:
        width = b - a
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
        if b - a >= width:
            if (a, b, c, d) in stalled:
                break
            stalled.add((a, b, c, d))
    return (a + b) / 2


def _phi2_nonneg_intervals(
    co: CaseCoefficients, lo: float, hi: float
) -> list[tuple[float, float]]:
    """Subintervals of [lo, hi] where phi2 >= 0, via the quadratic roots."""
    a, b, c = co.B4, co.B5, co.B6
    if a == 0.0:
        if b == 0.0:
            return [(lo, hi)] if c >= 0 else []
        root = -c / b
        if b > 0:
            left, right = max(lo, root), hi
        else:
            left, right = lo, min(hi, root)
        return [(left, right)] if left < right else []
    disc = b * b - 4 * a * c
    if disc <= 0:
        return [(lo, hi)] if a > 0 else []
    sq = math.sqrt(disc)
    r1, r2 = sorted(((-b - sq) / (2 * a), (-b + sq) / (2 * a)))
    if a > 0:
        pieces = [(lo, min(hi, r1)), (max(lo, r2), hi)]
    else:
        pieces = [(max(lo, r1), min(hi, r2))]
    return [(l, h) for l, h in pieces if l < h]


def _linspace_columns(lows: np.ndarray, highs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Columns cols of np.linspace(lo, hi, SCAN_SAMPLES), bit for bit, for
    every pair (lo, hi) of lows and highs, as one (pairs, len(cols)) array.

    cols holds ascending sample indices, as floats, ending with the last
    one.  linspace puts sample i at i * step + lo, with step = (hi - lo) /
    (SCAN_SAMPLES - 1), or at i / (SCAN_SAMPLES - 1) * (hi - lo) + lo where
    step underflows to 0, and the last sample at hi.  Given arrays,
    np.linspace takes the second form for every pair once one pair needs
    it, so the rows are built here.
    """
    div = SCAN_SAMPLES - 1
    delta = highs - lows
    step = delta / div
    out = cols * step[:, None]
    zero = step == 0
    if zero.any():
        out[zero] = cols / div * delta[zero, None]
    out += lows[:, None]
    out[:, -1] = highs
    return out


def _climbing(lows, highs, radius, ends: np.ndarray) -> np.ndarray:
    """Per interval (lows, highs) of a pass at radius: does u_hat still
    climb toward a truncated end?  ends holds each interval's samples
    [0, 1, -2, -1]; radius is one float, or one per interval."""
    return ((lows == -radius) & (ends[:, 0] >= ends[:, 1])) | (
        (highs == radius) & (ends[:, 3] >= ends[:, 2])
    )


def solve_case2_partial_support(instance: GameInstance, k: int) -> CandidateDraft | None:
    """Proper support prefix k (k < n) with at least two distinct ratios
    inside K.

    Maximizes the reduced objective u_hat(alpha) over the feasible alpha
    set {alpha below every ratio in K, or above every ratio in K} ∩
    {phi2(alpha) >= 0} ∩ {y(alpha) > 0}, then rebuilds the commitment from
    the winning alpha.  Returns None when the feasible set is empty or the
    spend misses the budget identity.

    The search runs in up to TRUNCATION_EXTENSIONS + 1 passes over
    |alpha| <= radius, the radius growing by TRUNCATION_GROWTH each time.
    Each pass samples its phi2 >= 0 intervals at SCAN_SAMPLES points
    apiece.  A wider pass follows while an interval with a finite sample
    still climbs at a truncated end: its sample at that end is at least
    the sample next to it.  That test reads only those two samples, so the
    intervals of every radius are found first (up to the first radius at
    which none reaches a truncated end), and one small scan evaluates the
    end samples of every pass but the last.  They settle which pass ends
    the loop, and only that pass is scanned in full, as one
    (intervals, SCAN_SAMPLES) array.  The exception is an end that climbs
    on two samples of which neither is finite: whether its interval has a
    finite sample then decides, so its pass is scanned in full to tell.
    The pass that ends the loop is refined, interval by interval in order
    (left region, then right), with _golden_max around each sample that
    beats the best value so far.
    """
    co = CaseCoefficients.from_instance(instance, k)
    x_b = instance.budget_b
    va, vb = instance.values_a, instance.values_b
    ratios_K = va[:k] / vb[:k]
    rho_lo, rho_hi = float(ratios_K.min()), float(ratios_K.max())

    B1, B2, B3, B4, B5, B6 = co.B1, co.B2, co.B3, co.B4, co.B5, co.B6
    c_K, v_aK, v_bK = co.c_K, co.v_aK, co.v_bK
    two_xb2_vbar = 2 * x_b**2 * co.v_bKbar

    def terms(alpha, root):
        # y and the numerator and denominator of u_hat at alpha, where root
        # = sqrt(max(phi2(alpha), 0)).  Operators only: the scan passes its
        # sample array, the refinement one Python float.  alpha**2 squares
        # an array as alpha*alpha but calls C pow on a float, and the two
        # differ in the last bit on about 0.1% of inputs.  So the refinement
        # is not batched into arrays: a last-bit change in one u_hat value
        # can flip a golden-section comparison and move alpha.
        y = ((B1 * alpha + B2) * alpha + B3 - (v_aK - v_bK * alpha) * root) / two_xb2_vbar
        num = (c_K - alpha * v_aK) * (v_aK - alpha * v_bK)
        den = y * x_b + (c_K - 2 * alpha * v_aK + alpha**2 * v_bK)
        return y, num, den

    def array_terms(alpha):
        # terms on the scan's sample array, or on one numpy scalar
        return terms(alpha, np.sqrt(np.maximum((B4 * alpha + B5) * alpha + B6, 0.0)))

    def scan(samples):
        # u_hat; -inf where y or den is not positive (reconstruction impossible)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            y, num, den = array_terms(samples)
            return np.where((y > 0) & (den > 0), num / np.where(den != 0, den, 1.0), -np.inf)

    def float_terms(alpha):
        # terms at one Python float.  max() keeps a -0.0 that np.maximum
        # turns into 0.0; y is then a signed zero and fails y > 0 either way.
        # Python floats raise where numpy returns inf or nan (alpha**2
        # overflowing, a zero two_xb2_vbar); such a point takes numpy's values.
        try:
            return terms(alpha, math.sqrt(max((B4 * alpha + B5) * alpha + B6, 0.0)))
        except ArithmeticError:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return tuple(float(t) for t in array_terms(np.float64(alpha)))

    def u_hat(alpha):
        y, num, den = float_terms(alpha)
        return num / den if y > 0 and den > 0 else -math.inf

    # Half-open feasible regions on either side of the ratio range, truncated.
    radius = TRUNCATION_FACTOR * float((va / vb).max())
    inset = 1e-12 * max(1.0, abs(rho_lo), abs(rho_hi))
    passes = []  # (radius, phi2 >= 0 intervals)
    for _ in range(TRUNCATION_EXTENSIONS + 1):
        regions = [(-radius, rho_lo - inset), (rho_hi + inset, radius)]
        intervals = [
            piece
            for r_lo, r_hi in regions
            if r_lo < r_hi
            for piece in _phi2_nonneg_intervals(co, r_lo, r_hi)
        ]
        passes.append((radius, intervals))
        if not any(lo == -radius or hi == radius for lo, hi in intervals):
            break  # nothing can climb at a truncated end: the loop ends here
        radius *= TRUNCATION_GROWTH

    # Per pass: True when an interval with a finite sample still climbs at a
    # truncated end (a wider pass follows), None when only intervals whose
    # climbing end samples are not finite might (the full scan decides),
    # False otherwise.  The last pass ends the loop whatever it finds.
    climbs = [False] * len(passes)
    ends = [
        (lo, hi, radius, p)
        for p, (radius, intervals) in enumerate(passes[:-1])
        for lo, hi in intervals
        if lo == -radius or hi == radius
    ]
    if ends:
        lows, highs, radii, owners = (np.array(column) for column in zip(*ends))
        cols = np.array([0, 1, SCAN_SAMPLES - 2, SCAN_SAMPLES - 1], dtype=float)
        end_vals = scan(_linspace_columns(lows, highs, cols))
        climb = _climbing(lows, highs, radii, end_vals)
        finite = np.isfinite(end_vals).any(axis=1)
        for p, up, sure in zip(owners.tolist(), climb.tolist(), finite.tolist()):
            if up and climbs[p] is not True:
                climbs[p] = sure or None

    for (radius, intervals), climb in zip(passes, climbs):
        if climb:
            continue
        if not intervals:
            return None  # the pass that ends the loop has no feasible interval
        lows, highs = np.array(intervals).T
        samples = _linspace_columns(lows, highs, np.arange(SCAN_SAMPLES, dtype=float))
        vals = scan(samples)
        # rows with no finite sample take no part in either step below
        live = np.isfinite(vals).any(axis=1)
        if climb is None and (_climbing(lows, highs, radius, vals[:, [0, 1, -2, -1]]) & live).any():
            continue
        break
    # If the objective is still climbing at the final truncation radius its
    # supremum on this branch sits at the (unattained) limit profile; the
    # best sampled point stays as the candidate and loses to the branch
    # that realizes the limit.

    # Only the pass that ended the loop is refined: the candidate depends on
    # that pass alone.
    best_alpha, best_val = None, -math.inf
    for row_samples, row, ok in zip(samples, vals, live):
        if not ok:
            continue
        i = int(np.nanargmax(row))
        if row[i] > best_val:
            best_val = float(row[i])
            lo_b = float(row_samples[max(i - 1, 0)])
            hi_b = float(row_samples[min(i + 1, SCAN_SAMPLES - 1)])
            best_alpha = _golden_max(u_hat, lo_b, hi_b, ALPHA_TOL)
            best_val = max(best_val, u_hat(best_alpha))

    if best_alpha is None or not math.isfinite(best_val):
        return None
    y = float_terms(best_alpha)[0]
    if y <= 0:
        return None
    on_K = (va[:k] / np.sqrt(vb[:k]) - best_alpha * np.sqrt(vb[:k])) ** 2 / y
    amounts = np.concatenate([on_K, vb[k:] * _threshold_scale(x_b, on_K, vb[:k])])
    return _draft(instance, k, amounts, CASE_2_2, best_alpha, y)


def _noted(call, *args):
    """(call(*args), None), or (None, note) when it raises at extreme
    scales.  call solves or round-trips a prefix of a valid quotient, so
    these errors come from a candidate's own numbers: a float overflows
    (OverflowError) or the spend is not a valid allocation (non-finite, or a
    zero that underflowed)."""
    try:
        return call(*args), None
    except SolverInvariantError as exc:
        return None, str(exc)
    except (ArithmeticError, InputError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _prefix_draft(quotient: GameInstance, k: int) -> tuple[CandidateDraft | None, str | None]:
    """(draft, None) for support prefix k of quotient, a canonical instance
    whose adjacent ratios all differ (a ratio_quotient in canonical order),
    or (None, reason).  Only the first prefix is one ratio class."""
    if k == 1:
        draft, reason = _noted(solve_case1, quotient, k)
    elif k == quotient.n:
        draft, reason = _noted(solve_case2_full_support, quotient)
    else:
        draft, reason = _noted(solve_case2_partial_support, quotient, k)
    if draft is None and reason is None:
        return None, "infeasible"
    return draft, reason


def _round_trip(
    quotient: GameInstance, k: int, draft: CandidateDraft
) -> tuple[CommitmentSolution | None, str | None]:
    """(candidate, None) when prefix k's draft round-trips through
    best_response to reply support K, else (None, reason).  The candidate
    is in quotient's frame: support range(k), and both utilities are those
    of the draft's spend against that reply."""

    def trip():
        alloc = Allocation(draft.amounts, quotient.budget_a)
        return alloc, best_response(quotient, alloc)

    done, reason = _noted(trip)
    if done is None:
        return None, reason
    alloc, reply = done
    support = sorted(reply.support)
    if len(support) != k or support[-1] != k - 1:  # sorted, distinct: range(k)
        return None, f"reply support {support}"
    return CommitmentSolution(
        allocation=alloc,
        support=tuple(range(k)),
        case_tag=draft.case_tag,
        alpha=draft.alpha,
        y=draft.y,
        leader_utility=total_utility(quotient, "a", alloc, reply.allocation),
        follower_utility=total_utility(quotient, "b", alloc, reply.allocation),
    ), None


def _prefix_candidate(
    quotient: GameInstance, k: int
) -> tuple[CommitmentSolution | None, str | None]:
    """_round_trip of _prefix_draft: (candidate, None) for support prefix k
    of quotient, or (None, reason) when it is dropped, the reason saying
    why.  The reference enumeration: optimal_commitment calls it only to
    report every prefix's outcome when no candidate is valid."""
    draft, reason = _prefix_draft(quotient, k)
    return _round_trip(quotient, k, draft) if draft is not None else (None, reason)


def _prefix_bounds(game: GameInstance) -> np.ndarray:
    """Upper bound on the leader utility of any allocation whose follower
    reply has support exactly K = the first k battlefields of canonical
    instance game, for every k at once (entry k - 1), from prefix sums.

    With X = sum_K x_aj, the water filling on K gives the leader S * W /
    (X + x_b) there, where S = sum_K sqrt(x_aj v_bj) and W = sum_K v_aj
    sqrt(x_aj / v_bj), and the leader gets at most v_aKbar outside K.  Two
    facts about the spend on K meet in c = S^2 / (v_bK X), which lies in
    [0, 1] (Cauchy-Schwarz on S):

    * Splitting sqrt(x_a) on K along (sqrt(v_bj)) and its orthogonal
      complement gives S * W <= X h(c), with h(c) = v_aK c + sqrt(c (1 -
      c)) sqrt(c_K v_bK - v_aK^2).  h is concave, with its peak (v_aK +
      sqrt(c_K v_bK)) / 2 at c_h = (1 + v_aK / sqrt(c_K v_bK)) / 2.
    * Parking each battlefield outside K at or above its threshold costs
      v_bKbar (X + x_b)^2 / S^2, so X + that cost <= x_a reads c v_bK X
      (x_a - X) >= v_bKbar (X + x_b)^2.  X is at most the larger root X(c)
      of that quadratic, which grows with c, and so does g(c) = X(c) /
      (X(c) + x_b).

    So U(k) <= v_aKbar + max_c g(c) h(c).  Below c_h both factors grow, so
    the maximum lies in [c_h, 1], where h falls.  On the _BOUND_CELLS equal
    cells c_h = c_0 < ... < c_m = 1, g(c) h(c) <= g(c_i+1) h(c_i) on cell
    [c_i, c_i+1], and the bound is v_aKbar plus the largest of these terms.  One cell gives
    g(1) (v_aK + sqrt(c_K v_bK)) / 2, which maximises the two factors
    apart; more cells never raise it.  At k = 1, h(c) = v_aK c and c_h = 1,
    so the bound is the CASE_1 utility; at k = n, v_bKbar = 0 and g(c) =
    x_a / (x_a + x_b) at every c.

    The quadratic is solved in t = X / x_b with its coefficients divided by
    x_b^2 v_bK[-1]: (c p + q) t^2 + (2 q - c p x_a / x_b) t + q <= 0, with p
    = v_bK / v_bK[-1] and q = v_bKbar / v_bK[-1].  sqrt(c_K v_bK) is a
    running hypot, and sqrt(c_K v_bK - v_aK^2) is 2 sqrt(c_K v_bK) sqrt(d (1
    - d)) with d = 1 - c_h, so only values or budgets near the float range
    overflow.  Only a discriminant below minus a rounding allowance makes
    g(c) 0 (no X is affordable at that c), or the bound -inf at c = 1 (no
    allocation has that reply support), and every root is inflated by the
    same allowance.  A bound that overflows to nan is +inf.  The first
    cell's term takes h's peak exactly, so it covers every c up to c_1
    whatever c_h rounds to, and c_m is exactly 1, so the cells leave no
    gap.  Every other float step moves a term by a few units of relative
    rounding (1 - c is formed first, so h near c = 1 keeps its digits):
    about 1e-15, far below the TIE_RTOL by which optimal_commitment's
    stopping rule already lets a bound fall short of a utility.  The
    (prefix, cell) grid is evaluated _BOUND_BLOCK_ROWS prefixes at a time,
    so the working memory is O(n).
    """
    va, vb = game.values_a, game.values_b
    n = len(va)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v_aK, v_bK = np.cumsum(va), np.cumsum(vb)
        v_aKbar, v_bKbar = (np.append(np.cumsum(v[:0:-1])[::-1], 0.0) for v in (va, vb))
        ratio = np.float64(game.budget_a) / game.budget_b
        p, q = v_bK / v_bK[-1], v_bKbar / v_bK[-1]
        root_cv = np.hypot.accumulate(va / np.sqrt(vb)) * np.sqrt(v_bK)  # sqrt(c_K v_bK)
        d = np.maximum((1 - v_aK / root_cv) / 2, 0.0)  # 1 - c_h
        peak = (root_cv + v_aK) / 2  # h(c_h), the largest h
        ortho = 2 * root_cv * np.sqrt(d * (1 - d))  # sqrt(c_K v_bK - v_aK^2)
        best, dead = np.empty(n), np.empty(n, dtype=bool)
        for lo in range(0, n, _BOUND_BLOCK_ROWS):
            rows = slice(lo, lo + _BOUND_BLOCK_ROWS)
            e = d[rows, None] * _BOUND_ENDS  # 1 - c; c_m = 1 exactly
            c = 1 - e
            h = v_aK[rows, None] * c[:, :-1] + ortho[rows, None] * np.sqrt(c[:, :-1] * e[:, :-1])
            h[:, 0] = peak[rows]
            cp, q_rows = c[:, 1:] * p[rows, None], q[rows, None]
            a, b = cp + q_rows, 2 * q_rows - ratio * cp
            bb, four_aq = b * b, 4 * a * q_rows
            disc, slack = bb - four_aq, 64 * np.finfo(float).eps * (bb + four_aq)
            t = np.clip((np.sqrt(np.maximum(disc, 0.0) + slack) - b) / (2 * a), 0.0, ratio)
            out = disc < -slack  # no X is affordable at that c
            t[out] = 0.0
            best[rows] = (t / (t + 1) * h).max(axis=1)
            dead[rows] = out[:, -1]
        bound = v_aKbar + best
        bound[dead] = -np.inf
    bound[np.isnan(bound)] = np.inf
    return bound


def optimal_commitment(instance: GameInstance) -> CommitmentSolution:
    """Best leader commitment over all prefix support candidates.

    Works on the ratio-class quotient of the canonical (ascending ratio)
    instance: each prefix length k of the quotient may get one candidate
    (_prefix_draft solves it, _round_trip checks it), and the best valid
    leader utility wins.  Utility ties within TIE_RTOL go to the larger
    support.  The winner is spread over each class and mapped back to the
    caller's battlefield order.

    The work is taken from one queue in descending order of a key, and
    the search stops at the first key below top * keep, with keep = 1 - (n
    + 2) * TIE_RTOL and top the best valid utility so far (n prefixes).  A
    prefix waits there to be solved under its _prefix_bounds bound, and
    its draft waits for its round trip under its score.  The valid
    candidates are then folded in ascending k, as if every prefix had been
    solved and round-tripped, and the result is the same bit for bit.  The
    fold replaces its best whenever a candidate is at most TIE_RTOL *
    max(|u|, |best|) below it, so it always takes the (first) maximum
    u_max, and after it each replacement lowers the best by at most
    TIE_RTOL * u_max: it stays above u_max * (1 - (n - 1) * TIE_RTOL).
    * A prefix left unsolved has u <= bound * (1 + TIE_RTOL) < u_max * (1
      - (n + 1) * TIE_RTOL) (utilities are not negative), so the fold would
      never have taken it after u_max, and what it took before u_max does
      not matter.
    * A draft left without its round trip has a finite score below top *
      keep.  A valid round trip gives the score to within TIE_RTOL * u
      (the score is u in exact arithmetic), so u <= score * (1 + TIE_RTOL)
      < u_max * (1 - (n + 1) * TIE_RTOL), and the same argument holds.
    * A draft whose margin is finite and above 1 + TIE_RTOL never enters
      the queue.  A member of K then gets a negative fill at K's water
      level, so K is not the reply support, and the round trip, whose level
      matches the margin's to far better than TIE_RTOL, would drop it.
    When no candidate is valid, SolverInvariantError lists every prefix's
    outcome, which _prefix_candidate rebuilds for k = 1..n; a note names
    canonical positions, K=[0..end-1], where end is where the prefix's
    last class ends.  That path solves every prefix twice: with top still
    -inf the queue has already solved every prefix before it.  The raised
    error holds its message, not the solve's arrays: it is raised from a
    frame that never held the canonical instance, the quotient, the bounds
    or a draft, so a caller that keeps the error keeps only the message.
    """
    outcome = _commitment(instance)
    if isinstance(outcome, str):
        raise SolverInvariantError(outcome)
    return outcome


def _commitment(instance: GameInstance) -> CommitmentSolution | str:
    """optimal_commitment's work: the solution, or the message of the error
    that optimal_commitment raises, so that the arrays die with this frame."""
    canon, ordering = canonical_ordering(instance)
    quotient = ratio_quotient(canon)
    game = quotient.game
    ends = np.cumsum(np.bincount(quotient.labels)).tolist()
    bounds = _prefix_bounds(game)
    keep = 1 - (game.n + 2) * TIE_RTOL
    # One queue, highest key first: a prefix waits to be solved under its
    # bound, and a solved prefix's draft waits for its round trip under its
    # score (a score that is not finite goes first).
    queue: list[tuple[float, int, CandidateDraft | None]] = [
        (-bound, k, None) for k, bound in enumerate(bounds.tolist(), 1)
    ]
    heapq.heapify(queue)
    valid: dict[int, CommitmentSolution] = {}
    top = -math.inf
    while queue:
        key, k, draft = heapq.heappop(queue)
        if -key < top * keep:
            break
        if draft is None:
            draft = _prefix_draft(game, k)[0]
            # a finite margin above 1 + TIE_RTOL rules out reply support K
            if draft is not None and not 1 + TIE_RTOL < draft.margin < math.inf:
                score = draft.score if math.isfinite(draft.score) else math.inf
                heapq.heappush(queue, (-score, k, draft))
            continue
        cand = _round_trip(game, k, draft)[0]
        if cand is not None:
            valid[k] = cand
            top = max(top, cand.leader_utility)
    if not valid:
        notes = "; ".join(
            f"K=[0..{ends[k - 1] - 1}]: {_prefix_candidate(game, k)[1]}" for k in range(1, game.n + 1)
        )
        return f"no valid commitment candidate; per-prefix outcomes: {notes}"
    best_k = min(valid)
    for k in sorted(valid):
        u, u_best = valid[k].leader_utility, valid[best_k].leader_utility
        # ties go to the larger support: k >= best_k in the ascending fold
        if u - u_best >= -TIE_RTOL * max(abs(u), abs(u_best)):
            best_k = k
    best = valid[best_k]
    amounts = ordering.to_original(quotient.spread(best.allocation).amounts)
    support = tuple(sorted(int(j) for j in ordering.permutation[: ends[best_k - 1]]))
    return replace(best, allocation=Allocation(amounts, instance.budget_a), support=support)
