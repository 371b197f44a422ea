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

Each closed form is written once, and the case solvers and _prefix_table
both evaluate it: CaseCoefficients.from_sums holds B1-B6, _partial_terms
CASE_2_2's y and the numerator and denominator of u_hat at alpha,
_case1_spend CASE_1's spend on K (its discriminant), _full_support_spend
CASE_2_1's alpha and spend, _square_weights the square-weight profile
that CASE_2_1 normalizes and CASE_2_2's reconstruction divides by y, and
_score_margin _draft's score and margin.  The solvers call them on Python
floats (or, in the scan, one sample array) in their own operation order;
the table calls them on arrays of every prefix, where a value may round
differently, which only changes which prefixes get solved.

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
not a valid allocation).  _prefix_candidate, _round_trip of prefix k's
draft, is the tests' reference enumeration.

optimal_commitment does not solve every prefix.  _prefix_table scores
every prefix at once, in one array pass over the quotient's prefix sums.
A CASE_2_2 prefix's reduced objective u_hat = num / den shares the factor
L = v_aK - alpha v_bK between num and den, and without it reads u_hat =
2 x_b v_bKbar (c_K - alpha v_aK) / (x_a L - sqrt(phi2)): a linear
function over a linear one minus sqrt(phi2).  Its stationary points solve
A sqrt(phi2) = b0 + b1 alpha with A = 2 x_a (v_bK c_K - v_aK^2), so they
are roots of a quadratic in alpha.  The maximum of u_hat on the feasible
set that the scan searches therefore lies at one of nine candidates: the
two roots of that quadratic, the roots of phi2, the two region ends and
the final truncation radius on either side.  Each feasible candidate gets
_draft's score and margin in closed form from the prefix sums, and a
row's score is the best score among its candidates with margin below 1 +
_TABLE_RTOL.  The k = 1 and k = n rows score the CASE_1 and CASE_2_1
spends.  The prefixes are then solved by the case solvers, in descending
order of score, only while the score stays in a band below the best
valid utility so far; each solved draft is round-tripped unless its
margin rules K out, and the valid candidates are folded in ascending k
with the tie rule below.  Nothing outside the band could have changed
that fold, so the result is the one that solving and round-tripping every
prefix gives, bit for bit (optimal_commitment's docstring has the
argument).  A solved draft that may be valid and beats its row shows
that the table missed its maximum, and the search stops pruning.  With
no valid candidate there is no band: every prefix is solved once, and
SolverInvariantError reports each one's outcome.  The CASE_2_2 scan and
golden-section search still give the commitment of each solved prefix.
"""

from __future__ import annotations

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
# The prefix table's slack: the margin a kept candidate may reach above 1,
# and how far a solved draft that may be valid may score above its row
# before optimal_commitment stops pruning.  The band below the best valid
# utility is twice this plus (n + 2) * TIE_RTOL.
_TABLE_RTOL = 1e-6
_TABLE_BLOCK_ROWS = 1024  # prefixes whose candidates the table holds at a time

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
        with np.errstate(over="ignore"):  # a sum of inf fails the candidate later
            v_aK = float(va.sum())
            v_bK = float(vb.sum())
            v_bKbar = float(instance.values_b[k:].sum())
            c_K = float((va**2 / vb).sum())
        return cls.from_sums(v_aK, v_bK, v_bKbar, c_K, instance.budget_a, instance.budget_b)

    @classmethod
    def from_sums(cls, v_aK, v_bK, v_bKbar, c_K, x_a, x_b) -> "CaseCoefficients":
        """The coefficients from the sums: Python floats for a case solver,
        or numpy columns with one row per prefix for _prefix_table.  Python
        floats raise OverflowError where ** overflows."""
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


def _partial_terms(co: CaseCoefficients, x_b):
    """CASE_2_2's terms(alpha, root): y and the numerator and denominator
    of u_hat at alpha, where root = sqrt(max(phi2(alpha), 0)).

    Operators only, on the coefficients bound here once: the scan passes
    its sample array, the refinement one Python float, and _prefix_table
    arrays of every prefix's candidates.  alpha**2 squares an array as
    alpha*alpha but calls C pow on a float, and the two differ in the last
    bit on about 0.1% of inputs.  So the refinement is not batched into
    arrays: a last-bit change in one u_hat value can flip a golden-section
    comparison and move alpha.
    """
    B1, B2, B3 = co.B1, co.B2, co.B3
    c_K, v_aK, v_bK = co.c_K, co.v_aK, co.v_bK
    two_xb2_vbar = 2 * x_b**2 * co.v_bKbar

    def terms(alpha, root):
        y = ((B1 * alpha + B2) * alpha + B3 - (v_aK - v_bK * alpha) * root) / two_xb2_vbar
        num = (c_K - alpha * v_aK) * (v_aK - alpha * v_bK)
        den = y * x_b + (c_K - 2 * alpha * v_aK + alpha**2 * v_bK)
        return y, num, den

    return terms


def _case1_spend(v_bK: float, v_bKbar: float, x_a, x_b):
    """CASE_1's total spend on K: x_a when K is everything, else the larger
    root of the budget quadratic, or None when the budget cannot afford the
    thresholds (a negative discriminant, or a root outside (0, x_a])."""
    if v_bKbar == 0.0:
        return x_a
    disc = x_a**2 * v_bK**2 - 4 * x_a * x_b * v_bK * v_bKbar - 4 * x_b**2 * v_bK * v_bKbar
    if disc < 0:
        return None
    x_aK = (x_a * v_bK - 2 * x_b * v_bKbar + math.sqrt(disc)) / (2 * (v_bKbar + v_bK))
    return None if x_aK <= 0 or x_aK > x_a else x_aK


def _square_weights(va: np.ndarray, vb: np.ndarray, alpha: float) -> np.ndarray:
    """The CASE_2 square-weight profile (v_aj/sqrt(v_bj) - alpha*sqrt(v_bj))^2,
    which is v_bj (rho_j - alpha)^2."""
    root_vb = np.sqrt(vb)
    return (va / root_vb - alpha * root_vb) ** 2


def _full_support_spend(va: np.ndarray, vb: np.ndarray, x_a) -> tuple[float, np.ndarray]:
    """CASE_2_1's alpha = -sqrt(c_K / v_bK) and its square-weight profile
    normalized to x_a: inf or nan where a sum overflows, which fails the
    candidate later.  Callers turn numpy's warnings off."""
    c_K = float((va**2 / vb).sum())
    v_bK = float(vb.sum())
    alpha = -math.sqrt(c_K / v_bK)
    weights = _square_weights(va, vb, alpha)
    return alpha, weights / weights.sum() * x_a


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
    the spend on battlefield K[i].  Raises InputError when a threshold is
    not finite.
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
    out_idx = np.setdiff1d(np.arange(instance.n), idx)
    with np.errstate(over="ignore"):
        try:
            thresholds = vb[out_idx] * _threshold_scale(instance.budget_b, spend, vb[idx])
        except ArithmeticError:  # the float ** overflows, or the sum underflows to 0
            thresholds = vb[out_idx] * math.inf
    if not np.isfinite(thresholds).all():
        raise InputError("thresholds outside K are not finite at this x_a_on_K")
    return dict(zip(out_idx.tolist(), thresholds.tolist()))


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
    with np.errstate(all="ignore"):
        score, margin = _score_margin(amounts[:k], instance.values_a, instance.values_b, instance.budget_b)
    return CandidateDraft(amounts, case_tag, alpha, y, float(score), float(margin))


def _score_margin(on_K: np.ndarray, va: np.ndarray, vb: np.ndarray, x_b):
    """_draft's score and margin of the spend on_K on prefix K = the first
    len(on_K) battlefields, the rest parked at their thresholds."""
    k = len(on_K)
    t = on_K / vb[:k]  # x_aj / v_bj
    root_t = np.sqrt(t)
    level = (vb[:k] @ root_t) / (x_b + on_K.sum())  # S / (x_b + X)
    score = va[k:].sum() + level * (va[:k] @ root_t)
    return score, level * level * t.max()


def solve_case1(instance: GameInstance, k: int) -> CandidateDraft | None:
    """Support prefix k with a single ratio class (or k = 1).

    The total spend on K is the larger root of the budget quadratic,
    spread proportionally to values_a inside K; outside battlefields sit
    at the indifference threshold.  Returns None when the leader's budget
    cannot afford the thresholds (negative discriminant or negative root)
    or the spend misses the budget identity.
    """
    co = CaseCoefficients.from_instance(instance, k)
    x_b = instance.budget_b
    x_aK = _case1_spend(co.v_bK, co.v_bKbar, instance.budget_a, x_b)
    if x_aK is None:
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
    with np.errstate(all="ignore"):
        alpha, amounts = _full_support_spend(instance.values_a, instance.values_b, instance.budget_a)
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

    B4, B5, B6 = co.B4, co.B5, co.B6
    terms = _partial_terms(co, x_b)

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
    on_K = _square_weights(va[:k], vb[:k], best_alpha) / y
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
    why.  The tests' reference: called for every prefix, it is the
    enumeration whose fold optimal_commitment reproduces."""
    draft, reason = _prefix_draft(quotient, k)
    return _round_trip(quotient, k, draft) if draft is not None else (None, reason)


def _table_block(a, b, c, abar, bbar, rho_lo, rho_hi, x_a, x_b, radius) -> np.ndarray:
    """Scores of CASE_2_2 rows of _prefix_table, from (rows, 1) columns of
    v_aK, v_bK, c_K, v_aKbar, v_bKbar and of the least and largest ratio
    in K; radius is the final truncation radius."""
    co = CaseCoefficients.from_sums(a, b, bbar, c, x_a, x_b)
    f0, f1, f2 = co.B6, co.B5, co.B4  # phi2 = f2 alpha^2 + f1 alpha + f0
    # u_hat's stationary points: roots of s2 alpha^2 + s1 alpha + s0, the
    # square of A sqrt(phi2) = b0 + b1 alpha, taken in the stable form
    A = 2 * x_a * (b * c - a * a)
    b0, b1 = -2 * a * f0 - c * f1, -a * f1 - 2 * c * f2
    s0, s1, s2 = A * A * f0 - b0 * b0, A * A * f1 - 2 * b0 * b1, A * A * f2 - b1 * b1
    t = -(s1 + np.copysign(np.sqrt(np.maximum(s1 * s1 - 4 * s2 * s0, 0.0)), s1)) / 2
    # phi2's roots as _phi2_nonneg_intervals finds them, feasible on that
    # count whatever rounding makes phi2 there
    disc = f1 * f1 - 4 * f2 * f0
    sq = np.sqrt(np.where(disc > 0, disc, np.nan))
    at_root = np.arange(9) < 3
    inset = 1e-12 * np.maximum(1.0, np.maximum(abs(rho_lo), abs(rho_hi)))
    lo_end, hi_end = rho_lo - inset, rho_hi + inset
    alpha = np.hstack(
        [
            (-f1 - sq) / (2 * f2),
            (-f1 + sq) / (2 * f2),
            np.where(f2 == 0, -f0 / f1, np.nan),
            t / s2,
            s0 / t,
            lo_end,
            hi_end,
            np.full((len(a), 2), [-radius, radius]),
        ]
    )
    # u_hat from the solvers' own terms, and q as _draft has it: (sum_K
    # v_bj |rho_j - alpha|)^2 max_K (rho_j - alpha)^2 / den^2
    phi = (f2 * alpha + f1) * alpha + f0
    y, num, den = _partial_terms(co, x_b)(alpha, np.sqrt(np.maximum(phi, 0.0)))
    U = abar + num / den
    q = ((a - b * alpha) / den) ** 2 * np.maximum(rho_hi - alpha, alpha - rho_lo) ** 2
    feasible = (
        ((alpha <= lo_end) | (alpha >= hi_end))
        & (abs(alpha) <= radius)
        & ((phi >= 0) | at_root)
        & (y > 0)
        & (den > 0)
    )
    score = np.where(feasible & (q < 1 + _TABLE_RTOL), U, -np.inf).max(axis=1)
    unknown = (feasible & ~np.isfinite(U * q)).any(axis=1)
    unknown |= ~np.isfinite(s0 + s1 + s2 + co.B1 + co.B2 + co.B3 + abar)[:, 0]
    score[unknown] = np.inf
    return score


def _edge_scores(va, vb, x_a, x_b) -> tuple[float, float]:
    """Scores of the k = 1 (CASE_1) and k = n (CASE_2_1) rows of
    _prefix_table: _score_margin of the spend on K that solve_case1 and
    solve_case2_full_support compute, -inf where that spend is infeasible
    or its margin is at least 1 + _TABLE_RTOL, nan where its numbers are
    not finite.  x_a and x_b are numpy floats, so nothing raises."""

    def row(on_K):
        score, margin = _score_margin(on_K, va, vb, x_b)
        if math.isnan(margin):
            return math.nan
        return score if margin < 1 + _TABLE_RTOL else -math.inf

    x_aK = _case1_spend(float(vb[0]), float(vb[1:].sum()), x_a, x_b)
    first = -math.inf if x_aK is None else row(np.array([x_aK]))
    if len(va) == 1:
        return first, first
    return first, row(_full_support_spend(va, vb, x_a)[1])


def _prefix_sums(va: np.ndarray, vb: np.ndarray) -> tuple[np.ndarray, ...]:
    """v_aK, v_bK, c_K, v_aKbar and v_bKbar of every support prefix
    (entry k - 1), as cumulative sums."""
    inside = (np.cumsum(va), np.cumsum(vb), np.cumsum(va * (va / vb)))
    return inside + tuple(np.append(np.cumsum(v[:0:-1])[::-1], 0.0) for v in (va, vb))


def _prefix_table(game: GameInstance) -> np.ndarray:
    """Score of every support prefix of canonical quotient game (entry k -
    1): the best leader utility its candidates reach with margin q below
    1 + _TABLE_RTOL; -inf when none does, inf when its numbers are not
    finite.

    Values and budgets are first divided by the powers of two at or below
    their largest entries (2**1023 at most, so the scale itself cannot
    overflow), which is exact and leaves alpha and q alone, so only a game
    whose own values span the float range overflows.  The CASE_2_2
    rows go to _table_block _TABLE_BLOCK_ROWS at a time, so the working
    memory is O(n).
    """
    scale = math.ldexp(0.5, math.frexp(float(max(game.values_a.max(), game.values_b.max())))[1])
    x_scale = math.ldexp(0.5, math.frexp(max(game.budget_a, game.budget_b))[1])
    va, vb = game.values_a / scale, game.values_b / scale
    x_a, x_b = np.float64(game.budget_a / x_scale), np.float64(game.budget_b / x_scale)
    n = game.n
    scores = np.empty(n)
    with np.errstate(all="ignore"):
        scores[0], scores[-1] = _edge_scores(va, vb, x_a, x_b)
        if n > 2:
            rho = game.values_a / game.values_b
            radius = TRUNCATION_FACTOR * float(rho.max()) * TRUNCATION_GROWTH**TRUNCATION_EXTENSIONS
            rho_lo, rho_hi = np.minimum.accumulate(rho), np.maximum.accumulate(rho)
            sums = _prefix_sums(va, vb)
            for lo in range(1, n - 1, _TABLE_BLOCK_ROWS):
                rows = slice(lo, min(lo + _TABLE_BLOCK_ROWS, n - 1))
                columns = (col[rows, None] for col in (*sums, rho_lo, rho_hi))
                scores[rows] = _table_block(*columns, x_a, x_b, radius)
    scores[np.isnan(scores)] = np.inf
    return scores * scale


def optimal_commitment(instance: GameInstance) -> CommitmentSolution:
    """Best leader commitment over all prefix support candidates.

    Works on the ratio-class quotient of the canonical (ascending ratio)
    instance: each prefix length k of the quotient may get one candidate
    (_prefix_draft solves it, _round_trip checks it), and the best valid
    leader utility wins.  Utility ties within TIE_RTOL go to the larger
    support.  The winner is spread over each class and mapped back to the
    caller's battlefield order.

    _prefix_table scores every prefix: the best leader utility among its
    candidate alphas whose margin q is below 1 + _TABLE_RTOL (the module
    docstring lists the candidates).  Prefixes are solved in descending
    order of score, and the search stops at the first score below top *
    keep, with top the best valid utility so far and keep = 1 - 2 *
    _TABLE_RTOL - (n + 2) * TIE_RTOL (n prefixes).  While no candidate is
    valid, top is -inf and no row stops the search, the -inf rows
    included.  The valid candidates are folded in ascending k, as if every
    prefix had been solved and round-tripped, and the result is the same
    bit for bit.  The fold replaces its best whenever a candidate is at
    most TIE_RTOL * max(|u|, |best|) below it, so it always takes the
    (first) maximum u_max, and after it each replacement lowers the best
    by at most TIE_RTOL * u_max: it stays above u_max * (1 - (n - 1) *
    TIE_RTOL).  A prefix left unsolved cannot change the fold:
    * Its solver maximizes u_hat over the feasible set whose maximum the
      table's candidates contain.  So the draft sits at the row's best
      candidate, with a score within _TABLE_RTOL of the row's, or below
      it, or at a higher one whose margin is at least 1 + _TABLE_RTOL,
      where K is not the reply support and the draft is never valid.
    * A valid round trip gives the score to within TIE_RTOL * u (the score
      is u in exact arithmetic), so u <= s * (1 + _TABLE_RTOL) * (1 +
      TIE_RTOL) for a row score s < top * keep, which is below u_max * (1
      - (n + 1) * TIE_RTOL) (utilities are not negative).  The fold would
      never have taken it after u_max, and what it took before u_max does
      not matter.
    * A draft whose margin is finite and above 1 + TIE_RTOL is not
      round-tripped.  A member of K then gets a negative fill at K's water
      level, so K is not the reply support, and the round trip, whose
      level matches the margin's to far better than TIE_RTOL, would drop
      it.
    The first point assumes that the table's candidates hold the maximum
    of u_hat on the set the solver searches.  A solved draft with margin
    below 1 + _TABLE_RTOL that scores above its row by more than
    _TABLE_RTOL breaks that premise, and the search then stops pruning and
    solves every prefix left.  This check fires on no prefix of the test
    corpora, where the enumeration and the table agree (TestPrefixBounds).
    A row whose numbers are not finite scores inf: it is always solved and
    never checked.  When no candidate is valid, SolverInvariantError lists
    every prefix's outcome in ascending k: the solver's reason or the round
    trip's (a draft that its margin skipped is round-tripped for its note);
    a note names canonical positions, K=[0..end-1], where end is where the
    prefix's last class ends.  The raised error holds its message, not the
    solve's arrays: it is raised from a frame that never held the
    canonical instance, the quotient, the table or a draft, so a caller
    that keeps the error keeps only the message.
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
    scores = _prefix_table(game)
    keep = 1 - 2 * _TABLE_RTOL - (game.n + 2) * TIE_RTOL
    valid: dict[int, CommitmentSolution] = {}
    # why prefix k gives no candidate: a reason, or the draft its margin
    # skips, round-tripped only for the error message (None once valid)
    dropped: dict[int, str | CandidateDraft | None] = {}
    top, prune = -math.inf, True
    for k in (np.argsort(-scores, kind="stable") + 1).tolist():
        score = float(scores[k - 1])
        if prune and score < top * keep:
            break
        draft, reason = _prefix_draft(game, k)
        # a draft that may be valid beats its row: the table missed its maximum
        if draft is not None and draft.margin < 1 + _TABLE_RTOL and draft.score > score * (1 + _TABLE_RTOL):
            prune = False
        # a finite margin above 1 + TIE_RTOL rules out reply support K
        if draft is None or 1 + TIE_RTOL < draft.margin < math.inf:
            dropped[k] = reason or draft
            continue
        cand, dropped[k] = _round_trip(game, k, draft)
        if cand is not None:
            valid[k] = cand
            top = max(top, cand.leader_utility)
    if not valid:  # top stayed -inf, so every prefix was solved
        notes = "; ".join(
            f"K=[0..{ends[k - 1] - 1}]: {why if isinstance(why, str) else _round_trip(game, k, why)[1]}"
            for k, why in sorted(dropped.items())
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
