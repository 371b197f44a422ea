"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints a single ``criterion NN: PASS/FAIL`` line (visible with
``pytest -s``) and enforces its runtime budget where one is stated.  Shared
corpora (the fixed 50-instance commitment batch, the worked two-battlefield
examples) are built once per session and reused so the residual checks in
criterion 10 see exactly the commitments the earlier criteria emitted.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from blotto import (
    Allocation,
    GameInstance,
    GridSpec,
    InputError,
    SolverInvariantError,
    best_response,
    canonical_ordering,
    check_coincidence,
    coincidence_threshold,
    compare_equilibria,
    leader_advantage_bounds,
    merge_battlefields,
    optimal_commitment,
    oracle_best_response,
    oracle_commitment,
    solve_nash,
    split_battlefield,
    total_utility,
)
from blotto.cli import VERIFY_BR_ATOL, VERIFY_COMMIT_ATOL
from blotto.commitment import threshold_allocation_outside_support
from blotto.game_core import ratio_quotient
from blotto.nash import MUTUAL_BR_RTOL
from conftest import (
    random_instance,
    random_positive_allocation,
    two_class_instance,
    worked_example_instance,
)


@contextmanager
def criterion(num: int, runtime_limit: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if runtime_limit is not None and elapsed >= runtime_limit:
        print(f"criterion {num:02d}: FAIL (runtime {elapsed:.2f}s >= {runtime_limit}s)")
        raise AssertionError(
            f"criterion {num:02d} exceeded its runtime budget: "
            f"{elapsed:.2f}s >= {runtime_limit}s"
        )
    print(f"criterion {num:02d}: PASS ({elapsed:.2f}s)")


# --- shared corpora -------------------------------------------------------
#
# Criterion 10 audits every commitment emitted while checking criteria 1-6.
# All commitment sources below are memoized, so the audit sees the same
# objects whether the file runs in order or a criterion runs standalone.

_MEMO: dict = {}


def _worked_example_solution(r: float):
    key = ("worked", r)
    if key not in _MEMO:
        inst = worked_example_instance(r)
        _MEMO[key] = (inst, optimal_commitment(inst))
    return _MEMO[key]


def _threshold_solution():
    if "threshold" not in _MEMO:
        ratio = coincidence_threshold(1.0, 1.0, 5.0, 0.5)
        inst = GameInstance(ratio, 1.0, np.array([1.0, 5.0]), np.array([1.0, 0.5]))
        _MEMO["threshold"] = (inst, optimal_commitment(inst))
    return _MEMO["threshold"]


def _commitment_batch():
    """50 fixed random instances (n alternating 2, 3) with solver output."""
    if "batch" not in _MEMO:
        rng = np.random.default_rng(20240510)
        batch = []
        for i in range(50):
            inst = random_instance(rng, 2 + i % 2)
            batch.append((inst, optimal_commitment(inst)))
        _MEMO["batch"] = batch
    return _MEMO["batch"]


def _commitment_batch_oracle():
    """Grid answers (resolution 500) for the same 50 instances."""
    if "batch_oracle" not in _MEMO:
        _MEMO["batch_oracle"] = [
            oracle_commitment(inst, GridSpec(500)) for inst, _ in _commitment_batch()
        ]
    return _MEMO["batch_oracle"]


def _emitted_commitments():
    out = [
        _worked_example_solution(0.5),
        _worked_example_solution(2.0),
        _threshold_solution(),
    ]
    out.extend(_commitment_batch())
    return out


# --- criteria -------------------------------------------------------------


def test_criterion_01_worked_example_weak_leader():
    with criterion(1, runtime_limit=1.0):
        inst = worked_example_instance(0.5)
        ne = solve_nash(inst)
        np.testing.assert_allclose(ne.alloc_a.amounts, [0.025, 0.475], atol=1e-3)
        np.testing.assert_allclose(ne.alloc_b.amounts, [0.340, 0.660], atol=1e-3)
        assert ne.leader_utility == pytest.approx(2.161, abs=1e-3)
        assert ne.follower_utility == pytest.approx(1.223, abs=1e-3)

        _, se = _worked_example_solution(0.5)
        reply = best_response(inst, se.allocation)
        np.testing.assert_allclose(se.allocation.amounts, [0.136, 0.364], atol=1e-3)
        np.testing.assert_allclose(reply.allocation.amounts, [0.559, 0.441], atol=1e-3)
        assert se.leader_utility == pytest.approx(2.458, abs=1e-3)
        assert se.follower_utility == pytest.approx(1.079, abs=1e-3)


def test_criterion_02_worked_example_strong_leader():
    with criterion(2, runtime_limit=1.0):
        inst = worked_example_instance(2.0)
        ne = solve_nash(inst)
        np.testing.assert_allclose(ne.alloc_a.amounts, [0.667, 1.333], atol=1e-3)
        np.testing.assert_allclose(ne.alloc_b.amounts, [0.833, 0.167], atol=1e-3)
        assert ne.leader_utility == pytest.approx(4.889, abs=1e-3)
        assert ne.follower_utility == pytest.approx(0.611, abs=1e-3)

        _, se = _worked_example_solution(2.0)
        reply = best_response(inst, se.allocation)
        np.testing.assert_allclose(se.allocation.amounts, [0.543, 1.457], atol=1e-3)
        np.testing.assert_allclose(reply.allocation.amounts, [0.847, 0.153], atol=1e-3)
        assert se.leader_utility == pytest.approx(4.915, abs=1e-3)
        assert se.follower_utility == pytest.approx(0.657, abs=1e-3)


def _assert_coincide(inst, se, scale_a=1.0, scale_b=1.0):
    # Utilities are compared in units of each player's value scale.
    ne = solve_nash(inst)
    se_reply = best_response(inst, se.allocation)
    np.testing.assert_allclose(
        se.allocation.amounts, ne.alloc_a.amounts, rtol=1e-6
    )
    np.testing.assert_allclose(
        se_reply.allocation.amounts, ne.alloc_b.amounts, rtol=1e-6
    )
    assert se.leader_utility / scale_a == pytest.approx(ne.leader_utility / scale_a, abs=1e-8)
    assert se.follower_utility / scale_b == pytest.approx(ne.follower_utility / scale_b, abs=1e-8)


def test_criterion_03_equilibria_coincide_at_threshold_ratio():
    with criterion(3, runtime_limit=1.0):
        _assert_coincide(*_threshold_solution())


@pytest.mark.parametrize("n", [2, 16, 256, 2048])
@pytest.mark.parametrize("seed", range(3))
def test_criterion_03_two_class_family_coincides_at_every_n(n, seed):
    # Ratio classes 0.5 and 2 alternate over n battlefields, at the
    # coincidence threshold; both solvers work on the 2-battlefield quotient.
    with criterion(3, runtime_limit=1.0):
        inst = two_class_instance(n, seed)
        _assert_coincide(inst, optimal_commitment(inst))


@pytest.mark.parametrize("scale", [1e-100, 1e100])
@pytest.mark.parametrize("n", [2, 16, 256, 2048])
@pytest.mark.parametrize("seed", range(3))
def test_criterion_03_two_class_family_coincides_at_value_scales(n, seed, scale):
    # Both players' values times scale: the game, and so its threshold,
    # does not change.
    with criterion(3, runtime_limit=1.0):
        inst = two_class_instance(n, seed, scale)
        _assert_coincide(inst, optimal_commitment(inst), scale, scale)


# Worked-example value skews (v_a times c, v_b times d) on which solve_nash
# raises at the threshold: mu* = sigma rho_1 rho_2 falls to about d / c,
# where brentq's absolute BRENT_XTOL (2e-12) leaves the root too coarse for
# the mutual-best-response check.  optimal_commitment solves all of them.
BRENT_XTOL_SKEWS = {(1e6, 1.0), (1e12, 1.0), (1.0, 1e-12), (1e12, 1e6)}


def _skew_cases():
    skews = [(1e-12, 1.0), (1e-6, 1.0), (1.0, 1e6), (1.0, 1e12), (1e-12, 1e-6), (1e6, 1e12)]
    for c, d in skews + sorted(BRENT_XTOL_SKEWS):
        marks = [pytest.mark.xfail(
            strict=True, raises=SolverInvariantError,
            reason="solve_nash's absolute BRENT_XTOL misses a small mu* (ROADMAP item 2)",
        )] if (c, d) in BRENT_XTOL_SKEWS else []
        yield pytest.param(c, d, marks=marks, id=f"va{c:g}-vb{d:g}")


@pytest.mark.parametrize("c, d", _skew_cases())
def test_criterion_03_worked_example_coincides_under_per_player_value_skews(c, d):
    with criterion(3, runtime_limit=1.0):
        va, vb = np.array([1.0, 5.0]) * c, np.array([1.0, 0.5]) * d
        r = check_coincidence(GameInstance(1.0, 1.0, va, vb)).threshold
        inst = GameInstance(r, 1.0, va, vb)
        se = optimal_commitment(inst)
        _assert_coincide(inst, se, c, d)


def test_criterion_04_best_response_matches_grid_oracle():
    with criterion(4, runtime_limit=120.0):
        rng = np.random.default_rng(20240404)
        grid = GridSpec(1000, 3)
        for i in range(200):
            n = 2 + i % 3
            inst = random_instance(rng, n)
            leader = random_positive_allocation(rng, n, inst.budget_a)
            reply = best_response(inst, leader)
            closed = total_utility(inst, "b", leader, reply.allocation)
            _, grid_utility = oracle_best_response(inst, leader, grid)
            assert closed >= grid_utility - 1e-4, f"instance {i}: grid beat closed form"
            assert abs(closed - grid_utility) <= 1e-4, (
                f"instance {i}: grid stuck {abs(closed - grid_utility):.3g} away"
            )


def test_criterion_05_commitment_matches_grid_oracle():
    with criterion(5, runtime_limit=600.0):
        for (inst, solved), (_, grid_utility, _) in zip(
            _commitment_batch(), _commitment_batch_oracle()
        ):
            assert solved.leader_utility >= grid_utility - 1e-3


def test_criterion_06_grid_optimal_support_is_a_ratio_prefix():
    with criterion(6):
        violations = 0
        for (inst, _), (_, _, support) in zip(
            _commitment_batch(), _commitment_batch_oracle()
        ):
            _, ordering = canonical_ordering(inst)
            prefix = set(int(j) for j in ordering.permutation[: len(support)])
            violations += set(support) != prefix
        assert violations == 0


def _class_instance(n, classes, seed):
    """values_b = values_a times one factor per ratio class, drawn U[0.2, 5];
    the classes' sizes differ by at most one, and values and budgets are
    drawn U[0.1, 10] as `gen` draws them."""
    rng = np.random.default_rng(seed)
    va = rng.uniform(0.1, 10.0, n)
    factors = rng.uniform(0.2, 5.0, classes)
    vb = va * factors[rng.permutation(np.arange(n) % classes)]
    return GameInstance(*rng.uniform(0.1, 10.0, 2), va, vb)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("classes", [2, 3])
@pytest.mark.parametrize("n", [256, 2048])
def test_criteria_05_06_hold_through_the_quotient_at_large_n(n, classes, seed):
    # A game with a few ratio classes is checked by the grid oracle on its
    # quotient: the grid optimum, spread over the classes, is a point of
    # the game itself, so it bounds the solver's utility from below.
    with criterion(5):
        inst = _class_instance(n, classes, seed)
        canon, ordering = canonical_ordering(inst)
        quotient = ratio_quotient(canon)
        assert quotient.game.n == classes
        alloc, grid_utility, support = oracle_commitment(quotient.game, GridSpec(500))
        assert optimal_commitment(inst).leader_utility >= grid_utility - 1e-3
        spread = Allocation(ordering.to_original(quotient.spread(alloc).amounts), inst.budget_a)
        reply = best_response(inst, spread)
        assert total_utility(inst, "a", spread, reply.allocation) == pytest.approx(
            grid_utility, rel=1e-9
        )
    with criterion(6):
        members = np.flatnonzero(np.isin(quotient.labels, support))
        mapped = {int(ordering.permutation[j]) for j in members}
        assert set(reply.support) == mapped
        assert mapped == {int(j) for j in ordering.permutation[: len(mapped)]}


def test_criterion_07_equilibrium_utility_bounds_hold():
    with criterion(7, runtime_limit=120.0):
        rng = np.random.default_rng(20240707)
        for i in range(500):
            inst = random_instance(rng, 1 + i % 5)
            bounds = leader_advantage_bounds(inst)
            ne = solve_nash(inst)
            se = optimal_commitment(inst)
            assert ne.leader_utility - bounds.ne_leader_floor >= -1e-9
            ratio = se.leader_utility / ne.leader_utility
            assert bounds.se_over_ne_cap - ratio >= -1e-9


# gen draws on which solve_nash raises today: the product form overflows
# before the sign scan brackets a root.
NASH_OVERFLOWS = {(256, 0), (2048, 0), (2048, 1), (2048, 2)}


def _gen_cases():
    for n in (2, 16, 256, 2048):
        for seed in range(3):
            marks = [pytest.mark.xfail(
                strict=True, raises=SolverInvariantError,
                reason="solve_nash's product form overflows (ROADMAP item 2)",
            )] if (n, seed) in NASH_OVERFLOWS else []
            yield pytest.param(n, seed, marks=marks, id=f"n{n}-seed{seed}")


@pytest.mark.parametrize("n, seed", _gen_cases())
def test_criterion_07_bounds_and_se_over_ne_hold_at_every_n(n, seed):
    # SE >= NE: the leader could commit to its Nash strategy, and the
    # follower's reply to it is unique, so the commitment is at least as good.
    with criterion(7, runtime_limit=5.0):
        inst = random_instance(np.random.default_rng(seed), n)
        bounds = leader_advantage_bounds(inst)
        ne = solve_nash(inst)
        se = optimal_commitment(inst)
        assert ne.leader_utility - bounds.ne_leader_floor >= -1e-9
        assert bounds.se_over_ne_cap - se.leader_utility / ne.leader_utility >= -1e-9
        assert se.leader_utility - ne.leader_utility >= -1e-9 * ne.leader_utility


def test_criterion_08_leader_advantage_grows_as_budgets_shrink():
    # Small-budget family: x_a = va1 = eps, vb1 = eps^2, second battlefield
    # and follower budget pinned at 1.  The two-battlefield lower-bound
    # formula diverges along it, and the realized SE/NE advantage is
    # strictly increasing as eps shrinks.
    with criterion(8):
        lowers, ratios = [], []
        for eps in (1e-1, 1e-2, 1e-3):
            inst = GameInstance(
                eps, 1.0, np.array([eps, 1.0]), np.array([eps**2, 1.0])
            )
            lowers.append(leader_advantage_bounds(inst).two_field_lower)
            ratios.append(compare_equilibria(inst).leader_ratio)
        assert lowers[0] < lowers[1] < lowers[2]
        assert lowers[2] > 10.0
        assert ratios[0] < ratios[1] < ratios[2]


def _assert_split_merge_round_trip(inst, alloc_a, alloc_b, j, t):
    base = {p: total_utility(inst, p, alloc_a, alloc_b) for p in "ab"}

    split_inst, split_a, split_b = split_battlefield(inst, j, t, alloc_a, alloc_b)
    for p in "ab":
        split_u = total_utility(split_inst, p, split_a, split_b)
        assert split_u == pytest.approx(base[p], rel=1e-12)

    back_inst, back_a, back_b = merge_battlefields(
        split_inst, range(j, j + t), split_a, split_b
    )
    np.testing.assert_allclose(back_inst.values_a, inst.values_a, rtol=1e-12)
    np.testing.assert_allclose(back_inst.values_b, inst.values_b, rtol=1e-12)
    np.testing.assert_allclose(back_a.amounts, alloc_a.amounts, rtol=1e-12)
    np.testing.assert_allclose(back_b.amounts, alloc_b.amounts, rtol=1e-12)
    for p in "ab":
        back_u = total_utility(back_inst, p, back_a, back_b)
        assert back_u == pytest.approx(base[p], rel=1e-12)


def test_criterion_09_split_merge_leave_utilities_unchanged():
    with criterion(9, runtime_limit=10.0):
        rng = np.random.default_rng(20240909)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            inst = random_instance(rng, n)
            alloc_a = random_positive_allocation(rng, n, inst.budget_a)
            alloc_b = random_positive_allocation(rng, n, inst.budget_b)
            j = int(rng.integers(0, n))
            t = int(rng.integers(2, 5))
            _assert_split_merge_round_trip(inst, alloc_a, alloc_b, j, t)


@pytest.mark.parametrize("n", [2, 16, 256, 2048])
def test_criterion_09_reductions_leave_utilities_unchanged_at_every_n(n):
    with criterion(9, runtime_limit=1.0):
        rng = np.random.default_rng(20240909 + n)
        inst = random_instance(rng, n)
        alloc_a = random_positive_allocation(rng, n, inst.budget_a)
        alloc_b = random_positive_allocation(rng, n, inst.budget_b)
        for j, t in ((0, 2), (n // 2, 3), (n - 1, 4)):
            _assert_split_merge_round_trip(inst, alloc_a, alloc_b, j, t)

        # Unequal values, one proportion: the follower puts c times the
        # leader's amount on every battlefield of the group.
        group = np.sort(rng.choice(n, size=min(n, 5), replace=False))
        amounts_b = alloc_b.amounts.copy()
        amounts_b[group] = rng.uniform(0.5, 2.0) * alloc_a.amounts[group]
        alloc_b = Allocation(amounts_b / amounts_b.sum() * inst.budget_b, inst.budget_b)
        merged_inst, merged_a, merged_b = merge_battlefields(inst, group, alloc_a, alloc_b)
        assert merged_inst.n == n - group.size + 1
        for p in "ab":
            assert total_utility(merged_inst, p, merged_a, merged_b) == pytest.approx(
                total_utility(inst, p, alloc_a, alloc_b), rel=1e-12
            )

        # Merging each ratio class of a spread quotient profile gives back
        # the quotient profile.
        inst = two_class_instance(n, 0)
        quotient = ratio_quotient(inst)
        budgets = (inst.budget_a, inst.budget_b)
        profile = [random_positive_allocation(rng, 2, budget) for budget in budgets]
        merged = (inst, *(quotient.spread(alloc) for alloc in profile))
        labels = quotient.labels
        for c in range(quotient.game.n):
            group = np.flatnonzero(labels == c)
            merged = merge_battlefields(merged[0], group, *merged[1:])
            labels = np.delete(labels, group[1:])
        np.testing.assert_allclose(merged[0].values_a, quotient.game.values_a[labels], rtol=1e-12)
        np.testing.assert_allclose(merged[0].values_b, quotient.game.values_b[labels], rtol=1e-12)
        for back, alloc in zip(merged[1:], profile):
            np.testing.assert_allclose(back.amounts, alloc.amounts[labels], rtol=1e-12)


def _commute_cases():
    for n in (2, 16, 256):
        for seed in range(3):
            inst = random_instance(np.random.default_rng(seed), n)
            yield pytest.param(inst, id=f"gen-n{n}-seed{seed}")
    for seed in range(3):
        yield pytest.param(two_class_instance(2048, seed), id=f"two-class-n2048-seed{seed}")


def _solved(solver, inst):
    try:
        return solver(inst)
    except SolverInvariantError:
        return None


def _assert_allocation_close(got, want, budget):
    assert np.abs(got.amounts - want.amounts).max() <= MUTUAL_BR_RTOL * budget


@pytest.mark.parametrize("inst", _commute_cases())
def test_criterion_09_solvers_commute_with_split(inst):
    # Solving the split game and merging the split battlefield back gives
    # the solution of the game, to the tolerances the golden CLI reports are
    # compared with; a solve that fails (the product-form overflow of
    # ROADMAP item 2) fails on the split game too.
    with criterion(9, runtime_limit=5.0):
        j, t = inst.n // 2, 3
        even = [Allocation(np.full(inst.n, b / inst.n), b) for b in (inst.budget_a, inst.budget_b)]
        split_inst = split_battlefield(inst, j, t, *even)[0]
        group = range(j, j + t)

        se, split_se = optimal_commitment(inst), optimal_commitment(split_inst)
        reply = best_response(inst, se.allocation).allocation
        split_reply = best_response(split_inst, split_se.allocation).allocation
        _, back_a, back_b = merge_battlefields(split_inst, group, split_se.allocation, split_reply)
        _assert_allocation_close(back_a, se.allocation, inst.budget_a)
        _assert_allocation_close(back_b, reply, inst.budget_b)
        assert split_se.case_tag == se.case_tag
        assert abs(split_se.leader_utility - se.leader_utility) <= VERIFY_COMMIT_ATOL
        assert abs(split_se.follower_utility - se.follower_utility) <= VERIFY_BR_ATOL

        ne, split_ne = _solved(solve_nash, inst), _solved(solve_nash, split_inst)
        assert (ne is None) == (split_ne is None)
        if ne is not None:
            _, back_a, back_b = merge_battlefields(
                split_inst, group, split_ne.alloc_a, split_ne.alloc_b
            )
            _assert_allocation_close(back_a, ne.alloc_a, inst.budget_a)
            _assert_allocation_close(back_b, ne.alloc_b, inst.budget_b)
            assert split_ne.mu_star == pytest.approx(ne.mu_star, rel=MUTUAL_BR_RTOL)
            assert abs(split_ne.leader_utility - ne.leader_utility) <= VERIFY_COMMIT_ATOL
            assert abs(split_ne.follower_utility - ne.follower_utility) <= VERIFY_BR_ATOL


def test_criterion_10_commitment_identities_hold_on_everything_emitted():
    with criterion(10):
        off_support_checked = 0
        case22_checked = 0
        for inst, solved in _emitted_commitments():
            amounts = solved.allocation.amounts
            support = sorted(solved.support)
            if len(support) < inst.n:
                thresholds = threshold_allocation_outside_support(
                    inst, support, amounts[support]
                )
                for j, expected in thresholds.items():
                    assert abs(amounts[j] - expected) <= 1e-9 * expected
                    off_support_checked += 1
            if solved.case_tag == "CASE_2_2":
                scale = inst.values_a[support] / np.sqrt(inst.values_b[support])
                residual = np.abs(
                    scale
                    - solved.alpha * np.sqrt(inst.values_b[support])
                    - np.sqrt(amounts[support] * solved.y)
                )
                assert float((residual / scale).max()) <= 1e-6
                case22_checked += 1
        assert off_support_checked > 0
        assert case22_checked > 0


# Criterion 11: the solvers hold at every budget ratio x_a / x_b, on
# gen-range values (U[0.1, 10]) with x_b = 1, at a few n and four seeds per
# cell.  best_response replies to the proportional commitment (x_a split
# like values_a).  Cells that fail today, with the defect they hit:
# (solver, n, x_a / x_b) -> (exception, reason).
_BR_LOSES_X_B = "best_response loses x_b at a large budget ratio (ROADMAP item 11(i))"
RATIO_FAILURES = {
    ("best_response", 16, 1e10): (InputError, _BR_LOSES_X_B),
    **{("optimal_commitment", n, 1e6): (
        SolverInvariantError,
        "a parked battlefield re-enters the reply, or a member of K drops out (ROADMAP item 11(ii))",
    ) for n in (2, 8, 16)},
    **{("optimal_commitment", n, 1e10): (
        (SolverInvariantError, InputError),
        "best_response loses x_b in the round trips, and in the check of a commitment "
        "that solves (ROADMAP item 11(i) and 11(ii))",
    ) for n in (8, 16)},
    **{("solve_nash", n, ratio): (
        SolverInvariantError,
        f"the mutual-best-response check's {_BR_LOSES_X_B}",
    ) for n in (2, 8, 16) for ratio in (1e-10, 1e10)},
    **{("solve_nash", n, 1e-6): (
        SolverInvariantError,
        "solve_nash's absolute BRENT_XTOL misses a small mu* (ROADMAP item 2)",
    ) for n in (2, 8, 16)},
}


def _ratio_cases():
    for solver in ("best_response", "optimal_commitment", "solve_nash"):
        for n in (2, 8, 16):
            for ratio in (1e-10, 1e-6, 1e-2, 1.0, 1e2, 1e6, 1e10):
                failure = RATIO_FAILURES.get((solver, n, ratio))
                marks = [pytest.mark.xfail(
                    strict=True, raises=failure[0], reason=failure[1],
                )] if failure else []
                yield pytest.param(solver, n, ratio, marks=marks, id=f"{solver}-n{n}-r{ratio:g}")


def _assert_best_response(inst, leader, reply):
    # marginal utility x_aj v_bj / (x_aj + x_bj)^2 equals the water level on
    # the support, and v_bj / x_aj (the marginal at x_bj = 0) is at most it
    # elsewhere
    xa, xb, vb = leader.amounts, reply.allocation.amounts, inst.values_b
    on = np.zeros(inst.n, dtype=bool)
    on[list(reply.support)] = True
    marginal = xa * vb / (xa + xb) ** 2
    np.testing.assert_allclose(marginal[on], reply.water_level, rtol=1e-6)
    assert np.all(vb[~on] / xa[~on] <= reply.water_level * (1 + 1e-6))


@pytest.mark.parametrize("solver, n, ratio", _ratio_cases())
def test_criterion_11_solvers_hold_at_every_budget_ratio(solver, n, ratio):
    with criterion(11, runtime_limit=1.0):
        for seed in range(4):
            base = random_instance(np.random.default_rng(seed), n)
            inst = GameInstance(ratio, 1.0, base.values_a, base.values_b)
            if solver == "best_response":
                leader = Allocation(inst.values_a / inst.values_a.sum() * ratio, ratio)
                _assert_best_response(inst, leader, best_response(inst, leader))
            elif solver == "optimal_commitment":
                se = optimal_commitment(inst)
                reply = best_response(inst, se.allocation)
                assert tuple(sorted(reply.support)) == se.support
                leader_u = total_utility(inst, "a", se.allocation, reply.allocation)
                assert se.leader_utility == pytest.approx(leader_u, rel=1e-12)
            else:
                ne = solve_nash(inst)
                assert 0.0 <= ne.leader_utility <= inst.values_a.sum()


# Criterion 12: above the coincidence threshold r* both players gain from
# the leader's commitment (the paper's abstract), on the two-class family
# at x_a = f * r*.  The leader gains at every f; below r* the follower
# loses (1.2-2.4% at f = 0.8).  The smallest gains, at f = 1.05, are about
# 1e-4 relative for the leader and 3e-3 for the follower.
def test_criterion_12_both_players_gain_above_the_threshold():
    with criterion(12, runtime_limit=1.0):
        for n in (2, 16, 256, 2048):
            for seed in range(3):
                inst = two_class_instance(n, seed)
                for f in (0.8, 1.05, 1.5, 2.0, 4.0):
                    game = GameInstance(f * inst.budget_a, 1.0, inst.values_a, inst.values_b)
                    se, ne = optimal_commitment(game), solve_nash(game)
                    assert se.leader_utility > ne.leader_utility, (n, seed, f)
                    if f > 1:
                        assert se.follower_utility > ne.follower_utility, (n, seed, f)
                    else:
                        assert se.follower_utility < ne.follower_utility * (1 - 1e-2), (n, seed, f)
