"""Closed-form follower best response: water filling, support, marginals."""

import numpy as np
import pytest

from blotto import (
    Allocation,
    GameInstance,
    InputError,
    PreconditionError,
    best_response,
    follower_marginal_utility,
    total_utility,
)
from blotto.best_response import _reply
from blotto.commitment import threshold_allocation_outside_support
from conftest import (
    extreme_instance,
    random_instance,
    random_positive_allocation,
    worked_example_instance,
)


def follower_utility(inst, leader, follower):
    return total_utility(inst, "b", leader, follower)


class TestBestResponse:
    def test_worked_example_r2_reply(self):
        inst = worked_example_instance(2.0)
        leader = Allocation(np.array([0.543, 1.457]), 2.0)
        result = best_response(inst, leader)
        assert np.allclose(result.allocation.amounts, [0.847, 0.153], atol=1e-3)
        assert set(result.support) == {0, 1}

    def test_single_battlefield(self):
        inst = GameInstance(
            budget_a=0.7, budget_b=2.0, values_a=np.array([1.0]), values_b=np.array([3.0])
        )
        result = best_response(inst, Allocation(np.array([0.7]), 0.7))
        assert result.allocation.amounts[0] == pytest.approx(2.0)
        assert result.support == (0,)

    def test_beats_a_million_random_points(self, rng):
        inst = random_instance(rng, 3)
        leader = random_positive_allocation(rng, 3, inst.budget_a)
        result = best_response(inst, leader)
        u_star = follower_utility(inst, leader, result.allocation)

        weights = rng.dirichlet(np.ones(3), size=1_000_000) * inst.budget_b
        shares = weights * inst.values_b / (leader.amounts + weights)
        assert u_star >= shares.sum(axis=1).max() - 1e-9

    def test_rejects_nonpositive_leader_entries(self):
        inst = worked_example_instance(1.0)
        leader = Allocation(np.array([1.0, 0.0]), 1.0)
        with pytest.raises(PreconditionError):
            best_response(inst, leader)

    def test_allocation_positive_exactly_on_support(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            inst = random_instance(rng, n)
            leader = random_positive_allocation(rng, n, inst.budget_a)
            result = best_response(inst, leader)
            on = np.zeros(n, dtype=bool)
            on[list(result.support)] = True
            assert np.all(result.allocation.amounts[on] > 0)
            assert np.all(result.allocation.amounts[~on] <= 1e-12 * inst.budget_b)
            assert result.allocation.amounts.sum() == pytest.approx(
                inst.budget_b, rel=1e-9
            )

    def test_water_level_and_kkt(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            inst = random_instance(rng, n)
            leader = random_positive_allocation(rng, n, inst.budget_a)
            result = best_response(inst, leader)
            for j in range(n):
                marginal = follower_marginal_utility(
                    inst, j, leader.amounts[j], result.allocation.amounts[j]
                )
                if j in result.support:
                    assert marginal == pytest.approx(result.water_level, rel=1e-7)
                else:
                    assert marginal <= result.water_level + 1e-9

    def test_support_ratio_separation(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            inst = random_instance(rng, n)
            leader = random_positive_allocation(rng, n, inst.budget_a)
            result = best_response(inst, leader)
            ratios = inst.values_b / leader.amounts
            for j in range(n):
                if j in result.support:
                    assert ratios[j] > result.water_level - 1e-9
                else:
                    assert ratios[j] <= result.water_level + 1e-9

    def test_perturbing_support_pairs_strictly_hurts(self, rng):
        inst = random_instance(rng, 4)
        leader = random_positive_allocation(rng, 4, inst.budget_a)
        result = best_response(inst, leader)
        u_star = follower_utility(inst, leader, result.allocation)
        delta = 1e-4 * inst.budget_b
        support = list(result.support)
        for i in support:
            for j in support:
                if i == j or result.allocation.amounts[j] < delta:
                    continue
                bumped = result.allocation.amounts.copy()
                bumped[i] += delta
                bumped[j] -= delta
                u = follower_utility(
                    inst, leader, Allocation(bumped, inst.budget_b)
                )
                assert u < u_star

    def test_scale_covariance(self, rng):
        inst = random_instance(rng, 3)
        leader = random_positive_allocation(rng, 3, inst.budget_a)
        base = best_response(inst, leader)
        c = 3.7
        scaled_inst = GameInstance(
            budget_a=c * inst.budget_a,
            budget_b=c * inst.budget_b,
            values_a=inst.values_a,
            values_b=inst.values_b,
        )
        scaled_leader = Allocation(c * leader.amounts, c * inst.budget_a)
        scaled = best_response(scaled_inst, scaled_leader)
        assert np.allclose(scaled.allocation.amounts, c * base.allocation.amounts, rtol=1e-9)
        u0 = follower_utility(inst, leader, base.allocation)
        u1 = follower_utility(scaled_inst, scaled_leader, scaled.allocation)
        assert u1 == pytest.approx(u0, rel=1e-9)

    def test_reply_is_best_response_on_the_swapped_game(self):
        # nash._mutual_br's leader side: _reply on values_a and budget_a
        # gives best_response's reply on the swapped game, byte for byte.
        for inst in [random_instance(np.random.default_rng(seed), n)
                     for n in (2, 16, 128) for seed in range(10)] + [
                     extreme_instance(seed, 6) for seed in range(30)]:
            rng = np.random.default_rng(inst.n)
            follower = random_positive_allocation(rng, inst.n, inst.budget_b)
            swapped = GameInstance(inst.budget_b, inst.budget_a, inst.values_b, inst.values_a)
            expected = best_response(swapped, follower)
            reply, *_, water_level = _reply(inst.values_a, inst.budget_a, follower.amounts)
            assert reply.amounts.tobytes() == expected.allocation.amounts.tobytes()
            assert reply.budget == expected.allocation.budget
            assert water_level == expected.water_level


class TestFollowerMarginalUtility:
    def test_at_zero_investment(self):
        inst = GameInstance(
            budget_a=1.0, budget_b=1.0, values_a=np.array([1.0]), values_b=np.array([5.0])
        )
        assert follower_marginal_utility(inst, 0, 2.0, 0.0) == pytest.approx(2.5)

    def test_direct_substitution(self):
        inst = GameInstance(
            budget_a=1.0, budget_b=1.0, values_a=np.array([1.0]), values_b=np.array([4.0])
        )
        assert follower_marginal_utility(inst, 0, 1.0, 1.0) == pytest.approx(1.0)

    def test_decreasing_in_follower_investment(self):
        inst = GameInstance(
            budget_a=1.0, budget_b=1.0, values_a=np.array([1.0]), values_b=np.array([2.0])
        )
        grid = np.linspace(0.0, 5.0, 200)
        vals = [follower_marginal_utility(inst, 0, 0.8, x) for x in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_double_zero(self):
        inst = GameInstance(
            budget_a=1.0, budget_b=1.0, values_a=np.array([1.0]), values_b=np.array([2.0])
        )
        with pytest.raises(InputError):
            follower_marginal_utility(inst, 0, 0.0, 0.0)

    @pytest.mark.parametrize("x_aj, x_bj", [
        (np.nan, 0.5), (np.inf, 0.5), (0.5, np.nan), (0.5, np.inf),
        (-0.2, 0.5), (-1.0, 0.5), (0.5, -0.1),
    ])
    def test_rejects_non_finite_or_negative_amounts(self, x_aj, x_bj):
        inst = GameInstance(1.0, 1.0, np.array([1.0]), np.array([2.0]))
        with pytest.raises(InputError, match="finite and non-negative"):
            follower_marginal_utility(inst, 0, x_aj, x_bj)

    @pytest.mark.parametrize("x_aj, x_bj, field", [
        ("1", 0.5, "x_aj"), (0.5, "1", "x_bj"), (True, 0.5, "x_aj"), (0.5, np.bool_(True), "x_bj"),
    ], ids=["string-x_aj", "string-x_bj", "bool-x_aj", "bool-x_bj"])
    def test_rejects_strings_and_bools(self, x_aj, x_bj, field):
        inst = GameInstance(1.0, 1.0, np.array([1.0]), np.array([2.0]))
        with pytest.raises(InputError, match=f"{field} must be a real number"):
            follower_marginal_utility(inst, 0, x_aj, x_bj)


class TestSupportPrefix:
    def test_leader_proportional_to_follower_values_keeps_full_support(self, rng):
        n = 4
        inst = random_instance(rng, n)
        leader = Allocation(
            inst.values_b / inst.values_b.sum() * inst.budget_a, inst.budget_a
        )
        assert set(best_response(inst, leader).support) == set(range(n))

    def test_flooded_battlefield_is_abandoned(self):
        inst = GameInstance(
            budget_a=10.0,
            budget_b=1.0,
            values_a=np.array([1.0, 1.0]),
            values_b=np.array([1.0, 1.0]),
        )
        # With x_a1 = 1 fixed, battlefield 0 is dropped once its spend
        # passes the indifference threshold (here 4.0); 9.0 clears it.
        threshold = threshold_allocation_outside_support(inst, [1], np.array([1.0]))[0]
        assert threshold == pytest.approx(4.0)
        leader = Allocation(np.array([9.0, 1.0]), 10.0)
        assert list(best_response(inst, leader).support) == [1]

    def test_worked_example_commitment_keeps_both(self):
        inst = worked_example_instance(0.5)
        leader = Allocation(np.array([0.136, 0.364]), 0.5)
        assert set(best_response(inst, leader).support) == {0, 1}

    def test_ordered_by_descending_ratio(self, rng):
        inst = random_instance(rng, 5)
        leader = random_positive_allocation(rng, 5, inst.budget_a)
        prefix = best_response(inst, leader).support
        ratios = inst.values_b / leader.amounts
        listed = [ratios[j] for j in prefix]
        assert all(x >= y for x, y in zip(listed, listed[1:]))

    def test_never_empty(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            inst = random_instance(rng, n)
            leader = random_positive_allocation(rng, n, inst.budget_a)
            assert len(best_response(inst, leader).support) >= 1
