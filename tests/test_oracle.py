"""Grid-oracle tests: parameter validation, agreement with the closed
forms, the greedy fallback, refinement, and determinism."""

import numpy as np
import pytest

from blotto import (
    Allocation,
    GameInstance,
    GridSpec,
    InputError,
    PreconditionError,
    best_response,
    canonical_ordering,
    optimal_commitment,
    oracle_best_response,
    oracle_commitment,
    total_utility,
)
from blotto.oracle import batch_leader_utilities
from conftest import random_instance, random_positive_allocation, worked_example_instance


def follower_payoff(instance, xa, xb):
    return float((xb * instance.values_b / (xa + xb)).sum())


class TestGridSpec:
    def test_resolution_below_two_rejected(self):
        with pytest.raises(InputError):
            GridSpec(resolution=1)

    def test_negative_refinement_rejected(self):
        with pytest.raises(InputError):
            GridSpec(resolution=100, refinement_rounds=-1)

    def test_zero_point_cap_rejected(self):
        with pytest.raises(InputError):
            GridSpec(resolution=100, point_cap=0)

    def test_fields_coerced_to_int(self):
        spec = GridSpec(resolution=100.0, refinement_rounds=2.0)
        assert spec.resolution == 100 and isinstance(spec.resolution, int)
        assert spec.refinement_rounds == 2


class TestOracleBestResponse:
    def test_single_battlefield_spends_everything(self):
        inst = GameInstance(2.0, 3.0, np.array([1.0]), np.array([4.0]))
        alloc, util = oracle_best_response(
            inst, Allocation(np.array([2.0]), 2.0), GridSpec(50)
        )
        assert alloc.amounts[0] == pytest.approx(3.0, abs=1e-12)
        assert util == pytest.approx(4.0 * 3.0 / 5.0, rel=1e-12)

    def test_matches_closed_form_on_worked_example(self):
        # Follower's reply to the leader's optimal commitment at budgets 2:1.
        inst = worked_example_instance(2.0)
        leader = Allocation(np.array([0.543, 1.457]), 2.0)
        closed = best_response(inst, leader)
        closed_util = follower_payoff(inst, leader.amounts, closed.allocation.amounts)

        alloc, util = oracle_best_response(inst, leader, GridSpec(1000, 2))
        np.testing.assert_allclose(
            alloc.amounts, closed.allocation.amounts, atol=5e-3
        )
        assert abs(util - closed_util) <= 1e-6
        assert np.allclose(alloc.amounts, [0.847, 0.153], atol=5e-3)

    def test_never_beats_closed_form(self, rng):
        # The water-filling reply is exactly optimal; the grid can only tie it
        # up to discretization, never exceed it.
        for _ in range(15):
            inst = random_instance(rng, 3)
            leader = random_positive_allocation(rng, 3, inst.budget_a)
            closed = best_response(inst, leader)
            closed_util = follower_payoff(
                inst, leader.amounts, closed.allocation.amounts
            )
            _, grid_util = oracle_best_response(inst, leader, GridSpec(200, 1))
            assert grid_util <= closed_util + 1e-6
            assert grid_util >= closed_util - 1e-3

    def test_refinement_never_hurts(self, rng):
        inst = random_instance(rng, 3)
        leader = random_positive_allocation(rng, 3, inst.budget_a)
        _, coarse = oracle_best_response(inst, leader, GridSpec(60))
        _, fine = oracle_best_response(inst, leader, GridSpec(60, 3))
        assert fine >= coarse - 1e-12

    def test_greedy_fallback_matches_enumeration(self, rng):
        # comb(62, 2) = 1891 points at resolution 60, so point_cap=50 forces
        # the greedy pass; both must land on the same grid optimum.
        for _ in range(5):
            inst = random_instance(rng, 3)
            leader = random_positive_allocation(rng, 3, inst.budget_a)
            full, fu = oracle_best_response(inst, leader, GridSpec(60))
            greedy, gu = oracle_best_response(
                inst, leader, GridSpec(60, point_cap=50)
            )
            assert gu == pytest.approx(fu, abs=1e-12)
            np.testing.assert_array_equal(full.amounts, greedy.amounts)

    def test_rejects_leader_zero_entry(self):
        inst = GameInstance(2.0, 1.0, np.ones(2), np.ones(2))
        with pytest.raises(PreconditionError):
            oracle_best_response(inst, Allocation(np.array([2.0, 0.0]), 2.0), GridSpec(20))

    def test_deterministic(self, rng):
        inst = random_instance(rng, 3)
        leader = random_positive_allocation(rng, 3, inst.budget_a)
        a1, u1 = oracle_best_response(inst, leader, GridSpec(80, 1))
        a2, u2 = oracle_best_response(inst, leader, GridSpec(80, 1))
        np.testing.assert_array_equal(a1.amounts, a2.amounts)
        assert u1 == u2


class TestBatchLeaderUtilities:
    def test_each_row_matches_best_response(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            inst = random_instance(rng, n)
            leaders = [random_positive_allocation(rng, n, inst.budget_a) for _ in range(5)]
            utilities = batch_leader_utilities(inst, np.array([x.amounts for x in leaders]))
            for leader, utility in zip(leaders, utilities):
                reply = best_response(inst, leader)
                assert utility == pytest.approx(
                    total_utility(inst, "a", leader, reply.allocation), rel=1e-12
                )


class TestOracleCommitment:
    def test_worked_example_weak_leader(self):
        inst = worked_example_instance(0.5)
        alloc, util, support = oracle_commitment(inst, GridSpec(500, 1))
        assert util == pytest.approx(2.458, abs=1e-3)
        np.testing.assert_allclose(alloc.amounts, [0.136, 0.364], atol=2e-3)
        assert set(support) == {0, 1}

    def test_agrees_with_solver(self, rng):
        for _ in range(6):
            inst = random_instance(rng, 3)
            solved = optimal_commitment(inst)
            _, grid_util, _ = oracle_commitment(inst, GridSpec(150, 1))
            # Grid can't beat the true optimum, and should get close to it.
            assert grid_util <= solved.leader_utility + 1e-6
            assert grid_util >= solved.leader_utility - 1e-2

    def test_symmetric_instance_splits_proportionally(self):
        inst = GameInstance(2.0, 2.0, np.array([3.0, 1.0]), np.array([3.0, 1.0]))
        alloc, _, _ = oracle_commitment(inst, GridSpec(400, 1))
        # One refined grid step is 2/1600; allow two.
        np.testing.assert_allclose(alloc.amounts, [1.5, 0.5], atol=2.5e-3)

    def test_grid_support_is_canonical_prefix(self, rng):
        order_checked = 0
        for _ in range(10):
            inst = random_instance(rng, 3)
            _, ordering = canonical_ordering(inst)
            perm = list(ordering.permutation)
            _, _, support = oracle_commitment(inst, GridSpec(120, 1))
            assert set(support) == set(perm[: len(support)])
            order_checked += len(support)
        assert order_checked > 0

    def test_point_cap_overflow_raises(self):
        inst = GameInstance(
            1.0, 1.0, np.ones(4), np.ones(4)
        )
        # comb(999, 3) = 165_668_499 exceeds the default ten-million cap.
        with pytest.raises(InputError, match="point_cap"):
            oracle_commitment(inst, GridSpec(1000))

    def test_refinement_box_overflow_raises(self):
        inst = GameInstance(1.0, 1.0, np.ones(3), np.ones(3))
        # comb(49, 2) = 1176 fits under the cap, but the 17^3-point
        # refinement box does not.
        with pytest.raises(InputError, match="refinement box"):
            oracle_commitment(inst, GridSpec(50, 1, point_cap=1200))

    def test_refinement_never_hurts(self, rng):
        inst = random_instance(rng, 3)
        _, coarse, _ = oracle_commitment(inst, GridSpec(100))
        _, fine, _ = oracle_commitment(inst, GridSpec(100, 2))
        assert fine >= coarse - 1e-12

    def test_deterministic(self, rng):
        inst = random_instance(rng, 3)
        a1, u1, s1 = oracle_commitment(inst, GridSpec(90, 1))
        a2, u2, s2 = oracle_commitment(inst, GridSpec(90, 1))
        np.testing.assert_array_equal(a1.amounts, a2.amounts)
        assert u1 == u2 and s1 == s2

    def test_reported_utility_matches_total_utility(self, rng):
        inst = random_instance(rng, 2)
        alloc, util, _ = oracle_commitment(inst, GridSpec(200, 1))
        reply = best_response(inst, alloc)
        assert util == pytest.approx(
            total_utility(inst, "a", alloc, reply.allocation), rel=1e-12
        )
