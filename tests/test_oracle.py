"""Grid-oracle tests: parameter validation, agreement with the closed
forms and with brute-force enumeration, refinement, determinism, and
pinned outputs."""

import hashlib
import itertools
import math
import tracemalloc
import warnings

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
from blotto import oracle
from blotto.game_core import BUDGET_SUM_RTOL
from blotto.oracle import REFINE_FACTOR, REFINE_HALO, batch_leader_utilities
from conftest import random_instance, random_positive_allocation, worked_example_instance
from record_digests import load_digests


def follower_payoff(instance, xa, xb):
    return float((xb * instance.values_b / (xa + xb)).sum())


class TestGridSpec:
    def test_resolution_below_two_rejected(self):
        with pytest.raises(InputError):
            GridSpec(resolution=1)

    def test_negative_refinement_rejected(self):
        with pytest.raises(InputError):
            GridSpec(resolution=100, refinement_rounds=-1)

    def test_fields_coerced_to_int(self):
        spec = GridSpec(resolution=100.0, refinement_rounds=2.0)
        assert spec.resolution == 100 and isinstance(spec.resolution, int)
        assert spec.refinement_rounds == 2

    def test_numpy_integers_and_integral_floats_accepted(self):
        spec = GridSpec(np.int64(100), np.float32(2.0))
        assert (spec.resolution, spec.refinement_rounds) == (100, 2)
        assert type(spec.resolution) is int and type(spec.refinement_rounds) is int

    @pytest.mark.parametrize(
        "bad", [2.9, "500", True, np.bool_(True), float("inf"), -float("inf"), float("nan"), None]
    )
    @pytest.mark.parametrize("field", ["resolution", "refinement_rounds"])
    def test_non_whole_numbers_rejected(self, field, bad):
        # int() used to truncate 2.9, parse "500", take True as 1, and raise
        # OverflowError or ValueError on inf and nan.
        fields = {"resolution": 100, "refinement_rounds": 1, field: bad}
        with pytest.raises(InputError, match=f"{field} must be a whole number"):
            GridSpec(**fields)


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

    def test_matches_brute_force_enumeration(self, rng):
        # Every composition of the box, scored on raw payoffs; the
        # marginal-gain pass must land on the same grid optimum, coarse and
        # after one refinement round.
        def brute_force(inst, xa, total, lo, hi):
            boxes = itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
            points = [np.array(p) for p in boxes if sum(p) == total]
            payoffs = [follower_payoff(inst, xa, p / total * inst.budget_b) for p in points]
            return points[int(np.argmax(payoffs))]

        for _ in range(5):
            inst = random_instance(rng, 3)
            leader = random_positive_allocation(rng, 3, inst.budget_a)
            coarse = brute_force(inst, leader.amounts, 60, [0] * 3, [60] * 3)
            center = coarse * REFINE_FACTOR
            refined = brute_force(
                inst, leader.amounts, 240,
                np.maximum(center - REFINE_HALO, 0), np.minimum(center + REFINE_HALO, 240),
            )
            for rounds, counts, total in ((0, coarse, 60), (1, refined, 240)):
                alloc, util = oracle_best_response(inst, leader, GridSpec(60, rounds))
                np.testing.assert_array_equal(alloc.amounts, counts / total * inst.budget_b)
                assert util == pytest.approx(
                    follower_payoff(inst, leader.amounts, alloc.amounts), abs=1e-12
                )

    def test_never_enumerates_compositions(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the follower search must not enumerate")

        monkeypatch.setattr(oracle, "_box_compositions", forbidden)
        inst = GameInstance(2.0, 3.0, np.array([1.0, 4.0, 2.0]), np.array([3.0, 1.0, 2.0]))
        leader = Allocation(np.array([0.5, 1.0, 0.5]), 2.0)
        alloc, _ = oracle_best_response(inst, leader, GridSpec(500, 3))
        assert alloc.amounts.sum() == pytest.approx(3.0, rel=1e-12)

    def test_gain_table_over_point_cap_raises(self):
        inst = GameInstance(1.0, 1.0, np.ones(2), np.ones(2))
        leader = Allocation(np.array([0.5, 0.5]), 1.0)
        # Two battlefields of POINT_CAP // 2 + 1 units each.
        with pytest.raises(InputError, match="point_cap"):
            oracle_best_response(inst, leader, GridSpec(oracle.POINT_CAP // 2 + 1))

    @pytest.mark.parametrize("grid", [500, (500, 3), None], ids=repr)
    def test_rejects_a_grid_that_is_not_a_gridspec(self, grid):
        inst = GameInstance(1.0, 1.0, np.ones(2), np.ones(2))
        leader = Allocation(np.array([0.5, 0.5]), 1.0)
        with pytest.raises(InputError, match=f"grid must be a GridSpec, got {type(grid).__name__}"):
            oracle_best_response(inst, leader, grid)

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


class TestBoxCompositions:
    @staticmethod
    def reference(total, lo, hi):
        boxes = itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
        return np.array([p for p in boxes if sum(p) == total], dtype=np.int64).reshape(-1, len(lo))

    def test_matches_itertools_rows_and_order(self, rng):
        for i in range(400):
            n = int(rng.integers(1, 6))
            if i % 4 == 0:  # a coarse leader stage
                total = int(rng.integers(n, 14))
                lo, hi = np.ones(n, dtype=np.int64), np.full(n, total, dtype=np.int64)
            else:
                lo = rng.integers(0, 12, n)
                hi = lo + rng.integers(0, 7, n)
                if i % 4 == 1:  # clipped at the floor, like a refined stage
                    lo = np.maximum(lo - 6, 1)
                # Totals just outside [sum(lo), sum(hi)] have no rows.
                total = int(rng.integers(lo.sum() - 2, hi.sum() + 3))
            rows = oracle._box_compositions(total, lo, hi)
            np.testing.assert_array_equal(rows, self.reference(total, lo, hi))
            assert rows.shape[1] == n

    def test_cap_counts_rows_not_box_volume(self, monkeypatch):
        # A 41^3 box holds 68921 points, but only 861 of them sum to 40.
        lo, hi = np.zeros(3, dtype=np.int64), np.full(3, 40, dtype=np.int64)
        monkeypatch.setattr(oracle, "POINT_CAP", 861)
        assert len(oracle._box_compositions(40, lo, hi)) == 861
        monkeypatch.setattr(oracle, "POINT_CAP", 860)
        with pytest.raises(InputError, match="point_cap 860"):
            oracle._box_compositions(40, lo, hi)


class TestBoxBlocks:
    # A coarse n = 4 box at total 24: its first leading value, c[0] = 1, has
    # comb(22, 2) = 231 completions, more than any chunk size below.
    COARSE = (24, np.ones(4, dtype=np.int64), np.full(4, 24, dtype=np.int64))

    @pytest.mark.parametrize("block", [1, 3, 7, 29, 101])
    def test_chunks_concatenate_to_the_reference(self, rng, block):
        boxes = [self.COARSE]
        for _ in range(40):
            n = int(rng.integers(1, 6))
            lo = rng.integers(0, 12, n)
            hi = lo + rng.integers(0, 7, n)
            boxes.append((int(rng.integers(lo.sum() - 2, hi.sum() + 3)), lo, hi))
        for total, lo, hi in boxes:
            chunks = list(oracle._box_blocks(total, lo, hi, block))
            expected = TestBoxCompositions.reference(total, lo, hi)
            assert [len(c) for c in chunks] == [block] * (len(expected) // block) + (
                [len(expected) % block] if len(expected) % block else []
            )
            rows = np.concatenate([np.empty((0, len(lo)), dtype=np.int64), *chunks])
            np.testing.assert_array_equal(rows, expected)
        leading = TestBoxCompositions.reference(*self.COARSE)[:, 0]
        assert np.count_nonzero(leading == 1) == math.comb(22, 2) > block


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

    @pytest.mark.parametrize("bad", ["0.5", True, np.bool_(True)], ids=repr)
    def test_rejects_points_that_are_not_real_numbers(self, bad):
        inst = GameInstance(1.0, 1.0, np.ones(2), np.ones(2))
        with pytest.raises(InputError, match="leader_points must be numeric"):
            batch_leader_utilities(inst, [[0.5, 0.5], [bad, 0.5]])

    @pytest.mark.parametrize(
        "row, total", [([math.nan, 0.5], "nan"), ([math.inf, 0.5], "inf"), ([5.0, 0.5], "5.5")]
    )
    def test_names_the_first_row_that_is_not_an_allocation_of_budget_a(self, row, total):
        inst = GameInstance(1.0, 1.0, np.ones(2), np.ones(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=f"leader_points row 1 sums to {total}; every row"):
                batch_leader_utilities(inst, [[0.5, 0.5], row, [0.25, 0.75]])

    def test_accepts_rows_within_the_budget_tolerance(self):
        inst = GameInstance(1.0, 1.0, np.ones(2), np.ones(2))
        rows = [[0.5, 0.5 + 0.5 * BUDGET_SUM_RTOL], [0.5, 0.5 - 0.5 * BUDGET_SUM_RTOL]]
        assert batch_leader_utilities(inst, rows).shape == (2,)

    def test_names_the_first_point_that_is_not_positive(self):
        inst = GameInstance(1.0, 1.0, np.ones(2), np.ones(2))
        with pytest.raises(PreconditionError, match="entry 1, 0 is"):
            batch_leader_utilities(inst, np.array([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]]))


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

    def test_refinement_box_overflow_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "POINT_CAP", 1000)
        inst = GameInstance(1.0, 1.0, np.ones(5), np.ones(5))
        # The coarse stage has comb(7, 4) = 35 rows; the refined stage at
        # total 32 has 19653, though its box would hold 17^5 points.
        oracle_commitment(inst, GridSpec(8))
        with pytest.raises(InputError, match="resolution 32 with n=5, over point_cap 1000"):
            oracle_commitment(inst, GridSpec(8, 1))

    @pytest.mark.parametrize("resolution, n", [(3, 4), (2, 3), (4, 5)])
    def test_resolution_below_n_raises(self, resolution, n):
        # Every leader grid entry is at least one unit, so no grid point
        # exists when the resolution is below n.
        inst = GameInstance(1.0, 1.0, np.ones(n), np.ones(n))
        with pytest.raises(InputError, match=f"resolution {resolution} has no point with n={n}"):
            oracle_commitment(inst, GridSpec(resolution))

    def test_resolution_equal_to_n_has_one_point(self):
        inst = GameInstance(4.0, 1.0, np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4))
        alloc, _, _ = oracle_commitment(inst, GridSpec(4))
        np.testing.assert_array_equal(alloc.amounts, np.ones(4))

    def test_memory_stays_below_the_box_volume(self):
        # At n=5 each refined box spans 17^5 = 1.4e6 points; only the rows
        # that sum to the stage total may be built.
        inst = random_instance(np.random.default_rng(0), 5)
        tracemalloc.start()
        try:
            oracle_commitment(inst, GridSpec(20, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_memory_is_rows_plus_one_block_at_the_cli_grid(self):
        # `blotto gen --n 3 --seed 0` at verify's default grid.  Its coarse
        # stage has 124,251 rows; scored in one call, the water fill's float
        # temporaries took the peak to 32 MiB.
        inst = random_instance(np.random.default_rng(0), 3)
        tracemalloc.start()
        try:
            oracle_commitment(inst, GridSpec(500, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_cli_grid_stage_peaks_under_4_mib(self):
        # `blotto gen --n 3 --seed 0` at verify's default grid.  Its coarse
        # stage has 124,251 rows; built whole, its integer rows took the
        # peak to 9.5 MiB.
        inst = random_instance(np.random.default_rng(0), 3)
        tracemalloc.start()
        try:
            oracle_commitment(inst, GridSpec(500, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_point_cap_is_read_from_counts(self):
        # comb(999, 3) rows; the enumerator used to build the 497,503
        # two-coordinate prefixes before its count passed the cap.
        inst = GameInstance(1.0, 1.0, np.ones(4), np.ones(4))
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="at least 165668499 points .* point_cap"):
                oracle_commitment(inst, GridSpec(1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("grid", [500, (500, 3), None], ids=repr)
    def test_rejects_a_grid_that_is_not_a_gridspec(self, grid):
        inst = GameInstance(1.0, 1.0, np.ones(2), np.ones(2))
        with pytest.raises(InputError, match=f"grid must be a GridSpec, got {type(grid).__name__}"):
            oracle_commitment(inst, grid)

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


class TestLeaderBlocks:
    # (kind, seed, n, resolution, refinement_rounds, odd): the coarse stage
    # has comb(resolution - 1, n - 1) rows, and blocks of `odd` rows leave
    # one row for its last block.
    CASES = [
        ("gen", 0, 2, 60, 2, 29),
        ("log", 100, 2, 61, 1, 59),
        ("gen", 1, 3, 40, 1, 185),
        ("log", 101, 3, 41, 2, 779),
        ("gen", 2, 4, 16, 1, 227),
        ("log", 102, 4, 17, 1, 559),
        ("gen", 3, 5, 10, 1, 125),
        ("log", 103, 5, 11, 1, 209),
    ]

    @pytest.mark.parametrize("kind, seed, n, resolution, rounds, odd", CASES)
    def test_block_size_does_not_change_bits(
        self, monkeypatch, kind, seed, n, resolution, rounds, odd
    ):
        inst, _ = oracle_case(kind, seed, n)
        coarse = math.comb(resolution - 1, n - 1)
        assert odd % 2 == 1 and coarse % odd == 1
        score = oracle.batch_leader_utilities
        results, sizes = [], []
        for rows in (1, odd, 2**40):
            calls = []

            def recording(instance, points):
                calls.append(len(points))
                return score(instance, points)

            monkeypatch.setattr(oracle, "batch_leader_utilities", recording)
            monkeypatch.setattr(oracle, "_LEADER_BLOCK_ELEMENTS", rows * n)
            alloc, utility, support = oracle_commitment(inst, GridSpec(resolution, rounds))
            results.append((alloc.amounts.tobytes(), float.hex(utility), support))
            sizes.append(calls)
        assert results[0] == results[1] == results[2]
        one_row, odd_rows, whole = sizes
        assert set(one_row) == {1}
        assert odd_rows[: coarse // odd + 1] == [odd] * (coarse // odd) + [1]
        assert len(whole) == rounds + 1 and whole[0] == coarse

    @pytest.mark.parametrize("nan_at", [None, 3, 17])
    @pytest.mark.parametrize("rows", [1, 7, 2**40])
    def test_running_maximum_picks_what_argmax_over_the_stage_picks(
        self, monkeypatch, rows, nan_at
    ):
        # Scores with ties, and NaN on every row with c[1] == nan_at: the
        # first such row is the stage's 3rd or 17th, past the first block
        # at one row per block and at 7 for the 17th.
        inst, total = GameInstance(1.0, 1.0, np.ones(3), np.ones(3)), 30

        def scores(instance, points):
            counts = np.rint(points * total).astype(np.int64)
            utilities = (counts[:, 0] % 4).astype(float)
            utilities[counts[:, 1] == nan_at] = np.nan
            return utilities

        stage = oracle._box_compositions(total, np.ones(3, dtype=np.int64), np.full(3, total))
        expected = stage[np.argmax(scores(inst, stage / total))]
        monkeypatch.setattr(oracle, "batch_leader_utilities", scores)
        monkeypatch.setattr(oracle, "_LEADER_BLOCK_ELEMENTS", rows * 3)
        alloc, _, _ = oracle_commitment(inst, GridSpec(total))
        np.testing.assert_array_equal(np.rint(alloc.amounts * total), expected)


def oracle_case(kind, seed, n):
    """Instance and positive leader allocation for the pinned tables: `gen`
    draws U[0.1, 10] like `blotto gen`; `log` draws log-uniform values in
    1e±3 and budgets in 1e±2."""
    rng = np.random.default_rng(seed)
    if kind == "gen":
        budgets = rng.uniform(0.1, 10.0, 2)
        va, vb = rng.uniform(0.1, 10.0, n), rng.uniform(0.1, 10.0, n)
    else:
        budgets = 10.0 ** rng.uniform(-2, 2, 2)
        va, vb = 10.0 ** rng.uniform(-3, 3, n), 10.0 ** rng.uniform(-3, 3, n)
    inst = GameInstance(budgets[0], budgets[1], va, vb)
    weights = rng.uniform(0.05, 1.0, n)
    return inst, Allocation(weights / weights.sum() * inst.budget_a, inst.budget_a)


def oracle_digest(alloc, utility):
    h = hashlib.sha256(alloc.amounts.tobytes())
    h.update(float.hex(utility).encode())
    return h.hexdigest()[:16]


# (kind, seed, n, resolution, refinement_rounds): oracle_digest of
# oracle_best_response, recorded at 211a016, where the follower search still
# enumerated compositions below the point cap and ran a heap-based greedy
# pass above it.  The gen-15, log-115 and (1000, 3) cases reached the heap;
# every refined R in {2, 7} case and logs 111, 114 and 115 refine a box
# clipped at 0.
BEST_RESPONSE_DIGESTS = load_digests("test_oracle.BEST_RESPONSE_DIGESTS")

# The same for oracle_commitment's allocation and utility (only the instance
# of oracle_case is used), recorded at 211a016.
COMMITMENT_DIGESTS = load_digests("test_oracle.COMMITMENT_DIGESTS")


def best_response_entry(kind, seed, n, resolution, rounds):
    """BEST_RESPONSE_DIGESTS' entry for its key."""
    inst, leader = oracle_case(kind, seed, n)
    return oracle_digest(*oracle_best_response(inst, leader, GridSpec(resolution, rounds)))


def commitment_entry(kind, seed, n, resolution, rounds):
    """COMMITMENT_DIGESTS' entry for its key."""
    inst, _ = oracle_case(kind, seed, n)
    alloc, utility, _ = oracle_commitment(inst, GridSpec(resolution, rounds))
    return oracle_digest(alloc, utility)


class TestPinnedOracleOutputs:
    @pytest.mark.parametrize("key", sorted(BEST_RESPONSE_DIGESTS))
    def test_best_response_digest(self, key):
        assert best_response_entry(*key) == BEST_RESPONSE_DIGESTS[key]

    @pytest.mark.parametrize("key", sorted(COMMITMENT_DIGESTS))
    def test_commitment_digest(self, key):
        assert commitment_entry(*key) == COMMITMENT_DIGESTS[key]
