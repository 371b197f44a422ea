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
    best_response,
    canonical_ordering,
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
from blotto.commitment import threshold_allocation_outside_support
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


def _assert_coincide(inst, se):
    ne = solve_nash(inst)
    se_reply = best_response(inst, se.allocation)
    np.testing.assert_allclose(
        se.allocation.amounts, ne.alloc_a.amounts, rtol=1e-6
    )
    np.testing.assert_allclose(
        se_reply.allocation.amounts, ne.alloc_b.amounts, rtol=1e-6
    )
    assert se.leader_utility == pytest.approx(ne.leader_utility, abs=1e-8)
    assert se.follower_utility == pytest.approx(ne.follower_utility, abs=1e-8)


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
