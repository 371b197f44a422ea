"""Coincidence condition, advantage bounds, budget sweeps, CSV export."""

import io
import math
import warnings

import numpy as np
import pytest

from blotto import (
    GameInstance,
    InputError,
    budget_sweep,
    check_coincidence,
    coincidence_threshold,
    compare_equilibria,
    leader_advantage_bounds,
    optimal_commitment,
    solve_nash,
    write_sweep_csv,
)
from blotto.game_core import SolverInvariantError, ratio_quotient
from blotto.nash import nash_poly
from conftest import random_instance, two_class_instance, worked_example_instance

# Budget ratio at which the worked example's SE and NE collapse into each
# other; frozen from the closed-form threshold of (1, 1, 5, 0.5).
WORKED_EXAMPLE_CROSSING = 1.694050881103528

# Factors applied to one player's values in the scale-invariance checks.
VALUE_SCALES = [1e-100, 1e-50, 1e-20, 1.0, 1e20, 1e50, 1e100]


def psi_threshold(v_aM, v_bM, v_aMbar, v_bMbar):
    """The paper's closed form, transcribed through three auxiliary psi
    functions.  A reference only: it cancels catastrophically, losing
    about 1e-10 relative accuracy at 1e+-6 value sums and failing outright
    once the sums are far from 1."""

    def psi1(x1, x2, x3, x4):
        inner = math.sqrt((x1**2 / x3 + x2**2 / x4) / (x3 + x4))
        return (x1 / math.sqrt(x3) + inner * math.sqrt(x3)) ** 2

    def psi2(x1, x2, x3, x4, x5, x6):
        left, right = math.sqrt(x5 * x3), math.sqrt(x6 * x4)
        return (x6 * x4 * x1 * left - x5 * x3 * x2 * right) / (left + right)

    def psi3(x1, x2, x3, x4, x5, x6):
        return x5 * x6 * (x1 * x4 - x2 * x3) / (x5 + x6)

    t1 = psi1(v_aM, v_aMbar, v_bM, v_bMbar)
    t2 = psi1(v_aMbar, v_aM, v_bMbar, v_bM)
    t3 = psi2(v_aMbar, v_aM, v_bMbar, v_bM, t2, t1) + psi3(v_aM, v_aMbar, v_bM, v_bMbar, t1, t2)
    return psi2(v_aM, v_aMbar, v_bM, v_bMbar, t1, t2) / t3


def log_uniform_sums(seed, size, span):
    """size sets of four class sums, each log-uniform in [10^-span, 10^span]."""
    return (10.0 ** np.random.default_rng(seed).uniform(-span, span, (size, 4))).tolist()


class TestCoincidenceThreshold:
    def test_worked_example_sums_give_the_crossing_ratio(self):
        f = coincidence_threshold(1.0, 1.0, 5.0, 0.5)
        assert f == pytest.approx(WORKED_EXAMPLE_CROSSING, rel=1e-12)

    def test_equilibria_collapse_at_the_threshold(self):
        f = coincidence_threshold(1.0, 1.0, 5.0, 0.5)
        inst = worked_example_instance(f)
        se = optimal_commitment(inst)
        ne = solve_nash(inst)
        assert np.allclose(se.allocation.amounts, ne.alloc_a.amounts, rtol=1e-6)
        assert se.leader_utility == pytest.approx(ne.leader_utility, abs=1e-8)
        assert se.follower_utility == pytest.approx(ne.follower_utility, abs=1e-8)

    def test_swapping_the_classes_keeps_the_same_crossing(self):
        forward = coincidence_threshold(1.0, 1.0, 5.0, 0.5)
        swapped = coincidence_threshold(5.0, 0.5, 1.0, 1.0)
        assert swapped == pytest.approx(forward, rel=1e-12)

    def test_rejects_uniform_ratio(self):
        with pytest.raises(InputError):
            coincidence_threshold(2.0, 1.0, 4.0, 2.0)

    def test_rejects_nonpositive_sums(self):
        with pytest.raises(InputError):
            coincidence_threshold(0.0, 1.0, 5.0, 0.5)

    def test_scaling_either_players_values_keeps_the_worked_example_threshold(self):
        base = coincidence_threshold(1.0, 1.0, 5.0, 0.5)
        va, vb = np.array([1.0, 5.0]), np.array([1.0, 0.5])
        off = {}
        for c in VALUE_SCALES:
            for d in VALUE_SCALES:
                threshold = check_coincidence(GameInstance(1.0, 1.0, va * c, vb * d)).threshold
                if not abs(threshold - base) <= 4e-15 * base:
                    off[(c, d)] = threshold
        assert off == {}

    def test_scaling_either_players_values_keeps_random_thresholds(self):
        rng = np.random.default_rng(20)
        scales = [1e-100, 1e-50, 1e50, 1e100]
        for v_aM, v_bM, v_aMbar, v_bMbar in rng.uniform(0.1, 10.0, (100, 4)).tolist():
            base = coincidence_threshold(v_aM, v_bM, v_aMbar, v_bMbar)
            for c in scales:
                for d in scales:
                    scaled = coincidence_threshold(c * v_aM, d * v_bM, c * v_aMbar, d * v_bMbar)
                    assert scaled == pytest.approx(base, rel=4e-15, abs=0)

    def test_agrees_with_the_psi_transcription_at_moderate_sums(self):
        for sums in log_uniform_sums(3, 1000, 3):
            reference = psi_threshold(*sums)
            assert coincidence_threshold(*sums) == pytest.approx(reference, rel=1e-12, abs=0)

    def test_swapping_the_classes_of_random_sums(self):
        for v_aM, v_bM, v_aMbar, v_bMbar in log_uniform_sums(4, 1000, 150):
            forward = coincidence_threshold(v_aM, v_bM, v_aMbar, v_bMbar)
            swapped = coincidence_threshold(v_aMbar, v_bMbar, v_aM, v_bM)
            assert swapped == pytest.approx(forward, rel=1e-15, abs=0)

    def test_sums_across_1e150_give_a_finite_threshold_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sums in log_uniform_sums(5, 2000, 150):
                threshold = coincidence_threshold(*sums)
                assert math.isfinite(threshold) and threshold > 0, sums

    def test_a_threshold_outside_the_floats_raises(self):
        # Sums far beyond 1e+-150: both terms of the numerator underflow,
        # and a threshold of 0 is raised, not returned.
        with pytest.raises(SolverInvariantError, match=r"threshold of class sums .* is 0\.0$"):
            coincidence_threshold(6.6e122, 1.3e-166, 1.0e-104, 3.5e161)

    @pytest.mark.parametrize(
        "inst",
        [worked_example_instance(WORKED_EXAMPLE_CROSSING)]
        + [two_class_instance(n, seed) for n in (2, 16) for seed in range(3)],
    )
    def test_nash_root_at_the_threshold_is_sigma_rho1_rho2(self, inst):
        # The derivation: at r*, the Nash equation's root is mu* = sigma
        # rho_1 rho_2 of the two-class quotient.
        game = ratio_quotient(inst).game
        va, vb = game.values_a, game.values_b
        sigma = math.sqrt(float((va**2 / vb).sum() / vb.sum()))
        rho = vb / va
        r = check_coincidence(inst).threshold
        ne = solve_nash(GameInstance(r * inst.budget_b, inst.budget_b, inst.values_a, inst.values_b))
        assert ne.mu_star == pytest.approx(sigma * rho[0] * rho[1], rel=1e-9)


class TestCheckCoincidence:
    def test_single_ratio_class_always_coincides(self):
        inst = GameInstance(
            budget_a=3.0,
            budget_b=1.0,
            values_a=np.array([2.0, 6.0]),
            values_b=np.array([1.0, 3.0]),
        )
        report = check_coincidence(inst)
        assert report.coincides is True
        assert report.threshold is None
        assert len(report.ratio_classes) == 1

    def test_worked_example_at_r_half_does_not_coincide(self):
        report = check_coincidence(worked_example_instance(0.5))
        assert report.coincides is False
        assert report.threshold == pytest.approx(WORKED_EXAMPLE_CROSSING, rel=1e-9)
        assert len(report.ratio_classes) == 2

    def test_two_classes_coincide_exactly_at_the_threshold(self):
        inst = worked_example_instance(WORKED_EXAMPLE_CROSSING)
        report = check_coincidence(inst)
        assert report.coincides is True

    def test_three_ratio_classes_never_coincide(self):
        inst = GameInstance(
            budget_a=1.0,
            budget_b=1.0,
            values_a=np.array([1.0, 2.0, 3.0]),
            values_b=np.array([1.0, 1.0, 1.0]),
        )
        report = check_coincidence(inst)
        assert report.coincides is False
        assert report.threshold is None
        assert len(report.ratio_classes) == 3

    def test_off_threshold_budgets_separate_the_equilibria(self):
        for r in (WORKED_EXAMPLE_CROSSING * 0.9, WORKED_EXAMPLE_CROSSING * 1.1):
            inst = worked_example_instance(r)
            assert check_coincidence(inst).coincides is False
            se = optimal_commitment(inst)
            ne = solve_nash(inst)
            gap = np.abs(se.allocation.amounts - ne.alloc_a.amounts).max()
            assert gap > 1e-3


class TestLeaderAdvantageBounds:
    def test_equal_budgets_cap_is_two(self):
        inst = GameInstance(
            budget_a=1.5,
            budget_b=1.5,
            values_a=np.array([1.0, 2.0]),
            values_b=np.array([2.0, 1.0]),
        )
        assert leader_advantage_bounds(inst).se_over_ne_cap == pytest.approx(2.0)

    def test_worked_example_r2_ratio_under_the_cap(self):
        report = compare_equilibria(worked_example_instance(2.0))
        assert report.leader_ratio == pytest.approx(4.915 / 4.889, abs=1e-3)
        assert report.leader_ratio <= report.cor1_upper

    def test_ne_floor_value(self):
        inst = worked_example_instance(2.0)
        bounds = leader_advantage_bounds(inst)
        assert bounds.ne_leader_floor == pytest.approx(2.0 / 3.0 * 6.0, rel=1e-12)

    def test_two_battlefield_bounds_bracket_the_ratio(self, rng):
        # The bracket is guaranteed only when va1 <= vb1 in the frame.
        checked = 0
        while checked < 10:
            inst = random_instance(rng, 2)
            bounds = leader_advantage_bounds(inst)
            assert bounds.two_field_lower is not None
            va1, vb1, xa = bounds.normalized_frame
            if va1 > vb1:
                continue
            checked += 1
            frame = GameInstance(
                budget_a=xa,
                budget_b=1.0,
                values_a=np.array([va1, 1.0]),
                values_b=np.array([vb1, 1.0]),
            )
            ratio = compare_equilibria(frame).leader_ratio
            assert bounds.two_field_lower - 1e-9 <= ratio <= bounds.two_field_upper + 1e-9

    def test_frame_preserves_battlefield_order(self):
        inst = GameInstance(
            budget_a=3.0,
            budget_b=2.0,
            values_a=np.array([4.0, 2.0]),
            values_b=np.array([1.0, 5.0]),
        )
        bounds = leader_advantage_bounds(inst)
        assert bounds.normalized_frame == pytest.approx((2.0, 0.2, 1.5))

    def test_no_two_battlefield_bounds_above_n2(self, rng):
        inst = random_instance(rng, 3)
        bounds = leader_advantage_bounds(inst)
        assert bounds.two_field_lower is None
        assert bounds.two_field_upper is None
        assert bounds.normalized_frame is None

    def test_small_budget_lower_bound_formula_grows(self):
        # The divergence argument plugs the small-budget family straight
        # into the ratio-bound formula; the formula values must blow up.
        lowers = []
        for eps in (1e-1, 1e-2, 1e-3):
            inst = GameInstance(
                budget_a=eps,
                budget_b=1.0,
                values_a=np.array([eps, 1.0]),
                values_b=np.array([eps**2, 1.0]),
            )
            lowers.append(leader_advantage_bounds(inst).two_field_lower)
        assert lowers[0] < lowers[1] < lowers[2]
        assert lowers[2] > 100.0


class TestCompareEquilibria:
    def test_commitment_never_hurts(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            inst = random_instance(rng, n)
            report = compare_equilibria(inst)
            assert report.leader_ratio >= 1.0 - 1e-9
            assert report.leader_ratio <= report.cor1_upper + 1e-9

    def test_report_fields_are_consistent(self):
        inst = worked_example_instance(0.5)
        report = compare_equilibria(inst)
        assert report.leader_ratio == pytest.approx(
            report.se.leader_utility / report.ne.leader_utility, rel=1e-12
        )
        assert report.follower_ratio == pytest.approx(
            report.se.follower_utility / report.ne.follower_utility, rel=1e-12
        )
        assert report.cor1_upper == pytest.approx(
            (inst.budget_a + inst.budget_b) / inst.budget_a, rel=1e-12
        )


class TestBudgetSweep:
    def test_worked_example_rows_reproduce_the_worked_numbers(self):
        inst = worked_example_instance(1.0)
        rows = budget_sweep(inst, [2.0, 0.5, WORKED_EXAMPLE_CROSSING])
        assert [row.r for row in rows] == sorted([0.5, WORKED_EXAMPLE_CROSSING, 2.0])

        half = rows[0]
        assert half.se_u_a == pytest.approx(2.458, abs=1e-3)
        assert half.se_u_b == pytest.approx(1.079, abs=1e-3)
        assert half.ne_u_a == pytest.approx(2.161, abs=1e-3)
        assert half.ne_u_b == pytest.approx(1.223, abs=1e-3)
        assert half.coincides is False

        crossing = rows[1]
        assert crossing.coincides is True
        assert crossing.se_u_a == pytest.approx(crossing.ne_u_a, abs=1e-6)
        assert crossing.se_u_b == pytest.approx(crossing.ne_u_b, abs=1e-6)

        two = rows[2]
        assert two.se_u_a == pytest.approx(4.915, abs=1e-3)
        assert two.ne_u_a == pytest.approx(4.889, abs=1e-3)

    def test_rejects_nonpositive_ratios_up_front(self):
        inst = worked_example_instance(1.0)
        with pytest.raises(InputError):
            budget_sweep(inst, [1.0, -2.0])
        with pytest.raises(InputError):
            budget_sweep(inst, [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_ratios_up_front(self, bad):
        with pytest.raises(InputError, match="budget ratios must be finite"):
            budget_sweep(worked_example_instance(1.0), [1.0, bad])

    def test_solver_failure_becomes_a_diagnostic_row(self, monkeypatch):
        import blotto.analysis as analysis_module
        from blotto import SolverInvariantError

        real = analysis_module.solve_nash

        def flaky(instance):
            if abs(instance.budget_a / instance.budget_b - 2.0) < 1e-12:
                raise SolverInvariantError("injected failure")
            return real(instance)

        monkeypatch.setattr(analysis_module, "solve_nash", flaky)
        rows = budget_sweep(worked_example_instance(1.0), [0.5, 2.0])
        good, bad = rows
        assert good.diagnostic is None and math.isfinite(good.ne_u_a)
        assert bad.diagnostic == "injected failure"
        assert math.isnan(bad.ne_u_a) and math.isnan(bad.se_u_a)
        assert bad.coincides is False

    def test_overflowing_leader_budget_becomes_a_diagnostic_row(self):
        # 1e308 * budget_b overflows to inf: that row fails, the sweep goes on.
        inst = GameInstance(5.0, 10.0, np.array([1.0, 5.0]), np.array([1.0, 0.5]))
        good, bad = budget_sweep(inst, [1.0, 1e308])
        assert good.diagnostic is None and math.isfinite(good.se_u_a)
        assert bad.r == 1e308 and math.isnan(bad.se_u_a) and math.isnan(bad.ne_u_b)
        assert bad.diagnostic == "budget_a must be finite and strictly positive"

    def test_leader_se_curve_regression_is_monotone(self):
        # Regression data for this specific instance (not a general law):
        # the leader's commitment utility rises with its budget share.
        inst = worked_example_instance(1.0)
        rows = budget_sweep(inst, np.linspace(0.25, 3.0, 50))
        assert all(row.diagnostic is None for row in rows)
        se = [row.se_u_a for row in rows]
        assert all(b >= a - 1e-9 for a, b in zip(se, se[1:]))


class TestRealNumberArguments:
    """Budget ratios, nash_poly's mu and the class value sums take real
    numbers.  float() used to read True as 1.0 and "1" as 1.0, and a string
    or None raised ValueError or TypeError instead of InputError."""

    BAD = ["a", "1", True, np.bool_(True), None, [1.0]]
    CALLS = ["budget_sweep", "nash_poly", "coincidence_threshold"]

    @staticmethod
    def call(name, x):
        """The named call with x as its ratio, mu or first class value sum."""
        inst = worked_example_instance(2.0)
        return {
            "budget_sweep": lambda: budget_sweep(inst, [x]),
            "nash_poly": lambda: nash_poly(inst, x),
            "coincidence_threshold": lambda: coincidence_threshold(x, 1, 2, 1),
        }[name]()

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    @pytest.mark.parametrize("name", CALLS)
    def test_non_numbers_raise_input_error(self, name, bad):
        with pytest.raises(InputError, match="must be a real number"):
            self.call(name, bad)

    @pytest.mark.parametrize("good", [1, np.int64(1), 1.0, np.float64(1.0)], ids=repr)
    @pytest.mark.parametrize("name", CALLS)
    def test_integers_and_floats_behave_as_before(self, name, good):
        assert self.call(name, good) == self.call(name, 1.0)


class TestSweepCsv:
    def test_header_and_shape(self):
        inst = worked_example_instance(1.0)
        rows = budget_sweep(inst, [0.5, 2.0])
        buffer = io.StringIO()
        write_sweep_csv(rows, buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0] == "r,se_u_a,se_u_b,ne_u_a,ne_u_b,coincides"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0.5"
        assert first[-1] == "false"
        assert float(first[1]) == pytest.approx(2.458, abs=1e-3)

    def test_coincidence_row_prints_true(self):
        inst = worked_example_instance(1.0)
        rows = budget_sweep(inst, [WORKED_EXAMPLE_CROSSING])
        buffer = io.StringIO()
        write_sweep_csv(rows, buffer)
        assert buffer.getvalue().strip().split("\n")[1].endswith(",true")

    def test_nine_significant_digits(self):
        inst = worked_example_instance(1.0)
        rows = budget_sweep(inst, [2.0])
        buffer = io.StringIO()
        write_sweep_csv(rows, buffer)
        cell = buffer.getvalue().strip().split("\n")[1].split(",")[1]
        assert cell == f"{rows[0].se_u_a:.9g}"

    def test_nan_rows_survive_serialization(self):
        from blotto import SweepRow

        rows = [
            SweepRow(2.0, 1.0, 1.0, 1.0, 1.0, False),
            SweepRow(1.0, math.nan, math.nan, math.nan, math.nan, False, "boom"),
        ]
        buffer = io.StringIO()
        write_sweep_csv(rows, buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[1].split(",")[1] == "nan"  # sorted ascending: r=1 first
        assert lines[2].split(",")[0] == "2"
