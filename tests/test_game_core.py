"""Instance/allocation types, utilities, ordering, the split/merge maps, and
the ratio-class quotient both solvers work on."""

import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blotto import (
    Allocation,
    GameInstance,
    InputError,
    PreconditionError,
    best_response,
    canonical_ordering,
    check_coincidence,
    follower_marginal_utility,
    instance_from_dict,
    instance_to_dict,
    merge_battlefields,
    optimal_commitment,
    solve_nash,
    split_battlefield,
    total_utility,
    utility_per_battlefield,
)
from blotto.commitment import threshold_allocation_outside_support
from blotto.game_core import RATIO_CLASS_RTOL, ratio_quotient
from blotto.nash import _mutual_br
from conftest import (
    random_instance,
    random_positive_allocation,
    tied_instance,
    two_class_instance,
    worked_example_instance,
)


def make(budget_a, budget_b, values_a, values_b):
    return GameInstance(
        budget_a=budget_a,
        budget_b=budget_b,
        values_a=np.asarray(values_a, dtype=float),
        values_b=np.asarray(values_b, dtype=float),
    )


class TestGameInstance:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(InputError):
            make(0.0, 1.0, [1.0], [1.0])
        with pytest.raises(InputError):
            make(1.0, -2.0, [1.0], [1.0])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(InputError):
            make(1.0, 1.0, [1.0, 0.0], [1.0, 1.0])
        with pytest.raises(InputError):
            make(1.0, 1.0, [1.0, 1.0], [1.0, -1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            make(1.0, 1.0, [1.0, 2.0], [1.0])

    def test_values_are_read_only(self):
        inst = make(1.0, 1.0, [1.0, 2.0], [3.0, 4.0])
        with pytest.raises(ValueError):
            inst.values_a[0] = 9.0

    def test_dict_round_trip(self):
        inst = make(2.0, 1.0, [1.0, 5.0], [1.0, 0.5])
        again = instance_from_dict(instance_to_dict(inst))
        assert again.budget_a == inst.budget_a
        assert again.budget_b == inst.budget_b
        assert np.array_equal(again.values_a, inst.values_a)
        assert np.array_equal(again.values_b, inst.values_b)

    def test_from_dict_requires_all_keys(self):
        with pytest.raises(InputError):
            instance_from_dict({"budget_a": 1.0, "budget_b": 1.0, "values_a": [1.0]})

    def test_from_dict_ignores_extra_keys(self):
        inst = instance_from_dict(
            {
                "budget_a": 2.0,
                "budget_b": 1.0,
                "values_a": [1.0, 5.0],
                "values_b": [1.0, 0.5],
                "commit_a": [0.5, 1.5],
            }
        )
        assert inst.n == 2


class TestAllocation:
    def test_clamps_tiny_negative_entries(self):
        a = Allocation(np.array([1.0, -1e-13]), 1.0)
        assert a.amounts[1] == 0.0

    def test_rejects_meaningful_negative_entries(self):
        with pytest.raises(InputError):
            Allocation(np.array([1.01, -0.01]), 1.0)

    def test_rejects_budget_mismatch(self):
        with pytest.raises(InputError):
            Allocation(np.array([0.5, 0.4]), 1.0)

    def test_accepts_budget_within_relative_tolerance(self):
        Allocation(np.array([0.5, 0.5 + 1e-10]), 1.0)

    @staticmethod
    def reference(amounts, budget):
        """The constructor's checks one numpy call at a time, in order:
        (amount bytes, budget) or the InputError message."""
        try:
            budget = float(budget)
            if not np.isfinite(budget) or budget <= 0:
                return "allocation budget must be finite and strictly positive"
            try:
                arr = np.asarray(amounts, dtype=float)
            except (TypeError, ValueError) as exc:
                return f"allocation amounts must be numeric: {exc}"
            if arr.ndim != 1 or arr.size == 0:
                return "allocation amounts must be a non-empty 1-D vector"
            if not np.all(np.isfinite(arr)):
                return "allocation amounts must be finite"
            if np.any(arr < -1e-12 * budget):
                j = int(np.argmin(arr))
                return f"allocation entry {j} is negative ({arr[j]!r})"
            arr = np.where(arr < 0, 0.0, arr)
            total = float(arr.sum())
            if abs(total - budget) > 1e-9 * budget:
                return f"allocation sums to {total!r}, expected budget {budget!r}"
            return arr.tobytes(), budget
        except (TypeError, ValueError) as exc:
            return f"allocation budget must be numeric: {exc}"

    @pytest.mark.parametrize("amounts, budget", [
        ([0.25, 0.75], 1.0),
        ([1.0, -1e-13, -0.0], 1.0),
        ([1.0, -0.0], 1.0),
        ([0.5, np.nan], 1.0),
        ([np.inf, -np.inf], 1.0),
        ([np.inf, 1.0], 1.0),
        ([1e308, 1e308], 1e308),
        ([1e308, 1e308, -1e308], 1e308),
        ([1.01, -0.01], 1.0),
        ([1.01, -0.01, np.nan], 1.0),
        ([0.5, 0.4], 1.0),
        ([[0.5, 0.5]], 1.0),
        ([], 1.0),
        (["x", 1.0], 1.0),
        ([0.5, 0.5], np.inf),
        ([0.5, 0.5], -1.0),
        ([0.5, 0.5], "one"),
        (np.arange(8.0)[::2] / 12.0, 1.0),
    ])
    def test_checks_match_the_one_call_per_check_reference(self, amounts, budget):
        with np.errstate(over="ignore"):  # the sum of [1e308, 1e308]
            want = self.reference(amounts, budget)
            try:
                alloc = Allocation(amounts, budget)
            except InputError as exc:
                assert str(exc) == want
                return
        assert (alloc.amounts.tobytes(), alloc.budget) == want

    def test_amounts_are_a_read_only_copy(self):
        src = np.array([0.5, -1e-13, 0.5])
        alloc = Allocation(src, 1.0)
        assert src[1] == -1e-13 and alloc.amounts[1] == 0.0
        assert not alloc.amounts.flags.writeable and alloc.amounts.flags.c_contiguous
        src[0] = 0.0
        assert alloc.amounts[0] == 0.5


# Positive reals of every accepted kind, and a value of each rejected kind.
REALS = st.one_of(
    st.integers(1, 1000),
    st.floats(1.0, 1000.0),
    st.integers(1, 1000).map(np.int64),
    st.integers(1, 1000).map(np.uint16),
    st.floats(1.0, 1000.0).map(np.float64),
    st.floats(1.0, 1000.0, width=32).map(np.float32),
)
NON_REALS = [True, np.bool_(False), "1", b"1", None, 1 + 0j, Fraction(1, 2)]


class TestRealNumberRule:
    """GameInstance and Allocation read budgets, values and amounts under
    one rule: Python or numpy ints and floats.  float() and np.asarray(x,
    dtype=float) would read True as 1.0, "1" and b"1" as 1.0, None as nan,
    a Fraction as its value and a complex number without its imaginary part."""

    CONTAINERS = [list, tuple, *(partial(np.array, dtype=t) for t in (np.float64, np.int64, np.float32))]

    @settings(max_examples=60, deadline=None)
    @given(entries=st.lists(REALS, min_size=1, max_size=8), budget=REALS,
           container=st.sampled_from(CONTAINERS))
    def test_reals_read_as_np_asarray_reads_them(self, entries, budget, container):
        x = container(entries)
        want = np.asarray(x, dtype=float)
        inst = GameInstance(budget, budget, x, x)
        alloc = Allocation(x, float(want.sum()))
        assert inst.budget_a == inst.budget_b == float(budget)
        for got in (inst.values_a, inst.values_b, alloc.amounts):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(entries=st.lists(REALS, min_size=1, max_size=8), bad=st.sampled_from(NON_REALS),
           data=st.data())
    def test_one_non_real_anywhere_names_its_field(self, entries, bad, data):
        at = data.draw(st.integers(0, len(entries)))
        x = data.draw(st.sampled_from([list, tuple]))([*entries[:at], bad, *entries[at:]])
        ones = [1.0] * len(x)
        for field, build in (
            ("values_a", lambda: GameInstance(1.0, 1.0, x, ones)),
            ("values_b", lambda: GameInstance(1.0, 1.0, ones, x)),
            ("allocation amounts", lambda: Allocation(x, float(len(x)))),
        ):
            with pytest.raises(InputError, match=f"^{field} must be numeric"):
                build()

    @pytest.mark.parametrize("bad", NON_REALS, ids=repr)
    def test_non_real_budgets_name_their_field(self, bad):
        for field, build in (
            ("budget_a", lambda: GameInstance(bad, 1.0, [1.0], [1.0])),
            ("budget_b", lambda: GameInstance(1.0, bad, [1.0], [1.0])),
            ("allocation budget", lambda: Allocation([1.0], bad)),
        ):
            with pytest.raises(InputError, match=f"^{field} must be numeric"):
                build()

    def test_strings_and_bools_are_not_coerced(self):
        with pytest.raises(InputError, match="^budget_a must be numeric"):
            GameInstance("2", True, ["1", "2"], [True, 3.0])
        with pytest.raises(InputError, match="^allocation amounts must be numeric"):
            Allocation([True, False], 1.0)

    def test_complex_arrays_raise_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for field, build in (
                ("allocation amounts", lambda: Allocation(np.array([0.5 + 1j, 0.5]), 1.0)),
                ("values_a", lambda: GameInstance(1.0, 1.0, np.array([1 + 1j, 2.0]), [1.0, 1.0])),
                ("values_b", lambda: GameInstance(1.0, 1.0, [1.0, 1.0], [np.complex64(2), 2.0])),
            ):
                with pytest.raises(InputError, match=f"^{field} must be numeric"):
                    build()


class TestPerBattlefieldUtility:
    def test_equal_split_halves_the_value(self):
        inst = make(2.0, 2.0, [4.0, 1.0], [1.0, 1.0])
        a = Allocation(np.array([1.0, 1.0]), 2.0)
        b = Allocation(np.array([1.0, 1.0]), 2.0)
        assert utility_per_battlefield(inst, "a", 0, a, b) == pytest.approx(2.0)

    def test_both_zero_goes_to_follower(self):
        inst = make(1.0, 1.0, [2.0, 2.0], [3.0, 1.0])
        a = Allocation(np.array([0.0, 1.0]), 1.0)
        b = Allocation(np.array([0.0, 1.0]), 1.0)
        assert utility_per_battlefield(inst, "b", 0, a, b) == 3.0
        assert utility_per_battlefield(inst, "a", 0, a, b) == 0.0

    def test_worked_example_share_arithmetic(self):
        # leader 0.136 vs follower 0.559 on a unit-value battlefield
        inst = make(0.5, 1.0, [1.0, 5.0], [1.0, 0.5])
        a = Allocation(np.array([0.136, 0.364]), 0.5)
        b = Allocation(np.array([0.559, 0.441]), 1.0)
        got = utility_per_battlefield(inst, "a", 0, a, b)
        assert got == pytest.approx(0.1957, abs=5e-5)

    def test_index_out_of_range(self):
        inst = make(1.0, 1.0, [1.0], [1.0])
        a = Allocation(np.array([1.0]), 1.0)
        with pytest.raises(InputError):
            utility_per_battlefield(inst, "a", 1, a, a)

    def test_unknown_player_rejected(self):
        inst = make(1.0, 1.0, [1.0], [1.0])
        a = Allocation(np.array([1.0]), 1.0)
        with pytest.raises(InputError):
            utility_per_battlefield(inst, "c", 0, a, a)


class TestTotalUtility:
    def test_worked_example_leader_utility_at_r2(self):
        inst = worked_example_instance(2.0)
        a = Allocation(np.array([0.543, 1.457]), 2.0)
        b = Allocation(np.array([0.847, 0.153]), 1.0)
        assert total_utility(inst, "a", a, b) == pytest.approx(4.915, abs=1e-3)

    def test_worked_example_follower_utility_at_r_half(self):
        inst = worked_example_instance(0.5)
        a = Allocation(np.array([0.025, 0.475]), 0.5)
        b = Allocation(np.array([0.340, 0.660]), 1.0)
        assert total_utility(inst, "b", a, b) == pytest.approx(1.223, abs=1e-3)

    def test_single_support_shares(self):
        inst = make(1.0, 1.0, [4.0, 2.0], [6.0, 2.0])
        a = Allocation(np.array([1.0, 0.0]), 1.0)
        b = Allocation(np.array([1.0, 0.0]), 1.0)
        # battlefield 1 is split evenly; battlefield 2 is a double zero
        assert total_utility(inst, "a", a, b) == pytest.approx(2.0)
        assert total_utility(inst, "b", a, b) == pytest.approx(3.0 + 2.0)

    def test_bounds_on_random_profiles(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            inst = random_instance(rng, n)
            a = random_positive_allocation(rng, n, inst.budget_a)
            b = random_positive_allocation(rng, n, inst.budget_b)
            for player, values in (("a", inst.values_a), ("b", inst.values_b)):
                u = total_utility(inst, player, a, b)
                assert 0.0 <= u <= values.sum() + 1e-12


class TestCanonicalOrdering:
    def test_worked_example_swap(self):
        inst = make(1.0, 1.0, [5.0, 1.0], [0.5, 1.0])
        ordered, ordering = canonical_ordering(inst)
        assert list(ordering.permutation) == [1, 0]
        assert np.allclose(ordering.ratios, [1.0, 10.0])
        assert np.array_equal(ordered.values_a, [1.0, 5.0])

    def test_identity_when_sorted(self):
        inst = make(1.0, 1.0, [1.0, 5.0], [1.0, 0.5])
        _, ordering = canonical_ordering(inst)
        assert list(ordering.permutation) == [0, 1]

    def test_ties_keep_original_order(self):
        inst = make(1.0, 1.0, [2.0, 4.0, 1.0], [1.0, 2.0, 0.5])
        _, ordering = canonical_ordering(inst)
        assert list(ordering.permutation) == [0, 1, 2]

    def test_idempotent(self, rng):
        inst = random_instance(rng, 5)
        once, _ = canonical_ordering(inst)
        twice, ordering2 = canonical_ordering(once)
        assert list(ordering2.permutation) == list(range(5))
        assert np.array_equal(once.values_a, twice.values_a)

    def test_round_trip_mapping(self, rng):
        inst = random_instance(rng, 4)
        _, ordering = canonical_ordering(inst)
        vec = rng.uniform(0, 1, 4)
        assert np.allclose(ordering.to_original(ordering.to_canonical(vec)), vec)


class TestSplitMerge:
    def test_split_t1_is_identity(self):
        inst = make(1.0, 1.0, [2.0, 3.0], [1.0, 1.0])
        a = Allocation(np.array([0.4, 0.6]), 1.0)
        b = Allocation(np.array([0.5, 0.5]), 1.0)
        inst2, a2, b2 = split_battlefield(inst, 0, 1, a, b)
        assert inst2.n == 2
        assert np.allclose(inst2.values_a, inst.values_a)
        assert np.allclose(a2.amounts, a.amounts)

    def test_split_three_ways(self):
        inst = make(3.0, 1.0, [6.0, 1.0], [3.0, 1.0])
        a = Allocation(np.array([3.0, 0.0]), 3.0)
        b = Allocation(np.array([0.5, 0.5]), 1.0)
        inst2, a2, b2 = split_battlefield(inst, 0, 3, a, b)
        assert inst2.n == 4
        assert np.allclose(inst2.values_a[:3], 2.0)
        assert np.allclose(a2.amounts[:3], 1.0)
        before = total_utility(inst, "a", a, b)
        after = total_utility(inst2, "a", a2, b2)
        assert after == pytest.approx(before, rel=1e-12)

    def test_split_rejects_bad_args(self):
        inst = make(1.0, 1.0, [1.0], [1.0])
        a = Allocation(np.array([1.0]), 1.0)
        with pytest.raises(InputError):
            split_battlefield(inst, 0, 0, a, a)
        with pytest.raises(InputError):
            split_battlefield(inst, 3, 2, a, a)

    def test_merge_size_one_group_is_noop(self):
        inst = make(1.0, 1.0, [2.0, 3.0], [1.0, 1.0])
        a = Allocation(np.array([0.4, 0.6]), 1.0)
        b = Allocation(np.array([0.5, 0.5]), 1.0)
        inst2, a2, b2 = merge_battlefields(inst, [1], a, b)
        assert inst2.n == 2
        assert np.allclose(inst2.values_a, inst.values_a)
        assert np.allclose(b2.amounts, b.amounts)

    def test_merge_rejects_unequal_groups_naming_the_pair(self):
        # x_a/x_b is 1 on battlefield 0 and 1/3 on battlefield 2.
        inst = make(1.0, 1.0, [2.0, 3.0, 1.0], [1.0, 1.0, 1.0])
        a = Allocation(np.array([0.25, 0.5, 0.25]), 1.0)
        b = Allocation(np.array([0.25, 0.0, 0.75]), 1.0)
        with pytest.raises(PreconditionError) as err:
            merge_battlefields(inst, [2, 0], a, b)
        assert "battlefields 0 and 2" in str(err.value)

    def test_merge_keeps_an_idle_battlefield_apart_from_invested_ones(self):
        inst = make(1.0, 1.0, [2.0, 3.0, 1.0], [1.0, 1.0, 1.0])
        a = Allocation(np.array([0.5, 0.0, 0.5]), 1.0)
        b = Allocation(np.array([0.5, 0.0, 0.5]), 1.0)
        for group in ([0, 1], [1, 2]):
            with pytest.raises(PreconditionError, match="battlefields"):
                merge_battlefields(inst, group, a, b)
        inst2, a2, b2 = merge_battlefields(inst, [0, 2], a, b)
        assert inst2.values_a.tolist() == [3.0, 3.0]
        assert a2.amounts.tolist() == [1.0, 0.0]
        for p in "ab":
            assert total_utility(inst2, p, a2, b2) == total_utility(inst, p, a, b)

    def test_merge_accepts_one_proportion_over_unequal_values(self):
        inst = make(2.0, 1.0, [2.0, 3.0, 1.0], [1.0, 4.0, 0.5])
        a = Allocation(np.array([0.2, 1.2, 0.6]), 2.0)
        b = Allocation(np.array([0.1, 0.6, 0.3]), 1.0)
        inst2, a2, b2 = merge_battlefields(inst, [0, 1, 2], a, b)
        assert inst2.values_b.tolist() == [5.5]
        for p in "ab":
            assert total_utility(inst2, p, a2, b2) == pytest.approx(
                total_utility(inst, p, a, b), rel=1e-12
            )

    def test_split_then_merge_recovers_instance(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            inst = random_instance(rng, n)
            a = random_positive_allocation(rng, n, inst.budget_a)
            b = random_positive_allocation(rng, n, inst.budget_b)
            j = int(rng.integers(0, n))
            t = int(rng.integers(2, 5))
            inst2, a2, b2 = split_battlefield(inst, j, t, a, b)
            inst3, a3, b3 = merge_battlefields(inst2, list(range(j, j + t)), a2, b2)
            assert inst3.n == inst.n
            assert np.allclose(inst3.values_a, inst.values_a, rtol=1e-12)
            assert np.allclose(inst3.values_b, inst.values_b, rtol=1e-12)
            assert np.allclose(a3.amounts, a.amounts, rtol=1e-9, atol=1e-15)
            assert np.allclose(b3.amounts, b.amounts, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    def test_split_then_merge_at_extreme_scales(self, scale):
        inst = make(2.0 * scale, 3.0 * scale, [1.0, 2.0], [2.0, 1.0])
        a = Allocation(np.array([0.5, 1.5]) * scale, 2.0 * scale)
        b = Allocation(np.array([1.0, 2.0]) * scale, 3.0 * scale)
        inst2, a2, b2 = split_battlefield(inst, 1, 3, a, b)
        inst3, a3, b3 = merge_battlefields(inst2, [1, 2, 3], a2, b2)
        np.testing.assert_allclose(a3.amounts, a.amounts, rtol=1e-12)
        np.testing.assert_allclose(b3.amounts, b.amounts, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        t=st.integers(1, 6),
    )
    def test_utilities_invariant_under_split(self, seed, n, t):
        gen = np.random.default_rng(seed)
        inst = random_instance(gen, n)
        a = random_positive_allocation(gen, n, inst.budget_a)
        b = random_positive_allocation(gen, n, inst.budget_b)
        j = int(gen.integers(0, n))
        ua = total_utility(inst, "a", a, b)
        ub = total_utility(inst, "b", a, b)
        inst2, a2, b2 = split_battlefield(inst, j, t, a, b)
        assert total_utility(inst2, "a", a2, b2) == pytest.approx(ua, rel=1e-12)
        assert total_utility(inst2, "b", a2, b2) == pytest.approx(ub, rel=1e-12)


def representative_classes(instance):
    """Ratio classes as a loop forms them when each ratio, in canonical
    order, joins the current class if it agrees with that class's first
    ratio to RATIO_CLASS_RTOL."""
    _, ordering = canonical_ordering(instance)
    classes = []
    for j, ratio in zip(ordering.permutation.tolist(), ordering.ratios.tolist()):
        if classes and abs(ratio - rep) <= RATIO_CLASS_RTOL * max(abs(ratio), abs(rep)):
            classes[-1].append(j)
        else:
            classes.append([j])
            rep = ratio
    return tuple(tuple(c) for c in classes)


def quotient_classes(instance):
    """The battlefields of each quotient battlefield, as sorted tuples."""
    labels = ratio_quotient(instance).labels
    return [tuple(np.flatnonzero(labels == c).tolist()) for c in range(labels.max() + 1)]


TIED_CASES = [(8, 2, 20.0), (8, 16, 2.0), (8, 0, 2.0), (16, 1, 20.0), (16, 0, 20.0),
              (32, 1, 20.0), (32, 0, 0.5), (64, 0, 2.0)]
TWO_CLASS_CASES = [(n, seed) for n in (2, 16, 256, 2048) for seed in range(3)]


def quotient_corpus():
    yield from (tied_instance(*case) for case in TIED_CASES)
    yield from (two_class_instance(*case) for case in TWO_CLASS_CASES)


class TestWholeNumberArguments:
    """Battlefield indices, split_battlefield's t and the entries of
    threshold_allocation_outside_support's K take integers and integral
    floats.  int() used to truncate 1.7 and 2.9, parse "1", take True as 1,
    and raise OverflowError, ValueError or TypeError on inf, nan and None."""

    BAD = [1.7, 2.9, "1", True, np.bool_(True), float("inf"), float("nan"), None]
    CALLS = [
        "utility_per_battlefield", "follower_marginal_utility", "split_battlefield j",
        "split_battlefield t", "merge_battlefields", "threshold K",
    ]

    @staticmethod
    def call(name, x):
        """The named call with x as its index, split factor or K entry."""
        inst = make(3.0, 1.0, [1.0, 2.0, 3.0], [1.0, 5.0, 2.0])
        a = Allocation(np.array([1.0, 1.0, 1.0]), 3.0)
        b = Allocation(np.array([0.25, 0.25, 0.5]), 1.0)  # 0 and 1 in one proportion
        return {
            "utility_per_battlefield": lambda: utility_per_battlefield(inst, "a", x, a, b),
            "follower_marginal_utility": lambda: follower_marginal_utility(inst, x, 1.0, 0.5),
            "split_battlefield j": lambda: split_battlefield(inst, x, 2, a, b),
            "split_battlefield t": lambda: split_battlefield(inst, 0, x, a, b),
            "merge_battlefields": lambda: merge_battlefields(inst, [0, x], a, b),
            "threshold K": lambda: threshold_allocation_outside_support(inst, [0, x], [0.5, 0.5]),
        }[name]()

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    @pytest.mark.parametrize("name", CALLS)
    def test_non_whole_numbers_raise_input_error(self, name, bad):
        with pytest.raises(InputError, match="must be a whole number"):
            self.call(name, bad)

    @pytest.mark.parametrize("good", [1, np.int64(1), np.uint8(1), 1.0, np.float32(1.0)], ids=repr)
    @pytest.mark.parametrize("name", CALLS)
    def test_integers_and_integral_floats_behave_as_ints(self, name, good):
        got, want = self.call(name, good), self.call(name, 1)
        if isinstance(want, tuple):  # split and merge: (instance, alloc_a, alloc_b)
            got = (got[0].values_a, got[0].values_b, got[1].amounts, got[2].amounts)
            want = (want[0].values_a, want[0].values_b, want[1].amounts, want[2].amounts)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        else:
            assert got == want


class TestRatioQuotient:
    def test_rule_matches_the_representative_loop(self):
        rng = np.random.default_rng(7)
        gen = [random_instance(rng, int(n)) for n in rng.integers(1, 65, 200)]
        for inst in [*quotient_corpus(), *gen]:
            expected = representative_classes(inst)
            assert check_coincidence(inst).ratio_classes == expected
            assert sorted(quotient_classes(inst)) == sorted(tuple(sorted(c)) for c in expected)

    def test_a_chain_of_close_ratios_is_one_class(self):
        # Neighbours agree to 0.6e-9, the ends only to 1.2e-9: one class by
        # the adjacent rule, two by comparing with the first ratio.
        inst = make(1.0, 1.0, [1.0, 1.0 + 0.6e-9, 1.0 + 1.2e-9], [1.0, 1.0, 1.0])
        assert representative_classes(inst) == ((0, 1), (2,))
        quotient = ratio_quotient(inst)
        assert quotient.game.n == 1
        assert quotient.labels.tolist() == [0, 0, 0]
        assert check_coincidence(inst).ratio_classes == ((0, 1, 2),)

    def test_distinct_ratios_leave_the_instance_itself(self):
        inst = random_instance(np.random.default_rng(3), 64)
        quotient = ratio_quotient(inst)
        alloc = random_positive_allocation(np.random.default_rng(4), 64, inst.budget_a)
        assert quotient.game is inst
        spread = quotient.spread(alloc)
        assert spread is alloc
        assert spread.budget == alloc.budget
        assert spread.amounts.tobytes() == alloc.amounts.tobytes()

    def test_quotient_sums_each_class_in_ascending_ratio_order(self):
        inst = make(1.0, 1.0, [1.0, 4.0, 2.0, 3.0], [2.0, 1.0, 4.0, 0.75])
        quotient = ratio_quotient(inst)
        assert quotient.labels.tolist() == [0, 1, 0, 1]
        assert quotient.game.values_a.tolist() == [3.0, 7.0]
        assert quotient.game.values_b.tolist() == [6.0, 1.75]


def _assert_proportional_in_classes(inst, amounts):
    labels = ratio_quotient(inst).labels
    for c in range(labels.max() + 1):
        per_value = amounts[labels == c] / inst.values_a[labels == c]
        assert np.ptp(per_value) <= 1e-12 * per_value.max()


@pytest.mark.parametrize("inst", list(quotient_corpus()), ids=lambda inst: f"n{inst.n}")
class TestSolversOnTheQuotient:
    def test_commitment_spreads_whole_classes(self, inst):
        sol = optimal_commitment(inst)
        labels = ratio_quotient(inst).labels
        support = set(sol.support)
        assert support == set(np.flatnonzero(np.isin(labels, labels[list(support)])).tolist())
        _assert_proportional_in_classes(inst, sol.allocation.amounts)
        reply = best_response(inst, sol.allocation)
        assert set(reply.support) == support
        for player, reported in (("a", sol.leader_utility), ("b", sol.follower_utility)):
            realized = total_utility(inst, player, sol.allocation, reply.allocation)
            assert realized == pytest.approx(reported, rel=1e-12)

    def test_nash_spreads_whole_classes(self, inst):
        ne = solve_nash(inst)
        _assert_proportional_in_classes(inst, ne.alloc_a.amounts)
        _assert_proportional_in_classes(inst, ne.alloc_b.amounts)
        for player, reported in (("a", ne.leader_utility), ("b", ne.follower_utility)):
            realized = total_utility(inst, player, ne.alloc_a, ne.alloc_b)
            assert realized == pytest.approx(reported, rel=1e-12)
        assert _mutual_br(inst, ne.alloc_a, ne.alloc_b)
