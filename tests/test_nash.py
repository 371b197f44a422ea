"""Nash equilibrium of the simultaneous game: polynomial root + closed forms."""

import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from blotto import (
    GameInstance,
    InputError,
    SolverInvariantError,
    best_response,
    check_coincidence,
    instance_from_dict,
    nash_poly,
    solve_nash,
    total_utility,
)
from blotto import nash
from blotto.cli import main
from conftest import random_instance, retained_by_error, worked_example_instance
from record_digests import load_digests


class TestNashPoly:
    def test_single_battlefield_root(self):
        inst = GameInstance(
            budget_a=3.0, budget_b=2.0, values_a=np.array([2.0]), values_b=np.array([5.0])
        )
        root = (5.0 / 2.0) * (3.0 / 2.0)
        assert nash_poly(inst, root) == pytest.approx(0.0, abs=1e-12)
        assert solve_nash(inst).mu_star == pytest.approx(root, rel=1e-9)

    def test_uniform_ratio_root(self):
        inst = GameInstance(
            budget_a=2.0,
            budget_b=4.0,
            values_a=np.array([1.0, 3.0]),
            values_b=np.array([2.0, 6.0]),
        )
        # every ratio is 2, so the root is 2 * (x_a/x_b) = 1
        assert nash_poly(inst, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert solve_nash(inst).mu_star == pytest.approx(1.0, rel=1e-9)

    def test_sign_change_across_the_interval(self):
        inst = worked_example_instance(0.5)
        rho_r = inst.values_b / inst.values_a * (inst.budget_a / inst.budget_b)
        assert nash_poly(inst, float(rho_r.min())) < 0.0
        assert nash_poly(inst, float(rho_r.max())) > 0.0

    def test_rejects_nonpositive_mu(self):
        inst = worked_example_instance(1.0)
        for mu in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(InputError):
                nash_poly(inst, mu)


class TestSolveNash:
    def test_worked_example_r_half(self):
        sol = solve_nash(worked_example_instance(0.5))
        assert np.allclose(sol.alloc_a.amounts, [0.025, 0.475], atol=1e-3)
        assert np.allclose(sol.alloc_b.amounts, [0.340, 0.660], atol=1e-3)
        assert sol.leader_utility == pytest.approx(2.161, abs=1e-3)
        assert sol.follower_utility == pytest.approx(1.223, abs=1e-3)

    def test_worked_example_r2(self):
        sol = solve_nash(worked_example_instance(2.0))
        assert np.allclose(sol.alloc_a.amounts, [0.667, 1.333], atol=1e-3)
        assert np.allclose(sol.alloc_b.amounts, [0.833, 0.167], atol=1e-3)
        assert sol.leader_utility == pytest.approx(4.889, abs=1e-3)
        assert sol.follower_utility == pytest.approx(0.611, abs=1e-3)
        # the root is exactly 0.8 for this instance (both terms cancel)
        assert sol.mu_star == pytest.approx(0.8, rel=1e-9)

    def test_uniform_ratio_is_proportional(self):
        inst = GameInstance(
            budget_a=2.0,
            budget_b=4.0,
            values_a=np.array([1.0, 3.0]),
            values_b=np.array([2.0, 6.0]),
        )
        sol = solve_nash(inst)
        assert np.allclose(sol.alloc_a.amounts, [0.5, 1.5], rtol=1e-9)
        assert np.allclose(sol.alloc_b.amounts, [1.0, 3.0], rtol=1e-9)
        share = inst.budget_a / (inst.budget_a + inst.budget_b)
        assert sol.leader_utility == pytest.approx(share * inst.values_a.sum(), rel=1e-9)
        assert sol.follower_utility == pytest.approx(
            (1 - share) * inst.values_b.sum(), rel=1e-9
        )

    def test_mutual_best_response(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 6))
            inst = random_instance(rng, n)
            sol = solve_nash(inst)
            reply_b = best_response(inst, sol.alloc_a)
            assert np.allclose(
                reply_b.allocation.amounts,
                sol.alloc_b.amounts,
                atol=1e-6 * inst.budget_b,
            )
            swapped = GameInstance(
                budget_a=inst.budget_b,
                budget_b=inst.budget_a,
                values_a=inst.values_b,
                values_b=inst.values_a,
            )
            reply_a = best_response(swapped, sol.alloc_b)
            assert np.allclose(
                reply_a.allocation.amounts,
                sol.alloc_a.amounts,
                atol=1e-6 * inst.budget_a,
            )

    def test_interval_membership_and_residual(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 6))
            inst = random_instance(rng, n)
            sol = solve_nash(inst)
            rho_r = inst.values_b / inst.values_a * (inst.budget_a / inst.budget_b)
            assert rho_r.min() - 1e-12 <= sol.mu_star <= rho_r.max() + 1e-12
            scale = max(
                abs(nash_poly(inst, float(rho_r.min()))),
                abs(nash_poly(inst, float(rho_r.max()))),
                1e-30,
            )
            assert abs(nash_poly(inst, sol.mu_star)) <= 1e-9 * scale

    def test_allocations_positive_and_on_budget(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            inst = random_instance(rng, n)
            sol = solve_nash(inst)
            assert np.all(sol.alloc_a.amounts > 0)
            assert np.all(sol.alloc_b.amounts > 0)
            assert sol.alloc_a.amounts.sum() == pytest.approx(inst.budget_a, rel=1e-9)
            assert sol.alloc_b.amounts.sum() == pytest.approx(inst.budget_b, rel=1e-9)

    def test_leader_floor(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 6))
            inst = random_instance(rng, n)
            sol = solve_nash(inst)
            floor = inst.budget_a / (inst.budget_a + inst.budget_b) * inst.values_a.sum()
            assert sol.leader_utility >= floor - 1e-9

    def test_budget_scale_invariance(self, rng):
        inst = random_instance(rng, 3)
        sol = solve_nash(inst)
        c = 5.0
        scaled = GameInstance(
            budget_a=c * inst.budget_a,
            budget_b=c * inst.budget_b,
            values_a=inst.values_a,
            values_b=inst.values_b,
        )
        sol_c = solve_nash(scaled)
        assert sol_c.mu_star == pytest.approx(sol.mu_star, rel=1e-9)
        assert sol_c.leader_utility == pytest.approx(sol.leader_utility, rel=1e-9)
        assert sol_c.follower_utility == pytest.approx(sol.follower_utility, rel=1e-9)
        assert np.allclose(sol_c.alloc_a.amounts, c * sol.alloc_a.amounts, rtol=1e-9)

    def test_utilities_match_reconstruction(self, rng):
        inst = random_instance(rng, 4)
        sol = solve_nash(inst)
        assert sol.leader_utility == pytest.approx(
            total_utility(inst, "a", sol.alloc_a, sol.alloc_b), rel=1e-12
        )
        assert sol.follower_utility == pytest.approx(
            total_utility(inst, "b", sol.alloc_a, sol.alloc_b), rel=1e-12
        )

    def test_candidate_roots_include_the_winner(self, rng):
        inst = random_instance(rng, 3)
        sol = solve_nash(inst)
        assert any(
            abs(root - sol.mu_star) <= 1e-9 * max(1.0, sol.mu_star)
            for root in sol.candidate_roots
        )


class TestSolverFailures:
    """Instances on which the product-form polynomial overflows.  solve_nash
    may fail on them, but only with SolverInvariantError (CLI exit 3):
    an overflowed root that rebuilds an invalid allocation is dropped, not
    reported as an input error."""

    @pytest.mark.parametrize("n, seed", [(64, 25), (128, 0), (256, 0)])
    def test_mutual_best_response_or_invariant_error(self, tmp_path, n, seed):
        path = tmp_path / "inst.json"
        assert main(["gen", "--n", str(n), "--seed", str(seed), "--out", str(path)]) == 0
        inst = instance_from_dict(json.loads(path.read_text()))
        try:
            sol = solve_nash(inst)
        except SolverInvariantError:
            pass
        else:
            reply_b = best_response(inst, sol.alloc_a).allocation.amounts
            assert np.max(np.abs(reply_b - sol.alloc_b.amounts)) <= (
                nash.MUTUAL_BR_RTOL * inst.budget_b
            )
            swapped = GameInstance(
                budget_a=inst.budget_b,
                budget_b=inst.budget_a,
                values_a=inst.values_b,
                values_b=inst.values_a,
            )
            reply_a = best_response(swapped, sol.alloc_b).allocation.amounts
            assert np.max(np.abs(reply_a - sol.alloc_a.amounts)) <= (
                nash.MUTUAL_BR_RTOL * inst.budget_a
            )
        out = tmp_path / "ne.json"
        assert main(["solve-nash", "--instance", str(path), "--out", str(out)]) in (0, 3)

    def test_underflowing_reconstruction_raises_without_a_warning(self):
        # The worked example at its threshold with v_a times 1e20 and v_b
        # times 1e-100: every root's weights w underflow to 0, and 0 / 0
        # rebuilds a nan allocation, which Allocation rejects.
        va, vb = np.array([1.0, 5.0]), np.array([1.0, 0.5])
        r = check_coincidence(GameInstance(1.0, 1.0, va, vb)).threshold
        inst = GameInstance(r, 1.0, va * 1e20, vb * 1e-100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverInvariantError, match="no root of f reconstructs"):
                solve_nash(inst)

    def test_root_refinement_error_means_no_root_in_the_cell(self, monkeypatch):
        def nan_inside(*args, **kwargs):
            raise ValueError("The function value at x=1 is NaN; solver cannot continue.")

        monkeypatch.setattr(nash, "brentq", nan_inside)
        with pytest.raises(SolverInvariantError):
            solve_nash(worked_example_instance(0.5))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("n, seed", [(512, 0), (2048, 0)])
def test_a_kept_error_holds_its_message_not_the_scan(n, seed):
    # The error's traceback must not keep the solve: the scan grid, its
    # values and signs alone are 106 KiB at n = 512 and 130 KiB at 2048.
    held, error = retained_by_error(solve_nash, random_instance(np.random.default_rng(seed), n))
    assert str(error).startswith("no sign change of f on [")
    assert held <= 8 * 1024


def root_outcome(root_finder, f, xa, xb, **kwargs):
    """The root's exact bits, or the ValueError message."""
    try:
        return float(root_finder(f, xa, xb, **kwargs)).hex()
    except ValueError as exc:
        return f"ValueError: {exc}"


CLOSED_FORMS = {
    "zero at left endpoint": (lambda x: x * (x - 0.7), 0.0, 0.5),
    "zero at right endpoint": (lambda x: x * (x - 0.7), -0.5, 0.0),
    "same-sign endpoints": (lambda x: x * (x - 0.7), 1.0, 2.0),
    "NaN inside the bracket": (lambda x: math.nan if abs(x - 0.3) < 0.05 else x - 0.3, 0.0, 1.0),
    "NaN at an endpoint": (lambda x: math.nan if x > 0.9 else x - 0.3, 0.0, 1.0),
    "cubic": (lambda x: x**3 - 2.0, 0.0, 3.0),
    "steep tanh": (lambda x: math.tanh(50.0 * (x - 0.123)), -1.0, 1.0),
    "step": (lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0),
    # the extrapolation divisor underflows to 0: C divides to inf/NaN and bisects
    "tiny cubic": (lambda x: 1e-300 * (x**3 - 2.0), 0.0, 3.0),
    "plateau then ramp": (lambda x: max(0.0, x - 0.4) - 1e-3, 0.0, 1.0),
    "cosine": (math.cos, 0.0, 3.0),
}


class TestBrentq:
    """nash.brentq is a port of scipy.optimize.brentq and must match it bit
    for bit, so that Nash reports do not depend on which one ran."""

    @pytest.mark.parametrize("n", [3, 16, 64, 512])
    def test_matches_scipy_on_the_cells_of_solve_nash(self, tmp_path, monkeypatch, n):
        scipy_brentq = pytest.importorskip("scipy.optimize").brentq
        port = nash.brentq
        compared = []

        def both(f, xa, xb):
            ours = root_outcome(port, f, xa, xb)
            assert ours == root_outcome(scipy_brentq, f, xa, xb, rtol=nash.ROOT_RTOL), (xa, xb)
            compared.append(ours)
            return port(f, xa, xb)

        monkeypatch.setattr(nash, "brentq", both)
        for seed in range(4):
            path = tmp_path / f"gen{seed}.json"
            assert main(["gen", "--n", str(n), "--seed", str(seed), "--out", str(path)]) == 0
            try:
                solve_nash(instance_from_dict(json.loads(path.read_text())))
            except SolverInvariantError:
                pass
        assert compared

    @pytest.mark.parametrize("case", sorted(CLOSED_FORMS))
    def test_matches_scipy_on_closed_forms(self, case):
        scipy_brentq = pytest.importorskip("scipy.optimize").brentq
        f, xa, xb = CLOSED_FORMS[case]
        assert root_outcome(nash.brentq, f, xa, xb) == root_outcome(scipy_brentq, f, xa, xb, rtol=nash.ROOT_RTOL)

    def test_endpoint_zero_is_the_root(self):
        f = CLOSED_FORMS["zero at left endpoint"][0]
        assert nash.brentq(f, 0.0, 0.5) == 0.0
        assert nash.brentq(f, 0.7, 2.0) == 0.7

    @pytest.mark.parametrize("case", ["same-sign endpoints", "NaN inside the bracket"])
    def test_raises_value_error(self, case):
        f, xa, xb = CLOSED_FORMS[case]
        with pytest.raises(ValueError):
            nash.brentq(f, xa, xb)

    def test_iteration_cap_is_a_solver_invariant_error(self, monkeypatch):
        monkeypatch.setattr(nash, "BRENT_MAXITER", 1)
        with pytest.raises(SolverInvariantError, match="did not converge"):
            nash.brentq(lambda x: x**3 - 2.0, 0.0, 3.0)
        with pytest.raises(SolverInvariantError, match="did not converge"):
            solve_nash(worked_example_instance(0.5))


def _outcome_digest(inst) -> str:
    """sha256 prefix of solve_nash's whole result: the bytes of both
    allocations, mu_star, candidate_roots and both utilities; or, when the
    solve raises, the exception class and message."""
    try:
        sol = solve_nash(inst)
    except SolverInvariantError as exc:
        return hashlib.sha256(f"{type(exc).__name__}: {exc}".encode()).hexdigest()[:16]
    h = hashlib.sha256(sol.alloc_a.amounts.tobytes())
    h.update(sol.alloc_b.amounts.tobytes())
    fields = (sol.mu_star, sol.candidate_roots, sol.leader_utility, sol.follower_utility)
    h.update(repr(fields).encode())
    return h.hexdigest()[:16]


# _outcome_digest of the `blotto gen --n N --seed S` instance, recorded at
# commit 9387141 (unblocked product-form scan) and kept in
# tests/digests.json.  Beyond the golden corpus, which stops at n=16; every
# bit must stay.  (512, 0), (512, 2), (512, 4) and (2048, 0) pin a
# SolverInvariantError: the product form overflows.
PINNED_DIGESTS = load_digests("test_nash.PINNED_DIGESTS")


def pinned_entry(n, seed):
    """PINNED_DIGESTS' entry for (n, seed)."""
    return _outcome_digest(random_instance(np.random.default_rng(seed), n))


# First overflowing row of the solve grid of `blotto gen --n N --seed S`:
# none (all 4097 rows kept), inside the scan's second row block, a few
# rows, and row 0.
CUT_CASES = {(128, 3): 4097, (128, 0): 646, (512, 0): 34, (2048, 0): 2, (2048, 25): 0}


def solve_grid(inst):
    rho = inst.values_b / inst.values_a
    r = inst.budget_a / inst.budget_b
    return np.linspace(float(rho.min()) * r, float(rho.max()) * r, nash.SCAN_CELLS + 1)


def product_form_rows(inst, grid):
    """The row products and f on every grid row, evaluated one row at a
    time in the product form's operation order: no blocks and no cut."""
    rho = inst.values_b / inst.values_a
    rho_r = rho * (inst.budget_a / inst.budget_b)
    full, vals = np.empty(grid.size), np.empty(grid.size)
    for i, mu in enumerate(grid):
        sq = np.square(mu + rho)
        full[i] = sq.prod()
        vals[i] = mu * (inst.values_b * (mu - rho_r) * full[i] / sq).sum()
    return full, vals


def assert_cut_scan_is_exact(inst, grid, cut):
    """The overflowing rows are exactly the suffix from `cut`, and the cut
    scan equals the product form on every row."""
    full, reference = product_form_rows(inst, grid)
    assert nash._first_overflow(inst.values_b / inst.values_a, grid) == cut
    assert not np.isinf(full[:cut]).any() and np.isinf(full[cut:]).all()
    finite = ~np.isnan(reference)
    values = nash._scan_values(inst, grid)
    assert np.array_equal(values, reference, equal_nan=True)
    assert np.array_equal(np.signbit(values[finite]), np.signbit(reference[finite]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestLargeN:
    @pytest.mark.parametrize("n, seed", sorted(PINNED_DIGESTS))
    def test_gen_instance_output_is_bit_identical(self, n, seed):
        assert pinned_entry(n, seed) == PINNED_DIGESTS[n, seed]

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 513, 2049, 70000])
    def test_scan_blocks_match_single_point_evaluations(self, n):
        # Grid lengths are not a multiple of the block row count; at
        # n=70000 one row alone exceeds the element budget.
        inst = random_instance(np.random.default_rng(n), n)
        rho_r = inst.values_b / inst.values_a * (inst.budget_a / inst.budget_b)
        length = 3 if n > nash._SCAN_BLOCK_ELEMENTS else nash.SCAN_CELLS + 1
        grid = np.linspace(0.5 * rho_r.min(), 2.0 * rho_r.max(), length)
        single = np.array([nash_poly(inst, mu) for mu in grid])
        rows = max(1, nash._SCAN_BLOCK_ELEMENTS // n)
        assert rows == 1 or length % rows
        blocked = nash._poly_values(inst, grid)
        assert np.array_equal(blocked, single, equal_nan=True)
        assert np.array_equal(np.signbit(blocked), np.signbit(single))

    @pytest.mark.parametrize("n, seed", sorted(CUT_CASES))
    def test_cut_scan_matches_the_product_form_on_every_row(self, n, seed):
        inst = random_instance(np.random.default_rng(seed), n)
        assert_cut_scan_is_exact(inst, solve_grid(inst), CUT_CASES[n, seed])

    def test_cut_on_a_block_boundary(self):
        # The (128, 0) solve grid, resampled so that its first overflowing
        # row is the first row after the scan's first block.
        inst = random_instance(np.random.default_rng(0), 128)
        grid = solve_grid(inst)
        cut, boundary = CUT_CASES[128, 0], nash._SCAN_BLOCK_ELEMENTS // 128
        grid = np.concatenate([
            np.linspace(grid[0], grid[cut - 1], boundary),
            np.linspace(grid[cut], grid[-1], grid.size - boundary),
        ])
        assert_cut_scan_is_exact(inst, grid, boundary)

    def test_nan_rule_stays_inside_the_interval(self):
        # Above max rho * r every term is positive, so an overflowing mu
        # gives +inf, not the NaN the scan takes for its overflowing rows.
        inst = random_instance(np.random.default_rng(1), 512)
        mu = 2 * solve_grid(inst)[-1]
        assert np.isinf(np.square(mu + inst.values_b / inst.values_a).prod())
        assert nash_poly(inst, mu) == math.inf

    def test_scan_memory_is_bounded(self):
        # The unblocked scan held about 256 MB of (4097 x n) temporaries
        # at n=2048; the blocked one reuses two small row-block buffers.
        # Every ratio lies in [0.5, 0.51] and r = 1, so no row product
        # overflows and all 4097 rows are scanned.
        rng = np.random.default_rng(0)
        values_a = rng.uniform(0.1, 10.0, 2048)
        inst = GameInstance(1.0, 1.0, values_a, values_a * rng.uniform(0.5, 0.51, 2048))
        rho = inst.values_b / inst.values_a
        assert nash._first_overflow(rho, solve_grid(inst)) == nash.SCAN_CELLS + 1
        tracemalloc.start()
        try:
            solve_nash(inst)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_worker_fault_reaches_the_caller(self):
        # Only the last row overflows ((mu + rho)^2 at mu=1e200), and the
        # scan must raise under the caller's error state rather than leave
        # that row unfilled.
        inst = worked_example_instance(1.0)
        grid = np.append(np.linspace(0.5, 2.0, 63), 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            values = nash._poly_values(inst, grid)
        assert np.isfinite(values[:-1]).all() and not np.isfinite(values[-1])
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            nash._poly_values(inst, grid)


def test_overflowing_scan_records_no_warning():
    # gen --n 512 --seed 1: most scan points overflow, and the solve succeeds.
    inst = random_instance(np.random.default_rng(1), 512)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_nash(inst)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the sampled sign scan misses two roots 2.4e-4 apart inside one scan cell"
))
def test_every_mutual_best_response_root_is_located():
    inst = GameInstance(
        budget_a=0.6495541124776885,
        budget_b=1.0,
        values_a=np.array([1.3728450074150764, 5.042850838157138]),
        values_b=np.array([6.0548337404712385, 0.38402118288225107]),
    )
    roots = solve_nash(inst).candidate_roots
    assert len(roots) == 3
    assert roots == pytest.approx([0.2134611364, 0.2137051540, 1.6004281984], rel=1e-9)
