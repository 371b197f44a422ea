"""Nash equilibrium of the simultaneous game: polynomial root + closed forms."""

import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from blotto import (
    Allocation,
    GameInstance,
    InputError,
    PreconditionError,
    SolverInvariantError,
    best_response,
    check_coincidence,
    instance_from_dict,
    nash_poly,
    solve_nash,
    total_utility,
)
from blotto import nash
from blotto.game_core import ratio_quotient
from blotto.cli import main
from conftest import (
    extreme_instance,
    log_uniform_instance,
    random_instance,
    retained_by_error,
    worked_example_instance,
)
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

    def test_a_root_with_an_empty_reply_support_is_dropped(self):
        # The only root rebuilds a follower allocation whose first entry
        # swallows budget_a (budget_a + x == x in floats), so water filling
        # gives the leader's reply an empty support and _reply raises its
        # own invariant error.  The root is dropped like any other root
        # that does not reconstruct a mutual best response.
        inst = extreme_instance(295, 12)
        game = ratio_quotient(inst).game
        alloc_a, alloc_b = nash._reconstruct(game, 1.4470036034011057e-33)
        with pytest.raises(SolverInvariantError, match="empty best-response support"):
            nash._mutual_br(game, alloc_a, alloc_b)
        with pytest.raises(SolverInvariantError) as info:
            solve_nash(inst)
        assert str(info.value) == (
            "no root of f reconstructs a mutual best response; roots=[1.4470036034011057e-33]"
        )

    @staticmethod
    def roots_message(inst):
        """The "no root ... reconstructs" message for an instance whose f
        underflows to 0 on every kept grid point, so that every grid point
        of the bracket is a root."""
        game = ratio_quotient(inst).game
        grid = solve_grid(game)
        with np.errstate(over="ignore", invalid="ignore"):
            roots = grid[nash._bracket(game, grid)]
        assert not nash._poly_values(game, roots).any()
        listed = [float(mu) for mu in roots[: nash._ROOTS_IN_MESSAGE]]
        more = f" (the first {len(listed)} of {roots.size})" if roots.size > len(listed) else ""
        return f"no root of f reconstructs a mutual best response; roots={listed}{more}"

    def test_extreme_skew_error_lists_the_roots_of_the_bracket(self):
        # The CI's extreme-skew instance: f underflows to 0 at every scan
        # point, and the bracket keeps a few of them, none of which
        # reconstructs.
        va, vb = np.array([1e20, 5e20]), np.array([1e-100, 0.5e-100])
        inst = GameInstance(1.694050881103529, 1.0, va, vb)
        with pytest.raises(SolverInvariantError) as info:
            solve_nash(inst)
        assert str(info.value) == self.roots_message(inst)
        assert "(the first" not in str(info.value)

    def test_extreme_skew_error_lists_the_first_roots(self):
        # The three-root instance of test_every_mutual_best_response_root_is_located
        # with the CI's skew: the bracket's ends stay apart, so it keeps
        # about half the grid, all zeros of f, and the message lists 8.
        va = np.array([1.3728450074150764, 5.042850838157138]) * 1e20
        vb = np.array([6.0548337404712385, 0.38402118288225107]) * 1e-100
        inst = GameInstance(0.6495541124776885, 1.0, va, vb)
        with pytest.raises(SolverInvariantError) as info:
            solve_nash(inst)
        message = str(info.value)
        assert message == self.roots_message(inst)
        assert len(message) < 2000
        assert message.count(",") == 7 and "(the first 8 of " in message

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
# SolverInvariantError: the product form overflows.  (128, 0), (128, 1)
# and (512, 3) were re-recorded when the bracket took out of their
# candidate_roots the point where the product form flips from +1e307 to
# -inf, which is not a root; their selected equilibria kept every bit.
PINNED_DIGESTS = load_digests("test_nash.PINNED_DIGESTS")


def pinned_entry(n, seed):
    """PINNED_DIGESTS' entry for (n, seed)."""
    return _outcome_digest(random_instance(np.random.default_rng(seed), n))


def solve_grid(inst):
    rho = inst.values_b / inst.values_a
    r = inst.budget_a / inst.budget_b
    return np.linspace(float(rho.min()) * r, float(rho.max()) * r, nash.SCAN_CELLS + 1)


def nash_g(inst, mus):
    """G(mu) = sum_h v_bh (mu - rho_h * r) / (mu + rho_h)^2 for each mu: f
    divided by mu * prod_j (mu + rho_j)^2, so it has f's sign without the
    product form's overflow."""
    rho = inst.values_b / inst.values_a
    rho_r = rho * (inst.budget_a / inst.budget_b)
    mus = np.asarray(mus)[:, None]
    rows = max(1, 2**18 // rho.size)
    return np.concatenate([
        (inst.values_b * (mu - rho_r) / (mu + rho) ** 2).sum(axis=1)
        for mu in np.split(mus, range(rows, mus.shape[0], rows))
    ])


def whole_scan_roots(inst, grid):
    """(cell, root) for every root the sampled scan finds on all of grid:
    each zero of f at a grid point (its cell is its index) and brentq's
    root of each sign change: the reference that the solve's scan must
    match inside the bracket's cells."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = nash._poly_values(inst, grid)
        found = [(int(i), float(grid[i])) for i in np.nonzero(vals == 0)[0]]
        signs = np.sign(vals)
        for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
            try:
                root = nash.brentq(lambda m: nash_poly(inst, m), grid[i], grid[i + 1])
            except ValueError:
                continue
            found.append((int(i), float(root)))
    return found


def roots_in_kept_cells(inst):
    """The roots that the whole scan of inst's quotient finds in the cells
    that the bracket keeps, sorted."""
    game = ratio_quotient(inst).game
    grid = solve_grid(game)
    with np.errstate(over="ignore", invalid="ignore"):
        kept = nash._bracket(game, grid)
    found = whole_scan_roots(game, grid)
    return tuple(sorted({root for cell, root in found if kept.start <= cell < kept.stop - 1}))


def bracket_draws():
    """`gen` draws at n 2-2048, log-uniform draws and extreme_instance draws
    at 1e+-6 and 1e+-12."""
    for n, seeds in [(2, 30), (16, 20), (128, 20), (512, 6), (2048, 3)]:
        for seed in range(seeds):
            yield random_instance(np.random.default_rng(seed), n)
    for seed in range(100):
        yield log_uniform_instance(seed)
    for seed in range(100):
        yield extreme_instance(seed, 6)
    for seed in range(60):
        yield extreme_instance(seed, 12)


class TestBracket:
    @pytest.mark.parametrize("n, seed", [(n, seed) for n in (64, 128, 512) for seed in range(5)] + [(512, 15)])
    def test_candidate_roots_are_roots_of_the_nash_equation(self, n, seed):
        # Each listed root is a zero of f or has G (f's sign) change across
        # it within one scan cell.  Where the product form's f flips from
        # about +1e307 to -inf, G is positive on both sides: that point is
        # not a root ((128, 0), (128, 1) and (512, 3) have one; in (512, 15)
        # it falls inside the bracket, next to the root).
        inst = random_instance(np.random.default_rng(seed), n)
        try:
            roots = solve_nash(inst).candidate_roots
        except SolverInvariantError:
            return
        game = ratio_quotient(inst).game
        grid = solve_grid(game)
        cell = grid[1] - grid[0]
        for mu in roots:
            below, above = nash_g(game, [mu - cell, mu + cell])
            assert nash_poly(game, mu) == 0 or np.sign(below) != np.sign(above), mu

    def test_every_sign_change_of_g_is_kept(self):
        # G < 0 on every grid point up to the first kept one and G > 0 from
        # the last kept one on, so every root on the grid lies in the kept
        # cells.  The one-cell margins cover T's rounding:
        # extreme_instance(37, 12) iterates to the top of the interval,
        # above its root.
        for inst in bracket_draws():
            game = ratio_quotient(inst).game
            grid = solve_grid(game)
            if grid[0] == grid[-1]:
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                kept = nash._bracket(game, grid)
            assert (nash_g(game, grid[: kept.start + 1]) < 0).all(), inst
            assert (nash_g(game, grid[kept.stop - 1 :]) > 0).all(), inst

    @pytest.mark.parametrize("n, seed", [(128, 0), (128, 1), (512, 1), (512, 3)])
    def test_kept_cells_give_the_roots_of_the_whole_scan(self, n, seed):
        # Bit for bit: the solve lists exactly the roots that the scan over
        # the whole interval finds inside the bracket's cells.
        inst = random_instance(np.random.default_rng(seed), n)
        assert solve_nash(inst).candidate_roots == roots_in_kept_cells(inst)

    def test_wide_bracket_gives_the_roots_of_the_whole_scan(self):
        # The three-root instance: the ends stay apart, so the bracket
        # keeps half the grid, and the roots are those of the whole scan in
        # its cells.
        inst = GameInstance(
            budget_a=0.6495541124776885,
            budget_b=1.0,
            values_a=np.array([1.3728450074150764, 5.042850838157138]),
            values_b=np.array([6.0548337404712385, 0.38402118288225107]),
        )
        kept = nash._bracket(inst, solve_grid(inst))
        assert kept.stop - kept.start > nash.SCAN_CELLS // 2
        assert solve_nash(inst).candidate_roots == roots_in_kept_cells(inst)


def reference_bracket(game, grid):
    """_bracket as it was with numpy ends: np.clip, np.abs(...).max() and
    np.isfinite(...).all() on a (2,) array, a new (2, n) array per step."""
    rho = game.values_b / game.values_a
    r = game.budget_a / game.budget_b
    cell = grid[1] - grid[0]
    ends = grid[[0, -1]]
    for _ in range(2 * nash.SCAN_CELLS):
        w = game.values_b / np.square(ends[:, None] + rho)
        mapped = r * (w @ rho) / w.sum(axis=1)
        if not (np.isfinite(mapped).all() and mapped[0] <= mapped[1]):
            break
        inward = np.clip(mapped, ends[0], ends[1])
        moved, ends = np.abs(inward - ends).max(), inward
        if moved < cell:
            break
    first = max(0, int(np.searchsorted(grid, ends[0], "right")) - 2)
    last = min(grid.size - 1, int(np.searchsorted(grid, ends[1])) + 1)
    return slice(first, last + 1)


def reference_mutual_br(game, alloc_a, alloc_b):
    """_mutual_br as it was: the leader's reply is best_response on the
    game with the two players swapped."""
    reply_b = best_response(game, alloc_a).allocation
    if np.max(np.abs(reply_b.amounts - alloc_b.amounts)) > nash.MUTUAL_BR_RTOL * game.budget_b:
        return False
    swapped = GameInstance(game.budget_b, game.budget_a, game.values_b, game.values_a)
    reply_a = best_response(swapped, alloc_b).allocation
    return bool(
        np.max(np.abs(reply_a.amounts - alloc_a.amounts)) <= nash.MUTUAL_BR_RTOL * game.budget_a
    )


def decision(call, *args):
    """call(*args), or the class of the InputError it raises."""
    try:
        return call(*args)
    except InputError as exc:
        return type(exc)


def parity_draws():
    """`gen` draws at n 2-2048, log-uniform draws, extreme_instance draws
    at 1e+-6, and `gen --n 8` draws whose budget ratio x_a / x_b is 1e+-4,
    1e+-8 and 1e+-10."""
    for n, seeds in [(2, 20), (16, 10), (128, 6), (512, 3), (2048, 2)]:
        for seed in range(seeds):
            yield random_instance(np.random.default_rng(seed), n)
    for seed in range(40):
        yield log_uniform_instance(seed)
        yield extreme_instance(seed, 6)
    for exponent in (-10, -8, -4, 4, 8, 10):
        for seed in range(4):
            inst = random_instance(np.random.default_rng(seed), 8)
            yield GameInstance(inst.budget_b * 10.0**exponent, inst.budget_b,
                               inst.values_a, inst.values_b)


def parity_profiles(game):
    """Profiles for the mutual-best-response check: the reconstruction at
    each root in the bracket's cells, and its alloc_a moved toward the even
    split by 1e-7 and by 1e-5 of the budget, paired with alloc_b and with
    the follower's own reply, which always reaches the leader's side."""
    for mu in roots_in_kept_cells(game):
        try:
            alloc_a, alloc_b = nash._reconstruct(game, mu)
        except InputError:
            continue
        yield alloc_a, alloc_b
        for t in (1e-7, 1e-5):
            moved = (1 - t) * alloc_a.amounts + t * game.budget_a / game.n
            moved_a = Allocation(moved, game.budget_a)
            yield moved_a, alloc_b
            try:
                yield moved_a, best_response(game, moved_a).allocation
            except InputError:
                continue


class TestSuccessPathParity:
    def test_bracket_and_mutual_br_match_the_numpy_references(self):
        # Bit for bit: the float bracket keeps the reference's slice, and
        # the leader's reply through _reply decides every profile as the
        # swapped best_response did, exceptions included.
        seen = set()
        for inst in parity_draws():
            game = ratio_quotient(inst).game
            grid = solve_grid(game)
            if grid[0] == grid[-1]:
                continue
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                assert nash._bracket(game, grid) == reference_bracket(game, grid), inst
            for alloc_a, alloc_b in parity_profiles(game):
                expected = decision(reference_mutual_br, game, alloc_a, alloc_b)
                assert decision(nash._mutual_br, game, alloc_a, alloc_b) == expected, inst
                seen.add(expected)
        # Both verdicts and both ways a root is dropped are exercised.
        assert seen == {True, False, InputError, PreconditionError}


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

    def test_nan_rule_stays_inside_the_interval(self):
        # Above max rho * r every term is positive, so an overflowing mu
        # gives +inf, not the NaN of an overflowing point inside the interval.
        inst = random_instance(np.random.default_rng(1), 512)
        mu = 2 * solve_grid(inst)[-1]
        assert np.isinf(np.square(mu + inst.values_b / inst.values_a).prod())
        assert nash_poly(inst, mu) == math.inf

    def test_scan_memory_is_bounded(self):
        # The unblocked scan held about 256 MB of (4097 x n) temporaries
        # at n=2048; the blocked one reuses two small row-block buffers.
        # The kept cells span the whole grid when the bracket's ends do not
        # move, so the scan of every grid row is measured, and the solve.
        # Every ratio lies in [0.5, 0.51] and r = 1, so no row overflows.
        rng = np.random.default_rng(0)
        values_a = rng.uniform(0.1, 10.0, 2048)
        inst = GameInstance(1.0, 1.0, values_a, values_a * rng.uniform(0.5, 0.51, 2048))
        grid = solve_grid(inst)
        tracemalloc.start()
        try:
            assert np.isfinite(nash._poly_values(inst, grid)).all()
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
