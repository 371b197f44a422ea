"""End-to-end CLI tests.

Every test drives blotto.cli.main(argv) directly: exit codes are checked
against the documented contract (0 ok, 2 input error, 3 solver-invariant
failure), outputs against the library functions they wrap.
"""

import dataclasses
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from blotto import (
    Allocation,
    GameInstance,
    SolverInvariantError,
    best_response,
    check_coincidence,
    compare_equilibria,
    optimal_commitment,
    solve_nash,
)
from blotto.cli import _report, main
from conftest import fresh_process_env, random_instance

CROSSING_RATIO = 1.694050881103528  # budget ratio where SE and NE coincide
# Two valid games at the top of the float range.
TOP_OF_RANGE = {
    "budget-1e308": {"budget_a": 1e308, "budget_b": 1e-308, "values_a": [1, 2], "values_b": [1, 2]},
    "values-1e308": {
        "budget_a": 1, "budget_b": 1, "values_a": [1e308, 1.5e308], "values_b": [1e308, 1.6e308],
    },
}
# A valid game at the bottom of the float range: r = x_a / x_b underflows to 0.
BOTTOM_OF_RANGE = {
    "budget-1e-308": {"budget_a": 1e-308, "budget_b": 1e308, "values_a": [1, 2], "values_b": [1, 3]},
}

# What the one-line failure must say, beyond "solver invariant failure".
OVERFLOW_MESSAGES = {
    ("budget-1e308", "solve-nash"): "the budget ratio r = budget_a / budget_b = 1e+308 / 1e-308 overflows",
    ("budget-1e-308", "solve-nash"): "the budget ratio r = budget_a / budget_b = 1e-308 / 1e+308 underflows",
    ("budget-1e-308", "solve-commitment"): "K=[0..0]: OverflowError in CASE_1: Numerical result out of range;",
}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def worked_example_json(tmp_path, r):
    return write_json(
        tmp_path,
        f"worked_{r}.json",
        {"budget_a": r, "budget_b": 1.0, "values_a": [1.0, 5.0], "values_b": [1.0, 0.5]},
    )


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


class TestGen:
    def test_same_seed_is_byte_identical(self, tmp_path):
        code1, out1 = run_to_file(tmp_path, "a.json", ["gen", "--n", "3", "--seed", "7"])
        code2, out2 = run_to_file(tmp_path, "b.json", ["gen", "--n", "3", "--seed", "7"])
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        _, out1 = run_to_file(tmp_path, "a.json", ["gen", "--n", "3", "--seed", "7"])
        _, out2 = run_to_file(tmp_path, "b.json", ["gen", "--n", "3", "--seed", "8"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_output_is_a_valid_instance(self, tmp_path):
        code, out = run_to_file(tmp_path, "inst.json", ["gen", "--n", "4", "--seed", "3"])
        assert code == 0
        data = json.loads(out.read_text())
        assert set(data) == {"budget_a", "budget_b", "values_a", "values_b"}
        assert len(data["values_a"]) == len(data["values_b"]) == 4
        flat = [data["budget_a"], data["budget_b"], *data["values_a"], *data["values_b"]]
        assert all(0.1 <= x <= 10.0 for x in flat)
        GameInstance(
            data["budget_a"],
            data["budget_b"],
            np.array(data["values_a"]),
            np.array(data["values_b"]),
        )

    def test_rejects_n_zero(self, tmp_path, capsys):
        assert main(["gen", "--n", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rejects_a_negative_seed(self, capsys):
        # numpy's default_rng raises ValueError on it; the CLI reports the flag
        assert main(["gen", "--n", "3", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: gen requires --seed >= 0, got -1\n"


class TestSolveBr:
    def test_requires_commit_a(self, tmp_path, capsys):
        path = worked_example_json(tmp_path, 2.0)
        assert main(["solve-br", "--instance", path]) == 2
        assert "commit_a" in capsys.readouterr().err

    def test_matches_library(self, tmp_path):
        path = write_json(
            tmp_path,
            "inst.json",
            {
                "budget_a": 2.0,
                "budget_b": 1.0,
                "values_a": [1.0, 5.0],
                "values_b": [1.0, 0.5],
                "commit_a": [0.543, 1.457],
            },
        )
        code, out = run_to_file(tmp_path, "br.json", ["solve-br", "--instance", path])
        assert code == 0
        payload = json.loads(out.read_text())

        inst = GameInstance(2.0, 1.0, np.array([1.0, 5.0]), np.array([1.0, 0.5]))
        result = best_response(inst, Allocation(np.array([0.543, 1.457]), 2.0))
        np.testing.assert_allclose(
            payload["allocation"], result.allocation.amounts, rtol=1e-15
        )
        assert tuple(payload["support"]) == result.support
        assert payload["water_level"] == pytest.approx(result.water_level, rel=1e-15)


class TestSolveCommitment:
    def test_worked_example(self, tmp_path):
        path = worked_example_json(tmp_path, 2.0)
        code, out = run_to_file(tmp_path, "se.json", ["solve-commitment", "--instance", path])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["leader_utility"] == pytest.approx(4.915, abs=1e-3)
        assert payload["follower_utility"] == pytest.approx(0.657, abs=1e-3)
        np.testing.assert_allclose(payload["allocation"], [0.543, 1.457], atol=1e-3)
        assert sorted(payload["support"]) == [0, 1]
        assert payload["case_tag"] in {"CASE_1", "CASE_2_1", "CASE_2_2"}

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        path = worked_example_json(tmp_path, 2.0)
        assert main(["solve-commitment", "--instance", path]) == 0
        stdout = capsys.readouterr().out
        _, out = run_to_file(tmp_path, "se.json", ["solve-commitment", "--instance", path])
        assert stdout == out.read_text()

    def test_overflowing_budget_exits_3(self, tmp_path, capsys):
        # `gen --n 4 --seed 0` with budget_a = 1e200: x_a**2 overflows in
        # the case coefficients.  It used to crash with a bare OverflowError.
        gen_path = tmp_path / "g.json"
        assert main(["gen", "--n", "4", "--seed", "0", "--out", str(gen_path)]) == 0
        data = json.loads(gen_path.read_text())
        data["budget_a"] = 1e200
        path = write_json(tmp_path, "big.json", data)
        assert main(["solve-commitment", "--instance", path]) == 3
        err = capsys.readouterr().err
        assert "solver invariant failure" in err
        assert "OverflowError" in err

    @pytest.mark.parametrize("instance", TOP_OF_RANGE.values(), ids=TOP_OF_RANGE.keys())
    def test_top_of_the_float_range_ends_without_a_traceback(self, tmp_path, instance):
        # The prefix table's power-of-two prescale was 2**1024 here and
        # raised a bare OverflowError: exit 1 with a traceback.
        path = write_json(tmp_path, "top.json", instance)
        result = subprocess.run(
            [sys.executable, "-m", "blotto.cli", "solve-commitment", "--instance", path],
            env=fresh_process_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode in (0, 3), result.stderr
        assert "Traceback" not in result.stderr

    def test_tiled_skew_exits_3_with_every_prefix(self, tmp_path, capsys):
        # The CI skew instance's two battlefields tiled to n = 2048.
        path = write_json(tmp_path, "skew2048.json", {
            "budget_a": 2, "budget_b": 1,
            "values_a": [1e100, 5e100] * 1024, "values_b": [1e-100, 0.5e-100] * 1024,
        })
        with np.errstate(all="ignore"):
            assert main(["solve-commitment", "--instance", path]) == 3
        assert capsys.readouterr().err == (
            "solver invariant failure: no valid commitment candidate; per-prefix outcomes: "
            "K=[0..1023]: infeasible; K=[0..2047]: InputError: allocation amounts must be finite\n"
        )

    @pytest.mark.parametrize("game, command, code", [
        ("gen-1e100", "solve-commitment", 3),
        ("values-1e308", "solve-commitment", 3),
        ("values-1e308", "solve-nash", 0),
        ("budget-1e308", "solve-commitment", 3),
        ("budget-1e308", "solve-nash", 3),
        ("budget-1e-308", "solve-commitment", 3),
        ("budget-1e-308", "solve-nash", 3),
    ])
    def test_expected_overflow_prints_only_the_failure(self, tmp_path, game, command, code):
        # `gen --n 3 --seed 2` times 1e100: CASE_2_2 overflows on the way to
        # exit 3; the two games at the top of the float range overflow in
        # the case coefficients, the water filling's ratios and the Nash
        # reconstruction, and the budget game's ratio r overflows, so Nash
        # has no finite root interval.  At the bottom of the range r
        # underflows to 0, the root interval is [0, 0], and the water
        # filling's spend / root_sum overflows.  numpy's RuntimeWarnings must not
        # reach the console: stderr is the one-line failure, or empty on
        # exit 0.  A fresh process, because pytest captures warnings.
        if game == "gen-1e100":
            gen_path = tmp_path / "g.json"
            assert main(["gen", "--n", "3", "--seed", "2", "--out", str(gen_path)]) == 0
            data = json.loads(gen_path.read_text())
            for key in ("budget_a", "budget_b"):
                data[key] *= 1e100
            for key in ("values_a", "values_b"):
                data[key] = [v * 1e100 for v in data[key]]
        else:
            data = {**TOP_OF_RANGE, **BOTTOM_OF_RANGE}[game]
        path = write_json(tmp_path, "huge.json", data)
        result = subprocess.run(
            [sys.executable, "-m", "blotto.cli", command, "--instance", path],
            env=fresh_process_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == code, result.stderr
        lines = result.stderr.splitlines()
        if code == 0:
            assert lines == []
        else:
            assert len(lines) == 1, result.stderr
            assert "solver invariant failure" in lines[0]
            assert OVERFLOW_MESSAGES.get((game, command), "") in lines[0]


class TestSolveNash:
    def test_worked_example(self, tmp_path):
        path = worked_example_json(tmp_path, 2.0)
        code, out = run_to_file(tmp_path, "ne.json", ["solve-nash", "--instance", path])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["mu_star"] == pytest.approx(0.8, rel=1e-9)
        assert payload["leader_utility"] == pytest.approx(4.889, abs=1e-3)
        assert payload["follower_utility"] == pytest.approx(0.611, abs=1e-3)
        np.testing.assert_allclose(payload["alloc_a"], [0.667, 1.333], atol=1e-3)
        np.testing.assert_allclose(payload["alloc_b"], [0.833, 0.167], atol=1e-3)
        assert payload["mu_star"] in payload["candidate_roots"]

    def test_overflowing_scan_prints_nothing_to_stderr(self, tmp_path):
        # The product form overflows on most of this instance's scan; the
        # solve succeeds, and numpy's overflow warnings must not reach the
        # console.  A fresh process, because pytest captures warnings.
        inst = str(tmp_path / "g512s1.json")
        assert main(["gen", "--n", "512", "--seed", "1", "--out", inst]) == 0
        result = subprocess.run(
            [sys.executable, "-m", "blotto.cli", "solve-nash", "--instance", inst],
            env=fresh_process_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert result.stderr == ""


class TestCompare:
    def test_payload_consistency(self, tmp_path):
        path = worked_example_json(tmp_path, 2.0)
        code, out = run_to_file(tmp_path, "cmp.json", ["compare", "--instance", path])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["cor1_upper"] == pytest.approx(1.5, rel=1e-12)
        assert payload["leader_ratio"] == pytest.approx(
            payload["se"]["leader_utility"] / payload["ne"]["leader_utility"], rel=1e-12
        )
        assert payload["follower_ratio"] == pytest.approx(
            payload["se"]["follower_utility"] / payload["ne"]["follower_utility"],
            rel=1e-12,
        )
        assert 1.0 - 1e-9 <= payload["leader_ratio"] <= payload["cor1_upper"] + 1e-9

    def test_matches_library_report(self, tmp_path):
        path = worked_example_json(tmp_path, 0.5)
        _, out = run_to_file(tmp_path, "cmp.json", ["compare", "--instance", path])
        payload = json.loads(out.read_text())
        inst = GameInstance(0.5, 1.0, np.array([1.0, 5.0]), np.array([1.0, 0.5]))
        report = compare_equilibria(inst)
        assert payload["se"]["leader_utility"] == pytest.approx(
            report.se.leader_utility, rel=1e-15
        )
        assert payload["ne"]["leader_utility"] == pytest.approx(
            report.ne.leader_utility, rel=1e-15
        )


class TestSweep:
    HEADER = "r,se_u_a,se_u_b,ne_u_a,ne_u_b,coincides"

    def sweep_lines(self, tmp_path):
        path = worked_example_json(tmp_path, 1.0)
        code, out = run_to_file(
            tmp_path,
            "sweep.csv",
            [
                "sweep", "--instance", path,
                "--r-min", "0.25", "--r-max", "3.0", "--steps", "50",
            ],
        )
        assert code == 0
        return out.read_text().splitlines()

    def test_header_and_row_count(self, tmp_path):
        lines = self.sweep_lines(tmp_path)
        assert lines[0] == self.HEADER
        assert len(lines) == 51

    def test_rows_sorted_by_ratio(self, tmp_path):
        lines = self.sweep_lines(tmp_path)
        rs = [float(line.split(",")[0]) for line in lines[1:]]
        assert rs == sorted(rs)
        assert rs[0] == pytest.approx(0.25) and rs[-1] == pytest.approx(3.0)

    def test_follower_gap_changes_sign_at_crossing(self, tmp_path):
        # The follower does worse under commitment below the coincidence
        # ratio and better above it; the gap
        # se_u_b - ne_u_b must change sign across the crossing ratio.
        lines = self.sweep_lines(tmp_path)
        gaps = []
        for line in lines[1:]:
            r, _, se_b, _, ne_b, _ = line.split(",")
            gaps.append((float(r), float(se_b) - float(ne_b)))
        below = [g for r, g in gaps if r < CROSSING_RATIO]
        above = [g for r, g in gaps if r > CROSSING_RATIO]
        assert below[-1] * above[0] < 0

    def test_rejects_bad_flags(self, tmp_path, capsys):
        path = worked_example_json(tmp_path, 1.0)
        base = ["sweep", "--instance", path]
        assert main(base + ["--r-min", "0", "--r-max", "1", "--steps", "10"]) == 2
        assert main(base + ["--r-min", "0.5", "--r-max", "1", "--steps", "1"]) == 2
        assert main(base + ["--r-min", "2", "--r-max", "1", "--steps", "10"]) == 2
        errs = capsys.readouterr().err
        assert errs.count("error:") == 3

    @pytest.mark.parametrize("flag, value", [("--r-min", "nan"), ("--r-max", "inf")])
    def test_rejects_non_finite_ratio_flags(self, tmp_path, capsys, flag, value):
        path = worked_example_json(tmp_path, 1.0)
        flags = {"--r-min": "0.5", "--r-max": "2", flag: value}
        argv = ["sweep", "--instance", path, "--steps", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + [x for kv in flags.items() for x in kv]) == 2
        assert f"error: {flag} must be finite" in capsys.readouterr().err

    def test_overflowing_ratio_row_is_nan_and_the_sweep_goes_on(self, tmp_path):
        path = write_json(
            tmp_path,
            "b10.json",
            {"budget_a": 5.0, "budget_b": 10.0, "values_a": [1.0, 5.0], "values_b": [1.0, 0.5]},
        )
        code, out = run_to_file(
            tmp_path,
            "sweep.csv",
            ["sweep", "--instance", path, "--r-min", "1", "--r-max", "1e308", "--steps", "2"],
        )
        assert code == 0
        header, first, last = out.read_text().splitlines()
        assert header == self.HEADER
        assert first.startswith("1,") and "nan" not in first
        assert last == "1e+308,nan,nan,nan,nan,false"

    def test_rows_stay_finite_at_tiny_value_scales(self, tmp_path, capsys):
        # The coincidence threshold is scale-free, so no row turns nan.
        path = write_json(
            tmp_path,
            "tiny.json",
            {"budget_a": 1.0, "budget_b": 1.0, "values_a": [1e-100, 5e-100],
             "values_b": [1e-100, 0.5e-100]},
        )
        argv = ["sweep", "--instance", path, "--r-min", "0.5", "--r-max", "2", "--steps", "4"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_to_file(tmp_path, "sweep.csv", argv)
        assert code == 0
        header, *rows = out.read_text().splitlines()
        assert header == self.HEADER and len(rows) == 4
        assert not any("nan" in row for row in rows)
        assert capsys.readouterr().err == ""


class TestVerify:
    def test_passes_on_worked_example(self, tmp_path):
        path = worked_example_json(tmp_path, 2.0)
        code, out = run_to_file(
            tmp_path,
            "verify.json",
            ["verify", "--instance", path, "--resolution", "200", "--refine", "2"],
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["checks_failed"] == []
        assert payload["grid"] == {"resolution": 200, "refinement_rounds": 2}
        assert payload["solver_leader_utility"] >= payload["grid_leader_utility"] - 1e-9

    def test_coarse_grid_fails_with_diagnostics(self, tmp_path, capsys):
        # Resolution 3 cannot track the optimum to 1e-4; the report must
        # still be written and the exit status must flag the failure.
        path = worked_example_json(tmp_path, 2.0)
        code, out = run_to_file(
            tmp_path,
            "verify.json",
            ["verify", "--instance", path, "--resolution", "3", "--refine", "0"],
        )
        assert code == 3
        assert "solver invariant failure" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["checks_failed"]

    def test_resolution_below_n_exits_2(self, tmp_path, capsys):
        # Every leader grid entry is at least one unit: four battlefields
        # do not fit in three units.
        code, instance = run_to_file(tmp_path, "g.json", ["gen", "--n", "4", "--seed", "0"])
        assert code == 0
        code = main(["verify", "--instance", str(instance), "--resolution", "3"])
        assert code == 2
        assert "resolution 3 has no point with n=4" in capsys.readouterr().err


    # Valid n=3 instance whose near-optimal grid point has the non-prefix
    # support [0, 2] while the solver beats the grid (16.253951 vs 16.253923).
    OFF_PREFIX_GRID = {
        "budget_a": 8.66680661181101,
        "budget_b": 0.6950545584475625,
        "values_a": [6.686182058076243, 4.339790818625084, 5.994566344367145],
        "values_b": [8.504289029642486, 3.0589675421151736, 1.0390820929685793],
    }

    def test_grid_support_off_prefix_passes_when_the_solver_wins(self, tmp_path):
        path = write_json(tmp_path, "g.json", self.OFF_PREFIX_GRID)
        code, out = run_to_file(tmp_path, "verify.json", ["verify", "--instance", path])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["checks_failed"] == []
        assert payload["solver_leader_utility"] > payload["grid_leader_utility"]

    def test_grid_support_off_prefix_fails_when_the_grid_wins(
        self, tmp_path, monkeypatch
    ):
        # A grid that beats the solver with an off-prefix support is a
        # counterexample to the prefix theorem; verify must flag it.
        def grid_wins(instance, grid):
            return None, optimal_commitment(instance).leader_utility + 1e-6, (0, 2)

        monkeypatch.setattr("blotto.cli.oracle_commitment", grid_wins)
        path = write_json(tmp_path, "g.json", self.OFF_PREFIX_GRID)
        code, out = run_to_file(
            tmp_path, "verify.json", ["verify", "--instance", path, "--resolution", "50"]
        )
        assert code == 3
        failures = json.loads(out.read_text())["checks_failed"]
        assert (
            "grid-optimal support [0, 2] is not a prefix in canonical ratio "
            "order (positions [0, 2])"
        ) in failures

    def test_solver_support_off_prefix_fails(self, tmp_path, monkeypatch):
        def off_prefix(instance):
            return dataclasses.replace(optimal_commitment(instance), support=(0, 2))

        monkeypatch.setattr("blotto.cli.optimal_commitment", off_prefix)
        path = write_json(tmp_path, "g.json", self.OFF_PREFIX_GRID)
        code, out = run_to_file(
            tmp_path, "verify.json", ["verify", "--instance", path, "--resolution", "50"]
        )
        assert code == 3
        failures = json.loads(out.read_text())["checks_failed"]
        assert (
            "solver support [0, 2] is not a prefix in canonical ratio "
            "order (positions [0, 2])"
        ) in failures


@pytest.mark.parametrize(
    "argv, name",
    [
        pytest.param(argv, name, id=f"{argv[0]}.{name}")
        for argv, names in [
            (["solve-br"], ["best_response"]),
            (["solve-commitment"], ["optimal_commitment"]),
            (["solve-nash"], ["solve_nash"]),
            (["compare"], ["compare_equilibria"]),
            (["sweep", "--r-min", "1", "--r-max", "2", "--steps", "2"],
             ["budget_sweep", "write_sweep_csv"]),
            (["verify", "--resolution", "50"],
             ["GridSpec", "optimal_commitment", "best_response", "total_utility",
              "oracle_best_response", "oracle_commitment", "canonical_ordering"]),
        ]
        for name in names
    ],
)
def test_each_command_calls_the_solver_patched_on_the_cli_module(
    tmp_path, monkeypatch, capsys, argv, name
):
    # Solvers load on first use, and each command looks its solvers up on
    # blotto.cli when it runs, so a patch there (a test's, or the benchmark
    # tracer's) is what runs.
    def patched(*args, **kwargs):
        raise SolverInvariantError(f"patched {name}")

    monkeypatch.setattr(f"blotto.cli.{name}", patched)
    path = write_json(tmp_path, "g.json", {
        "budget_a": 2.0, "budget_b": 1.0, "values_a": [1.0, 5.0], "values_b": [1.0, 0.5],
        "commit_a": [0.5, 1.5],
    })
    assert main([argv[0], "--instance", path, *argv[1:], "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"solver invariant failure: patched {name}\n"


# The report builders the CLI had before _report, one per result type,
# each listing its type's fields by hand.
def reference_alloc(alloc):
    return [float(x) for x in alloc.amounts]


def reference_best_response(result):
    return {
        "allocation": reference_alloc(result.allocation),
        "support": list(result.support),
        "water_level": result.water_level,
    }


def reference_commitment(solution):
    return {
        "allocation": reference_alloc(solution.allocation),
        "support": list(solution.support),
        "case_tag": solution.case_tag,
        "alpha": solution.alpha,
        "y": solution.y,
        "leader_utility": solution.leader_utility,
        "follower_utility": solution.follower_utility,
    }


def reference_nash(solution):
    return {
        "mu_star": solution.mu_star,
        "alloc_a": reference_alloc(solution.alloc_a),
        "alloc_b": reference_alloc(solution.alloc_b),
        "leader_utility": solution.leader_utility,
        "follower_utility": solution.follower_utility,
        "candidate_roots": list(solution.candidate_roots),
    }


def reference_comparison(report):
    return {
        "se": reference_commitment(report.se),
        "ne": reference_nash(report.ne),
        "leader_ratio": report.leader_ratio,
        "follower_ratio": report.follower_ratio,
        "cor1_upper": report.cor1_upper,
    }


WORKED = GameInstance(2.0, 1.0, np.array([1.0, 5.0]), np.array([1.0, 0.5]))
PARITY_GAMES = {
    # name: (game, the case of its commitment).  `gen --n N --seed S` draws
    # the same game as random_instance(rng(S), N).
    "gen-64-seed-0": (lambda: random_instance(np.random.default_rng(0), 64), "CASE_2_2"),
    "gen-512-seed-1": (lambda: random_instance(np.random.default_rng(1), 512), "CASE_2_2"),
    # v_a / v_b = 1, 1, 10, 1: the quotient merges three battlefields and
    # the commitment spreads its class over them
    "tied-ratios": (lambda: GameInstance(
        1.0, 1.0, np.array([1.0, 2.0, 5.0, 3.0]), np.array([1.0, 2.0, 0.5, 3.0])
    ), "CASE_1"),
    "worked-at-threshold": (lambda: GameInstance(
        check_coincidence(WORKED).threshold, 1.0, WORKED.values_a, WORKED.values_b
    ), "CASE_2_1"),
    "case-1-winner": (lambda: random_instance(np.random.default_rng(0), 1), "CASE_1"),
    "case-2-1-winner": (lambda: random_instance(np.random.default_rng(0), 2), "CASE_2_1"),
    "case-2-2-winner": (lambda: random_instance(np.random.default_rng(1), 4), "CASE_2_2"),
}


@pytest.mark.parametrize("game, case_tag", PARITY_GAMES.values(), ids=PARITY_GAMES.keys())
def test_each_report_is_byte_identical_to_its_hand_built_payload(game, case_tag):
    # _report reads a result's fields; the builders it replaced listed them
    # by hand.  Beyond the golden corpus: every result type of one game.
    inst = game()
    report = compare_equilibria(inst)
    assert report.se.case_tag == case_tag
    reply = best_response(inst, report.se.allocation)
    for result, reference in [
        (report, reference_comparison),
        (report.se, reference_commitment),
        (report.ne, reference_nash),
        (reply, reference_best_response),
    ]:
        assert json.dumps(_report(result), indent=2, sort_keys=True) == json.dumps(
            reference(result), indent=2, sort_keys=True
        )


class TestInputErrors:
    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"budget_a": 1.0,\n "budget_b": }')
        assert main(["solve-nash", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert "malformed JSON" in err
        assert f"{path}:2:" in err  # line number of the syntax error

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[" * 100_000],
        ids=["not-utf-8", "nested-100000-deep"],
    )
    def test_unreadable_json_exits_2_without_a_traceback(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["solve-nash", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve-nash", "--instance", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_out_in_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["gen", "--n", "2", "--out", str(out)]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err

    def test_out_naming_a_directory_exits_2(self, tmp_path, capsys):
        path = worked_example_json(tmp_path, 2.0)
        assert main(["solve-commitment", "--instance", path, "--out", str(tmp_path)]) == 2
        assert f"cannot write {tmp_path}" in capsys.readouterr().err

    def test_negative_value_rejected(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "neg.json",
            {"budget_a": 1, "budget_b": 1, "values_a": [-1.0, 2.0], "values_b": [1.0, 1.0]},
        )
        assert main(["solve-commitment", "--instance", path]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"values_a": [1.0, "x"]}, "values_a"),
            ({"budget_a": [2]}, "budget_a"),
            ({"commit_a": "x"}, "commit_a"),
            ({"commit_a": {"a": 1}}, "commit_a"),
            ({"budget_a": "2.5"}, "budget_a"),
            ({"budget_b": True}, "budget_b"),
            ({"values_a": ["1", "2"]}, "values_a"),
            ({"values_b": [True, 0.5]}, "values_b"),
            ({"commit_a": ["0.5", 0.5]}, "commit_a"),
            ({"commit_a": [True, False]}, "commit_a"),
        ],
        ids=["string-value", "list-budget", "string-commit", "object-commit",
             "numeric-string-budget", "bool-budget", "numeric-string-values",
             "bool-value", "numeric-string-commit", "bool-commit"],
    )
    def test_non_numeric_field_exits_2(self, tmp_path, capsys, change, field):
        data = {"budget_a": 1.0, "budget_b": 1.0, "values_a": [1.0, 2.0],
                "values_b": [1.0, 1.0], "commit_a": [0.5, 0.5]}
        path = write_json(tmp_path, "bad.json", {**data, **change})
        assert main(["solve-br", "--instance", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f": {field}" in err
        assert "must be numeric" in err

    def test_numeric_strings_exit_2(self, tmp_path, capsys):
        # float() would read "2.5" as 2.5 and true as 1.0; JSON has numbers
        # for that, so a string or boolean field is an input error.
        path = write_json(
            tmp_path,
            "strings.json",
            {"budget_a": "2.5", "budget_b": True, "values_a": ["1", "5"],
             "values_b": [True, 0.5]},
        )
        assert main(["solve-commitment", "--instance", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ": budget_a must be numeric" in err

    def test_length_mismatch_rejected(self, tmp_path):
        path = write_json(
            tmp_path,
            "mismatch.json",
            {"budget_a": 1, "budget_b": 1, "values_a": [1.0, 2.0], "values_b": [1.0, 1.0, 1.0]},
        )
        assert main(["solve-commitment", "--instance", path]) == 2


class TestRoundTrip:
    def test_gen_solve_verify_for_100_consecutive_seeds(self, tmp_path):
        # Default verify grid, n cycling through 1..3.
        for seed in range(100):
            n = 1 + seed % 3
            code, inst = run_to_file(
                tmp_path, f"i{seed}.json", ["gen", "--n", str(n), "--seed", str(seed)]
            )
            assert code == 0
            code, _ = run_to_file(
                tmp_path, f"se{seed}.json", ["solve-commitment", "--instance", str(inst)]
            )
            assert code == 0, f"solve-commitment failed at seed {seed}"
            code, report = run_to_file(
                tmp_path, f"v{seed}.json", ["verify", "--instance", str(inst)]
            )
            failed = json.loads(report.read_text())["checks_failed"]
            assert code == 0, f"verify failed at seed {seed}: {failed}"

    def test_report_outputs_are_stable(self, tmp_path):
        path = worked_example_json(tmp_path, 2.0)
        for cmd in (["solve-commitment"], ["solve-nash"], ["compare"]):
            _, out1 = run_to_file(tmp_path, "one.json", cmd + ["--instance", path])
            _, out2 = run_to_file(tmp_path, "two.json", cmd + ["--instance", path])
            assert out1.read_bytes() == out2.read_bytes()


def test_blotto_runs_without_loading_scipy(tmp_path):
    inst = str(tmp_path / "gen.json")
    script = (
        "import sys, blotto, blotto.cli\n"
        f"inst = {inst!r}\n"
        "assert blotto.cli.main(['gen', '--n', '8', '--seed', '1', '--out', inst]) == 0\n"
        "for cmd in ('solve-nash', 'compare'):\n"
        "    assert blotto.cli.main([cmd, '--instance', inst, '--out', inst + cmd]) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=fresh_process_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
