"""The package's public names, and which modules each entry point loads.

``import blotto`` loads the data model and the best response; every other
solver module loads on the first access to one of its names (see
blotto/__init__.py and blotto/cli.py).  The loading tests run fresh
interpreters and read sys.modules, which, unlike ``-X importtime``, also
lists the modules loaded through importlib.import_module.
"""

import importlib
import json
import subprocess
import sys

import pytest

import blotto
import blotto.cli
from conftest import fresh_process_env

PACKAGE = {"blotto", "blotto.game_core", "blotto.best_response"}
CLI = PACKAGE | {"blotto.cli"}
ANALYSIS = {"blotto.analysis", "blotto.commitment", "blotto.nash"}

PRINT_LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'blotto')))\n"
)


def blotto_modules_after(script):
    """The blotto modules a fresh interpreter has loaded after script."""
    result = subprocess.run(
        [sys.executable, "-c", script + "\n" + PRINT_LOADED],
        env=fresh_process_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_import_blotto_loads_only_the_data_model():
    assert blotto_modules_after("import blotto") == PACKAGE


@pytest.mark.parametrize(
    "argv, loaded",
    [
        pytest.param(argv, loaded, id=argv[0])
        for argv, loaded in [
            (["solve-br"], CLI),
            (["solve-commitment"], CLI | {"blotto.commitment"}),
            (["solve-nash"], CLI | {"blotto.nash"}),
            (["compare"], CLI | ANALYSIS),
            (["sweep", "--r-min", "1", "--r-max", "2", "--steps", "2"], CLI | ANALYSIS),
            (["verify", "--resolution", "50"], CLI | {"blotto.commitment", "blotto.oracle"}),
            (["gen", "--n", "3"], CLI),
        ]
    ],
)
def test_each_command_loads_only_the_solvers_it_runs(tmp_path, argv, loaded):
    instance = tmp_path / "g.json"
    instance.write_text(json.dumps({
        "budget_a": 2.0, "budget_b": 1.0, "values_a": [1.0, 5.0], "values_b": [1.0, 0.5],
        "commit_a": [0.5, 1.5],
    }))
    if argv[0] != "gen":
        argv = [argv[0], "--instance", str(instance), *argv[1:]]
    argv += ["--out", str(tmp_path / "out")]
    script = f"from blotto.cli import main\nassert main({argv!r}) == 0"
    assert blotto_modules_after(script) == loaded


def test_best_response_stays_the_function_once_its_submodule_is_imported():
    # The function shares its submodule's name: a first import of the
    # submodule after the package would bind the module over it.
    script = (
        "import sys\n"
        "import blotto.best_response\n"
        "import blotto.commitment\n"
        "import blotto\n"
        "assert blotto.best_response is sys.modules['blotto.best_response'].best_response, "
        "blotto.best_response\n"
    )
    assert "blotto.commitment" in blotto_modules_after(script)


@pytest.mark.parametrize("name", blotto.__all__)
def test_public_name_is_the_object_of_its_home_module(name):
    value = getattr(blotto, name)
    home = value.__module__
    assert home.startswith("blotto.")
    assert getattr(importlib.import_module(home), name) is value


def test_star_import_and_dir_cover_every_public_name():
    script = (
        "import blotto\n"
        "listed = dir(blotto)\n"
        "namespace = {}\n"
        "exec('from blotto import *', namespace)\n"
        "assert set(blotto.__all__) <= set(listed), set(blotto.__all__) - set(listed)\n"
        "assert set(blotto.__all__) <= set(namespace), set(blotto.__all__) - set(namespace)\n"
    )
    assert blotto_modules_after(script) == PACKAGE | {
        "blotto.analysis", "blotto.commitment", "blotto.nash", "blotto.oracle"
    }


@pytest.mark.parametrize("module", [blotto, blotto.cli], ids=["blotto", "cli"])
def test_unknown_name_is_an_attribute_error(module):
    with pytest.raises(AttributeError, match="has no attribute 'no_such_solver'"):
        module.no_such_solver
    assert not hasattr(module, "no_such_solver")
