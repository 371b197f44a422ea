"""Every name the traced benchmark run wraps is still in the program.

perfbench/layers.py times blotto's layers by wrapping functions by name in
the module that calls them.  A wrapped name missing from its module turns
its per-layer metrics into null ("absent") on the traced run's result line,
so this fails as soon as a rename or deletion in src/ drops one.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from layers import wrap_points  # noqa: E402  (perfbench is not a package)


@pytest.mark.parametrize(
    "point", wrap_points(include_bench=False), ids=lambda p: f"{p.module}.{p.attr}"
)
def test_wrap_point_resolves_to_a_callable(point):
    module = importlib.import_module(point.module)
    assert callable(getattr(module, point.attr, None)), (
        f"{point.module} has no callable {point.attr!r}; perfbench/layers.py wraps it"
    )
