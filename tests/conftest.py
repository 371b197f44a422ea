"""Shared fixtures and instance generators for the test suite."""

import gc
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import blotto
from blotto import Allocation, GameInstance, SolverInvariantError, check_coincidence

# Same distribution the CLI `gen` subcommand uses, so property tests and
# generated corpora exercise identical input ranges.
VALUE_LOW = 0.1
VALUE_HIGH = 10.0


def fresh_process_env():
    """os.environ with this checkout's blotto first on PYTHONPATH, for a
    fresh interpreter."""
    src = str(Path(blotto.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def random_instance(rng: np.random.Generator, n: int) -> GameInstance:
    """One random instance with budgets and values drawn U[0.1, 10]."""
    return GameInstance(
        budget_a=float(rng.uniform(VALUE_LOW, VALUE_HIGH)),
        budget_b=float(rng.uniform(VALUE_LOW, VALUE_HIGH)),
        values_a=rng.uniform(VALUE_LOW, VALUE_HIGH, n),
        values_b=rng.uniform(VALUE_LOW, VALUE_HIGH, n),
    )


def log_uniform_instance(seed):
    """n in [2, 16], log-uniform values in 1e±3 and budgets in 1e±2."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 17))
    budgets = 10.0 ** rng.uniform(-2, 2, 2)
    return GameInstance(*budgets, 10.0 ** rng.uniform(-3, 3, n), 10.0 ** rng.uniform(-3, 3, n))


def extreme_instance(seed, exponent=6):
    """n in [2, 11], values and budgets log-uniform in 1e±exponent."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    budgets = 10.0 ** rng.uniform(-exponent, exponent, 2)
    return GameInstance(
        *budgets,
        10.0 ** rng.uniform(-exponent, exponent, n),
        10.0 ** rng.uniform(-exponent, exponent, n),
    )


def random_positive_allocation(
    rng: np.random.Generator, n: int, budget: float
) -> Allocation:
    """Strictly positive point on the budget simplex."""
    weights = rng.uniform(0.05, 1.0, n)
    return Allocation(weights / weights.sum() * budget, budget)


def worked_example_instance(r: float) -> GameInstance:
    """The two-battlefield worked example: v_a=(1,5), v_b=(1,0.5), x_b=1."""
    return GameInstance(
        budget_a=r,
        budget_b=1.0,
        values_a=np.array([1.0, 5.0]),
        values_b=np.array([1.0, 0.5]),
    )


def tied_instance(n, seed, budget_a):
    """values_b = values_a times a per-battlefield draw from {0.5, 1, 2}, so
    the battlefields fall into two or three exact ratio classes."""
    rng = np.random.default_rng(seed)
    va = rng.uniform(0.1, 10.0, n)
    return GameInstance(budget_a, 1.0, va, va * rng.choice([0.5, 1.0, 2.0], n))


def two_class_instance(n, seed, scale=1.0):
    """values_b = values_a times 0.5 on even and 2 on odd battlefields, with
    values_a drawn U[0.1, 10] times scale, x_b = 1 and x_a at the
    coincidence threshold of the two ratio classes; n >= 2."""
    va = np.random.default_rng(seed).uniform(0.1, 10.0, n) * scale
    vb = va * np.where(np.arange(n) % 2 == 0, 0.5, 2.0)
    threshold = check_coincidence(GameInstance(1.0, 1.0, va, vb)).threshold
    return GameInstance(threshold, 1.0, va, vb)


def retained_by_error(call, *args):
    """(bytes, error): the SolverInvariantError that call(*args) raises,
    and the bytes tracemalloc still counts while the error is kept, after
    a garbage collection.  One unmeasured call runs first, so one-time
    allocations (caches, interned strings) are not counted."""
    with pytest.raises(SolverInvariantError):
        call(*args)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(SolverInvariantError) as info:
            call(*args)
        error = info.value
        del info
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, error
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
