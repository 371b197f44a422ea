"""Core model for two-player lottery Colonel Blotto games.

A game instance fixes a budget and per-battlefield valuations for each of
two players: a leader (player ``"a"``) and a follower (player ``"b"``).
Both players split their budgets across the same n battlefields, and each
battlefield's value is shared in proportion to the resources invested in
it.  A battlefield that receives nothing from either side goes entirely to
the follower.

This module also provides the paper's utility-preserving game reductions.
Merging a group of battlefields into one, summing values and amounts, keeps
both utilities when both players split the group in one proportion (x_aj/x_bj
equal across it).  Both solvers work on ratio_quotient, which merges each
ratio class (battlefields whose values_a/values_b ratios agree) and spreads
amounts back in proportion to values_a, one such split.  No solver calls
split_battlefield or merge_battlefields; the tests use them to check that
the solvers respect both reductions.

Budgets, values and amounts enter through GameInstance and Allocation under
one real-number rule (_real_array, _real_scalar): Python or numpy ints and
floats pass, and bools, strings, bytes, complex numbers, None and other
objects raise InputError naming the field, from the library or the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Relative tolerance for "allocation sums to its budget" checks.
BUDGET_SUM_RTOL = 1e-9
# Negative allocation entries above this (relative to budget) are clamped to 0.
NEGATIVE_ENTRY_TOL = 1e-12
# Two values_a/values_b ratios next to each other in ascending order that
# agree to this relative tolerance share a ratio class; two battlefields
# whose x_a/x_b proportions agree to it can be merged.
RATIO_CLASS_RTOL = 1e-9

PLAYERS = ("a", "b")


class InputError(ValueError):
    """Malformed instance, allocation, or operation argument."""


class PreconditionError(InputError):
    """A documented operation precondition does not hold."""


class SolverInvariantError(RuntimeError):
    """An internal solver guarantee failed; the message carries diagnostics."""


# The real-number rule: Python or numpy ints and floats, but not bools.
_REAL_TYPES = (float, int, np.floating, np.integer)


def _is_real(value) -> bool:
    return isinstance(value, _REAL_TYPES) and not isinstance(value, bool)


def _real_array(x, name: str) -> np.ndarray:
    """x as a new float array: an ndarray of integer or float dtype, or any
    input whose scalars all pass _is_real.  Else InputError, with float()'s
    message for a scalar it cannot read.  A complex scalar is never cast:
    the cast would drop its imaginary part with only a ComplexWarning."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "iuf":
        return np.array(x, dtype=float)
    items = np.array(x, dtype=object)
    bad = [v for v in items.flat if not _is_real(v)]
    try:
        if not any(isinstance(v, (complex, np.complexfloating)) for v in bad):
            arr = items.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} must be numeric: {exc}") from exc
    if bad:
        raise InputError(f"{name} must be numeric: {bad[0]!r} is not a real number")
    return arr


def _real_scalar(value, name: str) -> float:
    """value as a float: an isinstance check, then float().  Any other value
    (or an int past the float range) raises _real_array's InputError, or
    this one when it is a sequence of reals."""
    # _is_real inlined: every Allocation passes here.
    if isinstance(value, _REAL_TYPES) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    _real_array(value, name)
    raise InputError(f"{name} must be numeric: {value!r} is not a real number")


def _positive_vector(x, name: str) -> np.ndarray:
    """x as a read-only float vector of finite, strictly positive reals."""
    arr = _real_array(x, name)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(f"{name} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise InputError(f"{name} entries must be finite and strictly positive")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GameInstance:
    """Immutable description of a game: budgets and valuation vectors.

    values_a[j] (resp. values_b[j]) is the leader's (follower's) valuation
    of battlefield j; both vectors must have the same length n >= 1 and all
    entries strictly positive, as must both budgets.
    """

    budget_a: float
    budget_b: float
    values_a: np.ndarray
    values_b: np.ndarray

    def __post_init__(self):
        for name in ("budget_a", "budget_b"):
            val = _real_scalar(getattr(self, name), name)
            if not math.isfinite(val) or val <= 0:
                raise InputError(f"{name} must be finite and strictly positive")
            object.__setattr__(self, name, val)
        va = _positive_vector(self.values_a, "values_a")
        vb = _positive_vector(self.values_b, "values_b")
        if va.size != vb.size:
            raise InputError(
                f"values_a and values_b lengths differ ({va.size} vs {vb.size})"
            )
        object.__setattr__(self, "values_a", va)
        object.__setattr__(self, "values_b", vb)

    @property
    def n(self) -> int:
        return self.values_a.size

    def values(self, player: str) -> np.ndarray:
        _check_player(player)
        return self.values_a if player == "a" else self.values_b

    def budget(self, player: str) -> float:
        _check_player(player)
        return self.budget_a if player == "a" else self.budget_b


@dataclass(frozen=True, eq=False)
class Allocation:
    """A feasible pure strategy: nonnegative amounts summing to a budget.

    Entries in (-NEGATIVE_ENTRY_TOL * budget, 0) are treated as numeric
    noise and clamped to zero; the sum must match the budget to
    BUDGET_SUM_RTOL relative.
    """

    amounts: np.ndarray
    budget: float

    def __post_init__(self):
        # Few numpy calls: every best response and every commitment
        # candidate builds one.  arr is the read-only copy from the start,
        # and its minimum decides both the negative-entry check and the clamp.
        budget = _real_scalar(self.budget, "allocation budget")
        if not math.isfinite(budget) or budget <= 0:
            raise InputError("allocation budget must be finite and strictly positive")
        arr = _real_array(self.amounts, "allocation amounts")
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("allocation amounts must be a non-empty 1-D vector")
        if not np.isfinite(arr).all():
            raise InputError("allocation amounts must be finite")
        low = float(arr.min())
        if low < -NEGATIVE_ENTRY_TOL * budget:
            j = int(np.argmin(arr))
            raise InputError(f"allocation entry {j} is negative ({arr[j]!r})")
        if low < 0:
            arr[arr < 0] = 0.0
        total = float(arr.sum())
        if abs(total - budget) > BUDGET_SUM_RTOL * budget:
            raise InputError(
                f"allocation sums to {total!r}, expected budget {budget!r}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "amounts", arr)
        object.__setattr__(self, "budget", budget)

    @property
    def n(self) -> int:
        return self.amounts.size


@dataclass(frozen=True, eq=False)
class BattlefieldOrdering:
    """Permutation sorting battlefields by ascending ratio values_a/values_b.

    ``permutation[k]`` is the original index of the battlefield at canonical
    position k; ``ratios`` holds the sorted ratio values.  Ties keep their
    original relative order, so the permutation is deterministic.
    """

    permutation: np.ndarray
    ratios: np.ndarray

    def __post_init__(self):
        ratios = np.array(self.ratios, dtype=float)
        ratios.setflags(write=False)
        object.__setattr__(self, "permutation", np.asarray(self.permutation, dtype=int))
        object.__setattr__(self, "ratios", ratios)

    def to_canonical(self, vec: np.ndarray) -> np.ndarray:
        """Reorder a per-battlefield vector into canonical position order."""
        return np.asarray(vec)[self.permutation]

    def to_original(self, vec: np.ndarray) -> np.ndarray:
        """Undo to_canonical: map a canonical-order vector back."""
        vec = np.asarray(vec)
        out = np.empty_like(vec)
        out[self.permutation] = vec
        return out


def _check_player(player: str) -> None:
    if player not in PLAYERS:
        raise InputError(f"player must be one of {PLAYERS}, got {player!r}")


def _whole_number(name: str, value) -> int:
    """value as an int, when it is an integer or an integral float; a bool,
    a string, a fraction, inf or nan raises InputError."""
    if _is_real(value) and (isinstance(value, (int, np.integer)) or float(value).is_integer()):
        return int(value)
    raise InputError(f"{name} must be a whole number, got {value!r}")


def _real_number(name: str, value) -> float:
    """value as a float, when it is a Python or numpy integer or float; a
    bool, a string, None or any other object raises InputError.  float()
    would read True as 1.0 and "2.5" as 2.5."""
    if _is_real(value):
        return _real_scalar(value, name)
    raise InputError(f"{name} must be a real number, got {value!r}")


def _check_index(instance: GameInstance, j: int) -> int:
    j = _whole_number("battlefield index", j)
    if not 0 <= j < instance.n:
        raise InputError(f"battlefield index {j} out of range [0, {instance.n})")
    return j


def _check_alloc(instance: GameInstance, alloc: Allocation, player: str) -> None:
    if alloc.n != instance.n:
        raise InputError(
            f"allocation has {alloc.n} entries, instance has {instance.n}"
        )
    budget = instance.budget(player)
    if abs(alloc.budget - budget) > BUDGET_SUM_RTOL * budget:
        raise InputError(
            f"allocation budget {alloc.budget!r} does not match player "
            f"{player!r} budget {budget!r}"
        )


def utility_vector(
    instance: GameInstance,
    player: str,
    alloc_a: Allocation,
    alloc_b: Allocation,
) -> np.ndarray:
    """Per-battlefield utilities of one player under a strategy profile.

    Battlefield j pays player i the share x_ij * v_ij / (x_aj + x_bj).
    When neither player invests in j, the follower wins the whole value
    v_bj and the leader gets nothing.
    """
    _check_player(player)
    _check_alloc(instance, alloc_a, "a")
    _check_alloc(instance, alloc_b, "b")
    xa, xb = alloc_a.amounts, alloc_b.amounts
    vals = instance.values(player)
    own = xa if player == "a" else xb
    denom = xa + xb
    safe = np.where(denom > 0, denom, 1.0)
    shares = np.where(denom > 0, own * vals / safe, 0.0)
    if player == "b":
        shares = np.where(denom > 0, shares, vals)
    return shares


def utility_per_battlefield(
    instance: GameInstance,
    player: str,
    j: int,
    alloc_a: Allocation,
    alloc_b: Allocation,
) -> float:
    """One player's utility share from battlefield j (0-based)."""
    j = _check_index(instance, j)
    return float(utility_vector(instance, player, alloc_a, alloc_b)[j])


def total_utility(
    instance: GameInstance,
    player: str,
    alloc_a: Allocation,
    alloc_b: Allocation,
) -> float:
    """Sum of per-battlefield utilities; lies in [0, sum of own values]."""
    return float(utility_vector(instance, player, alloc_a, alloc_b).sum())


def canonical_ordering(instance: GameInstance) -> tuple[GameInstance, BattlefieldOrdering]:
    """Reorder battlefields by ascending values_a/values_b.

    Returns the permuted instance together with the ordering record needed
    to map allocations between the two index frames.  The sort is stable,
    so equal ratios keep their original relative order.
    """
    ratios = instance.values_a / instance.values_b
    perm = np.argsort(ratios, kind="stable")
    ordering = BattlefieldOrdering(permutation=perm, ratios=ratios[perm])
    permuted = GameInstance(
        budget_a=instance.budget_a,
        budget_b=instance.budget_b,
        values_a=instance.values_a[perm],
        values_b=instance.values_b[perm],
    )
    return permuted, ordering


@dataclass(frozen=True, eq=False)
class RatioQuotient:
    """The ratio-class quotient of instance: game has one battlefield per
    ratio class, in ascending ratio order, whose values are the class's
    summed values, and labels[j] is the battlefield of game that holds
    battlefield j of instance.  When no two battlefields share a class,
    game is instance itself, in its own order."""

    instance: GameInstance
    game: GameInstance
    labels: np.ndarray

    def spread(self, alloc: Allocation) -> Allocation:
        """An allocation on game as one on instance: each class's amount
        split over its battlefields in proportion to values_a.  A
        one-battlefield class keeps its amount, times exactly 1.0, so when
        no two battlefields share a class, alloc itself is the answer."""
        if self.game is self.instance:
            return alloc
        share = self.instance.values_a / self.game.values_a[self.labels]
        return Allocation(alloc.amounts[self.labels] * share, alloc.budget)


def _contract(instance, order, labels, allocs=()):
    """instance and allocs with the battlefields that share a label summed
    into battlefield labels[j] of the result.  order lists the battlefields
    grouped by ascending label, each group in the order it is added up."""
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))

    def add(vec: np.ndarray) -> np.ndarray:
        return np.add.reduceat(vec[order], starts)

    game = GameInstance(instance.budget_a, instance.budget_b,
                        add(instance.values_a), add(instance.values_b))
    return game, [Allocation(add(alloc.amounts), alloc.budget) for alloc in allocs]


def ratio_quotient(instance: GameInstance) -> RatioQuotient:
    """Merge each ratio class of instance into one battlefield.

    A class is a run of ascending ratios in which each ratio agrees with
    the one before it to RATIO_CLASS_RTOL, so a class is a chain and the
    ratios of adjacent classes differ by more than that.  When both
    players split a class's amount in proportion to values_a
    (RatioQuotient.spread), each of its battlefields pays out the merged
    battlefield's shares, to the ratios' agreement.  Without a shared class
    this costs one sort of the n ratios and builds nothing.
    """
    ratios = instance.values_a / instance.values_b
    ascending = np.sort(ratios)
    joined = ascending[1:] - ascending[:-1] <= RATIO_CLASS_RTOL * ascending[1:]
    if not joined.any():
        return RatioQuotient(instance, instance, np.arange(instance.n))
    order = np.argsort(ratios, kind="stable")
    labels = np.empty(instance.n, dtype=int)
    labels[order] = np.cumsum(np.concatenate(([True], ~joined))) - 1
    game, _ = _contract(instance, order, labels)
    return RatioQuotient(instance, game, labels)


def split_battlefield(
    instance: GameInstance,
    j: int,
    t: int,
    alloc_a: Allocation,
    alloc_b: Allocation,
) -> tuple[GameInstance, Allocation, Allocation]:
    """Split battlefield j into t equal sub-battlefields.

    Each sub-battlefield carries value v_ij / t and allocation x_ij / t for
    both players, inserted in place of j.  Total utilities are unchanged.
    """
    j = _check_index(instance, j)
    t = _whole_number("split factor t", t)
    if t < 1:
        raise InputError(f"split factor t must be >= 1, got {t}")
    _check_alloc(instance, alloc_a, "a")
    _check_alloc(instance, alloc_b, "b")

    def expand(vec: np.ndarray) -> np.ndarray:
        return np.concatenate([vec[:j], np.full(t, vec[j] / t), vec[j + 1 :]])

    new_instance = GameInstance(
        budget_a=instance.budget_a,
        budget_b=instance.budget_b,
        values_a=expand(instance.values_a),
        values_b=expand(instance.values_b),
    )
    new_a = Allocation(expand(alloc_a.amounts), instance.budget_a)
    new_b = Allocation(expand(alloc_b.amounts), instance.budget_b)
    return new_instance, new_a, new_b


def merge_battlefields(
    instance: GameInstance,
    group: Iterable[int],
    alloc_a: Allocation,
    alloc_b: Allocation,
) -> tuple[GameInstance, Allocation, Allocation]:
    """Merge a group of battlefields into one, summing values and amounts.

    Requires both players to split the group in one proportion: with h the
    smallest group index, x_aj * x_bh and x_ah * x_bj agree to
    RATIO_CLASS_RTOL for every j in the group, and a battlefield that
    neither player invests in is grouped only with others like it.  Each
    battlefield of the group then pays each player the same share of its
    value as the merged one does, so both players' utilities are preserved
    whatever the values.  split_battlefield and RatioQuotient.spread make
    such groups, so merging undoes them.  The merged battlefield takes the
    position of h.
    """
    _check_alloc(instance, alloc_a, "a")
    _check_alloc(instance, alloc_b, "b")
    idx = np.array(sorted({_check_index(instance, g) for g in group}), dtype=int)
    if not idx.size:
        raise InputError("merge group must be non-empty")
    head = idx[0]
    xa, xb = alloc_a.amounts[idx], alloc_b.amounts[idx]
    # Each player's amounts scaled to a largest entry of 1: the products stay finite.
    ua, ub = xa / (xa.max() or 1.0), xb / (xb.max() or 1.0)
    cross, own = ua * ub[0], ua[0] * ub
    idle = xa + xb == 0
    apart = (np.abs(cross - own) > RATIO_CLASS_RTOL * np.maximum(cross, own)) | (idle != idle[0])
    if apart.any():
        k = int(np.argmax(apart))
        raise PreconditionError(
            f"merge hypothesis violated: battlefields {head} and {idx[k]} are split in "
            f"different proportions (x_a {xa[[0, k]].tolist()}, x_b {xb[[0, k]].tolist()})"
        )
    labels = np.cumsum(~np.isin(np.arange(instance.n), idx[1:])) - 1
    labels[idx] = labels[head]
    order = np.argsort(labels, kind="stable")
    new_instance, (new_a, new_b) = _contract(instance, order, labels, (alloc_a, alloc_b))
    return new_instance, new_a, new_b


def instance_from_dict(data) -> GameInstance:
    """Build a GameInstance from the JSON instance schema.

    Expected keys: "budget_a", "budget_b", "values_a", "values_b"; n is
    inferred from the array lengths.  GameInstance's real-number rule
    makes every number a JSON number: a string or boolean raises
    InputError naming its field.  Unknown keys
    (e.g. "commit_a") are ignored here so callers can carry extra payload.
    """
    if not isinstance(data, dict):
        raise InputError("instance JSON must be a single object")
    keys = ("budget_a", "budget_b", "values_a", "values_b")
    missing = [k for k in keys if k not in data]
    if missing:
        raise InputError(f"instance JSON missing keys: {', '.join(missing)}")
    return GameInstance(**{key: data[key] for key in keys})


def instance_to_dict(instance: GameInstance) -> dict:
    """Inverse of instance_from_dict (plain lists, JSON-ready)."""
    return {
        "budget_a": instance.budget_a,
        "budget_b": instance.budget_b,
        "values_a": [float(v) for v in instance.values_a],
        "values_b": [float(v) for v in instance.values_b],
    }
