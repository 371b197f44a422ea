"""Core model for two-player lottery Colonel Blotto games.

A game instance fixes a budget and per-battlefield valuations for each of
two players: a leader (player ``"a"``) and a follower (player ``"b"``).
Both players split their budgets across the same n battlefields, and each
battlefield's value is shared in proportion to the resources invested in
it.  A battlefield that receives nothing from either side goes entirely to
the follower.

This module also provides the utility-preserving game reductions of the
paper.  Both solvers work on ratio_quotient, which merges each ratio class
(battlefields whose values_a/values_b ratios agree) into one battlefield.
split_battlefield and merge_battlefields split one battlefield into
equal-value sub-battlefields and merge a group back together; no solver
calls those two, and the tests and the acceptance gate use them to check
that the solvers respect both reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Relative tolerance for "allocation sums to its budget" checks.
BUDGET_SUM_RTOL = 1e-9
# Negative allocation entries above this (relative to budget) are clamped to 0.
NEGATIVE_ENTRY_TOL = 1e-12
# Relative tolerance for the merge-hypothesis equality checks.
MERGE_RTOL = 1e-9
# Two values_a/values_b ratios next to each other in ascending order that
# agree to this relative tolerance share a ratio class.
RATIO_CLASS_RTOL = 1e-9

PLAYERS = ("a", "b")


class InputError(ValueError):
    """Malformed instance, allocation, or operation argument."""


class PreconditionError(InputError):
    """A documented operation precondition does not hold."""


class SolverInvariantError(RuntimeError):
    """An internal solver guarantee failed; the message carries diagnostics."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _numeric(convert, x, name: str):
    """convert(x), or an InputError naming the field when x is not numeric."""
    try:
        return convert(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} must be numeric: {exc}") from exc


def _float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _positive_vector(x, name: str) -> np.ndarray:
    arr = _numeric(_float_array, x, name)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(f"{name} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise InputError(f"{name} entries must be finite and strictly positive")
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
            val = _numeric(float, getattr(self, name), name)
            if not np.isfinite(val) or val <= 0:
                raise InputError(f"{name} must be finite and strictly positive")
            object.__setattr__(self, name, val)
        va = _positive_vector(self.values_a, "values_a")
        vb = _positive_vector(self.values_b, "values_b")
        if va.size != vb.size:
            raise InputError(
                f"values_a and values_b lengths differ ({va.size} vs {vb.size})"
            )
        object.__setattr__(self, "values_a", _readonly(va))
        object.__setattr__(self, "values_b", _readonly(vb))

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
        budget = _numeric(float, self.budget, "allocation budget")
        if not np.isfinite(budget) or budget <= 0:
            raise InputError("allocation budget must be finite and strictly positive")
        arr = _numeric(_float_array, self.amounts, "allocation amounts")
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("allocation amounts must be a non-empty 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise InputError("allocation amounts must be finite")
        floor = -NEGATIVE_ENTRY_TOL * budget
        if np.any(arr < floor):
            j = int(np.argmin(arr))
            raise InputError(f"allocation entry {j} is negative ({arr[j]!r})")
        arr = np.where(arr < 0, 0.0, arr)
        total = float(arr.sum())
        if abs(total - budget) > BUDGET_SUM_RTOL * budget:
            raise InputError(
                f"allocation sums to {total!r}, expected budget {budget!r}"
            )
        object.__setattr__(self, "amounts", _readonly(arr))
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
        perm = np.asarray(self.permutation, dtype=int)
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "ratios", _readonly(self.ratios))

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


def _check_index(instance: GameInstance, j: int) -> int:
    j = int(j)
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
        split over its battlefields in proportion to values_a.  alloc
        itself when game is instance."""
        if self.game is self.instance:
            return alloc
        share = self.instance.values_a / self.game.values_a[self.labels]
        return Allocation(alloc.amounts[self.labels] * share, alloc.budget)


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
    new_class = np.concatenate(([True], ~joined))
    starts = np.flatnonzero(new_class)
    labels = np.empty(instance.n, dtype=int)
    labels[order] = np.cumsum(new_class) - 1
    game = GameInstance(
        budget_a=instance.budget_a,
        budget_b=instance.budget_b,
        values_a=np.add.reduceat(instance.values_a[order], starts),
        values_b=np.add.reduceat(instance.values_b[order], starts),
    )
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
    t = int(t)
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


def _equal_within(x: float, y: float, rtol: float) -> bool:
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def merge_battlefields(
    instance: GameInstance,
    group: Iterable[int],
    alloc_a: Allocation,
    alloc_b: Allocation,
) -> tuple[GameInstance, Allocation, Allocation]:
    """Merge a group of battlefields into one, summing values and amounts.

    Requires the group to look like the output of a split: equal leader
    values and equal per-battlefield amounts for both players across the
    group (relative tolerance MERGE_RTOL).  Follower values may differ.
    Under that hypothesis both players' utilities are preserved.  The
    merged battlefield takes the position of the smallest group index.
    """
    _check_alloc(instance, alloc_a, "a")
    _check_alloc(instance, alloc_b, "b")
    idx = sorted({_check_index(instance, g) for g in group})
    if not idx:
        raise InputError("merge group must be non-empty")
    head = idx[0]
    checks = (
        ("values_a", instance.values_a),
        ("leader allocation", alloc_a.amounts),
        ("follower allocation", alloc_b.amounts),
    )
    for name, vec in checks:
        for g in idx[1:]:
            if not _equal_within(float(vec[head]), float(vec[g]), MERGE_RTOL):
                raise PreconditionError(
                    f"merge hypothesis violated: {name} differs between "
                    f"battlefields {head} and {g} "
                    f"({vec[head]!r} vs {vec[g]!r})"
                )

    drop = set(idx[1:])
    keep = [k for k in range(instance.n) if k not in drop]

    def contract(vec: np.ndarray) -> np.ndarray:
        out = vec[keep].copy()
        out[keep.index(head)] = vec[idx].sum()
        return out

    new_instance = GameInstance(
        budget_a=instance.budget_a,
        budget_b=instance.budget_b,
        values_a=contract(instance.values_a),
        values_b=contract(instance.values_b),
    )
    new_a = Allocation(contract(alloc_a.amounts), instance.budget_a)
    new_b = Allocation(contract(alloc_b.amounts), instance.budget_b)
    return new_instance, new_a, new_b


def instance_from_dict(data) -> GameInstance:
    """Build a GameInstance from the JSON instance schema.

    Expected keys: "budget_a", "budget_b", "values_a", "values_b"; n is
    inferred from the array lengths.  Unknown keys (e.g. "commit_a") are
    ignored here so callers can carry extra payload.
    """
    if not isinstance(data, dict):
        raise InputError("instance JSON must be a single object")
    missing = [k for k in ("budget_a", "budget_b", "values_a", "values_b") if k not in data]
    if missing:
        raise InputError(f"instance JSON missing keys: {', '.join(missing)}")
    for key in ("values_a", "values_b"):
        if not isinstance(data[key], (list, tuple)):
            raise InputError(f"instance key {key!r} must be an array of reals")
    return GameInstance(
        budget_a=data["budget_a"],
        budget_b=data["budget_b"],
        values_a=data["values_a"],
        values_b=data["values_b"],
    )


def instance_to_dict(instance: GameInstance) -> dict:
    """Inverse of instance_from_dict (plain lists, JSON-ready)."""
    return {
        "budget_a": instance.budget_a,
        "budget_b": instance.budget_b,
        "values_a": [float(v) for v in instance.values_a],
        "values_b": [float(v) for v in instance.values_b],
    }
