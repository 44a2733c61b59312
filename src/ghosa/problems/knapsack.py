"""Multi-constraint 0/1 knapsack with permutation-threshold encoding.

A candidate is a permutation of 1..n; a threshold t turns it into a bit
vector (item i packed iff its rank value exceeds t), so the same string
yields a nested family of item sets as t sweeps 1..n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import check_finite, is_permutation
from ..errors import ConfigError, InstanceError, InvalidPermutation, ThresholdOutOfRange
from .core import SequenceProblem


@dataclass
class KnapsackInstance:
    """Profit vector, m x n weight matrix, and per-constraint capacities."""

    m: int
    n: int
    profit: np.ndarray
    weight: np.ndarray
    capacity: np.ndarray
    best_known: int | None = None
    name: str = ""

    def __post_init__(self):
        self.profit = check_finite(self.profit, "profits", (self.n,))
        self.weight = check_finite(self.weight, "weights", (self.m, self.n))
        self.capacity = check_finite(self.capacity, "capacities", (self.m,))
        for what, values in [("profits", self.profit), ("weights", self.weight),
                             ("capacities", self.capacity)]:
            if np.any(values < 0):
                raise InstanceError(f"{what} must be non-negative")


def knapsack_decode(intstring, threshold: int) -> np.ndarray:
    """Bit vector with bit i set iff the value at slot i exceeds threshold."""
    arr = np.asarray(intstring, dtype=np.int64)
    n = len(arr)
    if not is_permutation(arr, n):
        raise InvalidPermutation(f"not a permutation of 1..{n}")
    if not 1 <= threshold <= n:
        raise ThresholdOutOfRange(f"threshold must be in 1..{n}, got {threshold}")
    return (arr > threshold).astype(np.int8)


def knapsack_profit(inst: KnapsackInstance, bits) -> float:
    """Total profit of the selection, or 0 if any constraint row overflows."""
    b = np.asarray(bits, dtype=float)
    if b.shape != (inst.n,):
        raise InstanceError(f"expected {inst.n} bits, got {b.shape}")
    if np.any(inst.weight @ b > inst.capacity):
        return 0.0
    return float(inst.profit @ b)


class KnapsackProblem(SequenceProblem):
    """Engine adapter maximizing profit over permutation strings.

    ``threshold_policy`` controls decoding:

    * ``"sweep"`` (default): score a string by the best feasible profit over
      all thresholds 1..n, which is deterministic and dominates any single
      draw.
    * ``"random"``: one threshold drawn per iteration.
    * ``"fixed:K"``: constant threshold K.
    """

    sense = "max"
    rotation_scope = "whole"

    def __init__(self, instance: KnapsackInstance, threshold_policy: str = "sweep"):
        self.instance = instance
        self.dimension = instance.n
        self.name = instance.name or f"mknap{instance.m}x{instance.n}"
        self.best_known = instance.best_known
        self.threshold_policy = threshold_policy
        self._threshold = max(1, instance.n // 2)
        if threshold_policy.startswith("fixed:"):
            k = threshold_policy.split(":", 1)[1]
            if not k.isdecimal() or not 1 <= int(k) <= instance.n:
                raise ConfigError(f"fixed threshold {k!r} is not an integer in 1..{instance.n}")
            self._threshold = int(k)
        elif threshold_policy not in ("sweep", "random"):
            raise ConfigError(f"unknown threshold policy {threshold_policy!r}")

    def prepare_iteration(self, rng: np.random.Generator) -> bool | None:
        if self.threshold_policy == "random":
            self._threshold = int(rng.integers(1, self.instance.n + 1))
            return True

    def batch_fitness(self, sequences: np.ndarray) -> np.ndarray:
        if self.threshold_policy == "sweep":
            return self._sweep_profit(sequences)
        inst = self.instance
        bits = (sequences > self._threshold).astype(float)
        loads = bits @ inst.weight.T
        feasible = np.all(loads <= inst.capacity[None, :], axis=1)
        return np.where(feasible, bits @ inst.profit, 0.0)

    def _sweep_profit(self, sequences: np.ndarray) -> np.ndarray:
        # Items sorted by descending slot value form a nested chain of
        # selections; the best feasible prefix is the sweep profit.
        inst = self.instance
        order = np.argsort(-sequences, axis=1, kind="stable")
        prof = np.cumsum(inst.profit[order], axis=1)
        loads = np.cumsum(inst.weight.T[order], axis=1)
        feasible = np.all(loads <= inst.capacity[None, None, :], axis=2)
        best = np.max(np.where(feasible, prof, 0.0), axis=1)
        return np.maximum(best, 0.0)
