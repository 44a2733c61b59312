"""Quadratic assignment: flow/distance instance and permutation cost."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import check_finite, is_permutation
from ..errors import InvalidPermutation
from .core import SequenceProblem


@dataclass
class QapInstance:
    """Facility flow matrix paired with a location distance matrix."""

    n: int
    flow: np.ndarray
    dist: np.ndarray
    best_known: int | None = None
    name: str = ""

    def __post_init__(self):
        self.flow = check_finite(self.flow, "flow matrix", (self.n, self.n))
        self.dist = check_finite(self.dist, "distance matrix", (self.n, self.n))


def qap_cost(inst: QapInstance, perm) -> float:
    """Assignment cost: sum of flow[i,j] * dist[perm(i), perm(j)]."""
    arr = np.asarray(perm, dtype=np.int64)
    if not is_permutation(arr, inst.n):
        raise InvalidPermutation(f"not a permutation of 1..{inst.n}")
    loc = arr - 1
    return float((inst.flow * inst.dist[np.ix_(loc, loc)]).sum())


class QapProblem(SequenceProblem):
    """Engine adapter: sequence slot i holds the location of facility i+1."""

    sense = "min"
    rotation_scope = "whole"

    def __init__(self, instance: QapInstance):
        self.instance = instance
        self.dimension = instance.n
        self.name = instance.name or f"qap{instance.n}"
        self.best_known = instance.best_known
        self._f = instance.flow
        self._d = instance.dist
        self._symmetric = (
            np.array_equal(self._f, self._f.T)
            and np.array_equal(self._d, self._d.T)
            and not np.any(np.diag(self._f))
            and not np.any(np.diag(self._d))
        )

    def batch_fitness(self, sequences: np.ndarray) -> np.ndarray:
        loc = sequences - 1
        gathered = self._d[loc[:, :, None], loc[:, None, :]]
        return (self._f[None, :, :] * gathered).sum(axis=(1, 2))

    def placement_cost(self, sequences, baits, positions) -> np.ndarray:
        """Cost of handing each row's bait location to each candidate slot.

        Symmetric instances get the exact cost change of the implied
        location swap, so the refinement step picks the best improving swap
        for the sampled bait; otherwise a one-sided interaction estimate.
        """
        loc = np.asarray(sequences) - 1
        rows = np.arange(len(loc))[:, None]
        b = (np.asarray(baits) - 1)[:, None]
        pos = np.asarray(positions)
        d_b_loc = self._d[b, loc][:, None, :]
        if self._symmetric:
            q = np.argmax(loc == b, axis=1)[:, None]
            f_diff = self._f[q] - self._f[pos]
            d_diff = self._d[loc[rows, pos][:, :, None], loc[:, None, :]] - d_b_loc
            s = (f_diff * d_diff).sum(axis=2)
            d_b_lp = self._d[b, loc[rows, pos]]
            # zero diagonals: the pair's two interaction terms are both k
            k = self._f[q, pos] * d_b_lp
            return 2.0 * (s + k + k)
        out_cost = (self._f[pos] * d_b_loc).sum(axis=2)
        in_cost = (self._f.T[pos] * self._d[loc, b][:, None, :]).sum(axis=2)
        return out_cost + in_cost
