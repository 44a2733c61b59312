"""Symmetric TSP: instance container, metric handling, tour evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..base import check_finite, is_permutation
from ..errors import InstanceError, InvalidTour, UnsupportedEdgeWeightType
from .core import SequenceProblem

EARTH_RADIUS = 6378.388

SUPPORTED_METRICS = ("EUC_2D", "ATT", "GEO", "EXPLICIT", "EUCLID_RAW")


def _geo_radians(values: np.ndarray) -> np.ndarray:
    # TSPLIB degrees.minutes encoding: integer part is degrees, the decimals
    # are minutes out of 60.
    deg = np.trunc(values)
    minutes = values - deg
    return math.pi * (deg + 5.0 * minutes / 3.0) / 180.0


def _geo_matrix(coords: np.ndarray) -> np.ndarray:
    lat = _geo_radians(coords[:, 0])
    lon = _geo_radians(coords[:, 1])
    q1 = np.cos(lon[:, None] - lon[None, :])
    q2 = np.cos(lat[:, None] - lat[None, :])
    q3 = np.cos(lat[:, None] + lat[None, :])
    arg = np.clip(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3), -1.0, 1.0)
    d = EARTH_RADIUS * np.arccos(arg)
    d = np.floor(d + 1.0)
    np.fill_diagonal(d, 0.0)
    return d


def _euclid_matrix(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def _att_matrix(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    r = np.sqrt((diff**2).sum(axis=2) / 10.0)
    t = np.rint(r)
    return np.where(t < r, t + 1.0, t)


@dataclass
class TspInstance:
    """City set with a declared metric and optional published optimum."""

    n: int
    coords: np.ndarray | None = None
    metric: str = "EUC_2D"
    matrix: np.ndarray | None = None
    best_known: float | None = None
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.metric not in SUPPORTED_METRICS:
            raise UnsupportedEdgeWeightType(f"metric {self.metric!r} not supported")
        if self.coords is not None:
            self.coords = check_finite(self.coords, "coordinates", (self.n, 2))
        if self.metric == "EXPLICIT":
            if self.matrix is None:
                raise InstanceError("EXPLICIT metric requires a distance matrix")
            self.matrix = check_finite(self.matrix, "distance matrix", (self.n, self.n))
        elif self.coords is None:
            raise InstanceError(f"{self.metric} metric requires coordinates")

    def distance_matrix(self) -> np.ndarray:
        """Pairwise distances under the declared metric."""
        if "D" in self._cache:
            return self._cache["D"]
        if self.metric == "EXPLICIT":
            d = self.matrix
        elif self.metric == "EUC_2D":
            d = np.rint(_euclid_matrix(self.coords))
        elif self.metric == "EUCLID_RAW":
            d = _euclid_matrix(self.coords)
        elif self.metric == "ATT":
            d = _att_matrix(self.coords)
        else:  # GEO; other metrics are rejected in __post_init__
            d = _geo_matrix(self.coords)
        self._cache["D"] = d
        return d

    def with_metric(self, metric: str) -> "TspInstance":
        return TspInstance(
            n=self.n,
            coords=None if self.coords is None else self.coords.copy(),
            metric=metric,
            matrix=None if self.matrix is None else self.matrix.copy(),
            best_known=self.best_known,
            name=self.name,
        )


def _check_tour(inst: TspInstance, tour) -> np.ndarray:
    arr = np.asarray(tour, dtype=np.int64)
    if not is_permutation(arr, inst.n):
        raise InvalidTour(f"tour is not a permutation of 1..{inst.n}")
    return arr


def tsp_tour_length(inst: TspInstance, tour) -> float:
    """Closed-tour length under the instance's declared metric."""
    arr = _check_tour(inst, tour) - 1
    d = inst.distance_matrix()
    return float(d[arr, np.roll(arr, -1)].sum())


class TspProblem(SequenceProblem):
    """Engine adapter: tours as permutations of 1..n, insertion heuristic."""

    sense = "min"
    rotation_scope = "segment"

    def __init__(self, instance: TspInstance):
        self.instance = instance
        self.dimension = instance.n
        self.name = instance.name or f"tsp{instance.n}"
        self.best_known = instance.best_known
        # the kernels gather through flat indices: the distance between
        # cities i and j (1..n) is _flat_d[i*n + j - (n+1)]
        self._flat_d = np.ascontiguousarray(instance.distance_matrix()).reshape(-1)

    def batch_fitness(self, sequences: np.ndarray) -> np.ndarray:
        n = self.dimension
        flat = np.multiply(sequences, n, dtype=np.intp)
        flat[:, :-1] += sequences[:, 1:]
        flat[:, -1] += sequences[:, 0]
        flat -= n + 1
        return self._flat_d.take(flat).sum(axis=1)

    def placement_cost(self, sequences, baits, positions) -> np.ndarray:
        # Insertion delta for the bait city ahead of each candidate slot;
        # slot 0 follows the row's own last city.
        seq = np.asarray(sequences)
        n, length = self.dimension, seq.shape[1]
        row_start = length * np.arange(len(seq))[:, None]
        nxt = seq.reshape(-1).take(positions + row_start)
        prv = seq.reshape(-1).take((positions - 1) % length + row_start)
        prv = np.multiply(prv, n, dtype=np.intp)
        prv -= n + 1
        b = np.asarray(baits, dtype=np.intp)[:, None]
        return (
            self._flat_d.take(prv + b)
            + self._flat_d.take(b * n - (n + 1) + nxt)
            - self._flat_d.take(prv + nxt)
        )
