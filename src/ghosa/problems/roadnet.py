"""Road-network routing: travel time plus waiting time along a path.

Each directed edge carries a distance and an average waiting time; the
scalar objective is distance normalized by a constant velocity plus the
waiting times.  Optional per-edge resource vectors with additive caps turn
the problem into a resource-constrained shortest path (violating paths
score as worthless, mirroring the knapsack feasibility rule).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import check_finite, check_positive
from ..errors import (
    ConfigError,
    DisconnectedPath,
    InstanceError,
    NonPositiveVelocity,
    UnknownNodeReference,
    WrongEndpoints,
)
from .core import SequenceProblem

INFEASIBLE_FITNESS = 1e15
#: rows a generation of remembered walks holds before ``batch_fitness`` starts another
WALK_CACHE_ROWS = 4096
_UNSEEN = object()


@dataclass
class RoadNetwork:
    """Directed graph with per-edge distance and average waiting time."""

    nodes: list[int]
    edges: dict[tuple[int, int], tuple[float, float]]
    velocity: float
    source: int
    destination: int
    resources: dict[tuple[int, int], np.ndarray] | None = None
    caps: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        if check_finite(self.velocity, "velocity") <= 0:
            raise NonPositiveVelocity(f"velocity must be > 0, got {self.velocity}")
        if self.source == self.destination:
            raise InstanceError("source and destination must differ")
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise InstanceError("node list repeats a node id")
        for endpoint in (self.source, self.destination):
            if endpoint not in node_set:
                raise UnknownNodeReference(f"endpoint {endpoint} not among nodes")
        weights = check_finite(list(self.edges.values()), "edge weights", (len(self.edges), 2))
        for (u, v), (d, awt) in zip(self.edges, weights):
            if u not in node_set or v not in node_set:
                raise UnknownNodeReference(f"edge ({u}, {v}) references unknown node")
            if d < 0 or awt < 0:
                raise InstanceError(f"edge ({u}, {v}) has negative weight")
        if (self.resources is None) != (self.caps is None):
            raise InstanceError("resources and caps must be given together")
        if self.caps is not None:
            self.caps = check_finite(self.caps, "caps")
            if np.any(self.caps < 0):
                raise InstanceError(f"caps must be non-negative, got {self.caps}")
            self.resources = {
                e: check_finite(r, f"resources of edge {e}", self.caps.shape)
                for e, r in self.resources.items()
            }
            for e, r in self.resources.items():
                if np.any(r < 0):
                    raise InstanceError(f"edge {e} has a negative resource")

    def adjacency(self) -> dict[int, list[int]]:
        """Out-neighbours of each node, in increasing node id."""
        adj: dict[int, list[int]] = {u: [] for u in self.nodes}
        for u, v in sorted(self.edges):
            adj[u].append(v)
        return adj

    def path_feasible(self, path) -> bool:
        """True when resource caps (if any) admit the path."""
        if self.caps is None:
            return True
        used = np.zeros_like(self.caps)
        for u, v in zip(path[:-1], path[1:]):
            used += self.resources.get((u, v), 0.0)
        return bool(np.all(used <= self.caps))


def road_fitness(net: RoadNetwork, path) -> tuple[float, float, float]:
    """(normalized travel time, total waiting time, their sum) for a path."""
    path = list(path)
    if len(path) < 2 or path[0] != net.source or path[-1] != net.destination:
        raise WrongEndpoints(
            f"path must run {net.source} -> {net.destination}, got {path[:1]}..{path[-1:]}"
        )
    f1 = f2 = 0.0
    for u, v in zip(path[:-1], path[1:]):
        if (u, v) not in net.edges:
            raise DisconnectedPath(f"({u}, {v}) is not an edge")
        d, awt = net.edges[(u, v)]
        f1 += d / net.velocity
        f2 += awt
    return f1, f2, f1 + f2


class RoadNetworkProblem(SequenceProblem):
    """Engine adapter using node-priority permutations.

    A candidate assigns each node a distinct priority 1..n; decoding walks
    greedily from the source to the unvisited neighbor of highest priority.
    Any simple path is reachable under some priority assignment, so the
    permutation operators search the full path space while dead ends simply
    score as infeasible.  ``awt_noise`` in [0, 1] adds per-iteration multiplicative
    jitter to waiting times to model surrounding traffic (off by default).

    The walk runs on node indices and edge ids (positions in ``node_ids`` and
    ``network.edges``).  Rows are priority permutations of 1..n, and the walk
    marks each visited node in the row's own list by setting its priority to
    -1, which it never takes.

    A walk depends on the row alone, not on the jitter, so ``batch_fitness``
    walks only rows it did not score in this iteration or the last, and prices
    every row with the current costs: re-scoring the incumbents walks no row.
    """

    sense = "min"
    rotation_scope = "segment"

    def __init__(self, network: RoadNetwork, awt_noise: float = 0.0):
        self.network = network
        self.awt_noise = check_positive(awt_noise, "awt_noise", strict=False)
        if self.awt_noise > 1.0:
            # the factor 1 + awt_noise * U(-1, 1) would turn waiting times negative
            raise ConfigError(f"awt_noise must be <= 1, got {self.awt_noise}")
        self.node_ids = sorted(network.nodes)
        index = {node: i for i, node in enumerate(self.node_ids)}
        self.dimension = len(self.node_ids)
        self.name = network.name or f"road{self.dimension}"
        edge_ids = {e: i for i, e in enumerate(network.edges)}
        adj = network.adjacency()
        # (neighbour index, edge id), neighbours in increasing node id, so a
        # tie in priority goes to the lowest id
        self._out = [[(index[v], edge_ids[u, v]) for v in adj[u]] for u in self.node_ids]
        self._head = [v for _, v in network.edges]
        self._ends = index[network.source], index[network.destination]
        weights = np.array(list(network.edges.values()), dtype=float).reshape(-1, 2)
        self._travel, self._awt = weights[:, 0] / network.velocity, weights[:, 1]
        self._cost = (self._travel + self._awt).tolist()
        self._walks, self._last_walks = {}, {}

    def prepare_iteration(self, rng: np.random.Generator) -> bool:
        self._walks, self._last_walks = {}, self._walks
        if self.awt_noise > 0.0:
            jitter = 1.0 + self.awt_noise * rng.uniform(-1.0, 1.0, size=len(self._awt))
            self._cost = (self._travel + self._awt * jitter).tolist()
        return self.awt_noise > 0.0

    def _walk(self, row: list) -> list[int] | None:
        """Edge ids of the greedy walk over priorities ``row`` (marked in place);
        None when it dead-ends."""
        out = self._out
        current, goal = self._ends
        row[current] = -1
        edges = []
        while current != goal:
            best = -1
            for v, e in out[current]:
                if row[v] > best:
                    best, step, edge = row[v], v, e
            if best == -1:
                return None
            current = step
            row[current] = -1
            edges.append(edge)
        return edges

    def _path(self, edges: list[int]) -> list[int]:
        return [self.network.source] + [self._head[e] for e in edges]

    def decode(self, sequence) -> list[int] | None:
        """Greedy highest-priority walk as node ids; None when it dead-ends."""
        edges = self._walk(np.asarray(sequence).tolist())
        return None if edges is None else self._path(edges)

    def batch_fitness(self, sequences: np.ndarray) -> np.ndarray:
        cost = self._cost
        rows = np.asarray(sequences)
        # exact keys: the int64 bytes of rows that cast losslessly, else the values
        if np.can_cast(rows.dtype, np.int64):
            keys = [row.tobytes() for row in rows.astype(np.int64, copy=False)]
        else:
            keys = map(tuple, rows.tolist())
        out = []
        for row, key in zip(rows.tolist(), keys):
            edges = self._walks.get(key, self._last_walks.get(key, _UNSEEN))
            if edges is _UNSEEN:
                edges = self._walk(row)
                if edges is not None and self.network.caps is not None:
                    edges = edges if self.network.path_feasible(self._path(edges)) else None
            if len(self._walks) >= WALK_CACHE_ROWS:
                self._walks, self._last_walks = {}, self._walks
            self._walks[key] = edges
            if edges is None:
                out.append(INFEASIBLE_FITNESS)
                continue
            # edge by edge in path order: ``sum`` compensates on Python >= 3.12
            total = 0.0
            for e in edges:
                total += cost[e]
            out.append(total)
        return np.array(out, dtype=float)

    def component_values(self, sequence) -> dict[str, float] | None:
        path = self.decode(sequence)
        if path is None:
            return None
        f1, f2, f = road_fitness(self.network, path)
        return {"total": f, "travel": f1, "waiting": f2}
