"""Road-network routing: travel time plus waiting time along a path.

Each directed edge carries a distance and an average waiting time; the
scalar objective is distance normalized by a constant velocity plus the
waiting times.  Optional per-edge resource vectors with additive caps turn
the problem into a resource-constrained shortest path (violating paths
score as worthless, mirroring the knapsack feasibility rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    DisconnectedPath,
    InstanceError,
    NonPositiveVelocity,
    WrongEndpoints,
)
from .core import SequenceProblem

INFEASIBLE_FITNESS = 1e15


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
    _adj: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.velocity <= 0:
            raise NonPositiveVelocity(f"velocity must be > 0, got {self.velocity}")
        if self.source == self.destination:
            raise InstanceError("source and destination must differ")
        node_set = set(self.nodes)
        for endpoint in (self.source, self.destination):
            if endpoint not in node_set:
                raise InstanceError(f"endpoint {endpoint} not among nodes")
        for (u, v), (d, awt) in self.edges.items():
            if u not in node_set or v not in node_set:
                raise InstanceError(f"edge ({u}, {v}) references unknown node")
            if d < 0 or awt < 0:
                raise InstanceError(f"edge ({u}, {v}) has negative weight")
        if (self.resources is None) != (self.caps is None):
            raise InstanceError("resources and caps must be given together")
        if self.caps is not None:
            self.caps = np.asarray(self.caps, dtype=float)
            self.resources = {
                e: np.asarray(r, dtype=float) for e, r in self.resources.items()
            }

    def adjacency(self) -> dict[int, list[int]]:
        if not self._adj:
            adj: dict[int, list[int]] = {u: [] for u in self.nodes}
            for u, v in self.edges:
                adj[u].append(v)
            for u in adj:
                adj[u].sort()
            self._adj.update(adj)
        return self._adj

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
    f1 = 0.0
    f2 = 0.0
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
    score as infeasible.  ``awt_noise`` adds per-iteration multiplicative
    jitter to waiting times to model surrounding traffic (off by default).
    """

    sense = "min"
    rotation_scope = "segment"

    def __init__(self, network: RoadNetwork, awt_noise: float = 0.0):
        self.network = network
        self.awt_noise = awt_noise
        self.dynamic = awt_noise > 0.0
        self.node_ids = sorted(network.nodes)
        self._index = {node: i for i, node in enumerate(self.node_ids)}
        self.dimension = len(self.node_ids)
        self.name = network.name or f"road{self.dimension}"
        self._adj = network.adjacency()
        self._jitter: dict[tuple[int, int], float] = {}

    def prepare_iteration(self, rng: np.random.Generator) -> None:
        if self.awt_noise > 0.0:
            self._jitter = {
                e: 1.0 + self.awt_noise * float(rng.uniform(-1.0, 1.0))
                for e in self.network.edges
            }

    def decode(self, sequence) -> list[int] | None:
        """Greedy highest-priority walk; None when it dead-ends."""
        seq = np.asarray(sequence)
        net = self.network
        current = net.source
        visited = {current}
        path = [current]
        while current != net.destination:
            best_node, best_prio = None, -1
            for v in self._adj[current]:
                if v in visited:
                    continue
                prio = seq[self._index[v]]
                if prio > best_prio:
                    best_node, best_prio = v, prio
            if best_node is None:
                return None
            current = best_node
            visited.add(current)
            path.append(current)
        return path

    def _path_cost(self, path) -> float:
        net = self.network
        total = 0.0
        for u, v in zip(path[:-1], path[1:]):
            d, awt = net.edges[(u, v)]
            awt *= self._jitter.get((u, v), 1.0)
            total += d / net.velocity + awt
        return total

    def batch_fitness(self, sequences: np.ndarray) -> np.ndarray:
        out = np.empty(len(sequences))
        for i, seq in enumerate(sequences):
            path = self.decode(seq)
            if path is None or not self.network.path_feasible(path):
                out[i] = INFEASIBLE_FITNESS
            else:
                out[i] = self._path_cost(path)
        return out

    def component_values(self, sequence) -> dict[str, float] | None:
        path = self.decode(sequence)
        if path is None:
            return None
        f1, f2, f = road_fitness(self.network, path)
        return {"total": f, "travel": f1, "waiting": f2}
