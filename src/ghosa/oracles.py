"""Exact solvers for small instances, used to validate heuristic output.

Each oracle exhaustively enumerates (or exactly solves) its instance class
below a size or search ceiling and returns the true optimum, one optimizer,
and the number of states explored.  A line-oriented cache keyed by instance
checksum lets repeated validation runs skip the search.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import Disconnected, ParseError, TooLarge
from .problems import KnapsackInstance, QapInstance, RoadNetwork, TspInstance
from .problems.knapsack import knapsack_profit
from .problems.roadnet import road_fitness

#: labels ``exact_shortest_paths`` pops before it gives up with ``TooLarge``
MAX_LABELS = 20_000


@dataclass
class OracleResult:
    optimum: float
    optimizer: object
    nodes_explored: int


def brute_force_tsp(inst: TspInstance, max_n: int = 10) -> OracleResult:
    """Minimum closed tour by enumerating (n-1)!/2 tours."""
    n = inst.n
    if n > max_n:
        raise TooLarge(f"exhaustive TSP limited to n <= {max_n}, got {n}")
    d = inst.distance_matrix()
    best_len = np.inf
    best_tour = None
    explored = 0
    for rest in itertools.permutations(range(1, n)):
        if n > 2 and rest[0] > rest[-1]:
            continue  # each direction once
        tour = (0,) + rest
        explored += 1
        length = d[tour[-1], tour[0]]
        for a, b in zip(tour[:-1], tour[1:]):
            length += d[a, b]
        if length < best_len:
            best_len = length
            best_tour = tour
    return OracleResult(
        float(best_len), np.asarray(best_tour, dtype=np.int64) + 1, explored
    )


def brute_force_qap(inst: QapInstance, max_n: int = 9) -> OracleResult:
    """Minimum assignment cost over all n! permutations."""
    n = inst.n
    if n > max_n:
        raise TooLarge(f"exhaustive QAP limited to n <= {max_n}, got {n}")
    flow, dist = inst.flow, inst.dist
    best_cost = np.inf
    best_perm = None
    explored = 0
    for perm in itertools.permutations(range(n)):
        explored += 1
        loc = np.asarray(perm)
        cost = (flow * dist[np.ix_(loc, loc)]).sum()
        if cost < best_cost:
            best_cost = cost
            best_perm = loc
    return OracleResult(float(best_cost), best_perm + 1, explored)


def exact_knapsack(inst: KnapsackInstance, max_n: int = 22) -> OracleResult:
    """Exact maximum feasible profit.

    Exhaustive subset scan up to ``max_n`` items; for a single constraint
    with integer data, dynamic programming over capacity handles any n.
    """
    n = inst.n
    if n <= max_n:
        best_profit = 0.0
        best_bits = np.zeros(n, dtype=np.int8)
        explored = 0
        chunk = 1 << min(n, 16)
        codes = np.arange(chunk, dtype=np.uint64)
        shifts = np.arange(n, dtype=np.uint64)
        for base in range(0, 1 << n, chunk):
            block = (codes[: min(chunk, (1 << n) - base)] + base)[:, None]
            bits = ((block >> shifts[None, :]) & 1).astype(float)
            feasible = np.all(bits @ inst.weight.T <= inst.capacity[None, :], axis=1)
            profits = np.where(feasible, bits @ inst.profit, 0.0)
            explored += len(bits)
            i = int(np.argmax(profits))
            if profits[i] > best_profit:
                best_profit = float(profits[i])
                best_bits = bits[i].astype(np.int8)
        return OracleResult(best_profit, best_bits, explored)

    if inst.m == 1:
        cap = int(inst.capacity[0])
        weights = inst.weight[0].astype(int)
        if np.any(weights != inst.weight[0]) or cap != inst.capacity[0]:
            raise TooLarge("capacity DP needs integer weights and capacity")
        best = np.zeros(cap + 1)
        keep = np.zeros((n, cap + 1), dtype=bool)
        for i in range(n):
            w, p = int(weights[i]), float(inst.profit[i])
            if w <= cap:
                candidate = best[: cap - w + 1] + p
                taken = candidate > best[w:]
                keep[i, w:] = taken
                best[w:] = np.where(taken, candidate, best[w:])
        bits = np.zeros(n, dtype=np.int8)
        c = cap
        for i in range(n - 1, -1, -1):
            if keep[i, c]:
                bits[i] = 1
                c -= int(weights[i])
        profit = knapsack_profit(inst, bits)
        return OracleResult(profit, bits, n * (cap + 1))

    raise TooLarge(f"exhaustive knapsack limited to n <= {max_n} (or m == 1), got n={n}")


def exact_shortest_paths(net: RoadNetwork) -> OracleResult:
    """Minimum combined travel+waiting path from source to destination within the caps.

    One label-setting search (Desrochers and Soumis, INFOR 26(3), 1988): a label
    is (cost, resources used, node, parent) and labels pop in cost order.  An
    extension that breaks a cap is dropped, and so is a label when a kept label
    at its node has no more of every resource (and, popped earlier, no more
    cost).  Costs and resources are non-negative, so the first label popped at
    the destination is an optimal simple path; without caps this is Dijkstra.
    More than ``MAX_LABELS`` pops raise ``TooLarge``.
    """
    caps = () if net.caps is None else tuple(net.caps.tolist())
    unused = (0.0,) * len(caps)
    resources = net.resources or {}
    arcs: dict[int, list] = {node: [] for node in net.nodes}
    for (u, v), (d, awt) in net.edges.items():
        r = resources.get((u, v))
        arcs[u].append((v, d / net.velocity + awt, unused if r is None else tuple(r.tolist())))
    kept: dict[int, list] = {node: [] for node in net.nodes}
    le, add = operator.le, operator.add
    order = itertools.count(1)
    heap = [(0.0, 0, unused, net.source, None)]
    popped = 0
    while heap:
        label = heapq.heappop(heap)
        cost, _, used, node, _ = label
        popped += 1
        if popped > MAX_LABELS:
            raise TooLarge(f"label-setting search limited to {MAX_LABELS} labels")
        if any(all(map(le, k, used)) for k in kept[node]):
            continue  # dominated since it was pushed
        if node == net.destination:
            path = []
            while label is not None:
                path.append(label[3])
                label = label[4]
            path.reverse()
            return OracleResult(road_fitness(net, path)[2], path, popped)
        kept[node].append(used)
        for v, c, r in arcs[node]:
            r = tuple(map(add, used, r))
            if all(map(le, r, caps)):
                for k in kept[v]:  # a for-else: no generator per arc
                    if all(map(le, k, r)):
                        break  # dominated
                else:
                    heapq.heappush(heap, (cost + c, next(order), r, v, label))
    raise Disconnected(f"no feasible path {net.source} -> {net.destination}")


class OracleCache:
    """checksum -> optimum records in a line-oriented text file.  Every non-blank
    line is ``<checksum> <finite number>``; any other line raises ``ParseError``."""

    def __init__(self, path):
        self.path = Path(path)
        self._records: dict[str, float] = {}
        if self.path.exists():
            for number, line in enumerate(self.path.read_text().splitlines(), 1):
                if not line.strip():
                    continue
                try:
                    checksum, text = line.split()
                    optimum = float(text)
                    if not math.isfinite(optimum):
                        raise ValueError
                except ValueError:
                    raise ParseError(f"{self.path}, line {number}: expected "
                                     f"'<checksum> <finite number>', got {line!r}") from None
                self._records[checksum] = optimum

    def get(self, checksum: str) -> float | None:
        return self._records.get(checksum)

    def put(self, checksum: str, optimum: float) -> None:
        self._records[checksum] = float(optimum)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(f"{checksum} {optimum!r}\n")
