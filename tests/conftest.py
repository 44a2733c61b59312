import numpy as np
import pytest

from ghosa import KnapsackInstance, QapInstance, RoadNetwork, TspInstance
from ghosa.problems.roadnet import road_fitness

FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"


def random_tsp(rng, n=8):
    return TspInstance(n=n, coords=rng.uniform(0, 100, size=(n, 2)), metric="EUCLID_RAW")


def random_qap(rng, n=7):
    flow = np.triu(rng.integers(0, 20, size=(n, n)), 1)
    flow = flow + flow.T
    dist = np.triu(rng.integers(1, 20, size=(n, n)), 1)
    dist = dist + dist.T
    return QapInstance(n=n, flow=flow, dist=dist)


def random_knapsack(rng, m=3, n=15):
    profit = rng.integers(10, 100, size=n)
    weight = rng.integers(1, 30, size=(m, n))
    cap = np.maximum(1, weight.sum(axis=1) * rng.uniform(0.4, 0.6, size=m)).astype(int)
    return KnapsackInstance(m=m, n=n, profit=profit, weight=weight, capacity=cap)


def random_roadnet(rng, n=10, p_edge=0.3):
    nodes = list(range(1, n + 1))
    edges = {}
    for u in nodes:
        for v in nodes:
            if u != v and rng.random() < p_edge:
                edges[(u, v)] = (float(rng.integers(1, 30)), float(rng.integers(0, 8)))
    # guarantee at least one source->destination chain
    chain = [1] + [int(v) for v in rng.permutation(np.arange(2, n))[: max(1, n // 3)]] + [n]
    for u, v in zip(chain[:-1], chain[1:]):
        edges.setdefault((u, v), (float(rng.integers(1, 30)), float(rng.integers(0, 8))))
    return RoadNetwork(nodes=nodes, edges=edges, velocity=10.0, source=1, destination=n)


def grid_roadnet(rng, k=10):
    """k x k grid, both directions of each street, corner 1 to corner k*k."""
    edges = {}
    for r in range(k):
        for c in range(k):
            u = r * k + c + 1
            for v in ([u + 1] if c + 1 < k else []) + ([u + k] if r + 1 < k else []):
                distance = float(rng.uniform(1.0, 3.0))
                edges[(u, v)] = (distance, float(rng.uniform(0.0, 2.0)))
                edges[(v, u)] = (distance, float(rng.uniform(0.0, 2.0)))
    return RoadNetwork(
        nodes=list(range(1, k * k + 1)), edges=edges, velocity=1.0, source=1, destination=k * k
    )


def enumerate_road_optimum(net):
    """(optimum, path) over every simple source -> destination path the caps admit,
    by exhaustive enumeration; (inf, None) when there is none.  The reference for
    ``oracles.exact_shortest_paths``."""
    adj = net.adjacency()
    best = [np.inf, None]

    def walk(node, visited, path):
        if node == net.destination:
            if net.path_feasible(path):
                f = road_fitness(net, path)[2]
                if f < best[0]:
                    best[:] = [f, list(path)]
            return
        for nxt in adj[node]:
            if nxt not in visited:
                visited.add(nxt)
                path.append(nxt)
                walk(nxt, visited, path)
                path.pop()
                visited.remove(nxt)

    walk(net.source, {net.source}, [net.source])
    return tuple(best)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def unit_square_tsp():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return TspInstance(n=4, coords=coords, metric="EUCLID_RAW")


@pytest.fixture
def ulysses16_path():
    return f"{FIXTURES}/ulysses16.tsp"


@pytest.fixture
def toy_roadnet():
    # 1 -> {2,3} -> 4, with a long direct arc
    edges = {
        (1, 2): (10.0, 3.0),
        (1, 3): (20.0, 1.0),
        (2, 4): (10.0, 2.0),
        (3, 4): (10.0, 0.0),
        (1, 4): (60.0, 0.0),
    }
    return RoadNetwork(nodes=[1, 2, 3, 4], edges=edges, velocity=10.0, source=1, destination=4)
