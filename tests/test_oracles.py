import itertools

import numpy as np
import pytest

from conftest import (
    FIXTURES,
    enumerate_road_optimum,
    grid_roadnet,
    random_knapsack,
    random_qap,
    random_roadnet,
    random_tsp,
)
from ghosa import KnapsackInstance, QapInstance, RoadNetwork, TspInstance, tsp_tour_length
from ghosa import oracles
from ghosa.cli import entrypoint
from ghosa.errors import Disconnected, ParseError, TooLarge
from ghosa.oracles import (
    OracleCache,
    brute_force_qap,
    brute_force_tsp,
    exact_knapsack,
    exact_shortest_paths,
)
from ghosa.problems.roadnet import road_fitness


def with_resources(net, rng, caps, resources=None):
    """``net`` with ``resources`` (default: uniform [0, 1) draws per edge, one per
    cap) under ``caps``."""
    caps = np.asarray(caps, dtype=float)
    if resources is None:
        resources = {e: rng.uniform(0.0, 1.0, size=caps.shape) for e in net.edges}
    return RoadNetwork(nodes=net.nodes, edges=net.edges, velocity=net.velocity,
                       source=net.source, destination=net.destination,
                       resources=resources, caps=caps)


class TestBruteForceTsp:
    def test_one_city_tour_is_empty(self, rng):
        result = brute_force_tsp(random_tsp(rng, n=1))
        assert result.optimum == 0.0 and isinstance(result.optimum, float)
        assert result.optimizer.tolist() == [1]
        assert result.nodes_explored == 1

    def test_three_cities_any_tour_is_perimeter(self, rng):
        inst = random_tsp(rng, n=3)
        result = brute_force_tsp(inst)
        assert result.optimum == pytest.approx(tsp_tour_length(inst, [1, 2, 3]))
        assert result.nodes_explored == 1

    def test_unit_square_four(self, unit_square_tsp):
        result = brute_force_tsp(unit_square_tsp)
        assert result.optimum == pytest.approx(4.0)
        assert result.nodes_explored == 3  # (4-1)!/2

    def test_optimizer_achieves_optimum(self, rng):
        inst = random_tsp(rng, n=7)
        result = brute_force_tsp(inst)
        assert tsp_tour_length(inst, result.optimizer) == pytest.approx(result.optimum)

    def test_row_order_independence(self, rng):
        inst = random_tsp(rng, n=6)
        shuffled = TspInstance(
            n=6, coords=inst.coords[::-1].copy(), metric="EUCLID_RAW"
        )
        assert brute_force_tsp(inst).optimum == pytest.approx(
            brute_force_tsp(shuffled).optimum
        )

    def test_too_large(self, rng):
        with pytest.raises(TooLarge):
            brute_force_tsp(random_tsp(rng, n=11))


class TestBruteForceQap:
    def test_zero_flow(self):
        inst = QapInstance(n=3, flow=np.zeros((3, 3)), dist=np.ones((3, 3)))
        assert brute_force_qap(inst).optimum == 0.0

    def test_single_facility(self):
        inst = QapInstance(n=1, flow=np.zeros((1, 1)), dist=np.zeros((1, 1)))
        result = brute_force_qap(inst)
        assert result.optimum == 0.0
        assert result.optimizer.tolist() == [1]

    def test_matches_independent_enumeration(self, rng):
        inst = random_qap(rng, n=5)
        expected = min(
            sum(
                inst.flow[i, j] * inst.dist[p[i], p[j]]
                for i in range(5)
                for j in range(5)
            )
            for p in itertools.permutations(range(5))
        )
        assert brute_force_qap(inst).optimum == pytest.approx(expected)

    def test_too_large(self, rng):
        with pytest.raises(TooLarge):
            brute_force_qap(random_qap(rng, n=10))


class TestExactKnapsack:
    def test_nothing_fits(self):
        inst = KnapsackInstance(
            m=1, n=3, profit=[5, 5, 5], weight=[[10, 10, 10]], capacity=[4]
        )
        result = exact_knapsack(inst)
        assert result.optimum == 0.0
        assert result.optimizer.sum() == 0

    def test_single_item_fits(self):
        inst = KnapsackInstance(m=1, n=1, profit=[7], weight=[[2]], capacity=[3])
        assert exact_knapsack(inst).optimum == 7.0

    def test_dp_matches_exhaustive_single_constraint(self, rng, monkeypatch):
        inst = KnapsackInstance(
            m=1,
            n=12,
            profit=rng.integers(1, 40, 12),
            weight=rng.integers(1, 15, (1, 12)),
            capacity=[40],
        )
        exhaustive = exact_knapsack(inst)
        monkeypatch.setattr(oracles, "MAX_KNAPSACK_ITEMS", 5)  # force the DP route
        dp = exact_knapsack(inst)
        assert dp.optimum == pytest.approx(exhaustive.optimum)

    def test_multi_constraint_too_large(self, rng, monkeypatch):
        inst = random_knapsack(rng, m=3, n=15)
        monkeypatch.setattr(oracles, "MAX_KNAPSACK_ITEMS", 10)
        with pytest.raises(TooLarge, match="n <= 10"):
            exact_knapsack(inst)

    @pytest.mark.parametrize("weight, capacity", [(2.5, 40), (2, 40.5)])
    def test_fractional_single_constraint_too_large(self, weight, capacity, monkeypatch):
        inst = KnapsackInstance(
            m=1, n=12, profit=np.ones(12), weight=np.full((1, 12), weight), capacity=[capacity]
        )
        monkeypatch.setattr(oracles, "MAX_KNAPSACK_ITEMS", 10)
        with pytest.raises(TooLarge, match="integer weights"):
            exact_knapsack(inst)


class TestExactShortestPaths:
    def test_single_edge(self):
        net = RoadNetwork(
            nodes=[1, 2], edges={(1, 2): (10.0, 3.0)}, velocity=10.0,
            source=1, destination=2,
        )
        result = exact_shortest_paths(net)
        assert result.optimum == pytest.approx(4.0)
        assert result.optimizer == [1, 2]

    def test_dominating_parallel_route(self, toy_roadnet):
        # 1->3->4 costs (20+10)/10 + 1 = 4.0, strictly dominating the rest
        result = exact_shortest_paths(toy_roadnet)
        assert result.optimizer == [1, 3, 4]
        assert result.optimum == pytest.approx(4.0)

    def test_label_search_agrees_with_enumeration(self):
        # 40 random 12-node networks, each cap-free and with two uniform
        # resources per edge under caps of 1.5
        for seed in range(40):
            rng = np.random.default_rng(seed)
            free = random_roadnet(rng, n=12)
            for net in (free, with_resources(free, rng, caps=[1.5, 1.5])):
                reference, _ = enumerate_road_optimum(net)
                if reference == np.inf:
                    with pytest.raises(Disconnected):
                        exact_shortest_paths(net)
                    continue
                result = exact_shortest_paths(net)
                path = result.optimizer
                assert result.optimum == pytest.approx(reference, rel=1e-9, abs=0), seed
                assert len(set(path)) == len(path), seed
                assert net.path_feasible(path), seed
                assert road_fitness(net, path)[2] == result.optimum, seed

    def test_zero_cost_cycle_yields_a_simple_path(self):
        # 1 <-> 2 costs nothing and uses nothing, so every lap ties with no lap
        edges = {(1, 2): (0.0, 0.0), (2, 1): (0.0, 0.0), (2, 3): (1.0, 0.0)}
        for resources, caps in [(None, None), ({e: np.zeros(1) for e in edges}, np.ones(1))]:
            net = RoadNetwork(nodes=[1, 2, 3], edges=edges, velocity=1.0, source=1,
                              destination=3, resources=resources, caps=caps)
            result = exact_shortest_paths(net)
            assert result.optimizer == [1, 2, 3]
            assert result.optimum == 1.0

    def test_capped_grid_costs_at_least_the_uncapped_optimum(self):
        # a grid whose caps admit some path (others at 0.9 admit none)
        rng = np.random.default_rng(0)
        free = grid_roadnet(rng, k=10)
        resources = {e: rng.uniform(0.0, 1.0, size=2) for e in free.edges}
        uncapped = exact_shortest_paths(free)
        path = uncapped.optimizer
        used = sum(resources[e] for e in zip(path[:-1], path[1:]))
        capped = with_resources(free, rng, caps=0.9 * used, resources=resources)
        result = exact_shortest_paths(capped)
        assert result.optimum >= uncapped.optimum
        assert capped.path_feasible(result.optimizer)
        assert not capped.path_feasible(path)

    def test_label_limit_raises_too_large(self, rng, monkeypatch):
        net = grid_roadnet(rng, k=5)
        assert exact_shortest_paths(net).nodes_explored > 10
        monkeypatch.setattr(oracles, "MAX_LABELS", 10)
        with pytest.raises(TooLarge, match="10 labels"):
            exact_shortest_paths(net)

    def test_disconnected(self):
        net = RoadNetwork(
            nodes=[1, 2, 3], edges={(1, 2): (1.0, 0.0)}, velocity=1.0,
            source=1, destination=3,
        )
        with pytest.raises(Disconnected):
            exact_shortest_paths(net)

    def test_resource_caps_prune_cheap_path(self, toy_roadnet):
        capped = RoadNetwork(
            nodes=toy_roadnet.nodes,
            edges=toy_roadnet.edges,
            velocity=toy_roadnet.velocity,
            source=1,
            destination=4,
            resources={(1, 3): np.array([5.0])},
            caps=np.array([1.0]),
        )
        result = exact_shortest_paths(capped)
        assert result.optimizer != [1, 3, 4]


class TestOracleCache:
    def test_round_trip(self, tmp_path):
        cache = OracleCache(tmp_path / "oracle.cache")
        assert cache.get("abc") is None
        cache.put("abc", 42.5)
        assert cache.get("abc") == 42.5
        again = OracleCache(tmp_path / "oracle.cache")
        assert again.get("abc") == 42.5

    def test_numpy_optimum_round_trips_as_a_float(self, tmp_path):
        # an oracle's optimum may be a numpy scalar, whose repr is no number
        path = tmp_path / "oracle.cache"
        OracleCache(path).put("abc", np.float64(3.5))
        assert path.read_text() == "abc 3.5\n"
        assert OracleCache(path).get("abc") == 3.5

    def test_latest_record_wins(self, tmp_path):
        cache = OracleCache(tmp_path / "oracle.cache")
        cache.put("k", 1.0)
        cache.put("k", 2.0)
        assert OracleCache(tmp_path / "oracle.cache").get("k") == 2.0

    @pytest.mark.parametrize("line", [
        "abc def", "abc 1.5 extra", "abc", "abc nan", "abc inf", "abc -inf"])
    def test_malformed_line_is_a_parse_error_naming_file_and_line(self, tmp_path, line):
        path = tmp_path / "oracle.cache"
        path.write_text(f"ok 2.0\n  \n{line}\n")  # a blank line 2 is skipped
        with pytest.raises(ParseError, match=rf"oracle\.cache, line 3: .*{line!r}"):
            OracleCache(path)

    @pytest.mark.parametrize("line", ["abc def", "abc 1.5 extra"])
    def test_malformed_cache_exits_2_from_the_cli(self, tmp_path, capsys, line):
        path = tmp_path / "oracle.cache"
        path.write_text(f"{line}\n")
        code = entrypoint(["oracle", "--problem", "roadnet",
                           "--instance", f"{FIXTURES}/grid4.road", "--cache", str(path)])
        assert code == 2
        assert "line 1" in capsys.readouterr().err
