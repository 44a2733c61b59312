import itertools
import math

import numpy as np
import pytest

from ghosa import (
    GhosaOptimizer,
    KnapsackInstance,
    KnapsackProblem,
    QapInstance,
    QapProblem,
    RoadNetwork,
    RoadNetworkProblem,
    TspInstance,
    TspProblem,
    knapsack_decode,
    knapsack_profit,
    qap_cost,
    road_fitness,
    tsp_tour_length,
)
from ghosa.errors import (
    ConfigError,
    DisconnectedPath,
    InstanceError,
    InvalidPermutation,
    InvalidTour,
    NonFiniteValue,
    NonPositiveVelocity,
    ThresholdOutOfRange,
    UnknownNodeReference,
    UnsupportedEdgeWeightType,
    WrongEndpoints,
)
from ghosa.problems.roadnet import INFEASIBLE_FITNESS, WALK_CACHE_ROWS
from conftest import enumerate_road_optimum, grid_roadnet, random_roadnet


def score(problem, sequence) -> float:
    """One sequence's fitness through the problem's scoring call."""
    return float(problem.evaluate_batch(np.asarray(sequence)[None, :])[0])


def two_node_road(velocity=1.0, weights=(1.0, 0.0), resource=0.5, cap=1.0):
    return RoadNetwork(
        nodes=[1, 2], edges={(1, 2): weights}, velocity=velocity, source=1, destination=2,
        resources={(1, 2): [resource]}, caps=[cap],
    )


# one constructor per instance number; a NaN passes every ``< 0`` or ``<= 0`` check
NON_FINITE = {
    "tsp-coords": lambda v: TspInstance(n=2, coords=[[0.0, 0.0], [v, 1.0]]),
    "tsp-matrix": lambda v: TspInstance(n=2, metric="EXPLICIT", matrix=[[0.0, v], [v, 0.0]]),
    "qap-flow": lambda v: QapInstance(n=2, flow=[[0, v], [1, 0]], dist=np.ones((2, 2))),
    "qap-dist": lambda v: QapInstance(n=2, flow=np.ones((2, 2)), dist=[[0, 1], [v, 0]]),
    "knapsack-profit": lambda v: KnapsackInstance(1, 2, [v, 1], [[1, 1]], [1]),
    "knapsack-weight": lambda v: KnapsackInstance(1, 2, [1, 1], [[1, v]], [1]),
    "knapsack-capacity": lambda v: KnapsackInstance(1, 2, [1, 1], [[1, 1]], [v]),
    "road-velocity": lambda v: two_node_road(velocity=v),
    "road-distance": lambda v: two_node_road(weights=(v, 0.0)),
    "road-waiting": lambda v: two_node_road(weights=(1.0, v)),
    "road-resource": lambda v: two_node_road(resource=v),
    "road-cap": lambda v: two_node_road(cap=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("case", list(NON_FINITE))
def test_instances_reject_non_finite_numbers(case, value):
    with pytest.raises(NonFiniteValue, match="must be finite"):
        NON_FINITE[case](value)
    NON_FINITE[case](1.0)  # the same instance with a finite number builds


def capped_road(resource):
    return RoadNetwork(
        nodes=[1, 2], edges={(1, 2): (1.0, 0.0)}, velocity=1.0, source=1, destination=2,
        resources={(1, 2): resource}, caps=[1.0, 1.0],
    )


# one problem per empty or misshapen instance array
MISSHAPEN = {
    "tsp-no-cities": lambda: TspProblem(TspInstance(n=0, coords=np.zeros((0, 2)))),
    "tsp-empty-matrix": lambda: TspProblem(
        TspInstance(n=0, metric="EXPLICIT", matrix=np.zeros((0, 0)))),
    "qap-no-facilities": lambda: QapProblem(
        QapInstance(n=0, flow=np.zeros((0, 0)), dist=np.zeros((0, 0)))),
    "knapsack-no-items": lambda: KnapsackProblem(KnapsackInstance(1, 0, [], [[]], [1])),
    "knapsack-no-constraints": lambda: KnapsackProblem(
        KnapsackInstance(0, 2, [1, 1], np.zeros((0, 2)), [])),
    "road-short-resource": lambda: RoadNetworkProblem(capped_road([0.5])),
    "road-long-resource": lambda: RoadNetworkProblem(capped_road([0.5, 0.5, 0.5])),
}


@pytest.mark.parametrize("case", list(MISSHAPEN))
def test_misshapen_instances_fail_before_any_fit(case):
    # the constructor raises, so no fit meets a bare IndexError or numpy error
    with pytest.raises(InstanceError, match="must have shape|must not be empty"):
        GhosaOptimizer(population_size=4, iterations=3, seed=0).fit(MISSHAPEN[case]())


class TestTsp:
    def test_unit_square_perimeter(self, unit_square_tsp):
        assert tsp_tour_length(unit_square_tsp, [1, 2, 3, 4]) == pytest.approx(4.0)

    def test_repeated_point_zero(self):
        inst = TspInstance(n=3, coords=np.ones((3, 2)), metric="EUCLID_RAW")
        assert tsp_tour_length(inst, [1, 2, 3]) == 0.0

    def test_rotation_and_reversal_invariance(self, rng):
        inst = TspInstance(n=7, coords=rng.uniform(0, 10, (7, 2)), metric="EUCLID_RAW")
        tour = list(rng.permutation(7) + 1)
        base = tsp_tour_length(inst, tour)
        assert tsp_tour_length(inst, tour[2:] + tour[:2]) == pytest.approx(base)
        assert tsp_tour_length(inst, tour[::-1]) == pytest.approx(base)

    def test_invalid_tour_rejected(self, unit_square_tsp):
        with pytest.raises(InvalidTour):
            tsp_tour_length(unit_square_tsp, [1, 2, 3, 3])

    @pytest.mark.parametrize("fields, error, match", [
        ({"metric": "MAN_2D"}, UnsupportedEdgeWeightType, "MAN_2D"),
        ({"coords": np.zeros((2, 2))}, InstanceError, "coordinates must have shape"),
        ({"metric": "EXPLICIT"}, InstanceError, "requires a distance matrix"),
        ({"metric": "EXPLICIT", "matrix": np.zeros((2, 2))}, InstanceError, "shape"),
        ({"coords": None}, InstanceError, "EUC_2D metric requires coordinates"),
    ])
    def test_malformed_instance_rejected(self, fields, error, match):
        valid = dict(n=3, coords=np.zeros((3, 2)), metric="EUC_2D")
        with pytest.raises(error, match=match):
            TspInstance(**{**valid, **fields})

    def test_geo_metric_matches_reference_formula(self, ulysses16_path):
        from ghosa.ingest import load_instance

        inst = load_instance(ulysses16_path, "TSPLIB").payload
        d = inst.distance_matrix()
        # spot-check one pair against a scalar transcription of the
        # degrees.minutes great-circle convention
        def geo_rad(v):
            deg = math.trunc(v)
            return math.pi * (deg + 5.0 * (v - deg) / 3.0) / 180.0

        i, j = 0, 1
        lat_i, lon_i = (geo_rad(c) for c in inst.coords[i])
        lat_j, lon_j = (geo_rad(c) for c in inst.coords[j])
        q1 = math.cos(lon_i - lon_j)
        q2 = math.cos(lat_i - lat_j)
        q3 = math.cos(lat_i + lat_j)
        expected = int(6378.388 * math.acos(0.5 * ((1 + q1) * q2 - (1 - q1) * q3)) + 1)
        assert d[i, j] == expected

    def test_att_rounding_rule(self):
        coords = np.array([[0.0, 0.0], [10.0, 0.0]])
        inst = TspInstance(n=2, coords=coords, metric="ATT")
        r = math.sqrt(100.0 / 10.0)
        t = round(r)
        expected = t + 1 if t < r else t
        assert inst.distance_matrix()[0, 1] == expected

    def test_euc_2d_length_rounds_each_edge(self):
        coords = np.array([[0.0, 0.0], [1.2, 0.0], [0.0, 0.9]])
        inst = TspInstance(n=3, coords=coords, metric="EUC_2D")
        rounded = tsp_tour_length(inst, [1, 2, 3])
        assert rounded == pytest.approx(round(1.2) + round(1.5) + round(0.9), abs=1e-9)

    def test_placement_cost_unit_square_insertion_slot(self, unit_square_tsp):
        # tour over three corners, bait is the missing one; independent
        # enumeration of insertion deltas picks the slot between c1 and c3
        coords = unit_square_tsp.coords
        tour = [1, 2, 4]
        bait = 3

        def insertion_delta(pos):
            prev = coords[tour[pos - 1] - 1]
            nxt = coords[tour[pos] - 1]
            b = coords[bait - 1]
            return (
                math.dist(prev, b) + math.dist(b, nxt) - math.dist(prev, nxt)
            )

        costs = TspProblem(unit_square_tsp).placement_cost(
            np.array([tour]), np.array([bait]), np.array([[0, 1, 2]])
        )
        assert costs[0] == pytest.approx([insertion_delta(p) for p in range(3)])
        expected = min(range(3), key=insertion_delta)
        assert int(np.argmin(costs[0])) == expected == 2

    @staticmethod
    def _instance(metric, n, rng):
        if metric == "EXPLICIT":
            m = rng.uniform(1, 100, (n, n))
            m = np.rint(m + m.T)
            np.fill_diagonal(m, 0.0)
            return TspInstance(n=n, matrix=m, metric=metric)
        if metric == "GEO":
            # degrees.minutes latitude and longitude, as in TSPLIB files
            coords = np.column_stack([rng.uniform(-80, 80, n), rng.uniform(-170, 170, n)])
            return TspInstance(n=n, coords=np.round(coords, 2), metric=metric)
        return TspInstance(n=n, coords=rng.uniform(0, 1000, (n, 2)), metric=metric)

    # uint8 rows: city * n overflows the rows' own dtype at n=23
    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    @pytest.mark.parametrize("metric", ["EUC_2D", "ATT", "GEO", "EXPLICIT", "EUCLID_RAW"])
    def test_batch_fitness_equals_tour_length(self, metric, dtype, rng):
        inst = self._instance(metric, 23, rng)
        tours = rng.permuted(np.tile(np.arange(1, 24), (12, 1)), axis=1)
        got = TspProblem(inst).batch_fitness(tours.astype(dtype))
        assert got.shape == (12,)
        for tour, value in zip(tours, got):
            assert value == tsp_tour_length(inst, tour)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    @pytest.mark.parametrize("metric", ["EUC_2D", "GEO", "EUCLID_RAW"])
    def test_placement_cost_is_the_insertion_delta_per_row(self, metric, dtype, rng):
        # windows at the start and at the end of the string, on several rows:
        # slot 0 follows the row's own last city, not another row's
        n, rows, width = 17, 6, 5
        inst = self._instance(metric, n, rng)
        d = inst.distance_matrix()
        tours = rng.permuted(np.tile(np.arange(1, n + 1), (rows, 1)), axis=1)
        baits = rng.integers(1, n + 1, rows)
        starts = np.array([0, 0, n - width, 6, 0, n - width])
        windows = starts[:, None] + np.arange(width)
        got = TspProblem(inst).placement_cost(
            tours.astype(dtype), baits.astype(dtype), windows
        )
        assert got.shape == (rows, width)
        for r in range(rows):
            tour, b = tours[r].tolist(), int(baits[r]) - 1
            for k, slot in enumerate(windows[r]):
                prv, nxt = tour[slot - 1] - 1, tour[slot] - 1
                assert got[r, k] == d[prv, b] + d[b, nxt] - d[prv, nxt]

    def test_explicit_requires_matrix(self):
        with pytest.raises(InstanceError):
            TspInstance(n=3, metric="EXPLICIT")


class TestQap:
    def test_zero_flow_costs_nothing(self, rng):
        n = 5
        inst = QapInstance(n=n, flow=np.zeros((n, n)), dist=rng.integers(1, 9, (n, n)))
        assert qap_cost(inst, rng.permutation(n) + 1) == 0.0

    def test_identity_permutation_is_elementwise_product(self, rng):
        n = 4
        flow = rng.integers(0, 9, (n, n))
        dist = rng.integers(0, 9, (n, n))
        inst = QapInstance(n=n, flow=flow, dist=dist)
        assert qap_cost(inst, np.arange(1, n + 1)) == pytest.approx((flow * dist).sum())

    def test_matches_double_sum_on_all_n3_permutations(self, rng):
        n = 3
        flow = rng.integers(0, 9, (n, n))
        dist = rng.integers(0, 9, (n, n))
        inst = QapInstance(n=n, flow=flow, dist=dist)
        for perm in itertools.permutations(range(n)):
            expected = sum(
                flow[i, j] * dist[perm[i], perm[j]] for i in range(n) for j in range(n)
            )
            assert qap_cost(inst, np.asarray(perm) + 1) == pytest.approx(expected)

    def test_rejects_non_permutation(self, rng):
        inst = QapInstance(n=3, flow=np.zeros((3, 3)), dist=np.zeros((3, 3)))
        with pytest.raises(InvalidPermutation):
            qap_cost(inst, [1, 1, 2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InstanceError):
            QapInstance(n=3, flow=np.zeros((3, 3)), dist=np.zeros((2, 2)))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    @pytest.mark.parametrize("kind", ["symmetric-int", "asymmetric-float"])
    def test_batch_fitness_equals_qap_cost(self, kind, dtype, rng):
        # uint8 rows at n = 30, on an integer and an asymmetric float instance
        from conftest import random_qap

        n = 30
        if kind == "symmetric-int":
            inst = random_qap(rng, n=n)
        else:
            inst = QapInstance(n=n, flow=rng.random((n, n)), dist=rng.random((n, n)) * 50)
        perms = rng.permuted(np.tile(np.arange(1, n + 1), (12, 1)), axis=1)
        got = QapProblem(inst).batch_fitness(perms.astype(dtype))
        assert got.shape == (12,)
        for perm, value in zip(perms, got):
            assert value == qap_cost(inst, perm)

    def test_symmetric_placement_cost_is_exact_swap_delta(self, rng):
        from conftest import random_qap
        from ghosa.problems import QapProblem

        inst = random_qap(rng, n=8)
        prob = QapProblem(inst)
        assert prob._symmetric
        for _ in range(25):
            seq = rng.permutation(8) + 1
            bait = int(rng.integers(1, 9))
            base = score(prob, seq)
            deltas = prob.placement_cost(
                seq[None, :], np.array([bait]), np.arange(8)[None, :]
            )[0]
            q = int(np.nonzero(seq == bait)[0][0])
            for p in range(8):
                swapped = seq.copy()
                swapped[q] = swapped[p]
                swapped[p] = bait
                assert deltas[p] == pytest.approx(score(prob, swapped) - base)

    def test_asymmetric_instances_use_interaction_estimate(self, rng):
        flow = rng.integers(0, 9, (4, 4))
        flow[0, 1] = 7
        flow[1, 0] = 3  # force asymmetry
        inst = QapInstance(n=4, flow=flow, dist=rng.integers(1, 9, (4, 4)))
        from ghosa.problems import QapProblem

        prob = QapProblem(inst)
        assert not prob._symmetric
        costs = prob.placement_cost(
            np.array([[1, 2, 3, 4]]), np.array([2]), np.arange(4)[None, :]
        )[0]
        assert costs.shape == (4,)

    def test_batched_placement_cost_has_one_bait_and_window_per_row(self, rng):
        from conftest import random_qap
        from ghosa.problems import QapProblem

        n, rows, width = 9, 6, 4
        flow = rng.integers(0, 9, (n, n))
        dist = rng.integers(1, 9, (n, n))
        for inst in (random_qap(rng, n=n), QapInstance(n=n, flow=flow, dist=dist)):
            prob = QapProblem(inst)
            f, d = inst.flow, inst.dist
            seqs = np.array([rng.permutation(n) + 1 for _ in range(rows)])
            baits = rng.integers(1, n + 1, rows)
            windows = rng.integers(0, n - width + 1, rows)[:, None] + np.arange(width)
            costs = prob.placement_cost(seqs, baits, windows)
            assert costs.shape == (rows, width)
            for r in range(rows):
                loc, b = seqs[r] - 1, baits[r] - 1
                q = int(np.nonzero(seqs[r] == baits[r])[0][0])
                for k, p in enumerate(windows[r]):
                    if prob._symmetric:
                        # exact cost change of the implied location swap
                        swapped = seqs[r].copy()
                        swapped[[p, q]] = swapped[[q, p]]
                        expected = score(prob, swapped) - score(prob, seqs[r])
                    else:
                        expected = sum(
                            f[p, j] * d[b, loc[j]] + f[j, p] * d[loc[j], b]
                            for j in range(n)
                        )
                    assert costs[r, k] == pytest.approx(expected)


class TestKnapsackDecode:
    def test_threshold_n_gives_all_zeros(self):
        assert knapsack_decode([3, 1, 4, 2], 4).tolist() == [0, 0, 0, 0]

    def test_threshold_one_gives_three_ones(self):
        assert knapsack_decode([3, 1, 4, 2], 1).sum() == 3

    def test_rule_application(self):
        assert knapsack_decode([3, 1, 4, 2], 2).tolist() == [1, 0, 1, 0]

    def test_one_count_identity(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            perm = rng.permutation(n) + 1
            t = int(rng.integers(1, n + 1))
            assert knapsack_decode(perm, t).sum() == n - t

    def test_threshold_out_of_range(self):
        with pytest.raises(ThresholdOutOfRange):
            knapsack_decode([2, 1], 3)

    def test_non_permutation_rejected(self):
        with pytest.raises(InvalidPermutation):
            knapsack_decode([2, 2, 1], 1)


class TestKnapsackProfit:
    def test_empty_selection_always_feasible(self, rng):
        inst = KnapsackInstance(
            m=2, n=3, profit=[5, 6, 7], weight=rng.integers(1, 5, (2, 3)), capacity=[1, 1]
        )
        assert knapsack_profit(inst, [0, 0, 0]) == 0.0

    def test_violation_zeroes_profit(self):
        inst = KnapsackInstance(m=1, n=2, profit=[10, 10], weight=[[5, 5]], capacity=[6])
        assert knapsack_profit(inst, [1, 1]) == 0.0
        assert knapsack_profit(inst, [1, 0]) == 10.0
        with pytest.raises(InstanceError, match="expected 2 bits"):
            knapsack_profit(inst, [1, 0, 1])

    @pytest.mark.parametrize("fields, match", [
        ({"profit": [1, 2]}, "profits"),
        ({"weight": [[1, 2, 3]]}, "weights"),
        ({"capacity": [4]}, "capacities"),
        ({"profit": [1, -2, 3]}, "profits must be non-negative"),
        ({"capacity": [4, -1]}, "capacities must be non-negative"),
    ])
    def test_malformed_instance_rejected(self, fields, match):
        valid = dict(m=2, n=3, profit=[1, 2, 3], weight=np.ones((2, 3)), capacity=[4, 4])
        with pytest.raises(InstanceError, match=match):
            KnapsackInstance(**{**valid, **fields})

    def test_negative_weight_rejected(self):
        with pytest.raises(InstanceError, match="weights must be non-negative"):
            KnapsackInstance(m=1, n=3, profit=[1, 2, 3], weight=[[1, -3, 1]], capacity=[4])

    def test_matches_exhaustive_maximum_n10(self, rng):
        inst = KnapsackInstance(
            m=2,
            n=10,
            profit=rng.integers(1, 50, 10),
            weight=rng.integers(1, 20, (2, 10)),
            capacity=rng.integers(30, 60, 2),
        )
        best = 0.0
        for code in range(1 << 10):
            bits = [(code >> i) & 1 for i in range(10)]
            if all(
                sum(inst.weight[r, i] * bits[i] for i in range(10)) <= inst.capacity[r]
                for r in range(2)
            ):
                best = max(best, sum(inst.profit[i] * bits[i] for i in range(10)))
        from ghosa.oracles import exact_knapsack

        assert exact_knapsack(inst).optimum == pytest.approx(best)

    def test_sweep_policy_matches_best_threshold(self, rng):
        from conftest import random_knapsack

        inst = random_knapsack(rng, m=2, n=8)
        prob = KnapsackProblem(inst)
        for _ in range(20):
            perm = rng.permutation(8) + 1
            explicit = max(
                knapsack_profit(inst, knapsack_decode(perm, t)) for t in range(1, 9)
            )
            assert score(prob, perm) == pytest.approx(explicit)

    @pytest.mark.parametrize("k", [4, 6])
    def test_fixed_policy_decodes_at_its_threshold(self, rng, k):
        from conftest import random_knapsack

        inst = random_knapsack(rng, m=2, n=8)
        prob = KnapsackProblem(inst, threshold_policy=f"fixed:{k}")
        perms = np.stack([rng.permutation(8) + 1 for _ in range(20)])
        expected = [knapsack_profit(inst, knapsack_decode(p, k)) for p in perms]
        assert prob.batch_fitness(perms).tolist() == expected
        assert len(set(expected)) > 5  # feasible and infeasible rows alike


class TestRoadFitness:
    def test_single_edge_values(self):
        net = RoadNetwork(
            nodes=[1, 2], edges={(1, 2): (10.0, 3.0)}, velocity=10.0, source=1, destination=2
        )
        assert road_fitness(net, [1, 2]) == (1.0, 3.0, 4.0)

    def test_zero_waiting_reduces_to_travel(self, toy_roadnet):
        f1, f2, f = road_fitness(toy_roadnet, [1, 3, 4])
        assert f2 == 1.0  # only the (1,3) edge waits
        net = RoadNetwork(
            nodes=[1, 2],
            edges={(1, 2): (30.0, 0.0)},
            velocity=10.0,
            source=1,
            destination=2,
        )
        f1, f2, f = road_fitness(net, [1, 2])
        assert f2 == 0.0 and f == f1

    def test_additivity_over_segments(self, toy_roadnet):
        f1a, f2a, _ = road_fitness(
            RoadNetwork(nodes=[1, 2], edges={(1, 2): (10.0, 3.0)}, velocity=10.0,
                        source=1, destination=2),
            [1, 2],
        )
        f1b, f2b, _ = road_fitness(
            RoadNetwork(nodes=[2, 4], edges={(2, 4): (10.0, 2.0)}, velocity=10.0,
                        source=2, destination=4),
            [2, 4],
        )
        f1, f2, f = road_fitness(toy_roadnet, [1, 2, 4])
        assert f1 == pytest.approx(f1a + f1b)
        assert f2 == pytest.approx(f2a + f2b)
        assert f == pytest.approx(f1 + f2)

    def test_six_node_minimum_matches_enumeration(self, rng):
        from ghosa.oracles import exact_shortest_paths

        net = random_roadnet(rng, n=6)
        assert exact_shortest_paths(net).optimum == pytest.approx(enumerate_road_optimum(net)[0])

    def test_wrong_endpoints(self, toy_roadnet):
        with pytest.raises(WrongEndpoints):
            road_fitness(toy_roadnet, [2, 4])

    def test_disconnected_path(self, toy_roadnet):
        with pytest.raises(DisconnectedPath):
            road_fitness(toy_roadnet, [1, 2, 3, 4])

    def test_velocity_must_be_positive(self):
        with pytest.raises(NonPositiveVelocity):
            RoadNetwork(nodes=[1, 2], edges={}, velocity=0.0, source=1, destination=2)

    def test_repeated_node_id_rejected(self):
        # a repeat would make a fourth priority slot for a three-node network
        edges = {(1, 2): (1.0, 0.0), (2, 3): (1.0, 0.0)}
        with pytest.raises(InstanceError, match="repeats a node id"):
            RoadNetwork(nodes=[1, 2, 2, 3], edges=edges, velocity=1.0, source=1, destination=3)

    @pytest.mark.parametrize("fields, error, match", [
        ({"destination": 1}, InstanceError, "must differ"),
        ({"destination": 9}, UnknownNodeReference, "endpoint 9"),
        ({"edges": {(1, 9): (1.0, 0.0)}}, UnknownNodeReference, r"edge \(1, 9\)"),
        ({"edges": {(1, 2): (-1.0, 0.0)}}, InstanceError, "negative weight"),
        ({"edges": {(1, 2): (1.0, -0.5)}}, InstanceError, "negative weight"),
        ({"caps": np.array([1.0])}, InstanceError, "given together"),
        ({"edges": {(1, 2): (1.0,), (2, 3): (1.0,)}}, InstanceError, r"shape \(2, 2\)"),
        ({"edges": {(1, 2): (1.0, 0.0, 2.0)}}, InstanceError, r"shape \(1, 2\)"),
        ({"edges": {(1, 2): (1.0,), (2, 3): (1.0, 0.0)}}, InstanceError, "array of numbers"),
        # no edge can carry a route from source to destination
        ({"edges": {}}, InstanceError, r"edge weights must have shape \(0, 2\)"),
        ({"resources": {(1, 2): np.array([1.0]), (2, 3): np.array([-0.5])},
          "caps": np.array([2.0])}, InstanceError, r"edge \(2, 3\) has a negative resource"),
        ({"resources": {(1, 2): np.array([1.0])}, "caps": np.array([-1.0])},
         InstanceError, "caps must be non-negative"),
    ])
    def test_malformed_network_rejected(self, fields, error, match):
        valid = dict(nodes=[1, 2, 3], edges={(1, 2): (1.0, 0.0), (2, 3): (1.0, 0.0)},
                     velocity=1.0, source=1, destination=3)
        with pytest.raises(error, match=match):
            RoadNetwork(**{**valid, **fields})

    def test_dead_end_has_no_components(self):
        # node 2 has no way on, so every priority order dead-ends there
        net = RoadNetwork(nodes=[1, 2, 3], edges={(1, 2): (1.0, 0.0)}, velocity=1.0,
                          source=1, destination=3)
        problem = RoadNetworkProblem(net)
        assert problem.decode([1, 3, 2]) is None
        assert problem.component_values([1, 3, 2]) is None


def reference_walk(net, sequence):
    """The dict-based greedy walk: node ids of the path, or None at a dead end."""
    index = {node: i for i, node in enumerate(sorted(net.nodes))}
    adj = {u: [] for u in net.nodes}
    for u, v in net.edges:
        adj[u].append(v)
    for u in adj:
        adj[u].sort()
    current, visited, path = net.source, {net.source}, [net.source]
    while current != net.destination:
        best_node, best_prio = None, -1
        for v in adj[current]:
            if v not in visited and sequence[index[v]] > best_prio:
                best_node, best_prio = v, sequence[index[v]]
        if best_node is None:
            return None
        current = best_node
        visited.add(current)
        path.append(current)
    return path


def reference_cost(net, path, jitter):
    """Travel plus jittered waiting time, summed edge by edge along the path."""
    total = 0.0
    for u, v in zip(path[:-1], path[1:]):
        d, awt = net.edges[(u, v)]
        total += d / net.velocity + awt * jitter.get((u, v), 1.0)
    return total


def capped(net, rng):
    """``net`` with a random 2-resource vector per edge and caps that some paths break."""
    resources = {e: rng.uniform(0.0, 3.0, size=2) for e in net.edges}
    return RoadNetwork(nodes=net.nodes, edges=net.edges, velocity=net.velocity,
                       source=net.source, destination=net.destination,
                       resources=resources, caps=np.array([6.0, 7.0]))


ORACLE_NETS = {
    "random-8": lambda: random_roadnet(np.random.default_rng(5), n=8),
    "random-14": lambda: random_roadnet(np.random.default_rng(6), n=14, p_edge=0.25),
    "random-12-capped": lambda: capped(
        random_roadnet(np.random.default_rng(7), n=12, p_edge=0.35),
        np.random.default_rng(8),
    ),
    "grid-10x10": lambda: grid_roadnet(np.random.default_rng(9)),
}


class TestRoadNetworkProblem:
    @pytest.mark.parametrize("awt_noise", [0.0, 0.5])
    @pytest.mark.parametrize("name", list(ORACLE_NETS))
    def test_walk_and_cost_match_reference(self, name, awt_noise):
        net = ORACLE_NETS[name]()
        problem = RoadNetworkProblem(net, awt_noise=awt_noise)
        n = problem.dimension
        rows_rng = np.random.default_rng(11)
        rows = np.array([rows_rng.permutation(n) + 1 for _ in range(200)])
        # priorities with ties and zeros: the walk takes the first in node order
        ties = rows_rng.integers(0, 4, size=(50, n))
        # a short fit's population holds rows that reach the destination
        fitted = GhosaOptimizer(population_size=40, iterations=30, seed=1).fit(problem)
        rows = np.vstack([rows, ties, fitted.population_])
        rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
        outcomes = set()
        for _ in range(3):
            problem.prepare_iteration(rng)
            jitter = {}
            if awt_noise > 0:
                jitter = {
                    e: 1.0 + awt_noise * float(oracle_rng.uniform(-1.0, 1.0))
                    for e in net.edges
                }
            # one vector draw leaves the stream where E scalar draws leave it
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            fitness = problem.batch_fitness(rows)
            for row, got in zip(rows, fitness):
                path = reference_walk(net, row)
                assert problem.decode(row) == path
                feasible = path is not None and net.path_feasible(path)
                expected = reference_cost(net, path, jitter) if feasible else INFEASIBLE_FITNESS
                assert got == expected
                outcomes.add(path is None)
        assert outcomes == {True, False}

    @pytest.fixture
    def capped_toy(self, toy_roadnet):
        resources = {(1, 2): [2.0], (1, 3): [1.0], (2, 4): [2.0], (3, 4): [1.0], (1, 4): [5.0]}
        return RoadNetwork(nodes=toy_roadnet.nodes, edges=toy_roadnet.edges,
                           velocity=toy_roadnet.velocity, source=1, destination=4,
                           resources=resources, caps=np.array([3.0]))

    def test_path_over_a_cap_is_infeasible(self, capped_toy):
        problem = RoadNetworkProblem(capped_toy)
        # node 2 has the top priority: 1 -> 2 -> 4 uses 4 > 3
        assert problem.decode([1, 4, 3, 2]) == [1, 2, 4]
        assert score(problem, [1, 4, 3, 2]) == INFEASIBLE_FITNESS
        # the direct arc uses 5 > 3
        assert problem.decode([1, 2, 3, 4]) == [1, 4]
        assert score(problem, [1, 2, 3, 4]) == INFEASIBLE_FITNESS

    def test_path_within_the_caps_scores_its_cost(self, capped_toy):
        problem = RoadNetworkProblem(capped_toy)
        # 1 -> 3 -> 4 uses 2 <= 3: travel 20/10 + 10/10, waiting 1 + 0
        assert problem.decode([1, 3, 4, 2]) == [1, 3, 4]
        assert score(problem, [1, 3, 4, 2]) == 4.0
        np.testing.assert_array_equal(
            problem.batch_fitness(np.array([[1, 3, 4, 2], [1, 4, 3, 2]])),
            [4.0, INFEASIBLE_FITNESS],
        )

    @pytest.mark.parametrize("awt_noise", [-0.5, 1.5, float("nan"), float("inf")])
    def test_awt_noise_must_be_finite_and_non_negative(self, toy_roadnet, awt_noise):
        with pytest.raises(ConfigError, match="awt_noise"):
            RoadNetworkProblem(toy_roadnet, awt_noise=awt_noise)

    @staticmethod
    def count_walks(monkeypatch, problem) -> list:
        """Record one entry per ``_walk`` call on ``problem``."""
        walks, walk = [], problem._walk

        def counted(row):
            walks.append(tuple(row))
            return walk(row)

        monkeypatch.setattr(problem, "_walk", counted)
        return walks

    def test_dynamic_rescore_walks_no_row(self, monkeypatch):
        problem = RoadNetworkProblem(grid_roadnet(np.random.default_rng(9)), awt_noise=0.5)
        walks, calls, score = self.count_walks(monkeypatch, problem), [], problem.batch_fitness

        def recorded(rows):
            before = len(walks)
            fitness = score(rows)
            calls.append((len(rows), len(walks) - before))
            return fitness

        monkeypatch.setattr(problem, "batch_fitness", recorded)
        GhosaOptimizer(population_size=50, iterations=40, seed=2).fit(problem)
        # the initial population, then per iteration the re-score of the
        # incumbents, the candidates and the 5 fresh agents
        assert [rows for rows, _ in calls] == [50] + [50, 50, 5] * 40
        rescore, candidates, fresh = (calls[1 + k :: 3] for k in range(3))
        assert all(walked == 0 for _, walked in rescore)
        assert all(walked <= rows for rows, walked in candidates + fresh)
        assert 0 < sum(walked for _, walked in candidates)

    def test_walk_cache_stays_bounded_without_prepare_iteration(self):
        net = ORACLE_NETS["random-14"]()
        problem = RoadNetworkProblem(net)
        rng = np.random.default_rng(4)
        scored = 0
        for _ in range(30):
            rows = rng.permuted(np.tile(np.arange(1, 15), (300, 1)), axis=1)
            fitness = problem.batch_fitness(rows)
            assert np.array_equal(fitness, RoadNetworkProblem(net).batch_fitness(rows))
            assert len(problem._walks) <= WALK_CACHE_ROWS
            assert len(problem._last_walks) <= WALK_CACHE_ROWS
            scored += len(rows)
        assert scored > 2 * WALK_CACHE_ROWS
        assert len(problem._last_walks) == WALK_CACHE_ROWS

    def test_row_dtype_does_not_change_the_score(self, monkeypatch):
        net = ORACLE_NETS["random-8"]()
        rng = np.random.default_rng(2)
        rows = np.array([rng.permutation(8) + 1 for _ in range(60)])
        expected = RoadNetworkProblem(net).batch_fitness(rows)
        assert INFEASIBLE_FITNESS in expected and expected.min() < INFEASIBLE_FITNESS
        problem = RoadNetworkProblem(net)
        walks = self.count_walks(monkeypatch, problem)
        for given in (rows, rows.astype(np.int32), rows.tolist()):
            assert problem.batch_fitness(given).tobytes() == expected.tobytes()
        # the three forms of a row share one remembered walk
        assert len(walks) == len(set(map(tuple, rows.tolist())))
        # other dtypes are remembered by value; a cast to int64 would tie
        # the priorities of ``rows / 10``
        for given in (rows.astype(float), rows.astype(np.uint64), rows / 10):
            assert problem.batch_fitness(given).tobytes() == expected.tobytes()

    def test_refit_matches_a_fresh_problem(self):
        net = grid_roadnet(np.random.default_rng(9))
        used = RoadNetworkProblem(net, awt_noise=0.5)

        def fit(problem):
            return GhosaOptimizer(population_size=30, iterations=40, seed=1).fit(problem)

        fit(used)
        again, fresh = fit(used), fit(RoadNetworkProblem(net, awt_noise=0.5))
        for name in ("trace_", "best_sequence_", "population_", "population_fitness_"):
            assert getattr(again, name).tobytes() == getattr(fresh, name).tobytes()
        assert again.evaluations_ == fresh.evaluations_
