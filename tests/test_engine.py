import itertools

import numpy as np
import pytest

import ghosa.engine

from conftest import FIXTURES, random_knapsack, random_qap, random_roadnet, random_tsp
from ghosa import (
    ContinuousGhosaOptimizer,
    GeneticAlgorithmOptimizer,
    GhosaOptimizer,
    KnapsackProblem,
    ParticleSwarmOptimizer,
    QapProblem,
    RoadNetworkProblem,
    TspProblem,
    benchmark_function,
    tsp_tour_length,
)
from ghosa.base import (
    categorical_cdf,
    check_case_probabilities,
    check_replace_fraction,
    check_window_fraction,
)
from ghosa.errors import ConfigError
from ghosa.ingest import load_instance
from ghosa.operators import rotate_segments
from ghosa.problems import SequenceProblem


class ConstantProblem(SequenceProblem):
    """Every permutation scores the same; useful for degenerate checks."""

    def __init__(self, n=4):
        self.dimension = n
        self.name = "constant"

    def batch_fitness(self, sequences):
        return np.full(len(sequences), 7.0)


class FlatCostProblem(ConstantProblem):
    """Every slot costs the same; records the engine's calls."""

    def __init__(self, n):
        super().__init__(n)
        self.scored = []

    def batch_fitness(self, sequences):
        self.scored.append(sequences.copy())
        return super().batch_fitness(sequences)

    def placement_cost(self, sequences, baits, positions):
        self.baits, self.windows = baits.copy(), positions.copy()
        return np.zeros(positions.shape)


def record_calls(problem):
    """Wrap ``problem`` so every scored batch and its fitness are kept.

    A continuous problem's change-of-position trials, scored with
    ``rng=None``, are not kept: they never enter the population.
    """
    scored, values = [], []
    evaluate = problem.evaluate_batch

    def recorded(rows, **kwargs):
        fitness = np.array(evaluate(rows, **kwargs), dtype=float)
        if "rng" not in kwargs or kwargs["rng"] is not None:
            scored.append(np.array(rows))
            values.append(fitness)
        return fitness.copy()  # the engine updates its fitness in place

    problem.evaluate_batch = recorded
    return scored, values


class TestReplaceWorst:
    """The worst-agent replacement, observed through ``fit``."""

    def test_zero_fraction_changes_nothing(self, rng):
        # no fresh rows: each iteration scores only its N candidates, and
        # every agent holds either its old string or its candidate
        prob = TspProblem(random_tsp(rng, n=6))
        scored, values = record_calls(prob)
        opt = GhosaOptimizer(
            population_size=10, iterations=1, replace_fraction=0.0, seed=2
        ).fit(prob)
        assert [len(rows) for rows in scored] == [10, 10]
        kept = opt.population_fitness_ == values[0]
        assert np.array_equal(opt.population_[kept], scored[0][kept])
        assert np.array_equal(opt.population_[~kept], scored[1][~kept])

    def test_exact_replacement_count(self, rng):
        # floor(10% * 48) = 4 rows are redrawn: the last 4 of the stable sort
        # of the accepted population, worst last in the problem's sense
        for cls, prob in (
            (GhosaOptimizer, TspProblem(random_tsp(rng, n=50))),
            (GhosaOptimizer, KnapsackProblem(random_knapsack(rng, m=2, n=50))),
            (GhosaOptimizer, ConstantProblem(n=50)),  # all ties: the last 4 rows go
            (ContinuousGhosaOptimizer, benchmark_function("f5", dim=50)),
        ):
            sign = -1.0 if prob.sense == "max" else 1.0
            scored, values = record_calls(prob)
            opt = cls(population_size=48, iterations=1, seed=4).fit(prob)
            continuous = cls is ContinuousGhosaOptimizer
            population = opt.population_x_ if continuous else opt.population_
            (initial, candidates, fresh), (f0, f1, f2) = scored, values
            improved = sign * f1 < sign * f0
            expected = np.where(improved[:, None], candidates, initial)
            expected_fitness = np.where(improved, f1, f0)
            worst = np.argsort(sign * expected_fitness, kind="stable")[-4:]
            expected[worst] = fresh
            expected_fitness[worst] = f2
            assert len(fresh) == 4
            assert np.array_equal(population, expected)
            assert np.array_equal(opt.population_fitness_, expected_fitness)
            if continuous:
                assert np.all((fresh >= prob.bounds[:, 0]) & (fresh <= prob.bounds[:, 1]))
            else:
                for row in fresh:
                    assert sorted(row.tolist()) == list(range(1, 51))

    def test_global_best_untouched(self, rng):
        # half the population is redrawn every iteration, yet the global
        # best after each iteration is the best row scored so far (the
        # initial rows, then candidates and fresh rows of each iteration)
        for prob in (
            TspProblem(random_tsp(rng, n=6)),
            KnapsackProblem(random_knapsack(rng, m=2, n=8)),
        ):
            best = max if prob.sense == "max" else min
            scored, values = record_calls(prob)
            opt = GhosaOptimizer(
                population_size=10, iterations=30, replace_fraction=50.0, seed=6
            ).fit(prob)
            so_far = [best(np.concatenate(values[: 3 + 2 * i])) for i in range(30)]
            assert np.array_equal(opt.trace_, so_far)
            best_row = opt.best_sequence_[None, :]
            assert prob.batch_fitness(best_row)[0] == opt.best_fitness_


class TestOptimize:
    def test_single_agent_single_iteration_constant_problem(self):
        opt = GhosaOptimizer(
            population_size=1, iterations=1, replace_fraction=0.0, seed=0,
        ).fit(ConstantProblem())
        assert opt.best_fitness_ == 7.0
        assert len(opt.trace_) == 1
        assert sorted(opt.best_sequence_.tolist()) == [1, 2, 3, 4]

    def test_five_city_tour_matches_brute_force(self, rng):
        inst = random_tsp(rng, n=5)
        tours = itertools.permutations(range(2, 6))
        expected = min(
            tsp_tour_length(inst, [1, *rest]) for rest in tours
        )
        opt = GhosaOptimizer(
            population_size=20, iterations=2000, seed=11, target=expected,
        ).fit(TspProblem(inst))
        assert opt.best_fitness_ == pytest.approx(expected)

    @pytest.mark.parametrize(
        "n, window_fraction, width",
        [(6, 1.0, 6), (30, 0.01, 1)],
        ids=["full-window-ties", "window-of-one"],
    )
    def test_ties_pick_lowest_slot_of_window(self, n, window_fraction, width):
        # catch only, no rotation: each candidate holds its bait at the slot
        # change-of-position picked, the first of its equal-cost window
        prob = FlatCostProblem(n)
        GhosaOptimizer(
            population_size=8, iterations=1, replace_fraction=0.0, p_miss=0.0,
            p_catch=1.0, p_false=0.0, swarm_rate=0.0,
            window_fraction=window_fraction, seed=0,
        ).fit(prob)
        _, candidates = prob.scored
        assert prob.windows.shape == (8, width)
        assert np.array_equal(candidates[np.arange(8), prob.windows[:, 0]], prob.baits)

    def test_seeded_replay_identical(self, rng):
        prob = QapProblem(random_qap(rng, n=6))
        a = GhosaOptimizer(population_size=15, iterations=120, seed=42).fit(prob)
        b = GhosaOptimizer(population_size=15, iterations=120, seed=42).fit(prob)
        assert np.array_equal(a.trace_, b.trace_)
        assert np.array_equal(a.best_sequence_, b.best_sequence_)
        c = GhosaOptimizer(population_size=15, iterations=120, seed=43).fit(prob)
        assert not np.array_equal(a.trace_, c.trace_)

    def test_trace_components_follow_the_global_best(self, rng):
        # one entry per iteration: the components of the latest global best
        # on a road network, None on a problem without components
        net = load_instance(f"{FIXTURES}/grid4.road", "ROADNET").payload
        road = RoadNetworkProblem(net)
        opt = GhosaOptimizer(population_size=10, iterations=40, seed=3).fit(road)
        assert len(opt.trace_components_) == 40
        last = road.component_values(opt.best_sequence_)
        assert opt.trace_components_[-1] == last
        assert last["total"] == pytest.approx(opt.best_fitness_)
        tsp = TspProblem(random_tsp(rng, n=8))
        opt = GhosaOptimizer(population_size=10, iterations=20, seed=3).fit(tsp)
        assert opt.trace_components_ == [None] * 20

    def test_trace_monotone_non_increasing(self, rng):
        prob = TspProblem(random_tsp(rng, n=9))
        opt = GhosaOptimizer(population_size=12, iterations=300, seed=7).fit(prob)
        assert np.all(np.diff(opt.trace_) <= 0)

    def test_knapsack_trace_monotone_for_maximization(self, rng):
        prob = KnapsackProblem(random_knapsack(rng, m=2, n=10))
        opt = GhosaOptimizer(population_size=12, iterations=300, seed=7).fit(prob)
        assert np.all(np.diff(opt.trace_) >= 0)

    def test_population_stays_permutations(self, rng):
        prob = QapProblem(random_qap(rng, n=7))
        opt = GhosaOptimizer(population_size=10, iterations=150, seed=1).fit(prob)
        for row in opt.population_:
            assert sorted(row.tolist()) == list(range(1, 8))

    def test_target_stops_early(self, rng):
        prob = TspProblem(random_tsp(rng, n=6))
        opt = GhosaOptimizer(
            population_size=20, iterations=100000, seed=3, target=1e9
        ).fit(prob)
        assert opt.stopped_early_
        assert opt.n_iterations_ == 1

    def test_random_threshold_policy_runs(self, rng):
        prob = KnapsackProblem(random_knapsack(rng, m=2, n=10), threshold_policy="random")
        opt = GhosaOptimizer(population_size=10, iterations=200, seed=5).fit(prob)
        assert np.all(np.diff(opt.trace_) >= 0)
        a = GhosaOptimizer(population_size=10, iterations=200, seed=5).fit(prob)
        assert np.array_equal(a.trace_, opt.trace_)

    def test_estimator_params_round_trip(self):
        opt = GhosaOptimizer(population_size=9, swarm_rate=0.5)
        params = opt.get_params()
        assert params["population_size"] == 9
        clone = GhosaOptimizer().set_params(**params)
        assert clone.get_params() == params
        with pytest.raises(ConfigError):
            clone.set_params(bogus=1)

    def test_invalid_probability_config_rejected(self, rng):
        prob = TspProblem(random_tsp(rng, n=5))
        with pytest.raises(ConfigError):
            GhosaOptimizer(p_miss=0.9, p_catch=0.9, p_false=0.2).fit(prob)

    def test_accept_if_better_never_worsens_agents(self, rng):
        # with worst-replacement off, every agent's fitness is monotone:
        # the same seed replays the same trajectory, so a longer run must
        # dominate the shorter one agent by agent
        prob = TspProblem(random_tsp(rng, n=8))
        short = GhosaOptimizer(
            population_size=8, iterations=40, replace_fraction=0.0, seed=21
        ).fit(prob)
        long = GhosaOptimizer(
            population_size=8, iterations=120, replace_fraction=0.0, seed=21
        ).fit(prob)
        assert np.all(long.population_fitness_ <= short.population_fitness_ + 1e-12)


class TestBatchedDraws:
    """The draws the engine makes for a whole population at once."""

    @pytest.mark.parametrize(
        "cls, make, n",
        [(TspProblem, random_tsp, 12), (QapProblem, random_qap, 8)],
        ids=["tsp-segment", "qap-whole"],
    )
    def test_rotation_segments_and_shifts(self, monkeypatch, rng, cls, make, n):
        calls = []

        def recorded(x, starts, stops, shifts):
            calls.append(np.broadcast_arrays(starts, stops, shifts))
            return rotate_segments(x, starts, stops, shifts)

        monkeypatch.setattr(ghosa.engine, "rotate_segments", recorded)
        prob = cls(make(rng, n=n))
        GhosaOptimizer(
            population_size=20, iterations=100, swarm_rate=1.0, seed=4
        ).fit(prob)
        start, stop, shift = (np.concatenate(a) for a in zip(*calls))
        assert len(shift) == 20 * 100
        assert np.all(0 <= start) and np.all(start + 2 <= stop) and np.all(stop <= n)
        assert np.all(1 <= shift) and np.all(shift <= stop - start - 1)
        if prob.rotation_scope == "whole":
            assert np.all(start == 0) and np.all(stop == n)
        else:
            assert set((stop - start).tolist()) == set(range(2, n + 1))
        assert set(shift.tolist()) == set(range(1, n))

    @pytest.mark.parametrize("n", [3, 100, 200])
    def test_categorical_draws_match_choice(self, n):
        weights_rng = np.random.default_rng(n)
        for seed in range(20):
            weights = 1.0 / (1.0 + weights_rng.integers(0, 6, size=n))
            p = weights / weights.sum()
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for size in (1, 50):
                got = categorical_cdf(p).searchsorted(rng.random(size), side="right")
                expected = ref_rng.choice(len(p), size, p=p)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n, count", [(1, 3), (7, 1), (60, 30)])
    def test_initial_population_matches_per_row_permutations(self, n, count):
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        got = ConstantProblem(n).initial_population(rng, count)
        expected = np.array([ref_rng.permutation(n) + 1 for _ in range(count)])
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestEvaluationCount:
    @pytest.mark.parametrize(
        "cls, make",
        [
            (GhosaOptimizer, lambda rng: TspProblem(random_tsp(rng, n=9))),
            (
                GhosaOptimizer,
                lambda rng: RoadNetworkProblem(random_roadnet(rng), awt_noise=0.5),
            ),
            (
                GhosaOptimizer,
                lambda rng: KnapsackProblem(
                    random_knapsack(rng, m=2, n=10), threshold_policy="random"
                ),
            ),
            (ContinuousGhosaOptimizer, lambda rng: benchmark_function("f5", dim=30)),
            (ParticleSwarmOptimizer, lambda rng: benchmark_function("f5", dim=30)),
            (GeneticAlgorithmOptimizer, lambda rng: benchmark_function("f5", dim=30)),
        ],
        ids=["tsp", "noisy-road", "random-knapsack", "continuous-f5-d30", "pso", "ga"],
    )
    def test_evaluations_equal_rows_scored(self, cls, make, rng):
        # dynamic problems re-score the population every iteration, and
        # continuous change-of-position scores one trial block per window
        # slot; those rows are evaluations too
        prob = make(rng)
        evaluate = prob.evaluate_batch
        scored = []

        def counted(rows, **kwargs):
            scored.append(len(rows))
            return evaluate(rows, **kwargs)

        prob.evaluate_batch = counted
        opt = cls(population_size=12, iterations=30, seed=3).fit(prob)
        assert opt.evaluations_ == sum(scored)
        # a second fit counts from zero
        first = opt.evaluations_
        assert opt.fit(prob).evaluations_ == first

    @pytest.mark.parametrize("changed", [True, None])
    def test_prepare_iteration_result_decides_the_rescore(self, changed):
        # scores drift every iteration; only a true result says so, and no flag does
        class Drifting(SequenceProblem):
            dimension = 6

            def __init__(self):
                self.drift = 0.0

            def batch_fitness(self, rows):
                return rows[:, 0] + self.drift

            def prepare_iteration(self, rng):
                self.drift += 0.5
                return changed

        prob, n, iterations = Drifting(), 10, 7
        opt = GhosaOptimizer(population_size=n, iterations=iterations, seed=2).fit(prob)
        redrawn = int(opt.replace_fraction * n // 100)
        rescored = n if changed else 0
        assert opt.evaluations_ == n + iterations * (rescored + n + redrawn)
        if changed:
            assert np.array_equal(opt.population_fitness_, prob.batch_fitness(opt.population_))


class TestFitValidation:
    """Operator settings are checked once, in ``fit``, by shared helpers."""

    def test_probabilities_must_sum_to_one(self, rng):
        with pytest.raises(ConfigError):
            check_case_probabilities(0.5, 0.5, 0.5)
        with pytest.raises(ConfigError):
            check_case_probabilities(1.5, 0.0, -0.5)
        prob = TspProblem(random_tsp(rng, n=5))
        with pytest.raises(ConfigError):
            GhosaOptimizer(p_miss=0.5, p_catch=0.5, p_false=0.5).fit(prob)

    def test_window_fraction_bounds(self, rng):
        prob = TspProblem(random_tsp(rng, n=5))
        for bad in (0.0, 1.5, -3.0):
            with pytest.raises(ConfigError):
                GhosaOptimizer(window_fraction=bad, iterations=1).fit(prob)

    def test_defaults_valid(self, rng):
        opt = GhosaOptimizer()
        case_p = check_case_probabilities(opt.p_miss, opt.p_catch, opt.p_false)
        assert case_p.sum() == pytest.approx(1.0)
        assert check_window_fraction(opt.window_fraction) == opt.window_fraction
        assert check_replace_fraction(opt.replace_fraction) == opt.replace_fraction
        opt.set_params(iterations=2).fit(TspProblem(random_tsp(rng, n=5)))

    def test_replace_fraction_bounds(self, rng):
        prob = TspProblem(random_tsp(rng, n=5))
        for bad in (100.0, -1.0):
            with pytest.raises(ConfigError):
                GhosaOptimizer(replace_fraction=bad, iterations=1).fit(prob)
