import itertools

import numpy as np
import pytest

from conftest import random_knapsack, random_qap, random_tsp
from ghosa import (
    Agent,
    GhosaOptimizer,
    KnapsackProblem,
    PopulationState,
    QapProblem,
    TspProblem,
    optimize,
    replace_worst,
    tsp_tour_length,
)
from ghosa.base import (
    check_case_probabilities,
    check_replace_fraction,
    check_window_fraction,
)
from ghosa.errors import ConfigError
from ghosa.problems import SequenceProblem


class ConstantProblem(SequenceProblem):
    """Every permutation scores the same; useful for degenerate checks."""

    def __init__(self, n=4):
        self.dimension = n
        self.name = "constant"

    def batch_fitness(self, sequences):
        return np.full(len(sequences), 7.0)


class TestReplaceWorst:
    def _state(self, problem, rng, count=10):
        seqs = problem.initial_population(rng, count)
        fits = problem.batch_fitness(seqs)
        best_i = int(np.argmin(fits))
        return PopulationState(seqs, fits, Agent(seqs[best_i].copy(), float(fits[best_i])), rng=rng)

    def test_zero_fraction_changes_nothing(self, rng):
        prob = TspProblem(random_tsp(rng, n=6))
        state = self._state(prob, rng)
        before = state.sequences.copy()
        replace_worst(state, 0.0, prob)
        assert np.array_equal(state.sequences, before)

    def test_exact_replacement_count(self, rng):
        # n large enough that a fresh permutation colliding with the old row
        # is effectively impossible, so exactly floor(10% * 50) = 5 rows move
        prob = TspProblem(random_tsp(rng, n=50))
        seqs = prob.initial_population(rng, 50)
        fits = prob.batch_fitness(seqs)
        state = PopulationState(seqs, fits.copy(), Agent(seqs[0].copy(), float(fits[0])), rng=rng)
        before = state.sequences.copy()
        replace_worst(state, 10.0, prob)
        refreshed = {
            i for i in range(50) if not np.array_equal(state.sequences[i], before[i])
        }
        assert len(refreshed) == 5
        assert refreshed == set(np.argsort(fits, kind="stable")[-5:])
        for row in state.sequences:
            assert sorted(row.tolist()) == list(range(1, 51))

    def test_global_best_untouched(self, rng):
        prob = TspProblem(random_tsp(rng, n=6))
        state = self._state(prob, rng, count=10)
        best_before = state.global_best.fitness
        replace_worst(state, 50.0, prob)
        assert state.global_best.fitness == best_before

    def test_fraction_validation(self, rng):
        prob = TspProblem(random_tsp(rng, n=5))
        state = self._state(prob, rng, count=4)
        with pytest.raises(ConfigError):
            replace_worst(state, 100.0, prob)


class TestOptimize:
    def test_single_agent_single_iteration_constant_problem(self):
        best, trace = optimize(
            ConstantProblem(), population_size=1, iterations=1,
            replace_fraction=0.0, seed=0,
        )
        assert best.fitness == 7.0
        assert len(trace) == 1
        assert sorted(best.sequence.tolist()) == [1, 2, 3, 4]

    def test_five_city_tour_matches_brute_force(self, rng):
        inst = random_tsp(rng, n=5)
        tours = itertools.permutations(range(2, 6))
        expected = min(
            tsp_tour_length(inst, [1, *rest]) for rest in tours
        )
        best, _ = optimize(
            TspProblem(inst), population_size=20, iterations=2000,
            seed=11, target=expected,
        )
        assert best.fitness == pytest.approx(expected)

    def test_seeded_replay_identical(self, rng):
        prob = QapProblem(random_qap(rng, n=6))
        a = GhosaOptimizer(population_size=15, iterations=120, seed=42).fit(prob)
        b = GhosaOptimizer(population_size=15, iterations=120, seed=42).fit(prob)
        assert np.array_equal(a.trace_, b.trace_)
        assert np.array_equal(a.best_sequence_, b.best_sequence_)
        c = GhosaOptimizer(population_size=15, iterations=120, seed=43).fit(prob)
        assert not np.array_equal(a.trace_, c.trace_)

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
        for row in opt.state_.sequences:
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

    def test_max_shift_validated(self, rng):
        prob = TspProblem(random_tsp(rng, n=5))
        with pytest.raises(ConfigError):
            GhosaOptimizer(max_shift=0, iterations=1).fit(prob)

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
        assert np.all(long.state_.fitness <= short.state_.fitness + 1e-12)


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
