"""The run protocol every optimizer shares through ``PopulationOptimizer.fit``."""

import numpy as np
import pytest

from conftest import random_knapsack, random_tsp
from ghosa import (
    ContinuousGhosaOptimizer,
    GeneticAlgorithmOptimizer,
    GhosaOptimizer,
    KnapsackProblem,
    ParticleSwarmOptimizer,
    TspProblem,
    benchmark_function,
)
from ghosa.errors import ConfigError

ITERATIONS = 60


@pytest.mark.parametrize(
    "cls, make_problem",
    [
        (GhosaOptimizer, lambda rng: TspProblem(random_tsp(rng, n=12))),
        (GhosaOptimizer, lambda rng: KnapsackProblem(random_knapsack(rng, m=2, n=15))),
        (ContinuousGhosaOptimizer, lambda rng: benchmark_function("f6")),
        (ParticleSwarmOptimizer, lambda rng: benchmark_function("f6")),
        (GeneticAlgorithmOptimizer, lambda rng: benchmark_function("f6")),
    ],
    ids=["ghosa-tsp", "ghosa-knapsack-max", "continuous", "pso", "ga"],
)
def test_trace_and_target_stop(cls, make_problem, rng):
    problem = make_problem(rng)
    sign = -1.0 if problem.sense == "max" else 1.0

    def fit(target):
        return cls(
            population_size=6, iterations=ITERATIONS, target=target, seed=3
        ).fit(problem)

    free = fit(None)
    assert free.n_iterations_ == len(free.trace_) == ITERATIONS
    assert free.best_fitness_ == free.trace_[-1]
    assert not free.stopped_early_

    # a value the global best first reaches after some improvement
    improved_at = np.flatnonzero(np.diff(sign * free.trace_) < 0) + 1
    assert improved_at.size
    first = improved_at[len(improved_at) // 2]
    hit = fit(free.trace_[first])
    assert hit.stopped_early_
    assert hit.n_iterations_ == len(hit.trace_) == first + 1
    assert np.array_equal(hit.trace_, free.trace_[: first + 1])
    assert hit.best_fitness_ == hit.trace_[-1]

    missed = fit(-sign * 1e12)
    assert not missed.stopped_early_
    assert missed.n_iterations_ == ITERATIONS
    assert np.array_equal(missed.trace_, free.trace_)


@pytest.mark.parametrize(
    "cls, population_size",
    [
        (GhosaOptimizer, 0),
        (ContinuousGhosaOptimizer, 0),
        (ParticleSwarmOptimizer, 0),
        (GeneticAlgorithmOptimizer, 1),
    ],
)
def test_population_below_minimum_rejected(cls, population_size, rng):
    problem = (
        TspProblem(random_tsp(rng, n=5))
        if cls is GhosaOptimizer
        else benchmark_function("f6")
    )
    with pytest.raises(ConfigError, match="population_size"):
        cls(population_size=population_size, iterations=1).fit(problem)
    cls(population_size=population_size + 1, iterations=1).fit(problem)
