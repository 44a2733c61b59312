"""The run protocol every optimizer shares through ``PopulationOptimizer.fit``."""

import inspect

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

    for bad in (float("nan"), float("inf"), "1"):
        with pytest.raises(ConfigError, match="target"):
            fit(bad)


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


@pytest.mark.parametrize(
    "cls",
    [GhosaOptimizer, ContinuousGhosaOptimizer, ParticleSwarmOptimizer, GeneticAlgorithmOptimizer],
)
def test_seed_and_budget_must_be_integers(cls):
    # a float, even 3.0, is no seed for np.random.default_rng and no size
    for bad in (-1, 1.5, 3.0, "3", np.random.default_rng(0)):
        with pytest.raises(ConfigError, match="seed"):
            cls(seed=bad).check_params()
    for good in (None, 0, np.int64(7), 2**70 + 1):
        cls(seed=good).check_params()
    with pytest.raises(ConfigError, match="population_size must be an integer"):
        cls(population_size=6.0).check_params()
    with pytest.raises(ConfigError, match="iterations must be an integer"):
        cls(iterations=3.0).check_params()


THIRD = 1.0 / 3.0
SURFACE = {
    GhosaOptimizer: (
        "GhosaOptimizer(population_size=50, iterations=25000, replace_fraction=10.0, "
        "p_miss=0.3333333333333333, p_catch=0.3333333333333333, "
        "p_false=0.3333333333333333, window_fraction=0.25, swarm_rate=0.2, "
        "target=None, seed=None)",
        [("population_size", 50), ("iterations", 25000), ("replace_fraction", 10.0),
         ("p_miss", THIRD), ("p_catch", THIRD), ("p_false", THIRD),
         ("window_fraction", 0.25), ("swarm_rate", 0.2), ("target", None), ("seed", None)],
    ),
    ContinuousGhosaOptimizer: (
        "ContinuousGhosaOptimizer(population_size=50, iterations=25000, "
        "replace_fraction=10.0, p_miss=0.3333333333333333, p_catch=0.3333333333333333, "
        "p_false=0.3333333333333333, swarm_rate=0.2, window_fraction=1.0, eps0=0.2, "
        "k=2.0, bias=0.001, target=None, seed=None)",
        [("population_size", 50), ("iterations", 25000), ("replace_fraction", 10.0),
         ("p_miss", THIRD), ("p_catch", THIRD), ("p_false", THIRD),
         ("swarm_rate", 0.2), ("window_fraction", 1.0), ("eps0", 0.2), ("k", 2.0),
         ("bias", 0.001), ("target", None), ("seed", None)],
    ),
    ParticleSwarmOptimizer: (
        "ParticleSwarmOptimizer(population_size=50, iterations=25000, inertia=0.72, "
        "cognitive=1.49, social=1.49, velocity_clamp=0.5, target=None, seed=None)",
        [("population_size", 50), ("iterations", 25000), ("inertia", 0.72),
         ("cognitive", 1.49), ("social", 1.49), ("velocity_clamp", 0.5),
         ("target", None), ("seed", None)],
    ),
    GeneticAlgorithmOptimizer: (
        "GeneticAlgorithmOptimizer(population_size=50, iterations=25000, "
        "crossover_rate=0.9, mutation_rate=None, mutation_scale=0.1, "
        "tournament_size=2, target=None, seed=None)",
        [("population_size", 50), ("iterations", 25000), ("crossover_rate", 0.9),
         ("mutation_rate", None), ("mutation_scale", 0.1), ("tournament_size", 2),
         ("target", None), ("seed", None)],
    ),
}


@pytest.mark.parametrize("cls", list(SURFACE), ids=lambda cls: cls.__name__)
def test_estimator_surface(cls):
    """Parameter names, order and defaults are the published constructor surface."""
    expected_repr, expected_params = SURFACE[cls]
    signature = inspect.signature(cls).parameters
    assert [(name, p.default) for name, p in signature.items()] == expected_params
    assert list(cls().get_params()) == [name for name, _ in expected_params]
    assert repr(cls()) == expected_repr
    keyword_only = [name for name, p in signature.items() if p.kind is p.KEYWORD_ONLY]
    assert keyword_only == ["target", "seed"]
