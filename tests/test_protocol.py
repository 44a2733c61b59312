"""The run protocol every optimizer shares through ``PopulationOptimizer.fit``."""

import inspect

import numpy as np
import pytest

from conftest import FIXTURES, random_knapsack, random_qap, random_roadnet, random_tsp
from ghosa import (
    ContinuousGhosaOptimizer,
    ExperimentConfig,
    GeneticAlgorithmOptimizer,
    GhosaOptimizer,
    KnapsackProblem,
    ParticleSwarmOptimizer,
    QapProblem,
    RoadNetworkProblem,
    TspProblem,
    benchmark_function,
    run_experiment,
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


# --- the problem protocol every optimizer scores through ----------------------

PROBLEMS = {
    "tsp": lambda rng: TspProblem(random_tsp(rng, n=12)),
    "qap": lambda rng: QapProblem(random_qap(rng, n=7)),
    "knapsack": lambda rng: KnapsackProblem(random_knapsack(rng, m=2, n=15)),
    "roadnet": lambda rng: RoadNetworkProblem(random_roadnet(rng), awt_noise=0.5),
    "benchmark": lambda rng: benchmark_function("f12"),
}
DISCRETE = ["tsp", "qap", "knapsack", "roadnet"]


@pytest.mark.parametrize("kind", list(PROBLEMS))
def test_problem_sets_the_shared_attributes(kind, rng):
    problem = PROBLEMS[kind](rng)
    assert isinstance(problem.dimension, int) and problem.dimension >= 1
    assert problem.sense in ("min", "max")
    assert isinstance(problem.name, str) and problem.name
    assert problem.best_known is None or isinstance(problem.best_known, (int, float))
    rows = problem.initial_population(rng, 5)
    assert rows.shape == (5, problem.dimension)


@pytest.mark.parametrize("kind", DISCRETE)
def test_discrete_evaluate_batch_is_batch_fitness_and_draws_nothing(kind, rng):
    problem = PROBLEMS[kind](rng)
    problem.prepare_iteration(rng)
    rows = problem.initial_population(rng, 8)
    state = rng.bit_generator.state
    got = problem.evaluate_batch(rows, rng=rng)
    assert rng.bit_generator.state == state
    assert got.tobytes() == problem.batch_fitness(rows).tobytes()


@pytest.mark.parametrize("make, changed", [
    (lambda rng: TspProblem(random_tsp(rng, n=6)), None),
    (lambda rng: QapProblem(random_qap(rng, n=5)), None),
    (lambda rng: KnapsackProblem(random_knapsack(rng), "sweep"), None),
    (lambda rng: KnapsackProblem(random_knapsack(rng), "fixed:3"), None),
    (lambda rng: KnapsackProblem(random_knapsack(rng), "random"), True),
    (lambda rng: RoadNetworkProblem(random_roadnet(rng)), False),
    (lambda rng: RoadNetworkProblem(random_roadnet(rng), awt_noise=0.5), True),
], ids=["tsp", "qap", "sweep", "fixed", "random", "road", "noisy-road"])
def test_prepare_iteration_says_whether_scores_moved(make, changed, rng):
    """The engine re-scores its incumbents exactly when this hook returns True."""
    assert make(rng).prepare_iteration(rng) is changed


def test_f12_noise_is_one_draw_per_row_on_the_plain_quartic():
    f = benchmark_function("f12")
    x = f.initial_population(np.random.default_rng(5), 7)
    quartic = (np.arange(1, f.dimension + 1) * ((x * x) * (x * x))).sum(axis=1)
    assert f.evaluate_batch(x).tobytes() == quartic.tobytes()
    noisy = f.evaluate_batch(x, rng=np.random.default_rng(0))
    assert noisy.tobytes() == (quartic + np.random.default_rng(0).random(len(x))).tobytes()


QAP_TEXT = "3\n0 1 2\n1 0 1\n2 1 0\n0 2 1\n2 0 2\n1 2 0\n"
KNAPSACK_TEXT = "1\n4 2 50\n10 20 30 40\n1 2 3 4\n4 3 2 1\n5 5\n"
#: instance file (or function id) and the report's problem block of each kind
REPORTED = {
    "tsp": (f"{FIXTURES}/ulysses16.tsp", {
        "name": "ulysses16", "dimension": 16, "sense": "min", "best_known": None,
        "checksum": "92aece54a7fa484ce2e8ffbcdbc12dd3ac9391a551ccbf710a8462f926cfd68d",
    }),
    "qap": (QAP_TEXT, {
        "name": "qap", "dimension": 3, "sense": "min", "best_known": None,
        "checksum": "c00d9722b0e6e51780364ef38c72224d7195db0371d1efb97622312f0dde5484",
    }),
    "knapsack": (KNAPSACK_TEXT, {
        "name": "knapsack-1", "dimension": 4, "sense": "max", "best_known": 50,
        "checksum": "c6204a6e79cba0e0cabcb741fc13cc6182bda7ee65f5f43eaeb5162947ab483b",
    }),
    "roadnet": (f"{FIXTURES}/grid4.road", {
        "name": "grid4", "dimension": 16, "sense": "min", "best_known": None,
        "checksum": "647ab3ec703fac03911a991f5e100589fde93fbaf455063fe404e6bda630f610",
    }),
    "benchmark": ("f12", {
        "name": "f12 (noisy quartic)", "dimension": 10, "sense": "min", "best_known": 0.0,
        "checksum": None,
    }),
}


@pytest.mark.parametrize("kind", list(REPORTED))
def test_report_problem_block(kind, tmp_path):
    instance, expected = REPORTED[kind]
    if "\n" in instance:
        path = tmp_path / f"{kind}.txt"
        path.write_text(instance)
        instance = str(path)
    cfg = ExperimentConfig(kind, instance, runs=1, iterations=3, population=4)
    block = run_experiment(cfg)[1]["report"]["problem"]
    assert list(block.items()) == list(expected.items())
