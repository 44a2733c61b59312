import numpy as np
import pytest

from ghosa import (
    ExperimentConfig,
    GeneticAlgorithmOptimizer,
    ParticleSwarmOptimizer,
    benchmark_function,
)
from ghosa.errors import ConfigError


class TestPso:
    def test_degenerate_particle_never_moves(self):
        f = benchmark_function("f1", dim=3)
        opt = ParticleSwarmOptimizer(
            population_size=1, iterations=50, inertia=0.0,
            cognitive=0.0, social=0.0, seed=0,
        ).fit(f)
        assert np.all(np.diff(opt.trace_) == 0.0)

    def test_constant_objective_flat_trace(self):
        f = benchmark_function("f1", dim=2)
        f.fn = lambda x: np.full(len(x), 3.25)
        opt = ParticleSwarmOptimizer(population_size=8, iterations=40, seed=1).fit(f)
        assert np.all(opt.trace_ == 3.25)

    def test_sphere_convergence(self):
        opt = ParticleSwarmOptimizer(seed=2, target=1e-3).fit(
            benchmark_function("f1", dim=5)
        )
        assert opt.best_fitness_ <= 1e-3
        assert np.all(np.diff(opt.trace_) <= 0)

    def test_sphere_ten_dim_order_of_magnitude_band(self):
        # published comparisons report bests in the 1e-2 range here; demand
        # the same order of magnitude, not an exact mean
        opt = ParticleSwarmOptimizer(seed=0, target=0.05).fit(benchmark_function("f1"))
        assert opt.best_fitness_ <= 0.05

    def test_bounds_respected(self):
        f = benchmark_function("f7")
        opt = ParticleSwarmOptimizer(population_size=10, iterations=100, seed=3).fit(f)
        assert np.all(opt.best_x_ >= f.bounds[:, 0])
        assert np.all(opt.best_x_ <= f.bounds[:, 1])

    def test_seeded_determinism(self):
        f = benchmark_function("f5", dim=3)
        a = ParticleSwarmOptimizer(population_size=10, iterations=100, seed=8).fit(f)
        b = ParticleSwarmOptimizer(population_size=10, iterations=100, seed=8).fit(f)
        assert np.array_equal(a.trace_, b.trace_)


class TestGa:
    def test_no_variation_population_static(self):
        f = benchmark_function("f1", dim=3)
        opt = GeneticAlgorithmOptimizer(
            population_size=10, iterations=30, crossover_rate=0.0,
            mutation_rate=0.0, seed=0,
        ).fit(f)
        assert np.all(np.diff(opt.trace_) == 0.0)

    def test_sphere_convergence(self):
        opt = GeneticAlgorithmOptimizer(seed=2, target=1e-2).fit(
            benchmark_function("f1", dim=5)
        )
        assert opt.best_fitness_ <= 1e-2
        assert np.all(np.diff(opt.trace_) <= 0)

    def test_camel_reaches_basin(self):
        f = benchmark_function("f6")
        opt = GeneticAlgorithmOptimizer(
            population_size=40, iterations=2000, seed=1, target=f.optimum + 1e-2
        ).fit(f)
        assert abs(opt.best_fitness_ - f.optimum) <= 1e-2

    def test_bounds_respected(self):
        f = benchmark_function("f14")
        opt = GeneticAlgorithmOptimizer(population_size=10, iterations=100, seed=3).fit(f)
        assert np.all(opt.best_x_ >= f.bounds[:, 0])
        assert np.all(opt.best_x_ <= f.bounds[:, 1])

    def test_seeded_determinism(self):
        f = benchmark_function("f22")
        a = GeneticAlgorithmOptimizer(population_size=10, iterations=80, seed=5).fit(f)
        b = GeneticAlgorithmOptimizer(population_size=10, iterations=80, seed=5).fit(f)
        assert np.array_equal(a.trace_, b.trace_)


class TestBaselineValidation:
    """Baseline settings are checked in ``fit``; the harness picks the class."""

    def test_defaults_valid(self):
        f = benchmark_function("f1", dim=2)
        for cls in (ParticleSwarmOptimizer, GeneticAlgorithmOptimizer):
            cls(iterations=2, seed=0).fit(f)
        assert ExperimentConfig(problem="benchmark", algorithm="PSO").params == {}

    def test_bad_algorithm(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="benchmark", algorithm="ACO")

    def test_rates_validated(self):
        f = benchmark_function("f1", dim=2)
        with pytest.raises(ConfigError):
            GeneticAlgorithmOptimizer(crossover_rate=1.5, iterations=1).fit(f)

    @pytest.mark.parametrize("rate", [1.5, -2.0])
    def test_mutation_rate_outside_unit_interval_rejected(self, rate):
        f = benchmark_function("f1", dim=2)
        with pytest.raises(ConfigError):
            GeneticAlgorithmOptimizer(mutation_rate=rate, iterations=1).fit(f)

    def test_tournament_size_below_one_rejected(self):
        f = benchmark_function("f1", dim=2)
        with pytest.raises(ConfigError):
            GeneticAlgorithmOptimizer(tournament_size=0, iterations=1).fit(f)
