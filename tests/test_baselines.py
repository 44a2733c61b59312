import numpy as np
import pytest

from ghosa import (
    ExperimentConfig,
    GeneticAlgorithmOptimizer,
    ParticleSwarmOptimizer,
    benchmark_function,
)
from ghosa.errors import ConfigError


def record_batches(f):
    """Make ``f`` keep a copy of every batch it scores; returns the list."""
    batches = []
    evaluate_batch = f.evaluate_batch

    def recording(x, rng=None):
        batches.append(np.array(x))
        return evaluate_batch(x, rng=rng)

    f.evaluate_batch = recording
    return batches


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

    def test_zero_velocity_clamp_never_moves(self):
        f = benchmark_function("f5", dim=4)
        batches = record_batches(f)
        opt = ParticleSwarmOptimizer(
            population_size=6, iterations=30, velocity_clamp=0.0, seed=4
        ).fit(f)
        assert np.all(opt.trace_ == opt.trace_[0])
        assert all(np.array_equal(b, batches[0]) for b in batches)

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

    @pytest.mark.parametrize("crossover_rate", [0.0, 1.0])
    def test_odd_population_keeps_its_unpaired_child(self, crossover_rate):
        # without mutation every child a crossover leaves alone, and always
        # the seventh, is a copy of a row of the previous population
        f = benchmark_function("f1", dim=4)
        batches = record_batches(f)
        GeneticAlgorithmOptimizer(
            population_size=7, iterations=20, crossover_rate=crossover_rate,
            mutation_rate=0.0, seed=6,
        ).fit(f)
        kept = 7 if crossover_rate == 0.0 else 1
        for k in range(1, len(batches)):
            # the elite may have been scored in any earlier batch
            scored = np.vstack(batches[:k])
            for child in batches[k][7 - kept:]:
                assert (child == scored).all(axis=1).any()

    def test_sphere_convergence(self):
        opt = GeneticAlgorithmOptimizer(seed=2, target=1e-2).fit(
            benchmark_function("f1", dim=5)
        )
        assert opt.best_fitness_ <= 1e-2
        assert np.all(np.diff(opt.trace_) <= 0)

    def test_camel_reaches_basin(self):
        f = benchmark_function("f6")
        opt = GeneticAlgorithmOptimizer(
            population_size=40, iterations=2000, seed=1, target=f.best_known + 1e-2
        ).fit(f)
        assert abs(opt.best_fitness_ - f.best_known) <= 1e-2

    def test_bounds_respected(self):
        f = benchmark_function("f14")
        opt = GeneticAlgorithmOptimizer(population_size=10, iterations=100, seed=3).fit(f)
        assert np.all(opt.best_x_ >= f.bounds[:, 0])
        assert np.all(opt.best_x_ <= f.bounds[:, 1])

    @pytest.mark.parametrize("rate", [0.0, None, 1.0])
    def test_one_iteration_draws_one_normal_per_mutated_gene(self, monkeypatch, rate):
        # the mutation mask is the one ``random`` call that fills an (N, D)
        # buffer; at rate 0 no normal is drawn, at rate 1 one for every gene
        n, dim = 7, 30
        masks, normals = [], []
        default_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def random(self, *args, out=None, **kwargs):
                drawn = self._rng.random(*args, out=out, **kwargs)
                if out is not None:
                    masks.append(drawn < (1.0 / dim if rate is None else rate))
                return drawn

            def standard_normal(self, *args, **kwargs):
                drawn = self._rng.standard_normal(*args, **kwargs)
                normals.append(np.size(drawn))
                return drawn

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        GeneticAlgorithmOptimizer(
            population_size=n, iterations=1, mutation_rate=rate, seed=3,
        ).fit(benchmark_function("f1", dim=dim))
        assert len(masks) == 1 and masks[0].shape == (n, dim)
        assert sum(normals) == masks[0].sum()
        if rate is not None:
            assert sum(normals) == rate * n * dim

    def test_seeded_determinism(self):
        f = benchmark_function("f22")
        a = GeneticAlgorithmOptimizer(population_size=10, iterations=80, seed=5).fit(f)
        b = GeneticAlgorithmOptimizer(population_size=10, iterations=80, seed=5).fit(f)
        assert np.array_equal(a.trace_, b.trace_)


@pytest.mark.parametrize("cls", [ParticleSwarmOptimizer, GeneticAlgorithmOptimizer])
@pytest.mark.parametrize("fid", ["f1", "f22"])
def test_best_x_is_scored_and_not_shared(cls, fid):
    # the loops update positions, velocities and children in place; the
    # returned best row must be the one scored, and owned by the caller
    f = benchmark_function(fid)
    opt = cls(population_size=9, iterations=60, seed=4).fit(f)
    assert f.evaluate(opt.best_x_) == opt.best_fitness_
    trace, best_x = opt.trace_, opt.best_x_.copy()
    opt.best_x_[:] = f.bounds[:, 1]
    opt.fit(f)
    assert np.array_equal(opt.trace_, trace)
    assert np.array_equal(opt.best_x_, best_x)


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
