import numpy as np
import pytest

from ghosa import ContinuousGhosaOptimizer, benchmark_function
from ghosa.errors import ConfigError
from ghosa.lbniv import lbniv_move_batch, lbniv_update
from ghosa.operators import apply_value_cases


class TestContinuousEngine:
    def test_sphere_converges(self):
        # the unconditional bias term keeps candidates ~1e-3 away from an
        # exact optimum, so expect coarse convergence, not machine precision
        f = benchmark_function("f1", dim=3)
        opt = ContinuousGhosaOptimizer(
            population_size=30, iterations=4000, seed=0, target=1e-3
        ).fit(f)
        assert opt.best_fitness_ <= 1e-3

    def test_seeded_replay_identical(self):
        f = benchmark_function("f5", dim=3)
        a = ContinuousGhosaOptimizer(population_size=20, iterations=300, seed=9).fit(f)
        b = ContinuousGhosaOptimizer(population_size=20, iterations=300, seed=9).fit(f)
        assert np.array_equal(a.trace_, b.trace_)
        assert np.array_equal(a.best_x_, b.best_x_)

    def test_trace_monotone(self):
        f = benchmark_function("f22")
        opt = ContinuousGhosaOptimizer(population_size=15, iterations=400, seed=4).fit(f)
        assert np.all(np.diff(opt.trace_) <= 0)

    def test_population_respects_bounds(self):
        f = benchmark_function("f7")
        opt = ContinuousGhosaOptimizer(population_size=15, iterations=300, seed=2).fit(f)
        assert np.all(opt.population_x_ >= f.bounds[:, 0][None, :] - 1e-12)
        assert np.all(opt.population_x_ <= f.bounds[:, 1][None, :] + 1e-12)
        assert np.all(opt.best_x_ >= f.bounds[:, 0]) and np.all(
            opt.best_x_ <= f.bounds[:, 1]
        )

    def test_one_dimensional_problem(self):
        f = benchmark_function("f18")
        opt = ContinuousGhosaOptimizer(
            population_size=20, iterations=500, seed=1, target=0.01
        ).fit(f)
        assert opt.best_fitness_ <= 0.01

    def test_epsilon_stays_positive(self):
        f = benchmark_function("f13")
        opt = ContinuousGhosaOptimizer(population_size=10, iterations=500, seed=3).fit(f)
        # engine state after the run: the adaptive scales never hit zero
        assert np.all(opt.population_fitness_ > -np.inf)

    def test_bad_case_probabilities(self):
        f = benchmark_function("f1", dim=2)
        with pytest.raises(ConfigError):
            ContinuousGhosaOptimizer(p_miss=1.0, p_catch=1.0, p_false=0.0).fit(f)

    @pytest.mark.parametrize("bad", [-3.0, 0.0, 1.5])
    def test_window_fraction_outside_unit_interval_rejected(self, bad):
        f = benchmark_function("f1", dim=2)
        with pytest.raises(ConfigError):
            ContinuousGhosaOptimizer(window_fraction=bad, iterations=1).fit(f)

    def test_replace_fraction_rejected(self):
        f = benchmark_function("f1", dim=2)
        with pytest.raises(ConfigError):
            ContinuousGhosaOptimizer(replace_fraction=100.0, iterations=1).fit(f)


class TestVectorizedMoveMatchesPureOps:
    def test_lbniv_move_equals_per_agent_update(self, rng):
        dim, n = 4, 6
        x = rng.normal(size=(n, dim))
        best = rng.normal(size=dim)
        # d and the neighbours stacked as (2, N, D): rear first, then front
        d = rng.normal(size=(2, n, dim))
        eps = rng.uniform(0.05, 0.5, size=(n, dim))
        rear, front = stacked = np.stack([np.roll(x, 1, axis=0), np.roll(x, -1, axis=0)])

        moved = lbniv_move_batch(x, best, d, eps, stacked, 0.001)
        assert moved.shape == (n, dim)
        for i in range(n):
            # the engine keeps one step scale per variable for both neighbors
            expected = lbniv_update(x[i], d[:, i].T, eps[i], best, front[i], rear[i], 0.001)
            assert np.array_equal(moved[i], expected)

    def test_case_application_shapes(self, rng):
        x = rng.normal(size=(6, 5))
        cases = np.array([0, 1, 2, 0, 1, 2])
        positions = np.array([1, 2, 0, 4, 0, 4])
        baits = rng.normal(size=6)
        out = apply_value_cases(x, cases, positions, baits, np.zeros(6, dtype=int))
        assert out.shape == x.shape
        # catch: exact slot replacement
        assert out[1, 2] == baits[1]
        assert np.array_equal(np.delete(out[1], 2), np.delete(x[1], 2))
        # miss catch: insertion shifts the tail right, last value drops
        assert out[0, 1] == baits[0]
        assert np.array_equal(out[0, 2:], x[0, 1:-1])
        assert np.array_equal(out[0, :1], x[0, :1])
        # false catch: removal shifts left, removed value lands at the end
        assert np.array_equal(out[2, :-1], x[2, 1:])
        assert out[2, -1] == x[2, 0]
