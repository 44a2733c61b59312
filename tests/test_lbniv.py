import warnings

import numpy as np
import pytest

from ghosa import (
    ContinuousGhosaOptimizer,
    benchmark_function,
    lbniv_update,
    update_d,
    update_epsilon,
)
from ghosa.errors import ConfigError, DegenerateFitnessWarning, DimensionMismatch
from ghosa.lbniv import update_d_batch, update_epsilon_batch


class TestUpdateD:
    def test_improvement_with_upward_move(self):
        assert update_d(8.0, 10.0, x=1.0, x_prev=0.5) == pytest.approx(0.2)

    def test_improvement_with_downward_move(self):
        assert update_d(8.0, 10.0, x=0.5, x_prev=1.0) == pytest.approx(-0.2)

    def test_no_change_gives_zero(self):
        assert update_d(10.0, 10.0, x=2.0, x_prev=1.0) == 0.0
        assert update_d(10.0, 10.0, x=1.0, x_prev=2.0) == 0.0

    def test_branch_swap_negates(self, rng):
        for _ in range(100):
            j, jp = rng.normal(size=2)
            if abs(jp) < 1e-12:
                continue
            up = update_d(j, jp, 1.0, 0.0)
            down = update_d(j, jp, 0.0, 1.0)
            assert up == pytest.approx(-down)

    def test_degenerate_previous_fitness(self):
        with pytest.warns(DegenerateFitnessWarning):
            assert update_d(5.0, 0.0, 1.0, 0.0) == 0.0


class TestUpdateEpsilon:
    def test_above_max_halves_with_k_two(self):
        assert update_epsilon(0.2, x=25.0, bounds=(-20.0, 20.0), k=2.0) == pytest.approx(0.1)

    def test_below_min_doubles_with_k_two(self):
        assert update_epsilon(0.2, x=-25.0, bounds=(-20.0, 20.0), k=2.0) == pytest.approx(0.4)

    def test_inside_bounds_unchanged(self):
        assert update_epsilon(0.2, x=3.0, bounds=(-20.0, 20.0), k=2.0) == 0.2

    def test_inverse_pair_restores(self, rng):
        for _ in range(100):
            eps = float(rng.uniform(1e-6, 10.0))
            k = float(rng.uniform(1.1, 5.0))
            up = update_epsilon(eps, 100.0, (0.0, 1.0), k)
            restored = update_epsilon(up, -100.0, (0.0, 1.0), k)
            assert restored == pytest.approx(eps)


class TestLbnivUpdate:
    def test_hand_computed_one_dimensional_move(self):
        out = lbniv_update(
            x=np.array([1.0]), d=np.full((1, 2), 0.5), eps=np.array([0.2]),
            best=np.array([3.0]), front=np.array([4.0]), rear=np.array([2.0]),
            bias=0.001,
        )
        # 1 + |3-2|*0.5*0.2 + |3-4|*0.5*0.2 + 0.001
        assert out[0] == pytest.approx(1.201)

    def test_all_equal_moves_by_bias_only(self):
        x = np.array([0.5, -1.5, 3.0])
        out = lbniv_update(x, d=np.ones((3, 2)), eps=np.ones(3), best=x, front=x,
                           rear=x, bias=0.001)
        assert np.allclose(out, x + 0.001)

    def test_zero_bias_zero_d_is_identity(self):
        x = np.array([2.0, -7.0])
        out = lbniv_update(x, d=np.zeros((2, 2)), eps=np.full(2, 0.2),
                           best=np.array([1.0, 1.0]), front=np.array([0.0, 0.0]),
                           rear=np.array([5.0, 5.0]), bias=0.0)
        assert np.array_equal(out, x)

    def test_dimension_mismatch(self):
        x = np.array([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            lbniv_update(x, d=np.zeros((2, 2)), eps=np.ones(2), best=np.zeros(3),
                         front=np.zeros(2), rear=np.zeros(2), bias=0.0)
        with pytest.raises(DimensionMismatch):
            lbniv_update(x, d=np.zeros((2, 2)), eps=np.ones((2, 2)), best=x,
                         front=x, rear=x, bias=0.0)
        with pytest.raises(DimensionMismatch):
            lbniv_update(x, d=np.zeros(2), eps=np.ones(2), best=x, front=x,
                         rear=x, bias=0.0)


class TestParams:
    """The LBNIV settings are fields of ContinuousGhosaOptimizer, checked there."""

    def test_k_must_exceed_one(self):
        with pytest.raises(ConfigError, match="k must be > 1"):
            ContinuousGhosaOptimizer(k=1.0).check_params()

    def test_eps0_positive(self):
        with pytest.raises(ConfigError, match="eps0"):
            ContinuousGhosaOptimizer(eps0=0.0).check_params()

    def test_bias_finite(self):
        with pytest.raises(ConfigError, match="bias"):
            ContinuousGhosaOptimizer(bias=float("nan")).check_params()


class TestBatchEquivalence:
    # the engine's pinned fits rely on the batch kernels matching their
    # scalar forms bit for bit, the sign of zero included
    def test_update_d_batch_matches_scalar(self, rng):
        for _ in range(50):
            n, d = 6, 4
            fit = rng.normal(size=n)
            fit_prev = rng.normal(size=n)
            fit_prev[np.abs(fit_prev) < 1e-3] = 1.0
            x = rng.normal(size=(n, d))
            ref = rng.normal(size=(n, d))
            got = update_d_batch(fit, fit_prev, x, ref)
            for i in range(n):
                for j in range(d):
                    want = update_d(fit[i], fit_prev[i], x[i, j], ref[i, j])
                    assert (got[i, j], np.signbit(got[i, j])) == (want, np.signbit(want))

    def test_update_d_batch_stacked_references_match_single_calls(self, rng):
        # the engine updates d for both ring neighbours in one pass over (2, N, D)
        fit = rng.normal(size=7)
        fit_prev = rng.normal(size=7)
        fit_prev[[1, 4]] = [0.0, np.inf]
        x = rng.normal(size=(7, 5))
        refs = rng.normal(size=(2, 7, 5))
        refs[0, 2] = x[2]  # equal components take the upward branch
        got = update_d_batch(fit, fit_prev, x, refs)
        assert got.shape == refs.shape
        for got_k, ref in zip(got, refs):
            assert np.array_equal(got_k, update_d_batch(fit, fit_prev, x, ref))

    def test_update_epsilon_batch_matches_scalar(self, rng):
        bounds = np.array([[-1.0, 1.0], [0.0, 2.0], [-5.0, -3.0]])
        for _ in range(50):
            eps = rng.uniform(0.01, 1.0, size=(4, 3))
            x = rng.normal(scale=3.0, size=(4, 3))
            got = update_epsilon_batch(eps, x, bounds, k=2.0)
            for i in range(4):
                for j in range(3):
                    want = update_epsilon(eps[i, j], x[i, j], tuple(bounds[j]), 2.0)
                    assert (got[i, j], np.signbit(got[i, j])) == (want, np.signbit(want))


def test_handled_step_scale_overflow_does_not_warn():
    # eps0 * k overflows to inf on the first undershoot; the engine resets
    # such step scales to eps0, so the overflow is no fault worth a warning
    opt = ContinuousGhosaOptimizer(population_size=10, iterations=20, k=1e300,
                                   eps0=1e200, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        opt.fit(benchmark_function("f1", 5))
    assert np.isfinite(opt.best_fitness_)
