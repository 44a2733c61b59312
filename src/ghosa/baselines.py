"""Reference real-coded GA and global-best PSO for bounded minimization.

Both are deliberately canonical: PSO with constriction-style constants
(inertia 0.72, c1 = c2 = 1.49) and velocity clamping; GA with size-2
tournaments, blend crossover, per-gene Gaussian mutation at rate 1/D, and
one elite.  Positions always stay inside the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (
    PopulationOptimizer,
    best_of,
    check_int_at_least,
    check_number,
    check_positive,
    check_probability,
)


@dataclass(eq=False, repr=False)
class ParticleSwarmOptimizer(PopulationOptimizer):
    """Global-best PSO over a bounded continuous problem."""

    inertia: float = 0.72
    cognitive: float = 1.49
    social: float = 1.49
    velocity_clamp: float = 0.5

    def check_params(self):
        super().check_params()
        check_number(self.inertia, "inertia")
        for name in ("cognitive", "social", "velocity_clamp"):
            check_positive(getattr(self, name), name, strict=False)

    def _run(self, problem, rng):
        lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
        span = hi - lo
        n, dim = self.population_size, problem.dim

        x = problem.initial_population(rng, n)
        v = np.zeros((n, dim))
        vmax = self.velocity_clamp * span
        fit = self._score(problem.evaluate_batch, x, rng=rng)
        pbest_x = x.copy()
        pbest_f = fit.copy()
        gbest_x, gbest_f = best_of(pbest_x, pbest_f)

        while True:
            r1 = rng.random((n, dim))
            r2 = rng.random((n, dim))
            v = (
                self.inertia * v
                + self.cognitive * r1 * (pbest_x - x)
                + self.social * r2 * (gbest_x[None, :] - x)
            )
            v = np.clip(v, -vmax, vmax)
            x = np.clip(x + v, lo, hi)
            fit = self._score(problem.evaluate_batch, x, rng=rng)
            better = fit < pbest_f
            pbest_x[better] = x[better]
            pbest_f[better] = fit[better]
            gbest_x, gbest_f = best_of(pbest_x, pbest_f, (gbest_x, gbest_f))
            self.best_x_ = gbest_x
            yield gbest_f


@dataclass(eq=False, repr=False)
class GeneticAlgorithmOptimizer(PopulationOptimizer):
    """Real-coded generational GA with tournament selection and one elite."""

    # blend crossover needs a pair of parents
    min_population = 2

    crossover_rate: float = 0.9
    mutation_rate: float | None = None
    mutation_scale: float = 0.1
    tournament_size: int = 2

    def check_params(self):
        super().check_params()
        check_probability(self.crossover_rate, "crossover_rate")
        if self.mutation_rate is not None:
            check_probability(self.mutation_rate, "mutation_rate")
        check_positive(self.mutation_scale, "mutation_scale", strict=False)
        check_int_at_least(self.tournament_size, 1, "tournament_size")

    def _run(self, problem, rng):
        lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
        span = hi - lo
        n, dim = self.population_size, problem.dim
        mrate = self.mutation_rate if self.mutation_rate is not None else 1.0 / dim

        x = problem.initial_population(rng, n)
        fit = self._score(problem.evaluate_batch, x, rng=rng)
        gbest_x, gbest_f = best_of(x, fit)

        while True:
            # tournament selection of n parents
            entrants = rng.integers(0, n, size=(n, self.tournament_size))
            winners = entrants[np.arange(n), np.argmin(fit[entrants], axis=1)]
            parents = x[winners]

            # blend crossover between consecutive parent pairs
            children = parents.copy()
            pair_a = children[0::2]
            pair_b = children[1::2]
            n_pairs = min(len(pair_a), len(pair_b))
            do_cx = rng.random(n_pairs) < self.crossover_rate
            u = rng.uniform(-0.25, 1.25, size=(n_pairs, dim))
            mixed_a = pair_a[:n_pairs] + u * (pair_b[:n_pairs] - pair_a[:n_pairs])
            mixed_b = pair_b[:n_pairs] + u * (pair_a[:n_pairs] - pair_b[:n_pairs])
            pair_a[:n_pairs][do_cx] = mixed_a[do_cx]
            pair_b[:n_pairs][do_cx] = mixed_b[do_cx]

            # per-gene Gaussian mutation
            mutate = rng.random((n, dim)) < mrate
            noise = rng.normal(0.0, 1.0, size=(n, dim)) * self.mutation_scale * span
            children = np.where(mutate, children + noise, children)
            children = np.clip(children, lo, hi)

            child_fit = self._score(problem.evaluate_batch, children, rng=rng)

            # one elite survives verbatim
            worst = int(np.argmax(child_fit))
            children[worst] = gbest_x
            child_fit[worst] = gbest_f

            x, fit = children, child_fit
            gbest_x, gbest_f = best_of(x, fit, (gbest_x, gbest_f))
            self.best_x_ = gbest_x
            yield gbest_f
