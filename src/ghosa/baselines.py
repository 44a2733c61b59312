"""Reference real-coded GA and global-best PSO for bounded minimization.

Both are deliberately canonical: PSO with constriction-style constants
(inertia 0.72, c1 = c2 = 1.49) and velocity clamping; GA with size-2
tournaments, blend crossover, per-gene Gaussian mutation at rate 1/D, and
one elite.  Positions always stay inside the box.

Each iteration updates its arrays in place and keeps the term order of the
velocity and blend updates.  GA draws one mutation normal per mutated gene, in
row-major order.  Draw order and term order are part of every seeded result,
so a rewrite must keep them.
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
        n, dim = self.population_size, problem.dimension

        x, fit = self._fresh(problem, rng, n)
        v = np.zeros((n, dim))
        vmax = self.velocity_clamp * problem.span
        pbest_x = x.copy()
        pbest_f = fit.copy()
        gbest_x, gbest_f = best_of(pbest_x, pbest_f)
        r1, r2 = np.empty((2, n, dim))

        while True:
            # v = inertia*v + (cognitive*r1)*(pbest_x - x) + (social*r2)*(gbest_x - x)
            np.multiply(rng.random(out=r1), self.cognitive, out=r1)
            np.multiply(rng.random(out=r2), self.social, out=r2)
            r1 *= pbest_x - x
            r2 *= gbest_x - x
            v *= self.inertia
            v += r1
            v += r2
            np.minimum(np.maximum(v, -vmax, out=v), vmax, out=v)
            x += v
            problem.clamp(x)
            fit = self._score(problem.evaluate_batch, x, rng=rng)
            better = fit < pbest_f
            np.copyto(pbest_x, x, where=better[:, None])
            np.copyto(pbest_f, fit, where=better)
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
        n, dim = self.population_size, problem.dimension
        mrate = self.mutation_rate if self.mutation_rate is not None else 1.0 / dim

        x, fit = self._fresh(problem, rng, n)
        gbest_x, gbest_f = best_of(x, fit)
        draws = np.empty((n, dim))

        while True:
            # tournament selection of n parents
            entrants = rng.integers(0, n, size=(n, self.tournament_size))
            winners = entrants[np.arange(n), np.argmin(fit[entrants], axis=1)]
            children = x.take(winners, axis=0)

            # blend crossover between consecutive parent pairs
            pair_a, pair_b = children[: n - 1 : 2], children[1::2]
            do_cx = rng.random(len(pair_b)) < self.crossover_rate
            u = rng.uniform(-0.25, 1.25, size=pair_b.shape)
            mixed_a = pair_a + u * (pair_b - pair_a)
            mixed_b = pair_b + u * (pair_a - pair_b)
            np.copyto(pair_a, mixed_a, where=do_cx[:, None])
            np.copyto(pair_b, mixed_b, where=do_cx[:, None])

            # per-gene Gaussian mutation: one normal per mutated gene, by flat index
            genes = np.flatnonzero(rng.random(out=draws) < mrate)
            steps = rng.standard_normal(genes.size) * self.mutation_scale
            children.put(genes, children.take(genes) + steps * problem.span[genes % dim])
            problem.clamp(children)

            child_fit = self._score(problem.evaluate_batch, children, rng=rng)

            # one elite survives verbatim
            worst = int(np.argmax(child_fit))
            children[worst] = gbest_x
            child_fit[worst] = gbest_f

            x, fit = children, child_fit
            gbest_x, gbest_f = best_of(x, fit, (gbest_x, gbest_f))
            self.best_x_ = gbest_x
            yield gbest_f
