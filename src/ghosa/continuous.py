"""Continuous-domain swarm engine: string operators plus the LBNIV move.

Agents are real vectors in a box.  Each iteration a candidate is built per
agent by ``apply_value_cases``, the re-insert gather the discrete engine baits
through too: a fresh value baited into the window slot of lowest
``problem.placement_cost`` (whose nominal values count as evaluations and
which scores the whole window in a few stacked trial blocks), then an
occasional rotation of the whole string.  The candidate is shifted by the
neighbor-influenced variation, clamped, evaluated, and passed to
``GhosaBase._survive`` as in the discrete engine; redrawn agents restart their
d and eps.  All per-agent state is kept as stacked arrays (direction d as
(2, N, D), in the layout of the ring neighbours ``x[neighbours]``; step scale
eps as (N, D)) so one iteration is a handful of numpy passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (
    GhosaBase,
    best_of,
    categorical_cdf,
    check_number,
    check_positive,
    check_probability,
    check_window_fraction,
    window_length,
)
from .errors import ConfigError
from .lbniv import lbniv_move_batch, update_d_batch, update_epsilon_batch
from .operators import apply_value_cases

#: step scales beyond this are reset to eps0 (runaway growth guard)
EPS_CAP = 1e12


@dataclass(eq=False, repr=False)
class ContinuousGhosaOptimizer(GhosaBase):
    """Swarm optimizer for bounded continuous problems.

    ``eps0``, ``k`` and ``bias`` parameterize the adaptive variation;
    the remaining knobs mirror the discrete engine.  After ``fit(problem)``
    results are in ``best_x_``, ``best_fitness_``, ``trace_``, and the final
    population in ``population_x_`` and ``population_fitness_``.
    """

    swarm_rate: float = 0.2
    window_fraction: float = 1.0
    eps0: float = 0.2
    k: float = 2.0
    bias: float = 0.001

    def check_params(self):
        super().check_params()
        check_probability(self.swarm_rate, "swarm_rate")
        if check_number(self.k, "k") <= 1.0:
            raise ConfigError(f"k must be > 1, got {self.k}")
        check_number(self.bias, "bias")
        check_positive(self.eps0, "eps0")
        check_window_fraction(self.window_fraction)

    def _run(self, problem, rng):
        case_cdf = categorical_cdf([self.p_miss, self.p_catch, self.p_false])
        n_agents, dim = self.population_size, problem.dimension

        x, fitness = self._fresh(problem, rng, n_agents)
        # d[0] follows the rear neighbour, d[1] the front one, as x[neighbours]
        d = np.zeros((2, n_agents, dim))
        # one step scale per variable, shared by both neighbor terms
        eps = np.full((n_agents, dim), self.eps0)
        best = best_of(x, fitness)

        window = np.arange(window_length(dim, self.window_fraction))
        # rows of each agent's rear and front ring neighbour
        neighbours = (np.arange(n_agents) + np.array([[-1], [1]])) % n_agents
        unrotated = np.zeros(n_agents, dtype=int)

        while True:
            cases = case_cdf.searchsorted(rng.random(n_agents), side="right")
            rotate = rng.random(n_agents) < self.swarm_rate
            bait_u = rng.random(n_agents)
            offset = int(rng.integers(0, dim - len(window) + 1))
            # change-of-position: each row takes its cheapest slot in the shared window
            costs = self._score(problem.placement_cost, x, baits=bait_u,
                                slots=window + offset)
            positions = offset + costs.argmin(axis=1)
            baits = problem.lo[positions] + bait_u * problem.span[positions]

            shifts = unrotated
            if dim >= 2 and np.any(rotate):
                shifts = rotate * rng.integers(1, dim, size=n_agents)
            cand = apply_value_cases(x, cases, positions, baits, shifts)

            stacked = x[neighbours]
            moved = lbniv_move_batch(cand, best[0], d, eps, stacked, self.bias)

            # bound violations are judged on the pre-clamp move; eps is never
            # negative, so the compare also catches NaN and inf
            eps = update_epsilon_batch(eps, moved, problem.bounds, self.k)
            eps[~(eps <= EPS_CAP)] = self.eps0

            problem.clamp(moved)
            cand_fitness = self._score(problem.evaluate_batch, moved, rng=rng)

            d = update_d_batch(cand_fitness, fitness, moved, stacked)

            best, worst = self._survive(problem, rng, x, fitness, moved, cand_fitness, best)
            d[:, worst] = 0.0
            eps[worst] = self.eps0

            self.best_x_, best_fitness = best
            self.population_x_, self.population_fitness_ = x, fitness
            yield best_fitness
