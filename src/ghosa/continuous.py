"""Continuous-domain swarm engine: string operators plus the LBNIV move.

Agents are real vectors in a box.  Each iteration a candidate is built per
agent by the discrete engine's operator kernels run on value strings (a
fresh value baited into the best slot by ``apply_cases``, occasional
``rotate_segments``), then shifted by the neighbor-influenced variation,
clamped, evaluated, and accepted only on improvement.  All per-agent state
(direction d, step scale eps) is kept as stacked arrays so one iteration is
a handful of numpy passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (
    PopulationOptimizer,
    check_case_probabilities,
    check_probability,
    check_replace_fraction,
    check_window_fraction,
)
from .lbniv import (
    FRONT,
    REAR,
    LbnivParams,
    update_d_batch,
    update_epsilon_batch,
)
from .operators import apply_cases, rotate_segments

#: step scales beyond this are reset to eps0 (runaway growth guard)
EPS_CAP = 1e12


@dataclass(eq=False, repr=False)
class ContinuousGhosaOptimizer(PopulationOptimizer):
    """Swarm optimizer for bounded continuous problems.

    ``eps0``, ``k`` and ``bias`` parameterize the adaptive variation;
    the remaining knobs mirror the discrete engine.  After ``fit(problem)``
    results are in ``best_x_``, ``best_fitness_``, ``trace_``, and the final
    population in ``population_x_`` and ``population_fitness_``.
    """

    replace_fraction: float = 10.0
    p_miss: float = 1.0 / 3.0
    p_catch: float = 1.0 / 3.0
    p_false: float = 1.0 / 3.0
    swarm_rate: float = 0.2
    window_fraction: float = 1.0
    eps0: float = 0.2
    k: float = 2.0
    bias: float = 0.001

    def _lbniv_move(
        self,
        x: np.ndarray,
        best: np.ndarray,
        d: np.ndarray,
        eps: np.ndarray,
        rear: np.ndarray,
        front: np.ndarray,
    ) -> np.ndarray:
        return (
            x
            + np.abs(best[None, :] - rear) * d[:, :, REAR] * eps[:, :, REAR]
            + np.abs(best[None, :] - front) * d[:, :, FRONT] * eps[:, :, FRONT]
            + self.bias
        )

    def _run(self, problem, rng):
        check_probability(self.swarm_rate, "swarm_rate")
        LbnivParams(k=self.k, bias=self.bias, eps0=self.eps0)  # checks k and eps0
        case_p = check_case_probabilities(self.p_miss, self.p_catch, self.p_false)
        check_window_fraction(self.window_fraction)
        check_replace_fraction(self.replace_fraction)

        dim = problem.dim
        n_agents = self.population_size
        bounds = problem.bounds
        lo, hi = bounds[:, 0], bounds[:, 1]
        span = hi - lo

        x = rng.uniform(lo, hi, size=(n_agents, dim))
        fitness = np.asarray(problem.evaluate_batch(x, rng=rng), dtype=float)
        d = np.zeros((n_agents, dim, 2))
        eps = np.full((n_agents, dim, 2), self.eps0)

        best_i = int(np.argmin(fitness))
        best_x = x[best_i].copy()
        best_f = float(fitness[best_i])

        if dim <= 20 or self.window_fraction >= 1.0:
            window = np.arange(dim)
        else:
            wlen = max(1, int(round(self.window_fraction * dim)))
            window = np.arange(wlen)  # offset drawn per iteration

        windowed = len(window) < dim
        replace_count = int(self.replace_fraction * n_agents // 100)

        while True:
            cases = rng.choice(3, size=n_agents, p=case_p)
            rotate = rng.random(n_agents) < self.swarm_rate
            bait_u = rng.random(n_agents)
            offset = int(rng.integers(0, dim - len(window) + 1)) if windowed else 0
            slots = window + offset

            # change-of-position: trial the bait in every window slot
            trial_best = np.full(n_agents, np.inf)
            positions = np.full(n_agents, slots[0])
            for pos in slots:
                trial = x.copy()
                trial[:, pos] = lo[pos] + bait_u * span[pos]
                val = np.asarray(problem.evaluate_batch(trial, rng=None), dtype=float)
                better = val < trial_best
                trial_best[better] = val[better]
                positions[better] = pos
            baits = lo[positions] + bait_u * span[positions]

            cand = apply_cases(x, cases, positions, baits, permutation=False)
            if dim >= 2 and np.any(rotate):
                shifts = rng.integers(1, dim, size=n_agents)
                idx = np.nonzero(rotate)[0]
                cand[idx] = rotate_segments(cand[idx], 0, dim, shifts[idx])

            rear = np.roll(x, 1, axis=0)
            front = np.roll(x, -1, axis=0)
            moved = self._lbniv_move(cand, best_x, d, eps, rear, front)

            # bound violations are judged on the pre-clamp move; the same
            # multiplier applies to both neighbor entries of a variable
            new_eps = update_epsilon_batch(eps[:, :, REAR], moved, bounds, self.k)
            runaway = ~np.isfinite(new_eps) | (new_eps > EPS_CAP)
            new_eps = np.where(runaway, self.eps0, new_eps)
            eps = np.repeat(new_eps[:, :, None], 2, axis=2)

            moved = np.clip(moved, lo[None, :], hi[None, :])
            cand_fitness = np.asarray(problem.evaluate_batch(moved, rng=rng), dtype=float)

            d = np.stack(
                [
                    update_d_batch(cand_fitness, fitness, moved, rear),
                    update_d_batch(cand_fitness, fitness, moved, front),
                ],
                axis=2,
            )

            improved = cand_fitness < fitness
            x[improved] = moved[improved]
            fitness[improved] = cand_fitness[improved]

            bi = int(np.argmin(fitness))
            if fitness[bi] < best_f:
                best_f = float(fitness[bi])
                best_x = x[bi].copy()

            if replace_count:
                order = np.argsort(fitness, kind="stable")
                worst = order[n_agents - replace_count :]
                x[worst] = rng.uniform(lo, hi, size=(replace_count, dim))
                fitness[worst] = problem.evaluate_batch(x[worst], rng=rng)
                d[worst] = 0.0
                eps[worst] = self.eps0
                bi = int(np.argmin(fitness))
                if fitness[bi] < best_f:
                    best_f = float(fitness[bi])
                    best_x = x[bi].copy()

            self.best_x_ = best_x
            self.population_x_, self.population_fitness_ = x, fitness
            yield best_f
