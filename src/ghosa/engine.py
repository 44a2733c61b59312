"""Population engine for discrete event-string optimization.

Each iteration runs the operator pipeline on the whole ``(agents, n)``
population at once: one batched ``placement_cost`` call and a row-wise argmin
pick each agent's slot (change-of-position; a random slot where the cost is
None), ``rotate_segments`` and ``apply_cases`` build the candidates, and
``GhosaBase._survive`` accepts each only if it improves and redraws the worst
agents.  The recorded global best never worsens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (
    GhosaBase,
    best_of,
    categorical_cdf,
    check_probability,
    check_window_fraction,
    window_length,
)
from .operators import apply_cases, rotate_segments


@dataclass(eq=False, repr=False)
class GhosaOptimizer(GhosaBase):
    """Discrete swarm optimizer with an estimator-style interface.

    Parameters mirror the operator knobs: the three baiting-case weights,
    the change-of-position window fraction, the per-iteration rotation
    probability (``swarm_rate``), and the percentage of worst agents
    re-randomized each iteration.  ``target`` stops a run as soon as the
    global best reaches the given fitness (useful when a published optimum
    is known); ``seed`` makes the whole run reproducible.

    After ``fit(problem)`` the result lives in ``best_sequence_``,
    ``best_fitness_`` and the per-iteration ``trace_``, the final population
    in ``population_`` and ``population_fitness_``.  ``trace_components_``
    holds, per iteration, the problem's ``component_values`` of the latest
    global best that has them (one dict, shared by the iterations that keep
    it), or None.  ``evaluations_`` counts every row
    scored, including the re-scores that ``prepare_iteration`` asks for.
    """

    window_fraction: float = 0.25
    swarm_rate: float = 0.2

    def check_params(self):
        super().check_params()
        check_probability(self.swarm_rate, "swarm_rate")
        check_window_fraction(self.window_fraction)

    def _run(self, problem, rng):
        case_cdf = categorical_cdf([self.p_miss, self.p_catch, self.p_false])
        n = problem.dimension
        n_agents = self.population_size
        sign = -1.0 if problem.sense == "max" else 1.0

        problem.prepare_iteration(rng)
        sequences, fitness = self._fresh(problem, rng, n_agents)
        best = best_of(sequences, fitness, sign=sign)
        self.trace_components_ = []
        last_components = problem.component_values(best[0])

        bait_counts = np.zeros(n)
        window_len = window_length(n, self.window_fraction)
        whole_rotation = problem.rotation_scope == "whole"

        while True:
            if problem.prepare_iteration(rng):
                fitness = self._score(problem.evaluate_batch, sequences, rng=rng)

            weights = 1.0 / (1.0 + bait_counts)
            bait_cdf = categorical_cdf(weights / weights.sum())
            baits = bait_cdf.searchsorted(rng.random(n_agents), side="right") + 1
            np.add.at(bait_counts, baits - 1, 1.0)
            case_idx = case_cdf.searchsorted(rng.random(n_agents), side="right")
            rotate = rng.random(n_agents) < self.swarm_rate
            # draws nothing from ``rng`` when the window is the whole string
            starts = rng.integers(0, n - window_len + 1, size=n_agents)

            windows = starts[:, None] + np.arange(window_len)
            costs = problem.placement_cost(sequences, baits, windows)
            if costs is None:
                positions = starts + rng.integers(0, window_len, size=n_agents)
            else:
                positions = starts + np.argmin(costs, axis=1)

            rotating = np.flatnonzero(rotate & (n >= 2))
            if whole_rotation:
                start, stop = 0, n
            else:
                length = rng.integers(2, n + 1, size=len(rotating))
                start = rng.integers(0, n - length + 1)
                stop = start + length
            shift = rng.integers(1, stop - start, size=len(rotating))
            rotated = sequences.copy()
            rotated[rotating] = rotate_segments(rotated[rotating], start, stop, shift)
            candidates = apply_cases(rotated, case_idx, positions, baits)

            cand_fitness = self._score(problem.evaluate_batch, candidates, rng=rng)
            previous_best = best
            best, _ = self._survive(
                problem, rng, sequences, fitness, candidates, cand_fitness, best, sign
            )

            # None until a global best with components appears
            if best is not previous_best:
                last_components = problem.component_values(best[0]) or last_components
            self.trace_components_.append(last_components)
            self.best_sequence_, best_fitness = best
            self.population_, self.population_fitness_ = sequences, fitness
            yield best_fitness
