"""Population engine for discrete event-string optimization.

Each iteration runs the operator pipeline on the whole ``(agents, n)``
population at once: one batched ``placement_cost`` call and a row-wise argmin
pick each agent's slot (change-of-position), ``rotate_segments`` and
``apply_cases`` build the candidates, and each candidate replaces its agent
only if it improves.  Then the worst slice of the population is
re-randomized.  The recorded global best never worsens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (
    GhosaBase,
    best_of,
    categorical_cdf,
    check_int_at_least,
    check_probability,
    check_window_fraction,
    window_length,
    worst_rows,
)
from .operators import apply_cases, rotate_segments
from .problems.core import SequenceProblem

_BASE_COMPONENT_VALUES = SequenceProblem.component_values
_BASE_PLACEMENT_COST = SequenceProblem.placement_cost


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
    in ``population_`` and ``population_fitness_``.  ``evaluations_`` counts
    every row scored, including the re-scores of dynamic problems.
    """

    window_fraction: float = 0.25
    swarm_rate: float = 0.2
    max_shift: int | None = None

    def check_params(self):
        super().check_params()
        check_probability(self.swarm_rate, "swarm_rate")
        check_window_fraction(self.window_fraction)
        if self.max_shift is not None:
            check_int_at_least(self.max_shift, 1, "max_shift")

    def _run(self, problem, rng):
        case_cdf, replace_count = self._shared()
        n = problem.dimension
        n_agents = self.population_size
        sign = -1.0 if problem.sense == "max" else 1.0
        dynamic = getattr(problem, "dynamic", False)

        problem.prepare_iteration(rng)
        sequences = problem.initial_population(rng, n_agents)
        fitness = self._score(problem.batch_fitness, sequences)
        best = best_of(sequences, fitness, sign=sign)

        track_components = type(problem).component_values is not _BASE_COMPONENT_VALUES
        self.trace_components_ = [] if track_components else None
        last_components = problem.component_values(best[0]) if track_components else None

        bait_counts = np.zeros(n)
        window_len = window_length(n, self.window_fraction)
        whole_rotation = getattr(problem, "rotation_scope", "whole") == "whole"
        has_heuristic = type(problem).placement_cost is not _BASE_PLACEMENT_COST

        while True:
            problem.prepare_iteration(rng)
            if dynamic:
                fitness = self._score(problem.batch_fitness, sequences)

            weights = 1.0 / (1.0 + bait_counts)
            bait_cdf = categorical_cdf(weights / weights.sum())
            baits = bait_cdf.searchsorted(rng.random(n_agents), side="right") + 1
            np.add.at(bait_counts, baits - 1, 1.0)
            case_idx = case_cdf.searchsorted(rng.random(n_agents), side="right")
            rotate = rng.random(n_agents) < self.swarm_rate
            # draws nothing from ``rng`` when the window is the whole string
            starts = rng.integers(0, n - window_len + 1, size=n_agents)

            if has_heuristic:
                windows = starts[:, None] + np.arange(window_len)
                costs = problem.placement_cost(sequences, baits, windows)
                positions = starts + np.argmin(costs, axis=1)
            else:
                positions = starts + rng.integers(0, window_len, size=n_agents)

            rotating = np.flatnonzero(rotate & (n >= 2))
            if whole_rotation:
                start, stop = 0, n
            else:
                length = rng.integers(2, n + 1, size=len(rotating))
                start = rng.integers(0, n - length + 1)
                stop = start + length
            cap = np.minimum(stop - start - 1, self.max_shift or n)
            shift = rng.integers(1, cap + 1, size=len(rotating))
            rotated = sequences.copy()
            rotated[rotating] = rotate_segments(rotated[rotating], start, stop, shift)
            candidates = apply_cases(rotated, case_idx, positions, baits, permutation=True)

            cand_fitness = self._score(problem.batch_fitness, candidates)
            improved = sign * cand_fitness < sign * fitness
            sequences[improved] = candidates[improved]
            fitness[improved] = cand_fitness[improved]

            # the global best is taken before and after the worst agents are
            # re-randomized, so it never worsens; ties keep the older best
            previous_best = best
            best = best_of(sequences, fitness, best, sign)
            if replace_count:
                worst = worst_rows(fitness, replace_count, sign)
                fresh = problem.initial_population(rng, replace_count)
                sequences[worst] = fresh
                fitness[worst] = self._score(problem.batch_fitness, fresh)
                best = best_of(sequences, fitness, best, sign)

            if track_components:
                if best is not previous_best:
                    got = problem.component_values(best[0])
                    if got is not None:
                        last_components = got
                # None until the first decodable global best appears
                self.trace_components_.append(
                    dict(last_components) if last_components is not None else None
                )
            self.best_sequence_, best_fitness = best
            self.population_, self.population_fitness_ = sequences, fitness
            yield best_fitness
