"""Shared adapter surface the discrete engine drives problems through."""

from __future__ import annotations

import numpy as np


class SequenceProblem:
    """Base adapter for problems encoded as event strings.

    Subclasses must set ``dimension`` and implement ``batch_fitness``;
    optimizers score rows through ``evaluate_batch``, as they score a
    ``BenchmarkFunction``.  The default encoding is a permutation of
    1..dimension.  ``sense`` declares whether fitness is minimized or
    maximized; the engine handles the sign.  The engine reads each hook by
    what it returns.
    """

    dimension: int
    sense: str = "min"
    #: "whole" rotates the entire string; "segment" rotates a random sub-range.
    rotation_scope: str = "whole"
    name: str = ""
    best_known: float | None = None

    def initial_population(self, rng: np.random.Generator, count: int) -> np.ndarray:
        ordered = np.arange(1, self.dimension + 1, dtype=np.int64)
        return rng.permuted(np.tile(ordered, (count, 1)), axis=1)

    def batch_fitness(self, sequences: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate_batch(self, rows: np.ndarray, rng=None) -> np.ndarray:
        """One fitness per row; ``rng`` is unused, since scoring draws nothing."""
        return self.batch_fitness(rows)

    def placement_cost(self, sequences, baits, positions) -> np.ndarray | None:
        """Change-of-position cost of each row's bait at each candidate slot.

        ``positions`` is ``(agents, window)`` and so is the result; the engine
        takes each row's lowest-cost slot.  Left as None, the engine applies
        each bait at a random slot of its window instead.
        """
        return None

    def component_values(self, sequence) -> dict[str, float] | None:
        """Extra per-objective values recorded alongside the trace."""
        return None

    def prepare_iteration(self, rng: np.random.Generator) -> bool | None:
        """Hook run once per engine iteration; True when it changed how rows score
        (a re-drawn threshold, new traffic jitter), so the engine re-scores its rows."""
