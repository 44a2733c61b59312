"""Population engine for discrete event-string optimization.

Each iteration every agent runs the operator pipeline (baiting draw,
change-of-position refinement, occasional attracting-prey-swarms rotation,
then the completing baiting application), is re-evaluated, and keeps the new
string only if it improves.  After the per-agent sweep the worst slice of
the population is re-randomized.  The recorded global best never worsens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import (
    ParamMixin,
    check_case_probabilities,
    check_int_at_least,
    check_probability,
    check_random_state,
    check_replace_fraction,
    check_window_fraction,
)
from .errors import ConfigError
from .operators import (
    BaitingCase,
    attracting_prey_swarms,
    baiting,
    change_of_position,
)
from .problems.core import SequenceProblem

_CASES = (BaitingCase.MISS_CATCH, BaitingCase.CATCH, BaitingCase.FALSE_CATCH)
_BASE_COMPONENT_VALUES = SequenceProblem.component_values
_BASE_PLACEMENT_COST = SequenceProblem.placement_cost


@dataclass
class Agent:
    """One candidate: event string plus its fitness."""

    sequence: np.ndarray
    fitness: float

    def copy(self) -> "Agent":
        return Agent(self.sequence.copy(), self.fitness)


@dataclass
class PopulationState:
    """Mutable population snapshot the engine advances iteration by iteration."""

    sequences: np.ndarray
    fitness: np.ndarray
    global_best: Agent
    iteration: int = 0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)


def replace_worst(state: PopulationState, fraction: float, problem) -> PopulationState:
    """Re-randomize the floor(fraction% * N) worst agents in place.

    The recorded global best is untouched; fresh agents are evaluated
    immediately so the state stays consistent.
    """
    check_replace_fraction(fraction)
    n_agents = len(state.sequences)
    count = int(fraction * n_agents // 100)
    if count == 0:
        return state
    sign = -1.0 if problem.sense == "max" else 1.0
    order = np.argsort(sign * state.fitness, kind="stable")
    worst = order[n_agents - count :]
    fresh = problem.initial_population(state.rng, count)
    state.sequences[worst] = fresh
    state.fitness[worst] = problem.batch_fitness(fresh)
    return state


class GhosaOptimizer(ParamMixin):
    """Discrete swarm optimizer with an estimator-style interface.

    Parameters mirror the operator knobs: the three baiting-case weights,
    the change-of-position window fraction, the per-iteration rotation
    probability (``swarm_rate``), and the percentage of worst agents
    re-randomized each iteration.  ``target`` stops a run as soon as the
    global best reaches the given fitness (useful when a published optimum
    is known); ``seed`` makes the whole run reproducible.

    After ``fit(problem)`` the result lives in ``best_sequence_``,
    ``best_fitness_``, ``best_agent_``, and the per-iteration ``trace_``.
    """

    def __init__(
        self,
        population_size: int = 50,
        iterations: int = 25000,
        replace_fraction: float = 10.0,
        p_miss: float = 1.0 / 3.0,
        p_catch: float = 1.0 / 3.0,
        p_false: float = 1.0 / 3.0,
        window_fraction: float = 0.25,
        swarm_rate: float = 0.2,
        max_shift: int | None = None,
        target: float | None = None,
        seed: int | None = None,
    ):
        self.population_size = population_size
        self.iterations = iterations
        self.replace_fraction = replace_fraction
        self.p_miss = p_miss
        self.p_catch = p_catch
        self.p_false = p_false
        self.window_fraction = window_fraction
        self.swarm_rate = swarm_rate
        self.max_shift = max_shift
        self.target = target
        self.seed = seed

    def fit(self, problem) -> "GhosaOptimizer":
        check_int_at_least(self.population_size, 1, "population_size")
        check_int_at_least(self.iterations, 1, "iterations")
        check_probability(self.swarm_rate, "swarm_rate")
        case_p = check_case_probabilities(self.p_miss, self.p_catch, self.p_false)
        check_window_fraction(self.window_fraction)
        if self.max_shift is not None and self.max_shift < 1:
            raise ConfigError("max_shift must be >= 1 when set")
        check_replace_fraction(self.replace_fraction)

        rng = check_random_state(self.seed)
        n = problem.dimension
        n_agents = self.population_size
        sign = -1.0 if problem.sense == "max" else 1.0
        dynamic = getattr(problem, "dynamic", False)

        problem.prepare_iteration(rng)
        sequences = problem.initial_population(rng, n_agents)
        fitness = np.asarray(problem.batch_fitness(sequences), dtype=float)
        evaluations = len(sequences)

        best_i = int(np.argmin(sign * fitness))
        gbest = Agent(sequences[best_i].copy(), float(fitness[best_i]))
        state = PopulationState(sequences, fitness, gbest, 0, rng)

        track_components = (
            type(problem).component_values is not _BASE_COMPONENT_VALUES
        )
        components: list[dict] = []
        last_components = (
            problem.component_values(gbest.sequence) if track_components else None
        )

        bait_counts = np.zeros(n)
        full_window = n <= 20 or self.window_fraction >= 1.0
        window_len = n if full_window else max(1, int(round(self.window_fraction * n)))
        whole_rotation = getattr(problem, "rotation_scope", "whole") == "whole"
        has_heuristic = (
            type(problem).placement_cost is not _BASE_PLACEMENT_COST
        )

        trace: list[float] = []
        stopped_early = False
        signed_target = None if self.target is None else sign * self.target

        for iteration in range(1, self.iterations + 1):
            problem.prepare_iteration(rng)
            if dynamic:
                state.fitness = np.asarray(
                    problem.batch_fitness(state.sequences), dtype=float
                )

            weights = 1.0 / (1.0 + bait_counts)
            baits = rng.choice(n, size=n_agents, p=weights / weights.sum()) + 1
            np.add.at(bait_counts, baits - 1, 1.0)
            case_idx = rng.choice(3, size=n_agents, p=case_p)
            rotate = rng.random(n_agents) < self.swarm_rate
            if full_window:
                starts = np.zeros(n_agents, dtype=np.int64)
            else:
                starts = rng.integers(0, n - window_len + 1, size=n_agents)
            fallback = rng.integers(0, window_len, size=n_agents)

            candidates = np.empty_like(state.sequences)
            for i in range(n_agents):
                seq = state.sequences[i]
                bait = int(baits[i])
                window = range(int(starts[i]), int(starts[i]) + window_len)
                if has_heuristic:
                    costs = problem.placement_cost(seq, bait, window)
                    position = change_of_position(seq, bait, window, costs)
                else:
                    position = int(starts[i] + fallback[i])

                cand = seq
                if rotate[i] and n >= 2:
                    if whole_rotation:
                        start, stop = 0, n
                    else:
                        seg_len = int(rng.integers(2, n + 1))
                        start = int(rng.integers(0, n - seg_len + 1))
                        stop = start + seg_len
                    seg_len = stop - start
                    cap = seg_len - 1
                    if self.max_shift is not None:
                        cap = min(cap, self.max_shift)
                    shift = int(rng.integers(1, cap + 1))
                    cand = attracting_prey_swarms(cand, position, shift, (start, stop))
                candidates[i] = baiting(
                    cand, bait, position, _CASES[case_idx[i]], n_events=n
                )

            cand_fitness = np.asarray(problem.batch_fitness(candidates), dtype=float)
            evaluations += n_agents
            improved = sign * cand_fitness < sign * state.fitness
            state.sequences[improved] = candidates[improved]
            state.fitness[improved] = cand_fitness[improved]

            def refresh_best():
                nonlocal last_components
                bi = int(np.argmin(sign * state.fitness))
                if sign * state.fitness[bi] < sign * state.global_best.fitness:
                    state.global_best = Agent(
                        state.sequences[bi].copy(), float(state.fitness[bi])
                    )
                    if track_components:
                        got = problem.component_values(state.global_best.sequence)
                        if got is not None:
                            last_components = got

            refresh_best()
            replace_worst(state, self.replace_fraction, problem)
            evaluations += int(self.replace_fraction * n_agents // 100)
            refresh_best()

            state.iteration = iteration
            trace.append(state.global_best.fitness)
            if track_components:
                # None until the first decodable global best appears
                components.append(
                    dict(last_components) if last_components is not None else None
                )
            if signed_target is not None and sign * state.global_best.fitness <= signed_target:
                stopped_early = True
                break

        self.state_ = state
        self.best_agent_ = state.global_best.copy()
        self.best_sequence_ = self.best_agent_.sequence
        self.best_fitness_ = self.best_agent_.fitness
        self.trace_ = np.asarray(trace)
        self.trace_components_ = components if track_components else None
        self.n_iterations_ = state.iteration
        self.evaluations_ = evaluations
        self.stopped_early_ = stopped_early
        return self


def optimize(problem, **params) -> tuple[Agent, np.ndarray]:
    """One-call wrapper: returns (best agent, per-iteration best trace)."""
    opt = GhosaOptimizer(**params).fit(problem)
    return opt.best_agent_, opt.trace_
