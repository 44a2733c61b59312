"""Estimator-style base class and input validation helpers.

Optimizers follow the scikit-learn parameter convention: every constructor
argument is a dataclass field stored verbatim under the same name,
``get_params``/``set_params`` expose them for inspection and replay, and
attributes learned by ``fit`` get a trailing underscore.  No scikit-learn
dependency is needed for that.
"""

from __future__ import annotations

import inspect
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InstanceError, NonFiniteValue


@dataclass(eq=False, repr=False)
class PopulationOptimizer:
    """The run protocol and parameter handling shared by every population optimizer.

    Parameters are dataclass fields.  This class declares the budget every
    optimizer takes; ``target`` and ``seed`` are keyword-only, so a subclass's
    own fields come between them and ``iterations`` in the constructor.
    ``get_params``/``set_params``/``repr`` follow that constructor order.

    A subclass is a ``dataclass(eq=False, repr=False)`` whose fields are its
    remaining parameters.  It extends ``check_params`` and implements
    ``_run(problem, rng)``: a generator that draws new rows with ``_fresh``,
    scores others only with ``self._score(problem.evaluate_batch, rows,
    rng=rng)``, keeps its best solution as a fitted
    attribute (the GHOSA engines keep their final population too), and
    yields the global best fitness after each iteration.
    ``fit`` runs ``check_params``, seeds ``rng`` from ``seed`` and takes at
    most ``iterations`` values, stopping as soon as one reaches ``target``
    in the problem's ``sense``.  The generator is never resumed after the
    last one, so the fitted attributes are those of the last traced
    iteration.  ``fit`` sets ``trace_``, ``best_fitness_``,
    ``n_iterations_``, ``stopped_early_`` and ``evaluations_``, the number
    of rows scored.
    """

    population_size: int = 50
    iterations: int = 25000
    target: float | None = field(default=None, kw_only=True)
    seed: int | None = field(default=None, kw_only=True)

    #: smallest population the subclass's variation step works with
    min_population = 1

    @classmethod
    def _param_names(cls):
        return list(inspect.signature(cls).parameters)

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ConfigError(
                    f"unknown parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    def _score(self, evaluate, rows, **kwargs) -> np.ndarray:
        """``evaluate(rows, **kwargs)`` as a float array; ``evaluations_`` counts its values."""
        fitness = np.asarray(evaluate(rows, **kwargs), dtype=float)
        self.evaluations_ += fitness.size
        return fitness

    def _fresh(self, problem, rng, count):
        """``count`` rows from ``problem.initial_population`` and their fitness."""
        rows = problem.initial_population(rng, count)
        return rows, self._score(problem.evaluate_batch, rows, rng=rng)

    def check_params(self) -> None:
        """Raise ConfigError on a setting the run cannot use; ``fit`` calls it first."""
        check_int_at_least(self.population_size, self.min_population, "population_size")
        check_int_at_least(self.iterations, 1, "iterations")
        if self.target is not None:
            check_number(self.target, "target")
        if self.seed is not None:
            check_int_at_least(self.seed, 0, "seed")

    def fit(self, problem):
        self.check_params()
        target = None if self.target is None else float(self.target)
        rng = np.random.default_rng(self.seed)
        sign = -1.0 if problem.sense == "max" else 1.0
        trace: list[float] = []
        stopped_early = False
        self.evaluations_ = 0
        for best in itertools.islice(self._run(problem, rng), self.iterations):
            trace.append(best)
            if target is not None and sign * best <= sign * target:
                stopped_early = True
                break
        self.trace_ = np.asarray(trace)
        self.best_fitness_ = trace[-1]
        self.n_iterations_ = len(trace)
        self.stopped_early_ = stopped_early
        return self


@dataclass(eq=False, repr=False)
class GhosaBase(PopulationOptimizer):
    """Both GHOSA engines' shared parameters and the step that ends each iteration."""

    replace_fraction: float = 10.0
    p_miss: float = 1.0 / 3.0
    p_catch: float = 1.0 / 3.0
    p_false: float = 1.0 / 3.0

    def check_params(self) -> None:
        super().check_params()
        check_case_probabilities(self.p_miss, self.p_catch, self.p_false)
        check_replace_fraction(self.replace_fraction)

    def _survive(self, problem, rng, rows, fitness, cand, cand_fitness, best, sign=1.0):
        """Greedy accept, then redraw the worst rows through ``_fresh``, in place.

        A candidate replaces its row only if strictly better; the redrawn rows
        are the tail of the stable sort.  The best is taken before and after
        the redraw, so it never worsens; ties keep the older one.  Returns it
        and the redrawn indices.
        """
        improved = sign * cand_fitness < sign * fitness
        rows[improved] = cand[improved]
        fitness[improved] = cand_fitness[improved]
        best = best_of(rows, fitness, best, sign)
        count = int(self.replace_fraction * self.population_size // 100)
        if not count:
            return best, np.arange(0)
        worst = (sign * fitness).argsort(kind="stable")[len(fitness) - count :]
        rows[worst], fitness[worst] = self._fresh(problem, rng, count)
        return best_of(rows, fitness, best, sign), worst


def categorical_cdf(p) -> np.ndarray:
    """``p``'s cumsum scaled to end at 1; ``cdf.searchsorted(rng.random(k), side="right")``
    draws what ``rng.choice(len(p), k, p=p)`` draws, without its per-call checks."""
    cdf = np.cumsum(p, dtype=float)
    return cdf / cdf[-1]


def best_of(rows, fitness, best=None, sign: float = 1.0):
    """``(row copy, fitness)`` of the first best row, or ``best`` if no row beats it."""
    i = int((sign * fitness).argmin())
    if best is not None and not sign * fitness[i] < sign * best[1]:
        return best
    return rows[i].copy(), float(fitness[i])


def check_number(value, name: str) -> float:
    """``value`` as a float; anything but a finite real number, or a bool, is a ConfigError."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not real or not math.isfinite(value):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def check_finite(values, what: str, shape: tuple | None = None) -> np.ndarray:
    """``values`` as a float array; a NaN or infinite entry is a NonFiniteValue.
    With ``shape`` given, another shape or an empty array is an InstanceError, as is
    a value that reads as no float array (a word, or rows of unequal length)."""
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"{what} must be an array of numbers: {exc}") from None
    if shape is not None and values.shape != shape:
        raise InstanceError(f"{what} must have shape {shape}, got {values.shape}")
    if shape is not None and values.size == 0:
        raise InstanceError(f"{what} must not be empty, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise NonFiniteValue(f"{what} must be finite, got {values[~np.isfinite(values)][0]}")
    return values


def check_probability(value, name: str) -> float:
    value = check_number(value, name)
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {value}")
    return value


def check_positive(value, name: str, *, strict: bool = True) -> float:
    value = check_number(value, name)
    if strict and value <= 0:
        raise ConfigError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value}")
    return value


def check_case_probabilities(p_miss, p_catch, p_false) -> np.ndarray:
    """The three baiting-case weights as an array; non-negative, summing to 1."""
    values = (p_miss, p_catch, p_false)
    names = ("p_miss", "p_catch", "p_false")
    case_p = np.array([check_number(v, name) for v, name in zip(values, names)])
    if abs(case_p.sum() - 1.0) > 1e-9 or np.any(case_p < 0):
        raise ConfigError(
            f"case probabilities must be non-negative and sum to 1, got {case_p.tolist()}"
        )
    return case_p


def check_replace_fraction(value) -> float:
    """Percentage of worst agents re-randomized per iteration, in [0, 100)."""
    if not 0 <= check_number(value, "replace_fraction") < 100:
        raise ConfigError(f"replace_fraction must be in [0, 100), got {value}")
    return value


def check_window_fraction(value) -> float:
    """Fraction of the string scanned by change-of-position, in (0, 1]."""
    if not 0.0 < check_number(value, "window_fraction") <= 1.0:
        raise ConfigError(f"window_fraction must be in (0, 1], got {value}")
    return value


def window_length(length: int, fraction: float) -> int:
    """Slots change-of-position scans: all of a string of at most 20, else ``fraction`` of it."""
    if length <= 20 or fraction >= 1.0:
        return length
    return max(1, int(round(fraction * length)))


def check_int_at_least(value, minimum: int, name: str) -> int:
    check_number(value, name)
    if not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def is_permutation(seq, n: int) -> bool:
    """True iff ``seq`` holds each of 1..n exactly once."""
    arr = np.asarray(seq)
    if arr.shape != (n,):
        return False
    return np.array_equal(np.sort(arr), np.arange(1, n + 1))
