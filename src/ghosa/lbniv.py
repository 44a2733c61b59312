"""Location Based Neighbour Influenced Variation: adaptive continuous moves.

A solution vector drifts by neighbor-referenced magnitudes: each component
moves by |best - rear| and |best - front| scaled by a learned direction
term d and an adaptive step scale epsilon, plus a small constant bias.
d tracks the relative fitness change between consecutive iterations (sign
flipped when the component moved down); epsilon shrinks multiplicatively
when a component overshoots its upper bound and grows when it undershoots.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .base import check_number, check_positive
from .errors import ConfigError, DegenerateFitnessWarning, DimensionMismatch

#: |previous fitness| below this is treated as degenerate (no relative change).
FITNESS_GUARD = 1e-300

#: d entries per variable: index 0 follows the rear neighbor, 1 the front.
REAR, FRONT = 0, 1


@dataclass
class LbnivParams:
    """Step-scale constants: growth factor k, additive bias, initial epsilon."""

    k: float = 2.0
    bias: float = 0.001
    eps0: float = 0.2

    def __post_init__(self):
        if check_number(self.k, "k") <= 1.0:
            raise ConfigError(f"k must be > 1, got {self.k}")
        check_number(self.bias, "bias")
        check_positive(self.eps0, "eps0")


@dataclass
class ContinuousAgent:
    """One candidate vector with its adaptive per-variable state."""

    x: np.ndarray
    fitness: float = np.inf
    fitness_prev: float = np.inf
    d: np.ndarray = field(default=None)
    eps: np.ndarray = field(default=None)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        dim = len(self.x)
        if self.d is None:
            self.d = np.zeros((dim, 2))
        else:
            self.d = np.asarray(self.d, dtype=float)
        if self.eps is None:
            self.eps = np.full((dim, 2), 0.2)
        else:
            self.eps = np.asarray(self.eps, dtype=float)
        if self.d.shape != (dim, 2) or self.eps.shape != (dim, 2):
            raise DimensionMismatch("d and eps must have shape (dim, 2)")


def lbniv_update(
    agent: ContinuousAgent,
    best: np.ndarray,
    front: np.ndarray,
    rear: np.ndarray,
    params: LbnivParams,
) -> np.ndarray:
    """Candidate vector from the neighbor-influenced move.

    Componentwise: x + |best - rear| * d_rear * eps_rear
    + |best - front| * d_front * eps_front + bias.  The caller clamps the
    result to bounds and applies the epsilon update for violated components.
    """
    x = np.asarray(agent.x, dtype=float)
    best = np.asarray(best, dtype=float)
    front = np.asarray(front, dtype=float)
    rear = np.asarray(rear, dtype=float)
    if not (x.shape == best.shape == front.shape == rear.shape):
        raise DimensionMismatch(
            f"vector shapes differ: {x.shape}, {best.shape}, {front.shape}, {rear.shape}"
        )
    return (
        x
        + np.abs(best - rear) * agent.d[:, REAR] * agent.eps[:, REAR]
        + np.abs(best - front) * agent.d[:, FRONT] * agent.eps[:, FRONT]
        + params.bias
    )


def update_d(fitness: float, fitness_prev: float, x: float, x_prev: float) -> float:
    """Relative fitness improvement, sign-flipped for downward moves.

    Returns (J_prev - J) / |J_prev| when x >= x_prev, the negation otherwise.
    A near-zero previous fitness is degenerate: the update is 0 and a
    warning flags the event.
    """
    if abs(fitness_prev) < FITNESS_GUARD:
        warnings.warn(
            "previous fitness ~ 0; direction update degenerates to 0",
            DegenerateFitnessWarning,
            stacklevel=2,
        )
        return 0.0
    delta = (fitness_prev - fitness) / abs(fitness_prev)
    return delta if x >= x_prev else -delta


def update_epsilon(eps: float, x: float, bounds: tuple[float, float], k: float) -> float:
    """Adaptive step scale: shrink by k above the max, grow by k below the min."""
    lo, hi = bounds
    if x > hi:
        return eps / k
    if x < lo:
        return eps * k
    return eps


# --- vectorized forms used by the population engine --------------------------


def update_d_batch(
    fitness: np.ndarray,
    fitness_prev: np.ndarray,
    x: np.ndarray,
    x_ref: np.ndarray,
) -> np.ndarray:
    """update_d over a population: fitness terms per agent, branch per component.

    ``fitness``/``fitness_prev`` have shape (N,); ``x``/``x_ref`` shape (N, D).
    Degenerate previous fitness yields 0 rows.
    """
    prev = fitness_prev[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = (prev - fitness[:, None]) / np.abs(prev)
    delta = np.where(np.abs(prev) < FITNESS_GUARD, 0.0, delta)
    delta = np.where(np.isfinite(delta), delta, 0.0)
    return np.where(x >= x_ref, delta, -delta)


def update_epsilon_batch(
    eps: np.ndarray, x: np.ndarray, bounds: np.ndarray, k: float
) -> np.ndarray:
    """update_epsilon over an (N, D) population against (D, 2) bounds."""
    above = x > bounds[None, :, 1]
    below = x < bounds[None, :, 0]
    return np.where(above, eps / k, np.where(below, eps * k, eps))
