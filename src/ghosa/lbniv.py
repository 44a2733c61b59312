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

import numpy as np

from .errors import DegenerateFitnessWarning, DimensionMismatch

#: |previous fitness| below this is treated as degenerate (no relative change).
FITNESS_GUARD = 1e-300

#: d entries per variable: index 0 follows the rear neighbor, 1 the front.
REAR, FRONT = 0, 1


def lbniv_update(x, d, eps, best, front, rear, bias: float) -> np.ndarray:
    """Candidate vector of one agent from the neighbor-influenced move.

    ``x``, ``eps``, ``best``, ``front`` and ``rear`` have shape (D,), ``d``
    shape (D, 2).  Componentwise: x + |best - rear| * d_rear * eps
    + |best - front| * d_front * eps + bias, with one step scale per
    variable.  The caller clamps the result to bounds and applies the
    epsilon update for violated components.
    """
    x, d, eps, best, front, rear = (
        np.asarray(a, dtype=float) for a in (x, d, eps, best, front, rear)
    )
    if not x.shape == eps.shape == best.shape == front.shape == rear.shape or (
        d.shape != x.shape + (2,)
    ):
        raise DimensionMismatch(
            f"shapes differ: x {x.shape}, d {d.shape}, eps {eps.shape}, "
            f"best {best.shape}, front {front.shape}, rear {rear.shape}"
        )
    return (
        x
        + np.abs(best - rear) * d[:, REAR] * eps
        + np.abs(best - front) * d[:, FRONT] * eps
        + bias
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


def lbniv_move_batch(x, best, d, eps, stacked, bias: float) -> np.ndarray:
    """lbniv_update over a population: ``x`` and ``eps`` have shape (N, D),
    ``best`` shape (D,), and ``d`` and ``stacked`` shape (2, N, D), the rear
    (index 0) and front (index 1) neighbour terms stacked in that order."""
    t = np.abs(best - stacked)
    t *= d
    t *= eps
    return x + t[REAR] + t[FRONT] + bias


def update_d_batch(
    fitness: np.ndarray,
    fitness_prev: np.ndarray,
    x: np.ndarray,
    x_ref: np.ndarray,
) -> np.ndarray:
    """update_d over a population: fitness terms per agent, branch per component.

    ``fitness``/``fitness_prev`` have shape (N,) and ``x`` shape (N, D);
    ``x_ref`` has shape (N, D), or (K, N, D) for K stacked references, and the
    result has its shape.  Degenerate previous fitness yields 0 rows.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = (fitness_prev - fitness) / np.abs(fitness_prev)
    delta[(np.abs(fitness_prev) < FITNESS_GUARD) | ~np.isfinite(delta)] = 0.0
    delta = delta[:, None]
    return np.where(x >= x_ref, delta, -delta)


def update_epsilon_batch(
    eps: np.ndarray, x: np.ndarray, bounds: np.ndarray, k: float
) -> np.ndarray:
    """update_epsilon over an (N, D) population against (D, 2) bounds."""
    above = x > bounds[None, :, 1]
    below = x < bounds[None, :, 0]
    with np.errstate(over="ignore"):  # the engine resets runaway step scales
        grown = eps * k
    return np.where(above, eps / k, np.where(below, grown, eps))
