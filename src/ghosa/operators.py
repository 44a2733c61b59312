"""Solution-string operators for the Green Heron swarm optimizer.

A solution is an ordered string of discrete events (1..n for permutation
encodings, node ids for path encodings).  The three baiting outcomes insert,
swap, or displace a single event; change-of-position is a windowed local
search for the best application slot; attracting-prey-swarms cyclically
rotates a segment under a fixed slot.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import (
    ConfigError,
    EmptyWindow,
    InvalidPosition,
    ShiftOutOfRange,
    UnknownEvent,
)


class BaitingCase(enum.Enum):
    MISS_CATCH = "miss_catch"
    CATCH = "catch"
    FALSE_CATCH = "false_catch"


def baiting(
    sequence,
    bait: int,
    position: int,
    case: BaitingCase,
    *,
    permutation: bool = True,
    n_events: int | None = None,
) -> np.ndarray:
    """Apply one baiting outcome at ``position`` and return the new string.

    Miss catch inserts the bait (deleting its pre-existing duplicate on
    permutation strings so length is preserved).  Catch replaces the slot,
    swapping on permutation strings so no event is lost.  False catch removes
    the slot's event and restores it at the end; the bait is not consumed.
    """
    seq = np.asarray(sequence).copy()
    n = len(seq)
    if not 0 <= position < n:
        raise InvalidPosition(f"position {position} out of range for length {n}")
    if n_events is not None and not (1 <= bait <= n_events):
        raise UnknownEvent(f"bait {bait} outside event universe 1..{n_events}")

    if case is BaitingCase.FALSE_CATCH:
        displaced = seq[position]
        seq[position:-1] = seq[position + 1 :]
        seq[-1] = displaced
        return seq

    if case is BaitingCase.CATCH:
        if permutation:
            old_slot = int(np.nonzero(seq == bait)[0][0]) if bait in seq else None
            if old_slot is None:
                raise UnknownEvent(f"bait {bait} absent from permutation string")
            seq[old_slot] = seq[position]
            seq[position] = bait
        else:
            seq[position] = bait
        return seq

    # miss catch: insertion
    if permutation:
        if bait not in seq:
            raise UnknownEvent(f"bait {bait} absent from permutation string")
        without = seq[seq != bait]
        out = np.empty(n, dtype=seq.dtype)
        out[:position] = without[:position]
        out[position] = bait
        out[position + 1 :] = without[position:]
        return out
    return np.insert(seq, position, bait)


def change_of_position(sequence, bait: int, window, heuristic) -> int:
    """Best slot for the bait inside ``window`` under a local cost function.

    ``window`` is an iterable of contiguous candidate indices; ``heuristic``
    is either a callable ``position -> cost`` or a precomputed cost array
    aligned with the window.  Ties break to the lowest index.
    """
    positions = list(window)
    if not positions:
        raise EmptyWindow("change-of-position window has no candidate slots")
    n = len(sequence)
    for p in positions:
        if not 0 <= p < n:
            raise InvalidPosition(f"window position {p} out of range for length {n}")

    if callable(heuristic):
        costs = [float(heuristic(p)) for p in positions]
    else:
        costs = [float(c) for c in heuristic]
        if len(costs) != len(positions):
            raise ConfigError("cost array length does not match window length")

    best_pos = positions[0]
    best_cost = costs[0]
    for p, c in zip(positions[1:], costs[1:]):
        if c < best_cost:
            best_cost = c
            best_pos = p
    return best_pos


def attracting_prey_swarms(
    sequence,
    bait_position: int,
    shift: int,
    segment: tuple[int, int] | None = None,
) -> np.ndarray:
    """Cyclically rotate ``segment`` right by ``shift`` under a fixed slot.

    The event multiset is unchanged and everything outside the segment stays
    put; a different event lands under ``bait_position``.  ``segment`` is a
    half-open (start, stop) range, defaulting to the whole string.
    """
    seq = np.asarray(sequence).copy()
    n = len(seq)
    if not 0 <= bait_position < n:
        raise InvalidPosition(
            f"bait position {bait_position} out of range for length {n}"
        )
    if segment is None:
        start, stop = 0, n
    else:
        start, stop = segment
        if not (0 <= start < stop <= n):
            raise InvalidPosition(f"segment {segment} invalid for length {n}")
    seg_len = stop - start
    if not 1 <= shift < seg_len:
        raise ShiftOutOfRange(
            f"shift must be in [1, {seg_len - 1}] for segment length {seg_len}, "
            f"got {shift}"
        )
    seq[start:stop] = np.roll(seq[start:stop], shift)
    return seq
