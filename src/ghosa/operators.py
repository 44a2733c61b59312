"""Solution-string operators for the Green Heron swarm optimizer.

A solution is an ordered string of discrete events (1..n for permutation
encodings, node ids for path encodings).  The three baiting outcomes insert,
swap, or displace a single event; attracting-prey-swarms cyclically rotates a
segment under a fixed slot.  Row-wise kernels apply them to ``(agents,
length)`` arrays: ``rotate_segments`` then ``apply_cases`` on permutation
strings, and on value strings ``apply_value_cases``, which baits and then
rotates in one gather.  The scalar ``baiting`` and ``attracting_prey_swarms``
are their one-row test oracles.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import InvalidPosition, ShiftOutOfRange, UnknownEvent


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


def apply_cases(x, cases, positions, baits) -> np.ndarray:
    """Apply one baiting outcome per row of permutation strings ``x``.

    ``cases`` codes each row's outcome: 0 miss catch, 1 catch, 2 false catch.
    Row for row this is ``baiting``.
    """
    n = x.shape[1]
    row_start = n * np.arange(len(x))
    miss, catch = cases == 0, cases == 1
    slots = np.argmax(x == baits[:, None], axis=1)
    src = np.where(miss, slots, positions)
    dst = np.where(miss, positions, n - 1)
    src[catch] = dst[catch] = positions[catch]
    # miss and false catch move slot s to slot t: the slots in [lo, hi) take
    # the event ``step`` slots along, and t takes s's event; catch moves
    # nothing here, then swaps below
    forward = src < dst
    lo = np.where(forward, src, dst + 1)[:, None]
    hi = np.where(forward, dst, src + 1)[:, None]
    step = np.where(forward, 1, -1)[:, None]
    cols = np.arange(n)
    index = row_start[:, None] + cols
    index += step * ((lo <= cols) & (cols < hi))
    flat = index.reshape(-1)
    flat[row_start + dst] = row_start + src
    at = row_start[catch]
    flat[at + slots[catch]] = at + positions[catch]
    flat[at + positions[catch]] = at + slots[catch]
    return x.reshape(-1).take(index)


def apply_value_cases(x, cases, positions, baits, shifts) -> np.ndarray:
    """Row for row ``baiting(..., permutation=False)`` cut to the string's
    length, then ``attracting_prey_swarms`` of the whole row by its shift
    (0: no rotation), in one gather."""
    n_rows, n = x.shape
    rows = np.arange(n_rows)
    # column n holds each row's slot entry, which false catch moves to the end
    wide = np.concatenate((x, x[rows, positions][:, None]), axis=1)
    # output column j reads column k = j - shift (mod n) of the baited row,
    # which reads k - 1 past the slot on miss, k, or k + 1 from the slot on
    # false catch; column n - 1 then reads the extra column
    k = (np.arange(n) - shifts[:, None]) % n
    k += (cases - 1)[:, None] * (k >= (positions + (cases == 0))[:, None])
    k += (n + 1) * rows[:, None]
    out = wide.reshape(-1).take(k)
    keep = cases != 2
    out[rows[keep], (positions[keep] + shifts[keep]) % n] = baits[keep]
    return out


def rotate_segments(x, starts, stops, shifts) -> np.ndarray:
    """Rotate each row's segment [start, stop) right by ``shift``, with
    0 <= shift <= stop - start; scalars broadcast."""
    n = x.shape[1]
    cols = np.arange(n)
    start, stop, shift = (np.reshape(a, (-1, 1)) for a in (starts, stops, shifts))
    src = cols - shift
    src += (stop - start) * (src < start)
    index = np.where((start <= cols) & (cols < stop), src, cols)
    return x.reshape(-1).take(index + n * np.arange(len(x))[:, None])
