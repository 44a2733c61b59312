"""Solution-string operators for the Green Heron swarm optimizer.

A solution is an ordered string of discrete events (1..n for permutation
encodings, node ids for path encodings).  The three baiting outcomes insert,
swap, or displace a single event; attracting-prey-swarms cyclically rotates a
segment under a fixed slot.  Row-wise kernels apply them to ``(agents,
length)`` arrays: ``rotate_segments`` then ``apply_cases`` on permutation
strings, and ``apply_value_cases`` on value strings; both bait through one
re-insert gather, which on value strings also rotates.  The scalar
``baiting`` and ``attracting_prey_swarms`` are their one-row test oracles.
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


def _reinsert(x, cases, positions, baits, miss_slots, shifts=0) -> np.ndarray:
    """Bait each row by taking one slot out and putting one value in, then
    rotate it right by its shift, in one gather and one put.

    Miss catch takes out ``miss_slots`` and puts the bait in at the position,
    catch takes out the position and puts the bait in there, and false catch
    takes out the position and puts its value in at the end.  Output column
    j reads column k = j - shift (mod n) of its row, less one from the
    inserted slot on, plus one from the removed slot on; the inserted slot
    reads its left neighbour (-1 on row 0) until the put.
    """
    n_rows, n = x.shape
    base = n * np.arange(n_rows)
    false = cases == 2
    removed = np.where(cases, positions, miss_slots)
    inserted = np.where(false, n - 1, positions)
    values = np.where(false, x.take(base + positions), baits)
    cols = np.arange(n)
    shift = np.reshape(shifts, (-1, 1))
    k = cols + (base[:, None] - shift)
    np.add(k, n, out=k, where=cols < shift)
    k -= k >= (base + inserted)[:, None]
    k += k >= (base + removed)[:, None]
    out = x.take(k)
    out.put(base + (inserted + shifts) % n, values)
    return out


def apply_cases(x, cases, positions, baits) -> np.ndarray:
    """Apply one baiting outcome per row of permutation strings ``x``.

    ``cases`` codes each row's outcome: 0 miss catch, 1 catch, 2 false catch.
    Row for row this is ``baiting``.
    """
    slots = np.argmax(x == baits[:, None], axis=1)
    out = _reinsert(x, cases, positions, baits, slots)
    # catch swaps: the position's event goes to the bait's old slot
    catch = np.flatnonzero(cases == 1)
    out[catch, slots[catch]] = x[catch, positions[catch]]
    return out


def apply_value_cases(x, cases, positions, baits, shifts) -> np.ndarray:
    """Row for row ``baiting(..., permutation=False)`` cut to the string's
    length, then ``attracting_prey_swarms`` of the whole row by its shift
    (0: no rotation), in one gather; miss catch drops the last entry."""
    return _reinsert(x, cases, positions, baits, x.shape[1] - 1, shifts)


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
