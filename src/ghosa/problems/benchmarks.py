"""Closed-form benchmark functions f1..f25 with bounds and known optima.

Every function evaluates a whole population at once: input shape (N, D),
output shape (N,).  Stored optima are the analytic values at the stored
minimizers to full float precision (published tables round them).
"""

from __future__ import annotations

import math

import numpy as np

from ..base import check_int_at_least
from ..errors import ConfigError, DimensionMismatch, OutOfBounds


def _f1(x):
    return (x**2).sum(axis=1)


def _f2(x):
    a = np.abs(x)
    return a.sum(axis=1) + a.prod(axis=1)


def _f3(x):
    return (100.0 * (x[:, 1:] - x[:, :-1] ** 2) ** 2 + (x[:, :-1] - 1.0) ** 2).sum(
        axis=1
    )


def _f4(x):
    return ((x - 0.5) ** 2).sum(axis=1)


def _f5_terms(x):
    return x**2 - 10.0 * np.cos(2.0 * math.pi * x) + 10.0


def _f5(x):
    return _f5_terms(x).sum(axis=1)


def _f6(x):
    x1, x2 = x[:, 0], x[:, 1]
    return (
        4.0 * x1**2
        - 2.1 * x1**4
        + x1**6 / 3.0
        + x1 * x2
        - 4.0 * x2**2
        + 4.0 * x2**4
    )


def _f7(x):
    x1, x2 = x[:, 0], x[:, 1]
    return (
        (x2 - 5.1 / (4.0 * math.pi**2) * x1**2 + 5.0 / math.pi * x1 - 6.0) ** 2
        + 10.0 * (1.0 - 1.0 / (8.0 * math.pi)) * np.cos(x1)
        + 10.0
    )


def _f8(x):
    x1, x2 = x[:, 0], x[:, 1]
    a = 1.0 + (x1 + x2 + 1.0) ** 2 * (
        19.0 - 14.0 * x1 + 3.0 * x1**2 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2**2
    )
    b = 30.0 + (2.0 * x1 - 3.0 * x2) ** 2 * (
        18.0 - 32.0 * x1 + 12.0 * x1**2 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2**2
    )
    return a * b


def _f9(x):
    return (np.cumsum(x, axis=1) ** 2).sum(axis=1)


def _f10(x):
    x1, x2 = x[:, 0], x[:, 1]
    return (
        (1.5 - x1 * (1.0 - x2)) ** 2
        + (2.25 - x1 * (1.0 - x2**2)) ** 2
        + (2.625 - x1 * (1.0 - x2**3)) ** 2
    )


def _f11(x):
    x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    return (
        100.0 * (x2 - x1**2) ** 2
        + (1.0 - x1) ** 2
        + 90.0 * (x4 - x3**2) ** 2
        + (1.0 - x3) ** 2
        + 10.1 * ((x2 - 1.0) ** 2 + (x4 - 1.0) ** 2)
        + 19.8 * (x2 - 1.0) * (x4 - 1.0)
    )


def _f12(x):
    # noise is drawn by ``evaluate_batch``; squaring twice skips the pow of ``x**4``
    return (np.arange(1, x.shape[1] + 1)[None, :] * np.square(np.square(x))).sum(axis=1)


def _f13(x):
    x1, x2 = x[:, 0], x[:, 1]
    r2 = x1**2 + x2**2
    return 1e5 * x1**2 + x2**2 - r2**2 + 1e-5 * r2**4


def _f14(x):
    x1, x2 = x[:, 0], x[:, 1]
    return np.sin(x1 + x2) + (x1 - x2) ** 2 - 1.5 * x1 + 2.5 * x2 + 1.0


def _f15(x):
    v = x[:, 0]
    return np.where(v < 15.0, 160.0 / 15.0 * (15.0 - v), 200.0 / 5.0 * (v - 15.0))


def _f16(x):
    v = x[:, 0]
    return np.select(
        [v < 10.0, v < 15.0],
        [160.0 / 10.0 * v, 160.0 / 5.0 * (15.0 - v)],
        default=200.0 / 5.0 * (v - 15.0),
    )


def _f17(x):
    v = x[:, 0]
    conds = [v < 2.5, v < 5.0, v <= 7.5, v < 12.5, v < 17.5, v < 22.5, v < 27.5]
    vals = [
        80.0 * (2.5 - v),
        64.0 * (v - 2.5),
        64.0 * (7.5 - v),
        28.0 * (v - 7.5),
        28.0 * (17.5 - v),
        32.0 * (v - 17.5),
        32.0 * (27.5 - v),
    ]
    return np.select(conds, vals, default=80.0 * (v - 27.5))


def _f18(x):
    return np.sin(5.0 * math.pi * x[:, 0]) ** 6


def _f19(x):
    v = x[:, 0]
    return np.exp(-2.0 * math.log(2.0) * ((v - 0.1) / 0.8) ** 2) * np.sin(
        5.0 * math.pi * v
    ) ** 6


def _f20(x):
    v = x[:, 0]
    return np.sin(5.0 * math.pi * (np.abs(v) ** 0.75 - 0.05)) ** 6


def _f21(x):
    v = x[:, 0]
    return np.exp(-2.0 * math.log(2.0) * ((v - 0.08) / 0.854) ** 2) * np.sin(
        5.0 * math.pi * (np.abs(v) ** 0.75 - 0.05)
    ) ** 6


def _f22(x):
    x1, x2 = x[:, 0], x[:, 1]
    return (x1**2 + x2 - 11.0) ** 2 + (x1 + x2**2 - 7.0) ** 2


def _f23(x):
    x1, x2 = x[:, 0], x[:, 1]
    return (
        (4.0 - 2.1 * x1**2 + x1**4 / 3.0) * x1**2
        + x1 * x2
        + (-4.0 + 4.0 * x2**2) * x2**2
    )


def _f24(x):
    x1, x2 = x[:, 0], x[:, 1]
    return np.sin(x1) * np.sin(x1**2 / math.pi) ** 2 + np.sin(x2) * np.sin(
        2.0 * x2**2 / math.pi
    ) ** 2


def _f25(x):
    x1, x2 = x[:, 0], x[:, 1]
    return 0.26 * (x1**2 + x2**2) - 0.48 * x1 * x2


_CAMEL_MIN = -1.0316284534898776
_CAMEL_ARG = (0.08984201492945389, -0.712656402369394)

# fn, default dim, scalable?, bounds, optimum, optimizer, display name
_REGISTRY = {
    "f1": (_f1, 10, True, (-20.0, 20.0), 0.0, 0.0, "sphere"),
    "f2": (_f2, 10, True, (-20.0, 20.0), 0.0, 0.0, "abs-sum-product"),
    "f3": (_f3, 10, True, (-20.0, 20.0), 0.0, 1.0, "rosenbrock"),
    "f4": (_f4, 10, True, (-20.0, 20.0), 0.0, 0.5, "shifted sphere"),
    "f5": (_f5, 10, True, (-5.12, 5.12), 0.0, 0.0, "rastrigin"),
    "f6": (_f6, 2, False, (-5.0, 5.0), _CAMEL_MIN, _CAMEL_ARG, "hump"),
    "f7": (
        _f7,
        2,
        False,
        [(-5.0, 10.0), (0.0, 15.0)],
        0.39788735772973816,
        (math.pi, 2.275),
        "branin",
    ),
    "f8": (_f8, 2, False, (-2.0, 2.0), 3.0, (0.0, -1.0), "goldstein-price"),
    "f9": (_f9, 10, True, (-20.0, 20.0), 0.0, 0.0, "power sum"),
    "f10": (_f10, 2, False, (-4.5, 4.5), 0.0, (3.0, 0.5), "beale"),
    "f11": (_f11, 4, False, (-10.0, 10.0), 0.0, 1.0, "colville"),
    "f12": (_f12, 10, True, (-1.28, 1.28), 0.0, 0.0, "noisy quartic"),
    "f13": (
        _f13,
        2,
        False,
        (-20.0, 20.0),
        -24776.518342317686,
        (0.0, 14.945112151891959),
        "dekkers-aarts",
    ),
    "f14": (
        _f14,
        2,
        False,
        [(-1.5, 4.0), (-3.0, 3.0)],
        -1.9132229549810362,
        (-0.5471975511965976, -1.5471975511965976),
        "mccormick",
    ),
    "f15": (_f15, 1, False, (0.0, 20.0), 0.0, 15.0, "two peak trap"),
    "f16": (_f16, 1, False, (0.0, 20.0), 0.0, 0.0, "central two peak trap"),
    "f17": (_f17, 1, False, (0.0, 30.0), 0.0, 2.5, "five uneven peak trap"),
    "f18": (_f18, 1, False, (0.0, 1.0), 0.0, 0.0, "equal maxima"),
    "f19": (_f19, 1, False, (0.0, 1.0), 0.0, 0.0, "decreasing maxima"),
    "f20": (_f20, 1, False, (0.0, 1.0), 0.0, 0.05**(4.0 / 3.0), "uneven maxima"),
    "f21": (
        _f21,
        1,
        False,
        (0.0, 1.0),
        0.0,
        0.05**(4.0 / 3.0),
        "uneven decreasing maxima",
    ),
    "f22": (_f22, 2, False, (-10.0, 10.0), 0.0, (3.0, 2.0), "himmelblau"),
    "f23": (
        _f23,
        2,
        False,
        [(-1.9, 1.9), (-1.1, 1.1)],
        _CAMEL_MIN,
        _CAMEL_ARG,
        "six-hump camel back",
    ),
    # a Michalewicz-like variant, not the standard function: no leading minus
    # and m = 1, so its minimum 0 sits at the box corner (0, 0) and any
    # optimizer that clamps to the box solves it
    "f24": (_f24, 2, False, (0.0, math.pi), 0.0, (0.0, 0.0), "michalewicz"),
    "f25": (_f25, 2, False, (-10.0, 10.0), 0.0, (0.0, 0.0), "matyas"),
}


#: the most entries in one ``placement_cost`` trial block, 128 KiB of floats:
#: glibc's default mmap threshold, below which a block and its terms come from
#: the heap, not from fresh pages that fault in on every call
TRIAL_BLOCK_ENTRIES = 1 << 14


def _trial_block(rows: np.ndarray, flat: np.ndarray, entries) -> np.ndarray:
    """``rows`` stacked once per row of the ``(cols, N)`` flat indices ``flat``,
    with ``entries`` put at them (repeated when shorter), marked read-only."""
    block = np.empty((flat.size, rows.shape[1]))
    block.reshape(len(flat), *rows.shape)[...] = rows
    block.put(flat, entries)
    block.flags.writeable = False
    return block


def benchmark_ids() -> list[str]:
    return list(_REGISTRY)


class BenchmarkFunction:
    """One of the f1..f25 table functions: a bounded continuous minimization problem."""

    sense = "min"

    def __init__(self, fid: str, dim: int | None = None):
        if fid not in _REGISTRY:
            raise ConfigError(f"unknown benchmark id {fid!r}")
        fn, default_dim, scalable, bounds, optimum, optimizer, label = _REGISTRY[fid]
        if dim is None:
            dim = default_dim
        elif check_int_at_least(dim, 1, f"{fid} dimension") != default_dim and not scalable:
            raise ConfigError(f"{fid} has fixed dimension {default_dim}")
        self.fid = fid
        self.name = f"{fid} ({label})"
        self.dimension = dim
        # a single (min, max) pair or scalar minimizer applies to every variable
        self.bounds = np.array(np.broadcast_to(bounds, (dim, 2)), dtype=float)
        self.lo, self.hi = self.bounds.T.copy()
        self.span = self.hi - self.lo
        self.fn = fn
        self.best_known = optimum
        self.optimizer = np.array(np.broadcast_to(optimizer, dim), dtype=float)
        # Rastrigin's terms (a cos each) cost more to recompute than to reuse;
        # f1's and f4's polynomial terms do not
        self.terms = _f5_terms if fid == "f5" else None
        # (block, its terms) while a scan scores the block
        self._scan = None

    def initial_population(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` points drawn uniformly from the box, one per row: the values and
        the generator state of ``rng.uniform(lo, hi, (count, dimension))``."""
        return self.lo + self.span * rng.random((count, self.dimension))

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """Clamp the rows of ``x`` into the box in place and return ``x``."""
        return np.minimum(np.maximum(x, self.lo, out=x), self.hi, out=x)

    def _rows(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"expected dimension {self.dimension}, got {x.shape[1]}"
            )
        return x

    def evaluate_batch(self, x: np.ndarray, rng=None) -> np.ndarray:
        """One value per row of ``x``.  f12 adds ``rng.random(len(x))`` when
        ``rng`` is given; every other function ignores ``rng``.  The read-only
        trial block of a Rastrigin scan is scored from the scan's terms block."""
        x = self._rows(x)
        if self.fid == "f12" and rng is not None:
            return self.fn(x) + rng.random(len(x))
        if self._scan is None or x is not self._scan[0]:
            return self.fn(x)
        # equal values have equal terms, and the row sums run over a (k*N, D) array as fn's
        return self._scan[1].sum(axis=1)

    def placement_cost(self, x, baits, slots) -> np.ndarray:
        """Nominal value of each row of ``x`` with its bait at each slot of ``slots``.

        Every row of ``x``, read as floats, scans the same 1-D ``slots``: entry
        ``[i, j]`` scores row i with ``lo[p] + baits[i] * span[p]`` at ``p = slots[j]``,
        and zero rows give a ``(0, width)`` array.  Columns are stacked into read-only
        trial blocks of at most ``TRIAL_BLOCK_ENTRIES`` entries (or one column), each
        scored by one ``evaluate_batch`` call, on Rastrigin from a terms block.
        """
        x, baits, slots = self._rows(x), np.asarray(baits), np.asarray(slots)
        n, width = len(x), len(slots)
        if not x.size:
            return np.empty((0, width))
        values = self.lo[slots, None] + baits * self.span[slots, None]
        # index of column j's bait for row i in a stack of all the columns
        flat = ((slots + np.arange(0, width * x.size, x.size))[:, None]
                + np.arange(0, x.size, self.dimension))
        step = max(1, TRIAL_BLOCK_ENTRIES // x.size)
        if self.terms is not None:
            # a row's bait value is the same at every slot of a uniform box, so the
            # N bait terms of the first column serve every column
            base, bait_terms = self.terms(x), self.terms(values[:1])
        costs = np.empty((n, width))
        try:
            for start in range(0, width, step):
                cols = slice(start, start + step)
                baited = flat[cols] - start * x.size
                block = _trial_block(x, baited, values[cols])
                if self.terms is not None:
                    self._scan = (block, _trial_block(base, baited, bait_terms))
                costs[:, cols] = self.evaluate_batch(block, rng=None).reshape(-1, n).T
        finally:
            self._scan = None
        return costs

    def evaluate(self, x, rng=None) -> float:
        return float(self.evaluate_batch(np.asarray(x, dtype=float)[None, :], rng)[0])


def benchmark_function(fid: str, dim: int | None = None) -> BenchmarkFunction:
    return BenchmarkFunction(fid, dim)


def eval_benchmark(fid: str, x, rng=None) -> float:
    """Evaluate one point, validating dimension and range."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    entry = _REGISTRY.get(fid)
    if entry is None:
        raise ConfigError(f"unknown benchmark id {fid!r}")
    _, default_dim, scalable, _, _, _, _ = entry
    dim = len(x) if scalable else default_dim
    f = BenchmarkFunction(fid, dim)
    if x.shape != (f.dimension,):
        raise DimensionMismatch(f"{fid} expects dimension {f.dimension}, got {x.shape}")
    if not np.all((x >= f.lo) & (x <= f.hi)):  # NaN is inside no box
        raise OutOfBounds(f"point outside the declared range of {fid}")
    return f.evaluate(x, rng=rng)
