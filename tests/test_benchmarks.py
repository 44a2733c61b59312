import hashlib
import pickle

import numpy as np
import pytest

from ghosa import ContinuousGhosaOptimizer, benchmark_function, eval_benchmark
from ghosa.errors import ConfigError, DimensionMismatch, OutOfBounds
from ghosa.problems import benchmark_ids
from ghosa.problems.benchmarks import TRIAL_BLOCK_ENTRIES

# published display values and how far the precise optima may sit from them
PUBLISHED = {
    "f6": (-1.03163, 1e-5),
    "f7": (0.398, 5e-4),
    "f8": (3.0, 1e-9),
    "f13": (-24777.0, 1e-3 * 24777),
    "f14": (-1.9133, 1e-3),
    "f23": (-1.03163, 1e-5),
}


@pytest.mark.parametrize("fid", benchmark_ids())
def test_value_at_stored_minimizer(fid):
    f = benchmark_function(fid)
    value = f.evaluate(f.optimizer)
    if fid in ("f13", "f14"):
        assert value == pytest.approx(f.best_known, abs=1e-3 * max(1.0, abs(f.best_known)))
    else:
        assert value == pytest.approx(f.best_known, abs=1e-6)


@pytest.mark.parametrize("fid", benchmark_ids())
def test_minimizer_inside_bounds(fid):
    f = benchmark_function(fid)
    assert np.all(f.optimizer >= f.bounds[:, 0] - 1e-12)
    assert np.all(f.optimizer <= f.bounds[:, 1] + 1e-12)


@pytest.mark.parametrize("fid", benchmark_ids())
def test_box_columns_and_span(fid):
    f = benchmark_function(fid)
    assert np.array_equal(f.lo, f.bounds[:, 0])
    assert np.array_equal(f.hi, f.bounds[:, 1])
    assert np.array_equal(f.span, f.bounds[:, 1] - f.bounds[:, 0])
    if f.terms is not None:
        # a scan takes one bait term per row, the same at every slot
        assert np.all(f.lo == f.lo[0]) and np.all(f.span == f.span[0])


@pytest.mark.parametrize("fid", ["f23", "f24"])
def test_clamp_in_place_matches_clip_bit_for_bit(fid):
    # f24's box starts at 0.0, so signed zeros meet the lower bound exactly
    f = benchmark_function(fid)
    special = [-0.0, 0.0, -np.inf, np.inf, np.nan, -5.0, 5.0, 1e-300]
    x = np.array([[a, b] for a in special for b in special])
    expected = np.clip(x, f.bounds[:, 0], f.bounds[:, 1])
    out = f.clamp(x)
    assert out is x
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("fid", sorted(PUBLISHED))
def test_precise_optimum_near_published_value(fid):
    published, tol = PUBLISHED[fid]
    f = benchmark_function(fid)
    assert abs(f.best_known - published) <= tol


def test_sphere_at_origin():
    assert eval_benchmark("f1", np.zeros(10)) == 0.0


def test_goldstein_price_known_point():
    assert eval_benchmark("f8", [0.0, -1.0]) == pytest.approx(3.0)


def test_camel_known_minimum():
    assert eval_benchmark("f6", [0.08984201, -0.7126564]) == pytest.approx(
        -1.03163, abs=1e-5
    )


def test_random_points_never_below_optimum(rng):
    for fid in benchmark_ids():
        if fid == "f12":
            continue  # noisy term shifts values upward only
        f = benchmark_function(fid)
        x = rng.uniform(f.bounds[:, 0], f.bounds[:, 1], size=(200, f.dimension))
        assert np.all(f.evaluate_batch(x) >= f.best_known - 1e-9)


# every id, per-column bounds (f7, f14, f23) included, and one scaled dimension
@pytest.mark.parametrize("fid, dim", [(fid, None) for fid in benchmark_ids()] + [("f5", 30)])
def test_initial_population_is_uniform_in_the_box(fid, dim):
    f = benchmark_function(fid, dim)
    rng, reference = np.random.default_rng(8), np.random.default_rng(8)
    x = f.initial_population(rng, 40)
    assert x.shape == (40, f.dimension)
    assert np.all((x >= f.bounds[:, 0]) & (x <= f.bounds[:, 1]))
    # the values and the generator state of rng.uniform, bit for bit
    expected = reference.uniform(f.bounds[:, 0], f.bounds[:, 1], size=(40, f.dimension))
    assert np.array_equal(x.view(np.int64), expected.view(np.int64))
    assert rng.bit_generator.state == reference.bit_generator.state


SLOT_CASES = [(fid, None, None) for fid in benchmark_ids()] + [
    ("f1", 30, None), ("f3", 30, None), ("f5", 30, None), ("f12", 30, None),
    # scans whose blocks bait every entry (d=1) or half of them (d=2)
    ("f5", 1, None), ("f5", 2, None), ("f5", 25, None),
    # the engine's input: one (offset, width) window, the last as long as
    # window_fraction=0.25 gives at d=30
    ("f14", None, (1, 1)), ("f5", 30, (3, 25)), ("f5", 30, (11, 8)),
    # trial blocks of 45 and 15 columns, and one column that alone passes the cap
    ("f5", 60, (0, 60)), ("f5", 3000, (0, 3))]


@pytest.mark.parametrize("fid, dim, window", SLOT_CASES, ids=[
    f"{fid}-{dim}" + (f"-window{w[0]}:{w[0] + w[1]}" if w else "")
    for fid, dim, w in SLOT_CASES])
def test_placement_cost_scores_each_slot_without_noise(fid, dim, window):
    # oracle: the nominal value of the row with that one slot overwritten,
    # scored by a fresh instance that shares no scan state with f; bit for bit,
    # but for the separable functions' slot rule, which is exact to within
    # rounding; every row scans the same slots, an unordered random subset
    # unless a window
    f = benchmark_function(fid, dim)
    oracle = benchmark_function(fid, dim)
    rng = np.random.default_rng(21)
    x = f.initial_population(rng, 6)
    baits = rng.random(6)
    if window is None:
        slots = rng.permutation(f.dimension)[:4]
    else:
        offset, width = window
        slots = np.arange(offset, offset + width)
    state = rng.bit_generator.state
    costs = f.placement_cost(x, baits, slots)
    assert rng.bit_generator.state == state
    assert costs.shape == (6, len(slots))
    lo, hi = f.bounds[:, 0], f.bounds[:, 1]
    eps = np.finfo(float).eps
    for i, row in enumerate(x):
        want, bound = np.empty(len(slots)), np.zeros(len(slots))
        for j, p in enumerate(slots):
            trial = row.copy()
            trial[p] = lo[p] + baits[i] * (hi[p] - lo[p])
            want[j] = oracle.evaluate_batch(trial, rng=None)[0]
            if f.terms is not None:
                # the row's terms and the bait's, each summed once
                terms = np.abs(f.terms(row, np.arange(f.dimension))).sum()
                bound[j] = 4 * eps * (terms + abs(f.terms(trial[p], p)))
        assert np.all(np.abs(costs[i] - want) <= bound)
        # the same slot wins wherever no rival sits within both errors
        gaps = want - want.min()
        if np.all((gaps > 2 * bound.max()) | (want == want.min())):
            assert want[costs[i].argmin()] == want.min()


def test_rastrigin_term_reuse_is_bit_identical_to_a_fresh_instance():
    f = benchmark_function("f5", 30)
    recomputed = []
    terms = f.terms
    f.terms = lambda v, p: recomputed.append(v.size) or terms(v, p)
    rng = np.random.default_rng(17)
    x = f.initial_population(rng, 50)
    # placement-style trial columns: a copy of x with one slot per row overwritten
    flat = rng.integers(0, 30, size=(50, 30)) + np.arange(0, x.size, 30)[:, None]
    calls = []
    for slot in flat.T:
        trial = x.copy()
        trial.put(slot, rng.uniform(-5.12, 5.12, 50))
        calls.append(trial)
    calls.append(f.initial_population(rng, 50))  # every entry changed
    most = f.initial_population(rng, 50)  # all but the first and the last entry
    most[0, 0], most[-1, -1] = calls[-1][0, 0], calls[-1][-1, -1]
    calls.append(most)
    calls += [f.initial_population(rng, n) for n in (50, 5, 1, 0, 0)]  # shape changes
    plus, minus, nan = (x.copy() for _ in range(3))
    plus[:, :3], minus[:, :3], nan[:5, 3] = 0.0, -0.0, np.nan
    calls += [x, plus, minus, plus, nan, nan, x, np.asfortranarray(nan), x]
    for rows in calls:
        expected = benchmark_function("f5", 30).evaluate_batch(rows)
        got = f.evaluate_batch(rows)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    # a caller that updates its rows in place after a call, as PSO's x += v
    rows = f.initial_population(rng, 50)
    f.evaluate_batch(rows)
    rows[:, 7] += 0.5
    expected = benchmark_function("f5", 30).evaluate_batch(rows)
    assert np.array_equal(f.evaluate_batch(rows).view(np.int64), expected.view(np.int64))
    # no call outside a placement_cost scan goes through the slot rule
    assert recomputed == []


@pytest.mark.parametrize("fid, dim", [
    ("f5", 30), ("f5", 25), ("f5", 400), ("f1", 30), ("f5", 1), ("f5", 2),
    ("f12", 400), ("f3", 30)])
def test_placement_cost_scores_each_trial_row_once_in_capped_blocks(fid, dim):
    # a wrapper that passes each block on, as the benchmark's timer does, sees
    # every trial row once and gets the prices of a fresh instance bit for bit
    f = benchmark_function(fid, dim)
    shapes, recomputed = [], []
    evaluate, terms = f.evaluate_batch, f.terms
    f.evaluate_batch = lambda rows, rng=None: shapes.append(rows.shape) or evaluate(rows, rng)
    if terms is not None:
        f.terms = lambda v, p: recomputed.append(v.size) or terms(v, p)
    rng = np.random.default_rng(5)
    slots = np.arange(dim)  # the engine's whole-string window
    for x in (f.initial_population(rng, 50), f.initial_population(rng, 50)):
        shapes.clear()
        recomputed.clear()
        baits = rng.random(50)
        costs = f.placement_cost(x, baits, slots)
        fresh = benchmark_function(fid, dim).placement_cost(x, baits, slots)
        assert np.array_equal(costs.view(np.int64), fresh.view(np.int64))
        assert sum(rows for rows, _ in shapes) == 50 * dim
        assert max(rows * cols for rows, cols in shapes) <= max(TRIAL_BLOCK_ENTRIES, x.size)
        # the terms of x once, then one bait value per row (f12 weighs it per slot)
        assert sum(recomputed) == (x.size + len(x) if terms is not None else 0)


@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_rastrigin_scan_scores_only_its_own_block_from_terms(shift):
    # a wrapper that hands evaluate_batch a copy of the block, shifted or not,
    # gets the copy's own values: only the scan's read-only block gets its prices
    f, oracle = benchmark_function("f5", 30), benchmark_function("f5", 30)
    evaluate, writeable, expected = f.evaluate_batch, [], []

    def copy_of_block(rows, rng=None):
        writeable.append(rows.flags.writeable)
        trial = rows.copy()
        trial[:, 0] += shift
        expected.append(oracle.evaluate_batch(trial))
        return evaluate(trial, rng)

    f.evaluate_batch = copy_of_block
    rng = np.random.default_rng(13)
    x, baits, slots = f.initial_population(rng, 50), rng.random(50), np.arange(30)
    costs = f.placement_cost(x, baits, slots)
    assert writeable == [False] * 3
    want = np.concatenate(expected).reshape(30, 50).T
    assert np.array_equal(costs.view(np.int64), want.view(np.int64))
    if not shift:
        # the fresh scan's prices: the same values to within rounding
        fresh = oracle.placement_cost(x, baits, slots)
        assert np.allclose(costs, fresh, rtol=1e-14, atol=0.0)


def test_placement_cost_reads_rows_as_floats():
    # integer rows once truncated the bait 0.4 to 0 and scored 13.0; the slot
    # rule prices 0.16 + (14 - 1) as 13.159999999999998 and the row as 13.16
    f = benchmark_function("f1", 3)
    baits, slots = np.array([0.51]), np.array([0])
    want = f.placement_cost(np.array([[1.0, 2.0, 3.0]]), baits, slots)[0, 0]
    assert want == pytest.approx(f.evaluate_batch([[-20.0 + 0.51 * 40.0, 2.0, 3.0]])[0])
    assert want == pytest.approx(13.16)
    for x in (np.array([[1, 2, 3]]), [[1, 2, 3]], [1, 2, 3]):
        assert f.placement_cost(x, baits, slots)[0, 0] == want
    with pytest.raises(DimensionMismatch):
        f.placement_cost([[1.0, 2.0]], baits, slots)


@pytest.mark.parametrize("fid", ["f5", "f1"])  # with and without a term scan
def test_placement_cost_reads_list_baits_and_positions(fid):
    f = benchmark_function(fid, 4)
    x = f.initial_population(np.random.default_rng(3), 2)
    baits, slots = np.array([0.51, 0.2]), np.array([3, 0, 2])
    want = f.placement_cost(x, baits, slots)
    got = f.placement_cost(x, baits.tolist(), slots.tolist())
    assert np.array_equal(got, want)


@pytest.mark.parametrize("fid", ["f5", "f1"])  # with and without a term scan
def test_placement_cost_of_zero_rows_is_empty(fid):
    f = benchmark_function(fid, 30)
    costs = f.placement_cost(np.empty((0, 30)), np.empty(0), np.arange(4))
    assert costs.shape == (0, 4)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("fid", ["f1", "f4", "f5", "f12"])
def test_placement_cost_of_a_row_with_a_non_finite_total_is_its_trial_rows_value(fid):
    # inf - inf would read NaN where the trial row, its inf replaced, is finite
    f, oracle = benchmark_function(fid, 3), benchmark_function(fid, 3)
    x = np.array([[np.inf, 1.0, 0.5], [0.2, np.nan, 1.0], [0.5, 0.25, 1e200], [1.0, 0.5, 0.25]])
    baits, slots = np.array([0.5, 0.25, 0.75, 0.5]), np.arange(3)
    costs = f.placement_cost(x, baits, slots)
    for i, row in enumerate(x[:3]):
        for p in slots:
            trial = row.copy()
            trial[p] = f.lo[p] + baits[i] * f.span[p]
            want = oracle.evaluate_batch(trial)
            assert np.array_equal(costs[i, p], want[0], equal_nan=True)
    # the finite row keeps the rule, the one finite slot of each other row its value
    assert np.all(np.isfinite(costs[3])) and np.all(np.isfinite(costs[[0, 1, 2], [0, 1, 2]]))


def test_separable_values_are_pinned():
    # evaluate_batch's bits on seeded rows, recorded at 6f47fbe, before these
    # functions were written as row sums of their terms (numpy 2.4 on x86-64:
    # f5 reads numpy's cos)
    pins = {
        "f1": "a2c87f3b3957befbeb930415fe061c38adad23326a5753248852081b2f599920",
        "f4": "e39f77a0765ffd56c335bd42f1630b050fe03cf16fea25b597042efce61349e0",
        "f5": "aaaf8f7b1115db6b021b090f2ca5506afd916580bb50954521f48466ce4100ed",
        "f12": "42199263bfb755c2fcccd18ca751418d080b54a845b5f288521cccb71172e70e",
    }
    for fid, pin in pins.items():
        digest = hashlib.sha256()
        for dim in (1, 10, 30, 400):
            f = benchmark_function(fid, dim)
            x = f.initial_population(np.random.default_rng(35), 40)
            digest.update(f.evaluate_batch(x).tobytes())
            digest.update(f.evaluate_batch(x, rng=np.random.default_rng(1)).tobytes())
        assert digest.hexdigest() == pin, fid


def test_rastrigin_problem_pickles_without_scan_state():
    # the problem travels through the process pool: a fit, a scan that raises
    # and the calls after it leave nothing of their rows on it
    f = benchmark_function("f5", 30)
    size = len(pickle.dumps(f))
    ContinuousGhosaOptimizer(population_size=10, iterations=3, seed=0).fit(f)
    assert len(pickle.dumps(f)) == size
    evaluate, blocks = f.evaluate_batch, []

    def second_block_raises(rows, rng=None):  # an instance attribute, as the benchmark wraps it
        blocks.append(len(rows))
        if len(blocks) == 2:
            raise RuntimeError("second block")
        return evaluate(rows, rng)

    f.evaluate_batch = second_block_raises
    rng = np.random.default_rng(3)
    x = f.initial_population(rng, 50)
    with pytest.raises(RuntimeError, match="second block"):
        f.placement_cost(x, rng.random(50), np.arange(30))
    del f.evaluate_batch
    assert len(pickle.dumps(f)) == size
    rows = x.copy()
    rows[:, 4] = 0.5
    expected = benchmark_function("f5", 30).evaluate_batch(rows)
    assert np.array_equal(f.evaluate_batch(rows).view(np.int64), expected.view(np.int64))
    assert len(pickle.dumps(f)) == size


def test_noisy_quartic_uses_seeded_generator():
    f = benchmark_function("f12")
    x = np.zeros((1, 10))
    a = f.evaluate_batch(x, rng=np.random.default_rng(5))
    b = f.evaluate_batch(x, rng=np.random.default_rng(5))
    c = f.evaluate_batch(x, rng=np.random.default_rng(6))
    assert a == b
    assert a != c
    assert 0.0 <= a[0] < 1.0
    # noise-free when no generator is supplied
    assert f.evaluate_batch(x)[0] == 0.0


def test_out_of_bounds_rejected():
    # NaN compares false both ways, so it must fail an "inside the box" test
    for value in (6.0, np.nan):
        with pytest.raises(OutOfBounds):
            eval_benchmark("f5", np.full(10, value))
        with pytest.raises(OutOfBounds):
            eval_benchmark("f5", [0.0] * 9 + [value])


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        eval_benchmark("f6", [0.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch, match="expected dimension 2, got 3"):
        benchmark_function("f6").evaluate_batch(np.zeros((4, 3)))


def test_unknown_id_rejected():
    with pytest.raises(ConfigError):
        benchmark_function("f99")
    with pytest.raises(ConfigError, match="unknown benchmark id"):
        eval_benchmark("f99", [0.0])


def test_fixed_dimension_enforced():
    with pytest.raises(ConfigError):
        benchmark_function("f6", dim=5)


@pytest.mark.parametrize("fid, dim", [
    ("f1", 2.5), ("f1", 2.0), ("f1", True), ("f1", "3"), ("f1", 0), ("f6", 2.0),
])
def test_dimension_must_be_a_positive_integer(fid, dim):
    with pytest.raises(ConfigError, match=f"{fid} dimension must be"):
        benchmark_function(fid, dim)
    assert benchmark_function("f1", np.int64(3)).dimension == 3


def test_scalable_dimension_honored():
    f = benchmark_function("f1", dim=3)
    assert f.dimension == 3
    assert f.evaluate([1.0, 2.0, 2.0]) == pytest.approx(9.0)


def test_trap_functions_piecewise_values():
    # breakpoint continuity spot checks on the three trap shapes
    assert eval_benchmark("f15", [15.0]) == 0.0
    assert eval_benchmark("f15", [0.0]) == pytest.approx(160.0)
    assert eval_benchmark("f16", [10.0]) == pytest.approx(160.0)
    assert eval_benchmark("f16", [20.0]) == pytest.approx(200.0)
    assert eval_benchmark("f17", [2.5]) == 0.0
    assert eval_benchmark("f17", [30.0]) == pytest.approx(200.0)
