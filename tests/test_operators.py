import numpy as np
import pytest

from ghosa import BaitingCase, attracting_prey_swarms, baiting
from ghosa.errors import InvalidPosition, ShiftOutOfRange, UnknownEvent
from ghosa.operators import apply_cases, apply_value_cases, rotate_segments


class TestBaiting:
    def test_catch_is_a_swap_on_permutations(self):
        out = baiting([1, 2, 3], bait=3, position=0, case=BaitingCase.CATCH)
        assert out.tolist() == [3, 2, 1]

    def test_false_catch_moves_element_to_end(self):
        out = baiting([1, 2, 3, 4], bait=1, position=1, case=BaitingCase.FALSE_CATCH)
        assert out.tolist() == [1, 3, 4, 2]

    def test_miss_catch_relocates_bait(self):
        # insert 3 at slot 0; its old copy disappears, length is preserved
        out = baiting([1, 2, 3, 4], bait=3, position=0, case=BaitingCase.MISS_CATCH)
        assert out.tolist() == [3, 1, 2, 4]

    def test_miss_catch_at_own_position_is_identity(self):
        out = baiting([5, 1, 4, 2, 3], bait=5, position=0, case=BaitingCase.MISS_CATCH)
        assert out.tolist() == [5, 1, 4, 2, 3]

    @pytest.mark.parametrize("case", list(BaitingCase))
    def test_all_cases_preserve_permutation(self, case, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            seq = rng.permutation(n) + 1
            out = baiting(
                seq,
                bait=int(rng.integers(1, n + 1)),
                position=int(rng.integers(0, n)),
                case=case,
                n_events=n,
            )
            assert sorted(out.tolist()) == list(range(1, n + 1))

    def test_position_out_of_range(self):
        with pytest.raises(InvalidPosition):
            baiting([1, 2, 3], bait=1, position=3, case=BaitingCase.CATCH)

    def test_unknown_bait(self):
        with pytest.raises(UnknownEvent):
            baiting([1, 2, 3], bait=9, position=0, case=BaitingCase.CATCH, n_events=3)

    def test_non_permutation_catch_overwrites(self):
        out = baiting(
            [7, 7, 8], bait=9, position=1, case=BaitingCase.CATCH, permutation=False
        )
        assert out.tolist() == [7, 9, 8]

    def test_letter_string_three_outcomes(self):
        # event letters with bait F applied at one slot: insertion grows the
        # free-form string, replacement swaps the slot, removal restores the
        # displaced event at the end
        seq = list("ABCDEGHI")
        inserted = baiting(seq, "F", 4, BaitingCase.MISS_CATCH, permutation=False)
        assert "".join(inserted) == "ABCDFEGHI"
        replaced = baiting(seq, "F", 4, BaitingCase.CATCH, permutation=False)
        assert "".join(replaced) == "ABCDFGHI"
        removed = baiting(seq, "F", 4, BaitingCase.FALSE_CATCH, permutation=False)
        assert "".join(removed) == "ABCDGHIE"


class TestAttractingPreySwarms:
    def test_three_revolutions_example(self):
        # eight-element string with the bait slot over E: three revolutions
        # bring B under it
        seq = list("ABCDEGHI")
        out = attracting_prey_swarms(seq, bait_position=4, shift=3)
        assert out[4] == "B"

    def test_rotation_by_one(self):
        out = attracting_prey_swarms([1, 2, 3], bait_position=0, shift=1)
        assert out.tolist() == [3, 1, 2]

    def test_shift_equal_to_length_rejected(self):
        with pytest.raises(ShiftOutOfRange):
            attracting_prey_swarms([1, 2, 3], bait_position=0, shift=3)

    def test_segment_rotation_leaves_rest_untouched(self):
        out = attracting_prey_swarms(
            [1, 2, 3, 4, 5, 6], bait_position=2, shift=1, segment=(1, 4)
        )
        assert out.tolist() == [1, 4, 2, 3, 5, 6]

    def test_inverse_rotation_restores(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 15))
            seq = rng.permutation(n) + 1
            shift = int(rng.integers(1, n))
            once = attracting_prey_swarms(seq, 0, shift)
            back = attracting_prey_swarms(once, 0, n - shift) if shift != 0 else once
            assert back.tolist() == seq.tolist()


class TestKernelsMatchScalarOracles:
    """Each row of a batched kernel equals the scalar operator on that row."""

    CASES = (BaitingCase.MISS_CATCH, BaitingCase.CATCH, BaitingCase.FALSE_CATCH)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_case_rows_equal_baiting(self, n, rng):
        rows = 90
        x = np.array([rng.permutation(n) + 1 for _ in range(rows)])
        cases = np.resize([0, 1, 2], rows)
        positions = rng.integers(0, n, rows)
        baits = rng.integers(1, n + 1, rows)
        before = x.copy()
        out = apply_cases(x, cases, positions, baits)
        for i in range(rows):
            expected = baiting(
                x[i], int(baits[i]), int(positions[i]), self.CASES[cases[i]], n_events=n
            )
            assert out[i].tolist() == expected.tolist()
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_value_rows_equal_baiting(self, n, rng):
        # every case at the first, a middle and the last slot, each unrotated
        # (shift 0) and rotated by 1 and n - 1; on value strings miss catch
        # inserts and drops the last entry, then the whole string rotates
        grid = [
            (case, pos, shift)
            for case in range(3)
            for pos in sorted({0, n // 2, n - 1})
            for shift in sorted({0, 1, n - 1} & set(range(n)))
        ]
        cases, positions, shifts = (np.array(a) for a in zip(*grid))
        x = rng.normal(size=(len(grid), n))
        baits = rng.normal(size=len(grid))
        before = x.copy()
        out = apply_value_cases(x, cases, positions, baits, shifts)
        for i, (case, pos, shift) in enumerate(grid):
            expected = baiting(
                x[i], baits[i], int(pos), self.CASES[case], permutation=False
            )[:n]
            if shift:
                expected = attracting_prey_swarms(expected, 0, int(shift))
            assert np.array_equal(out[i], expected)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_rotated_rows_equal_attracting_prey_swarms(self, n, rng):
        rows = 60
        x = np.array([rng.permutation(n) + 1 for _ in range(rows)])
        lengths = rng.integers(2, n + 1, rows)
        starts = rng.integers(0, n - lengths + 1)
        shifts = rng.integers(1, lengths)
        out = rotate_segments(x, starts, starts + lengths, shifts)
        for i in range(rows):
            segment = (int(starts[i]), int(starts[i] + lengths[i]))
            expected = attracting_prey_swarms(x[i], segment[0], int(shifts[i]), segment)
            assert out[i].tolist() == expected.tolist()

    def test_rotate_segments_matches_roll(self, rng):
        n = 7
        x = np.array([rng.permutation(n) + 1 for _ in range(3)])
        segments = [
            (start, stop, shift)
            for start in range(n)
            for stop in range(start + 1, n + 1)
            for shift in range(stop - start + 1)
        ]
        for start, stop, shift in segments:
            expected = x.copy()
            expected[:, start:stop] = np.roll(x[:, start:stop], shift, axis=1)
            assert np.array_equal(rotate_segments(x, start, stop, shift), expected)
        # one row per segment, as the engine draws them
        rows = x[np.arange(len(segments)) % len(x)]
        starts, stops, shifts = np.array(segments).T
        out = rotate_segments(rows, starts, stops, shifts)
        for row, got, (start, stop, shift) in zip(rows, out, segments):
            expected = row.copy()
            expected[start:stop] = np.roll(row[start:stop], shift)
            assert got.tolist() == expected.tolist()
        # whole strings (rotation scope "whole"), one shift per row
        shifts = np.arange(1, n)
        values = rng.random((n - 1, n))
        out = rotate_segments(values, 0, n, shifts)
        for row, got, shift in zip(values, out, shifts):
            assert np.array_equal(got, np.roll(row, shift))
