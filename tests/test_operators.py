import math

import pytest

from ghosa import (
    BaitingCase,
    attracting_prey_swarms,
    baiting,
    change_of_position,
)
from ghosa.errors import (
    EmptyWindow,
    InvalidPosition,
    ShiftOutOfRange,
    UnknownEvent,
)


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


class TestChangeOfPosition:
    def test_four_city_insertion_slot(self, unit_square_tsp):
        # tour over three corners, bait is the missing one; independent
        # enumeration of insertion deltas picks the slot between c1 and c3
        coords = unit_square_tsp.coords
        tour = [1, 2, 4]
        bait = 3

        def insertion_delta(pos):
            prev = coords[tour[pos - 1] - 1]
            nxt = coords[tour[pos] - 1]
            b = coords[bait - 1]
            return (
                math.dist(prev, b) + math.dist(b, nxt) - math.dist(prev, nxt)
            )

        expected = min(range(3), key=insertion_delta)
        got = change_of_position(tour, bait, range(3), insertion_delta)
        assert got == expected == 2

    def test_window_of_one(self):
        assert change_of_position([1, 2, 3], 1, range(1, 2), lambda p: 0.0) == 1

    def test_uniform_costs_tie_break_to_lowest_index(self):
        assert change_of_position([1, 2, 3, 4], 1, range(1, 4), lambda p: 7.0) == 1

    def test_accepts_precomputed_cost_array(self):
        assert change_of_position([1, 2, 3, 4], 1, range(4), [3.0, 1.0, 1.0, 2.0]) == 1

    def test_empty_window(self):
        with pytest.raises(EmptyWindow):
            change_of_position([1, 2, 3], 1, range(0), lambda p: 0.0)


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
