"""Unit tests for repro.utils.validation."""

import pytest

from repro.exceptions import InvalidParameterError
from repro.utils.validation import (
    check_in_range,
    check_positive_int,
    check_sequence_of_ints,
)


class TestCheckPositiveInt:
    def test_accepts_valid_value(self):
        assert check_positive_int(3, "x") == 3

    def test_accepts_custom_minimum(self):
        assert check_positive_int(0, "x", minimum=0) == 0

    def test_rejects_below_minimum(self):
        with pytest.raises(InvalidParameterError, match="x must be >= 1"):
            check_positive_int(0, "x")

    def test_rejects_bool(self):
        with pytest.raises(InvalidParameterError, match="must be an int"):
            check_positive_int(True, "x")

    def test_rejects_float(self):
        with pytest.raises(InvalidParameterError):
            check_positive_int(2.0, "x")

    def test_rejects_string(self):
        with pytest.raises(InvalidParameterError):
            check_positive_int("3", "x")

    def test_error_message_names_parameter(self):
        with pytest.raises(InvalidParameterError, match="degree"):
            check_positive_int(-1, "degree")


class TestCheckInRange:
    def test_accepts_bounds(self):
        assert check_in_range(1, "x", 1, 5) == 1
        assert check_in_range(5, "x", 1, 5) == 5

    def test_rejects_outside(self):
        with pytest.raises(InvalidParameterError):
            check_in_range(6, "x", 1, 5)
        with pytest.raises(InvalidParameterError):
            check_in_range(0, "x", 1, 5)

    def test_rejects_bool(self):
        with pytest.raises(InvalidParameterError):
            check_in_range(True, "x", 0, 2)


class TestCheckSequenceOfInts:
    def test_converts_to_tuple(self):
        assert check_sequence_of_ints([1, 2, 3], "x") == (1, 2, 3)

    def test_accepts_empty(self):
        assert check_sequence_of_ints([], "x") == ()

    def test_accepts_generator(self):
        assert check_sequence_of_ints((i for i in range(3)), "x") == (0, 1, 2)

    def test_rejects_non_int_elements(self):
        with pytest.raises(InvalidParameterError, match="only ints"):
            check_sequence_of_ints([1, "2"], "x")

    def test_rejects_bool_elements(self):
        with pytest.raises(InvalidParameterError):
            check_sequence_of_ints([1, True], "x")

