"""Unit tests for repro.utils.mixed_radix."""

import math

import pytest

from repro.exceptions import InvalidParameterError
from repro.utils.mixed_radix import MixedRadix, iter_mixed_radix


class TestMixedRadixBasics:
    def test_size_is_product_of_radices(self):
        assert MixedRadix((4, 3, 2)).size == 24
        assert MixedRadix((5,)).size == 5

    def test_paper_mesh_radices_give_factorial(self):
        for n in range(2, 8):
            radices = tuple(range(n, 1, -1))
            assert MixedRadix(radices).size == math.factorial(n)

    def test_ndigits(self):
        assert MixedRadix((4, 3, 2)).ndigits == 3

    def test_len_matches_size(self):
        mr = MixedRadix((3, 2))
        assert len(mr) == 6

    def test_equality_and_hash(self):
        assert MixedRadix((4, 3)) == MixedRadix((4, 3))
        assert MixedRadix((4, 3)) != MixedRadix((3, 4))
        assert hash(MixedRadix((4, 3))) == hash(MixedRadix((4, 3)))

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            MixedRadix(())

    def test_rejects_zero_radix(self):
        with pytest.raises(InvalidParameterError):
            MixedRadix((3, 0))


class TestEncodeDecode:
    def test_encode_origin_is_zero(self):
        assert MixedRadix((4, 3, 2)).encode((0, 0, 0)) == 0

    def test_encode_maximum(self):
        assert MixedRadix((4, 3, 2)).encode((3, 2, 1)) == 23

    def test_round_trip_every_value(self):
        mr = MixedRadix((3, 4, 2))
        for value in range(mr.size):
            assert mr.encode(mr.decode(value)) == value

    def test_decode_then_encode_is_identity_on_tuples(self):
        mr = MixedRadix((2, 5, 3))
        for digits in mr:
            assert mr.decode(mr.encode(digits)) == digits

    def test_encode_rejects_wrong_length(self):
        with pytest.raises(InvalidParameterError):
            MixedRadix((4, 3)).encode((1, 1, 1))

    def test_encode_rejects_out_of_range_digit(self):
        with pytest.raises(InvalidParameterError):
            MixedRadix((4, 3)).encode((4, 0))

    def test_decode_rejects_out_of_range_value(self):
        with pytest.raises(InvalidParameterError):
            MixedRadix((4, 3)).decode(12)
        with pytest.raises(InvalidParameterError):
            MixedRadix((4, 3)).decode(-1)

    def test_decode_rejects_non_int(self):
        with pytest.raises(InvalidParameterError):
            MixedRadix((4, 3)).decode(1.5)


class TestIteration:
    def test_iterates_in_encoding_order(self):
        mr = MixedRadix((2, 3))
        assert [mr.encode(d) for d in mr] == list(range(6))

    def test_iter_mixed_radix_count(self):
        assert sum(1 for _ in iter_mixed_radix((3, 2, 2))) == 12

    def test_iter_mixed_radix_first_and_last(self):
        values = list(iter_mixed_radix((2, 2)))
        assert values[0] == (0, 0)
        assert values[-1] == (1, 1)

    def test_iter_rejects_bad_radix(self):
        with pytest.raises(InvalidParameterError):
            list(iter_mixed_radix((2, 0)))
