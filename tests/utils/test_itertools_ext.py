"""Unit tests for repro.utils.itertools_ext."""

import pytest

from repro.utils.itertools_ext import argmax, first, pairwise


class TestPairwise:
    def test_basic(self):
        assert list(pairwise([1, 2, 3, 4])) == [(1, 2), (2, 3), (3, 4)]

    def test_empty_and_singleton(self):
        assert list(pairwise([])) == []
        assert list(pairwise([7])) == []

    def test_works_on_generators(self):
        assert list(pairwise(iter("abc"))) == [("a", "b"), ("b", "c")]


class TestFirst:
    def test_returns_first(self):
        assert first([3, 2, 1]) == 3

    def test_default_on_empty(self):
        assert first([], default="fallback") == "fallback"
        assert first([]) is None


class TestArgmax:
    def test_argmax_basic(self):
        assert argmax([1, 5, 3]) == 1

    def test_argmax_first_on_ties(self):
        assert argmax([2, 7, 7]) == 1

    def test_argmax_with_key(self):
        assert argmax(["a", "bbb", "cc"], key=len) == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            argmax([])
