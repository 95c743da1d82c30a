"""Unit tests for repro.permutations.permutation."""

import pytest

from repro.exceptions import InvalidParameterError, InvalidPermutationError
from repro.permutations.permutation import (
    Permutation,
    identity_permutation,
    is_permutation,
    swap_positions,
    swap_symbols,
)


class TestIsPermutation:
    def test_valid(self):
        assert is_permutation((0,))
        assert is_permutation((2, 0, 1))
        assert is_permutation(range(6))

    def test_invalid_duplicates(self):
        assert not is_permutation((0, 0, 1))

    def test_invalid_out_of_range(self):
        assert not is_permutation((1, 2, 3))

    def test_invalid_types(self):
        assert not is_permutation((0.0, 1))
        assert not is_permutation((True, 0))
        assert not is_permutation(42)


class TestConstruction:
    def test_stores_tuple(self):
        assert Permutation([2, 0, 1]).values == (2, 0, 1)

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidPermutationError):
            Permutation((0, 2))

    def test_identity_classmethod(self):
        assert Permutation.identity(4).values == (0, 1, 2, 3)

    def test_identity_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            Permutation.identity(0)


class TestContainerBehaviour:
    def test_len_iter_getitem_call(self):
        perm = Permutation((2, 0, 1))
        assert len(perm) == 3
        assert list(perm) == [2, 0, 1]
        assert perm[0] == 2
        assert perm(2) == 1

    def test_equality_with_tuple_and_permutation(self):
        assert Permutation((1, 0)) == (1, 0)
        assert Permutation((1, 0)) == Permutation((1, 0))
        assert Permutation((1, 0)) != Permutation((0, 1))

    def test_hashable(self):
        assert len({Permutation((0, 1)), Permutation((0, 1)), Permutation((1, 0))}) == 2

    def test_repr_and_str(self):
        perm = Permutation((2, 0, 1))
        assert "2, 0, 1" in repr(perm)
        assert str(perm) == "2 0 1"


class TestAlgebra:
    def test_compose_with_identity(self):
        perm = Permutation((2, 0, 1))
        identity = Permutation.identity(3)
        assert perm * identity == perm
        assert identity * perm == perm

    def test_compose_definition(self):
        p = Permutation((1, 2, 0))
        q = Permutation((2, 0, 1))
        composed = p * q
        for i in range(3):
            assert composed(i) == p(q(i))

    def test_compose_rejects_degree_mismatch(self):
        with pytest.raises(InvalidParameterError):
            Permutation((0, 1)) * Permutation((0, 1, 2))

    def test_position_of(self):
        perm = Permutation((3, 0, 2, 1))
        for symbol in range(4):
            assert perm[perm.position_of(symbol)] == symbol

    def test_position_of_missing_symbol(self):
        with pytest.raises(InvalidParameterError):
            Permutation((0, 1)).position_of(5)


class TestSwaps:
    def test_swap_positions(self):
        assert Permutation((3, 2, 1, 0)).swap_positions(0, 3).values == (0, 2, 1, 3)

    def test_swap_symbols_matches_paper_definition(self):
        # Paper Definition 1 example: pi = (3 1 4 2 0), pi_(2,3) = (2 1 4 3 0).
        perm = Permutation((3, 1, 4, 2, 0))
        assert perm.swap_symbols(2, 3).values == (2, 1, 4, 3, 0)

    def test_swap_symbols_is_involution(self):
        perm = Permutation((3, 1, 4, 2, 0))
        assert perm.swap_symbols(0, 4).swap_symbols(0, 4) == perm

    def test_module_level_swap_positions_bounds(self):
        with pytest.raises(InvalidParameterError):
            swap_positions((0, 1, 2), 0, 3)

    def test_module_level_swap_symbols_missing(self):
        with pytest.raises(InvalidParameterError):
            swap_symbols((0, 1, 2), 1, 7)


class TestStructure:
    def test_cycles_of_identity_empty(self):
        assert Permutation.identity(4).cycles() == []

    def test_cycles_include_fixed_points_option(self):
        cycles = Permutation((0, 2, 1)).cycles(include_fixed_points=True)
        assert (0,) in cycles and (1, 2) in cycles

    def test_cycles_deterministic_order(self):
        perm = Permutation((1, 0, 3, 2))
        assert perm.cycles() == [(0, 1), (2, 3)]

    def test_num_inversions_and_parity(self):
        assert Permutation((0, 1, 2)).num_inversions() == 0
        assert Permutation((2, 1, 0)).num_inversions() == 3
        assert Permutation((1, 0, 2)).parity() == 1
        assert Permutation((1, 2, 0)).parity() == 0


class TestHelpers:
    def test_identity_permutation(self):
        assert identity_permutation(3) == (0, 1, 2)
        with pytest.raises(InvalidParameterError):
            identity_permutation(0)

