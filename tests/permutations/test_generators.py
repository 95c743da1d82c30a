"""Unit tests for repro.permutations.generators (star generator moves, Lemma 2 paths)."""

from itertools import combinations, permutations as itertools_permutations

import pytest

from repro.exceptions import InvalidParameterError
from repro.permutations.generators import (
    apply_star_generator,
    transposition_to_star_routes,
)
from repro.permutations.permutation import swap_symbols


class TestApplyStarGenerator:
    def test_matches_paper_connection_rule(self):
        # pi = (a_{n-1} ... a_0); generator j exchanges tuple positions 0 and j.
        node = (3, 2, 1, 0)
        assert apply_star_generator(node, 1) == (2, 3, 1, 0)
        assert apply_star_generator(node, 3) == (0, 2, 1, 3)

    def test_is_involution(self):
        node = (2, 0, 3, 1)
        for j in range(1, 4):
            assert apply_star_generator(apply_star_generator(node, j), j) == node

    def test_rejects_bad_index(self):
        with pytest.raises(InvalidParameterError):
            apply_star_generator((0, 1, 2), 3)


class TestTranspositionRoutes:
    def test_front_symbol_gives_single_route(self):
        node = (3, 2, 1, 0)
        path = transposition_to_star_routes(node, 3, 0)
        assert path == [(0, 2, 1, 3)]

    def test_non_front_symbols_give_three_routes(self):
        node = (3, 2, 1, 0)
        path = transposition_to_star_routes(node, 2, 1)
        assert len(path) == 3
        assert path[-1] == swap_symbols(node, 2, 1)

    def test_each_hop_is_a_generator_move(self):
        node = (4, 1, 3, 0, 2)
        path = [node] + transposition_to_star_routes(node, 3, 0)
        for a, b in zip(path, path[1:]):
            differing = [i for i in range(5) if a[i] != b[i]]
            assert len(differing) == 2 and 0 in differing

    def test_every_pair_on_every_s4_node(self):
        for node in itertools_permutations(range(4)):
            for a, b in combinations(range(4), 2):
                path = transposition_to_star_routes(node, a, b)
                assert path[-1] == swap_symbols(node, a, b)
                assert len(path) in (1, 3)
                expected_one = node[0] in (a, b)
                assert (len(path) == 1) == expected_one

    def test_rejects_equal_symbols(self):
        with pytest.raises(InvalidParameterError):
            transposition_to_star_routes((0, 1, 2), 1, 1)

    def test_rejects_missing_symbol(self):
        with pytest.raises(InvalidParameterError):
            transposition_to_star_routes((0, 1, 2), 0, 9)

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidParameterError):
            transposition_to_star_routes((0, 0, 1), 0, 1)
