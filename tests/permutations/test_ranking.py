"""Unit tests for repro.permutations.ranking (Lehmer codes and lexicographic ranks)."""

import math
from itertools import permutations as itertools_permutations

import numpy as np
import pytest

from repro.exceptions import (
    InvalidParameterError,
    InvalidPermutationError,
    TableDegreeError,
)
from repro.permutations.ranking import (
    MAX_INT64_RANK_DEGREE,
    MAX_PACKED_DEGREE,
    MAX_TABLE_DEGREE,
    all_permutations,
    all_permutations_array,
    keys_to_ranks,
    pack_permutations,
    ranks_to_keys,
    unpack_permutations,
    unrank_batch,
    lehmer_code,
    lehmer_decode,
    move_tables,
    move_tables_for,
    permutation_rank,
    permutation_unrank,
    require_table_degree,
    star_position_generators,
    within_table_degree,
)


class TestLehmerCode:
    def test_identity_code_is_zero(self):
        assert lehmer_code((0, 1, 2, 3)) == (0, 0, 0, 0)

    def test_reverse_code(self):
        assert lehmer_code((3, 2, 1, 0)) == (3, 2, 1, 0)

    def test_worked_example(self):
        assert lehmer_code((2, 0, 1)) == (2, 0, 0)

    def test_last_digit_always_zero(self):
        for perm in itertools_permutations(range(5)):
            assert lehmer_code(perm)[-1] == 0

    def test_round_trip(self):
        for perm in itertools_permutations(range(5)):
            assert lehmer_decode(lehmer_code(perm)) == perm

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidPermutationError):
            lehmer_code((0, 0, 1))

    def test_decode_rejects_out_of_range_digit(self):
        with pytest.raises(InvalidParameterError):
            lehmer_decode((3, 0, 0))  # first digit must be < 3 for degree 3


class TestRankUnrank:
    def test_identity_rank_zero(self):
        assert permutation_rank((0, 1, 2, 3)) == 0

    def test_reverse_has_max_rank(self):
        assert permutation_rank((3, 2, 1, 0)) == math.factorial(4) - 1

    def test_rank_matches_lexicographic_enumeration(self):
        for n in (1, 2, 3, 4, 5):
            for expected_rank, perm in enumerate(itertools_permutations(range(n))):
                assert permutation_rank(perm) == expected_rank

    def test_unrank_round_trip(self):
        n = 6
        for rank in range(0, math.factorial(n), 37):
            assert permutation_rank(permutation_unrank(rank, n)) == rank

    def test_unrank_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            permutation_unrank(math.factorial(4), 4)
        with pytest.raises(InvalidParameterError):
            permutation_unrank(-1, 4)

    def test_unrank_rejects_non_int(self):
        with pytest.raises(InvalidParameterError):
            permutation_unrank(1.0, 3)

    @pytest.mark.parametrize(
        "integer",
        [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64],
    )
    def test_unrank_accepts_numpy_integers(self, integer):
        # The same integrality rule as unrank_batch and bounded_bfs_ball.
        for rank in (0, 3, 119):
            assert permutation_unrank(integer(rank), 5) == permutation_unrank(rank, 5)

    @pytest.mark.parametrize(
        "rank", [True, np.bool_(True), np.float64(3), "3", [3], np.array([3])]
    )
    def test_unrank_rejects_bools_and_other_non_integers(self, rank):
        with pytest.raises(InvalidParameterError, match="rank must be an int"):
            permutation_unrank(rank, 5)

    def test_unrank_rejects_bad_degree(self):
        with pytest.raises(InvalidParameterError):
            permutation_unrank(0, 0)


class TestAllPermutations:
    def test_count(self):
        assert sum(1 for _ in all_permutations(5)) == 120

    def test_order_matches_rank(self):
        for rank, perm in enumerate(all_permutations(4)):
            assert permutation_rank(perm) == rank

    def test_rejects_bad_degree(self):
        with pytest.raises(InvalidParameterError):
            all_permutations(0)


class TestTableDegreeGuard:
    """The unified table overflow path (one exception type)."""

    def test_within_table_degree_boundary(self):
        assert MAX_TABLE_DEGREE == 10
        assert within_table_degree(MAX_TABLE_DEGREE)
        assert not within_table_degree(MAX_TABLE_DEGREE + 1)

    def test_require_table_degree_passes_in_range(self):
        require_table_degree(MAX_TABLE_DEGREE)  # must not raise

    def test_every_table_entry_point_raises_the_same_error(self):
        over = MAX_TABLE_DEGREE + 1
        messages = set()
        for call in (
            lambda: require_table_degree(over),
            lambda: move_tables(over),
            lambda: move_tables_for(((1, 0) + tuple(range(2, over)),), over),
            lambda: all_permutations_array(over),
        ):
            with pytest.raises(TableDegreeError) as excinfo:
                call()
            messages.add(str(excinfo.value))
        # Above the absolute ceiling every entry point names it identically,
        # and the message points past the dead end: the automatic table-free
        # implicit source and the sampled estimators.
        assert len(messages) == 1
        (message,) = messages
        assert message.startswith(
            f"per-degree move tables are limited to n <= {MAX_TABLE_DEGREE}, "
            f"got {over}"
        )
        assert "Topology.neighbor_source serves the table-free implicit" in message
        assert "REPRO_NEIGHBORS" not in message
        assert "repro.simulation.sampling" in message
        assert "SAMPLED-DISTANCE" in message
        # ... including the sampled-campaign remedy added with the S_13+
        # bounded-ball campaigns.
        assert "repro.simulation.sampled_campaign" in message
        assert "SAMPLED-FAULT" in message
        assert "SAMPLED-STRETCH" in message

    def test_table_degree_error_is_an_invalid_parameter_error(self):
        # Pre-unification callers caught InvalidParameterError; they still can.
        with pytest.raises(InvalidParameterError):
            require_table_degree(MAX_TABLE_DEGREE + 1)

    def test_require_rejects_degree_zero(self):
        with pytest.raises(InvalidParameterError):
            require_table_degree(0)


class TestMoveTablesFor:
    def test_star_tables_are_the_special_case(self):
        generic = move_tables_for(star_position_generators(5), 5)
        star = move_tables(5)
        assert len(generic) == len(star)
        for a, b in zip(generic, star):
            assert list(map(int, a)) == list(map(int, b))

    def test_cached_per_generator_set(self):
        generators = star_position_generators(4)
        assert move_tables_for(generators, 4) is move_tables_for(generators, 4)

    @pytest.mark.parametrize(
        "generator",
        [
            (0, 2, 1, 3),          # adjacent transposition (bubble-sort style)
            (3, 1, 2, 0),          # non-adjacent transposition
            (1, 0, 3, 2),          # product of two disjoint transpositions
            (3, 2, 1, 0),          # full reversal (pancake r_4)
        ],
    )
    def test_tables_are_fixed_point_free_involutions(self, generator):
        (table,) = move_tables_for((generator,), 4)
        for rank in range(len(table)):
            image = int(table[rank])
            assert image != rank
            assert int(table[image]) == rank

    def test_table_agrees_with_tuple_application(self):
        generator = (2, 1, 0, 3)  # transposition of positions 0 and 2
        (table,) = move_tables_for((generator,), 4)
        for rank, perm in enumerate(all_permutations(4)):
            moved = tuple(perm[p] for p in generator)
            assert int(table[rank]) == permutation_rank(moved)

    def test_rejects_identity_generator(self):
        with pytest.raises(InvalidParameterError):
            move_tables_for(((0, 1, 2),), 3)

    def test_rejects_non_involution(self):
        with pytest.raises(InvalidParameterError):
            move_tables_for(((1, 2, 0),), 3)

    def test_rejects_duplicate_generators(self):
        with pytest.raises(InvalidParameterError):
            move_tables_for(((1, 0, 2), (1, 0, 2)), 3)

    def test_rejects_wrong_degree_generator(self):
        with pytest.raises(InvalidParameterError):
            move_tables_for(((1, 0),), 3)


class TestPackedKeys:
    """Packed permutation keys: 4 bits per symbol, position 0 on top."""

    @staticmethod
    def _ranks(n, seed):
        total = math.factorial(n)
        drawn = np.random.default_rng(seed).integers(0, total, size=300)
        return np.unique(np.concatenate([[0, total - 1], drawn]).astype(np.int64))

    @pytest.mark.parametrize("n", range(1, MAX_PACKED_DEGREE + 1))
    def test_round_trip_includes_the_extreme_ranks(self, n):
        ranks = self._ranks(n, 500 + n)
        assert ranks[0] == 0 and ranks[-1] == math.factorial(n) - 1
        perms = unrank_batch(ranks, n)
        keys = pack_permutations(perms)
        assert keys.dtype == np.uint64 and keys.shape == ranks.shape
        assert np.array_equal(unpack_permutations(keys, n), perms)
        assert np.array_equal(ranks_to_keys(ranks, n), keys)
        back = keys_to_ranks(keys, n)
        assert back.dtype == np.int64
        assert np.array_equal(back, ranks)

    @pytest.mark.parametrize("n", range(1, MAX_PACKED_DEGREE + 1))
    def test_key_order_is_rank_order(self, n):
        ranks = self._ranks(n, 700 + n)  # sorted and distinct
        keys = ranks_to_keys(ranks, n)
        assert bool(np.all(keys[1:] > keys[:-1]))
        shuffled = np.random.default_rng(n).permutation(ranks.size)
        assert np.array_equal(np.argsort(keys[shuffled]), np.argsort(ranks[shuffled]))

    def test_layout_puts_position_zero_in_the_top_nibble(self):
        assert int(pack_permutations([[1, 0]])[0]) == 0x1 << 60
        full = pack_permutations([list(range(15, -1, -1))])[0]
        assert int(full) == 0xFEDCBA9876543210

    @pytest.mark.parametrize(
        "n", range(MAX_PACKED_DEGREE + 1, MAX_INT64_RANK_DEGREE + 1)
    )
    def test_past_the_packed_degree_keys_are_ranks(self, n):
        ranks = self._ranks(n, 900 + n)
        keys = ranks_to_keys(ranks, n)
        assert keys.dtype == np.int64
        assert np.array_equal(keys, ranks)
        assert np.array_equal(keys_to_ranks(keys, n), ranks)

    def test_packing_refuses_degrees_past_sixteen(self):
        with pytest.raises(TableDegreeError, match="packed"):
            pack_permutations(np.zeros((1, MAX_PACKED_DEGREE + 1), dtype=np.int8))
        with pytest.raises(TableDegreeError, match="packed"):
            unpack_permutations(np.zeros(1, dtype=np.uint64), MAX_PACKED_DEGREE + 1)

    def test_ranks_to_keys_validates_ranks(self):
        for n in (5, MAX_PACKED_DEGREE + 1):
            with pytest.raises(InvalidParameterError):
                ranks_to_keys([math.factorial(n)], n)
