"""Seeded property fuzz: rank/unrank round trips and implicit-vs-table parity.

The S_13+ sampled campaigns never materialise adjacency: every neighbour
expansion is ``unrank -> apply generator -> rank``
(:func:`repro.permutations.ranking.implicit_neighbor_block`), so the
bounded-ball sweeps are exactly as trustworthy as these two properties:

* ``rank_batch(unrank_batch(ranks, n)) == ranks`` for *any* rank array;
* the implicit block equals the dense move-table lookup for *any* generator
  set, at *any* chunk size.

This suite fuzzes both across degrees 3-10, the four generator families
(star transpositions, pancake prefix reversals, bubble-sort adjacent
exchanges, and a non-path non-star transposition tree) and chunk sizes
{1, 7, 64, 10**9}.  Draws are seeded per (degree, case) so failures replay
deterministically.  Degrees 9-10 ride behind ``REPRO_HEAVY_TESTS=1``; the
tier-1 tier stays within the in-RAM dense-table degrees.
"""

import os

import numpy as np
import pytest

from repro.permutations import ranking
from repro.permutations.ranking import (
    factorials,
    implicit_neighbor_block,
    move_tables_for,
    rank_batch,
    star_position_generators,
    unrank_batch,
)
from repro.simulation.stats import derive_trial_seed
from repro.topology.cayley import (
    prefix_reversal_generators,
    transposition_generators,
)

HEAVY = bool(os.environ.get("REPRO_HEAVY_TESTS"))

TIER1_DEGREES = (3, 4, 5, 6, 7, 8)
HEAVY_DEGREES = (9, 10)
DEGREES = TIER1_DEGREES + (HEAVY_DEGREES if HEAVY else ())

CHUNK_SIZES = (1, 7, 64, 10**9)

SAMPLES = 500


def _tree_pairs(n):
    """A spanning tree on the positions that is neither the star nor the path.

    Position 0 fans out to 1 and 2, and the remaining positions chain off
    position 2 -- a "broom" tree, distinct from both special cases for
    ``n >= 4``.
    """
    pairs = [(0, 1), (0, 2)]
    pairs.extend((k - 1, k) for k in range(3, n))
    return tuple(pairs)


def generator_families(n):
    """``name -> position-permutation generators`` for all four families."""
    families = {
        "star": star_position_generators(n),
        "pancake": prefix_reversal_generators(n),
        "bubble-sort": transposition_generators(
            n, tuple((k, k + 1) for k in range(n - 1))
        ),
    }
    if n >= 4:
        families["tree"] = transposition_generators(n, _tree_pairs(n))
    return families


def _fuzz_ranks(n, case):
    """A seeded rank draw covering the extremes and the bulk of ``[0, n!)``."""
    num_nodes = factorials(n)[n]
    rng = np.random.default_rng(derive_trial_seed(4242, "roundtrip-fuzz", n, case))
    bulk = rng.integers(0, num_nodes, size=SAMPLES, dtype=np.int64)
    edges = np.asarray([0, 1, num_nodes - 2, num_nodes - 1], dtype=np.int64)
    return np.concatenate([edges, bulk])


class TestRankUnrankRoundTrip:
    @pytest.mark.parametrize("n", DEGREES)
    def test_rank_of_unrank_is_identity(self, n):
        ranks = _fuzz_ranks(n, "rank-roundtrip")
        rows = unrank_batch(ranks, n)
        assert np.array_equal(np.asarray(rank_batch(rows)), ranks)

    @pytest.mark.parametrize("n", TIER1_DEGREES[:4])
    def test_unrank_enumerates_distinct_valid_rows(self, n):
        # Exhaustive at tiny degrees: every rank yields a valid permutation
        # row and no two ranks collide.
        num_nodes = factorials(n)[n]
        rows = np.asarray(unrank_batch(np.arange(num_nodes, dtype=np.int64), n))
        assert rows.shape == (num_nodes, n)
        assert np.array_equal(np.sort(rows, axis=1), np.tile(np.arange(n), (num_nodes, 1)))
        assert len({tuple(map(int, row)) for row in rows}) == num_nodes


class TestImplicitVsTableParity:
    @pytest.mark.parametrize("n", DEGREES)
    def test_implicit_block_matches_table_lookup_all_families(self, n):
        ranks = _fuzz_ranks(n, "implicit-parity")
        for family, generators in generator_families(n).items():
            tables = np.stack(
                [np.asarray(table) for table in move_tables_for(generators, n)],
                axis=1,
            )
            expected = tables[ranks]
            implicit = np.asarray(
                implicit_neighbor_block(ranks, generators, n)
            )
            assert np.array_equal(implicit, expected), (family, n)

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_every_chunk_size_is_bit_identical(self, chunk, monkeypatch):
        n = 7
        ranks = _fuzz_ranks(n, f"chunk-{chunk}")
        for family, generators in generator_families(n).items():
            monkeypatch.setattr(ranking, "CHUNK_NODES", 10**9)
            reference = np.asarray(implicit_neighbor_block(ranks, generators, n))
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
            chunked = np.asarray(implicit_neighbor_block(ranks, generators, n))
            assert np.array_equal(chunked, reference), (family, chunk)

    @pytest.mark.parametrize("n", DEGREES)
    def test_neighbor_rows_are_involutions(self, n):
        # Every generator is an involution, so applying the implicit block
        # twice along each generator column returns the original ranks.
        ranks = _fuzz_ranks(n, "involution")
        for family, generators in generator_families(n).items():
            neighbors = np.asarray(implicit_neighbor_block(ranks, generators, n))
            for column in range(neighbors.shape[1]):
                back = np.asarray(
                    implicit_neighbor_block(neighbors[:, column], generators, n)
                )
                assert np.array_equal(back[:, column], ranks), (family, column)
