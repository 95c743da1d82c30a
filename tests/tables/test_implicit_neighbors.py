"""Table-free implicit adjacency (PR 8): parity with materialised tables.

The contract under test: ``implicit_neighbor_block`` computes exactly the
rows the move tables would hold (``unrank -> apply generator -> rank``), the
``NeighborSource`` seam serves bit-identical adjacency from either side, and
the whole-graph kernels -- BFS, connectivity floods, masked BFS, the batched
embedding tally -- return the same results from the implicit source as from
the tables, at every chunk size.  The implicit source is reached either by
building it directly or by lowering ``MAX_TABLE_DEGREE`` so that the degree
rule selects it.  The vectorised ``rank_batch``
round-trips ``unrank_batch`` at degrees past the table ceiling, and the
int64 rank guard (``21!`` overflows int64) raises the canonical
:class:`~repro.exceptions.TableDegreeError` on every batch entry point.
"""

import math
import os

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, TableDegreeError
from repro.permutations import ranking
from repro.permutations.ranking import (
    MAX_INT64_RANK_DEGREE,
    MAX_TABLE_DEGREE,
    implicit_neighbor_block,
    move_tables_for,
    permutation_rank,
    permutation_unrank,
    permutations_slice,
    rank_batch,
    star_position_generators,
    unrank_batch,
    within_int64_rank_degree,
)
from repro.simulation.rerouting import masked_bfs_distances
from repro.topology.cayley import (
    BubbleSortGraph,
    PancakeGraph,
    TranspositionTreeGraph,
)
from repro.topology.hypercube import Hypercube
from repro.topology.routing import (
    ImplicitNeighborSource,
    TableNeighborSource,
    as_neighbor_source,
    connected_under_alive_mask,
    index_bfs_distances,
    permutation_neighbor_source,
)
from repro.topology.star import StarGraph

HEAVY = bool(os.environ.get("REPRO_HEAVY_TESTS"))


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestRankBatch:
    """The vectorised Lehmer encode, inverse of ``unrank_batch``."""

    @pytest.mark.parametrize("n", [8, 12, 13, 14])
    def test_round_trips_random_ranks(self, n):
        # Degrees straddle the table ceiling on purpose: 12, 13 and 14 have
        # no tables at all, only the table-free batch pair.
        total = math.factorial(n)
        ranks = _rng(90 + n).integers(0, total, size=512, dtype=np.int64)
        perms = unrank_batch(ranks, n)
        assert perms.dtype == np.int8
        assert perms.shape == (512, n)
        back = rank_batch(perms)
        assert back.dtype == np.int64
        assert np.array_equal(back, ranks)

    @pytest.mark.parametrize("n", range(1, MAX_INT64_RANK_DEGREE + 1))
    def test_batch_pair_matches_scalar_helpers(self, n):
        # Every int64-rank degree, against the exact-Python scalar pair:
        # the extreme ranks, random ranks and independently drawn rows.
        rng = _rng(300 + n)
        total = math.factorial(n)
        ranks = np.concatenate(
            [[0, total - 1, total // 2], rng.integers(0, total, 61, dtype=np.int64)]
        )
        perms = unrank_batch(ranks, n)
        assert perms.dtype == np.int8 and perms.shape == (ranks.size, n)
        assert [tuple(map(int, row)) for row in perms] == [
            permutation_unrank(int(rank), n) for rank in ranks
        ]
        rows = np.stack([rng.permutation(n) for _ in range(64)])
        assert list(map(int, rank_batch(rows))) == [
            permutation_rank(tuple(map(int, row))) for row in rows
        ]
        assert np.array_equal(rank_batch(perms), ranks)
        empty = unrank_batch(np.empty(0, dtype=np.int64), n)
        assert empty.dtype == np.int8 and empty.shape == (0, n)
        back = rank_batch(empty)
        assert back.dtype == np.int64 and back.shape == (0,)

    def test_matches_scalar_rank_exhaustively(self):
        perms = permutations_slice(0, math.factorial(5), 5)
        assert np.array_equal(rank_batch(perms), np.arange(math.factorial(5)))

    def test_accepts_nested_sequences(self):
        rows = [(1, 0, 2, 3), (3, 2, 1, 0), (0, 1, 2, 3)]
        expected = [permutation_rank(row) for row in rows]
        assert list(map(int, rank_batch(rows))) == expected

    def test_rejects_non_batch_shape(self):
        with pytest.raises(InvalidParameterError):
            rank_batch(np.arange(4))

    def test_empty_batch(self):
        assert rank_batch(np.empty((0, 6), dtype=np.int8)).shape == (0,)


class TestUnrankBatchNormalisation:
    """Satellite 2: one ``np.asarray`` path, never a silent Python-list leg."""

    def test_list_generator_and_array_agree(self):
        reference = unrank_batch(np.array([0, 5, 17, 23], dtype=np.int64), 4)
        assert isinstance(reference, np.ndarray)
        for ranks in ([0, 5, 17, 23], iter((0, 5, 17, 23)), range(0, 24, 6)):
            out = unrank_batch(ranks, 4)
            assert isinstance(out, np.ndarray)
            assert out.dtype == np.int8
            if not isinstance(ranks, range):
                assert np.array_equal(out, reference)

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(InvalidParameterError):
            unrank_batch(np.zeros((2, 2), dtype=np.int64), 4)

    def test_rejects_out_of_range_ranks(self):
        with pytest.raises(InvalidParameterError):
            unrank_batch([math.factorial(4)], 4)
        with pytest.raises(InvalidParameterError):
            unrank_batch([-1], 4)

    def test_matches_scalar_unrank(self):
        for n in (2, 5, 9, 13):
            ranks = [0, 1, math.factorial(n) - 1, math.factorial(n) // 3]
            rows = unrank_batch(ranks, n)
            for row, rank in zip(rows, ranks):
                assert tuple(map(int, row)) == permutation_unrank(rank, n)


class TestInt64RankGuard:
    """Satellite 1: ``21!`` overflows int64 -- every batch entry point raises."""

    def test_boundary(self):
        assert within_int64_rank_degree(MAX_INT64_RANK_DEGREE)
        assert not within_int64_rank_degree(MAX_INT64_RANK_DEGREE + 1)
        # The guarded degree really is where int64 dies.
        assert math.factorial(MAX_INT64_RANK_DEGREE) < 2**63
        assert math.factorial(MAX_INT64_RANK_DEGREE + 1) >= 2**63

    def test_every_batch_entry_point_raises(self):
        over = MAX_INT64_RANK_DEGREE + 1
        generators = star_position_generators(over)
        for call in (
            lambda: unrank_batch([0], over),
            lambda: rank_batch(np.zeros((1, over), dtype=np.int64)),
            lambda: permutations_slice(0, 1, over),
            lambda: implicit_neighbor_block([0], generators, over),
            lambda: ImplicitNeighborSource(generators, over),
        ):
            with pytest.raises(TableDegreeError) as excinfo:
                call()
            assert "int64" in str(excinfo.value)

    def test_table_free_helpers_work_past_the_table_ceiling(self):
        n = MAX_TABLE_DEGREE + 1  # 11: no table may exist at this degree
        rows = permutations_slice(0, 4, n)
        for rank, row in enumerate(rows):
            assert tuple(map(int, row)) == permutation_unrank(rank, n)


def _family_instances(n):
    """The four permutation families of the repo, with their generators."""
    tree = TranspositionTreeGraph(
        n, ((0, 1), (1, 2)) + tuple((1, j) for j in range(3, n))
    )
    return [
        ("star", StarGraph(n), star_position_generators(n)),
        ("pancake", PancakeGraph(n), PancakeGraph(n).generators),
        ("bubble-sort", BubbleSortGraph(n), BubbleSortGraph(n).generators),
        ("transposition-tree", tree, tree.generators),
    ]


class TestImplicitBlockParity:
    """``implicit_neighbor_block`` vs the materialised tables, all families."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_full_graph_parity_all_families(self, n):
        ranks = np.arange(math.factorial(n), dtype=np.int64)
        for name, _, generators in _family_instances(n):
            stacked = np.column_stack(
                [np.asarray(t) for t in move_tables_for(tuple(generators), n)]
            )
            block = implicit_neighbor_block(ranks, tuple(generators), n)
            assert block.dtype == np.int64
            assert np.array_equal(block, stacked), name

    def test_chunk_size_never_changes_the_block(self, monkeypatch):
        generators = star_position_generators(5)
        ranks = _rng(7).integers(0, 120, size=64, dtype=np.int64)
        reference = implicit_neighbor_block(ranks, generators, 5)
        for chunk in (1, 3, 17, 10**9):
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
            assert np.array_equal(
                implicit_neighbor_block(ranks, generators, 5), reference
            )

    def test_respects_the_chunk_constant(self, monkeypatch):
        generators = star_position_generators(4)
        reference = implicit_neighbor_block(np.arange(24), generators, 4)
        monkeypatch.setattr(ranking, "CHUNK_NODES", 5)
        assert np.array_equal(
            implicit_neighbor_block(np.arange(24), generators, 4), reference
        )

    def test_generator_validation_matches_the_table_builders(self):
        # The same guards as move_tables_for: no identity, involutions only.
        # The check is memoised, but a rejection raises on every call.
        for _ in range(2):
            with pytest.raises(InvalidParameterError):
                implicit_neighbor_block([0], ((0, 1, 2),), 3)
            with pytest.raises(InvalidParameterError):
                implicit_neighbor_block([0], ((1, 2, 0),), 3)

    def test_rejects_out_of_range_ranks(self):
        generators = star_position_generators(4)
        with pytest.raises(InvalidParameterError):
            implicit_neighbor_block([24], generators, 4)


class TestNeighborSourceSeam:
    """Both source flavours answer block queries identically."""

    def test_table_source_serves_table_rows(self):
        star = StarGraph(5)
        table = star.neighbor_index_table()
        source = TableNeighborSource(table)
        assert source.table is table
        assert source.num_nodes == 120
        assert source.width == 4
        indices = np.array([0, 17, 119], dtype=np.int64)
        assert np.array_equal(
            source.neighbor_block(indices), np.asarray(table)[indices]
        )

    def test_implicit_source_matches_table_source(self):
        for name, _, generators in _family_instances(5):
            table = np.column_stack(
                [np.asarray(t) for t in move_tables_for(tuple(generators), 5)]
            )
            table_source = TableNeighborSource(table)
            implicit = ImplicitNeighborSource(generators, 5)
            assert implicit.table is None
            assert implicit.num_nodes == table_source.num_nodes
            assert implicit.width == table_source.width
            indices = _rng(11).integers(0, 120, size=40, dtype=np.int64)
            assert np.array_equal(
                implicit.neighbor_block(indices),
                table_source.neighbor_block(indices),
            ), name
            # Scalar generator column and per-row generator arrays.
            for g in (0, implicit.width - 1):
                assert np.array_equal(
                    implicit.neighbor_along(indices, g),
                    table_source.neighbor_along(indices, g),
                ), name
            per_row = _rng(12).integers(0, implicit.width, size=40)
            assert np.array_equal(
                implicit.neighbor_along(indices, per_row),
                table_source.neighbor_along(indices, per_row),
            ), name

    @pytest.mark.parametrize("n", [5, 9, 16, 17])
    def test_key_space_agrees_with_the_rank_path(self, n):
        # Packed keys through degree 16, rank keys past it: either way the
        # neighbour keys decode to the rank path's rows, and encoding is
        # order-preserving.
        ranks = np.unique(
            _rng(40 + n).integers(0, math.factorial(n), size=64, dtype=np.int64)
        )
        for name, _, generators in _family_instances(n):
            source = ImplicitNeighborSource(generators, n)
            keys = source.encode(ranks)
            assert keys.dtype == (np.uint64 if n <= 16 else np.int64), name
            assert bool(np.all(keys[1:] > keys[:-1])), name
            assert np.array_equal(source.decode(keys), ranks), name
            neighbor_keys = source.neighbor_keys(keys)
            assert neighbor_keys.shape == (ranks.size, source.width), name
            assert np.array_equal(
                source.decode(neighbor_keys.reshape(-1)).reshape(neighbor_keys.shape),
                source.neighbor_block(ranks),
            ), name

    def test_identity_key_space_by_default(self):
        star = StarGraph(5)
        source = TableNeighborSource(star.neighbor_index_table())
        ranks = np.array([3, 17, 119], dtype=np.int64)
        assert np.array_equal(source.encode(ranks), ranks)
        assert np.array_equal(source.decode(ranks), ranks)
        assert np.array_equal(
            source.neighbor_keys(ranks), source.neighbor_block(ranks)
        )

    def test_as_neighbor_source(self):
        star = StarGraph(4)
        table = star.neighbor_index_table()
        wrapped = as_neighbor_source(table)
        assert isinstance(wrapped, TableNeighborSource)
        implicit = ImplicitNeighborSource(star_position_generators(4), 4)
        assert as_neighbor_source(implicit) is implicit


class TestSourceSelection:
    """The degree alone decides which source a permutation graph serves."""

    def _fail_supplier(self):
        raise AssertionError("table_supplier must not be called past the bound")

    def test_auto_serves_tables_in_range(self):
        source = permutation_neighbor_source(
            star_position_generators(5), 5, StarGraph(5).neighbor_index_table
        )
        assert isinstance(source, TableNeighborSource)

    def test_auto_goes_implicit_past_the_table_ceiling(self):
        n = MAX_TABLE_DEGREE + 1
        source = permutation_neighbor_source(
            star_position_generators(n), n, self._fail_supplier
        )
        assert isinstance(source, ImplicitNeighborSource)
        assert source.num_nodes == math.factorial(n)

    def test_implicit_source_never_touches_the_supplier(self, monkeypatch):
        monkeypatch.setattr(ranking, "MAX_TABLE_DEGREE", 4)
        source = permutation_neighbor_source(
            star_position_generators(5), 5, self._fail_supplier
        )
        assert isinstance(source, ImplicitNeighborSource)

    def test_topology_entry_points(self, monkeypatch):
        monkeypatch.setattr(ranking, "MAX_TABLE_DEGREE", 3)
        for topology in (StarGraph(4), PancakeGraph(4), BubbleSortGraph(4)):
            assert isinstance(topology.neighbor_source(), ImplicitNeighborSource)
        # Non-permutation topologies have no implicit form: always the table.
        assert isinstance(Hypercube(3).neighbor_source(), TableNeighborSource)
        monkeypatch.undo()
        assert isinstance(StarGraph(4).neighbor_source(), TableNeighborSource)


class TestWholeGraphParityUnderImplicit:
    """Acceptance: implicit BFS/connectivity bit-identical at every chunk size."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_bfs_distances(self, n, monkeypatch):
        for name, topology, generators in _family_instances(n):
            table = topology.neighbor_index_table()
            reference = np.asarray(index_bfs_distances(table, 1))
            source = ImplicitNeighborSource(generators, n)
            for chunk in (1, 97, 10**9) if n == 5 else (97, 10**9):
                monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
                got = np.asarray(index_bfs_distances(source, 1))
                assert got.dtype == reference.dtype
                assert np.array_equal(got, reference), name

    def test_connectivity_flood(self, monkeypatch):
        star = StarGraph(5)
        neighbor_ranks = [star.node_index(v) for v in star.neighbors(star.identity)]
        for dead in (neighbor_ranks, neighbor_ranks[:-1], []):
            alive = np.ones(star.num_nodes, dtype=bool)
            alive[list(dead)] = False
            reference = connected_under_alive_mask(star, alive)
            monkeypatch.setattr(ranking, "MAX_TABLE_DEGREE", 4)
            implicit_star = StarGraph(5)
            assert implicit_star.neighbor_source().table is None
            assert connected_under_alive_mask(implicit_star, alive) == reference
            monkeypatch.undo()

    def test_masked_bfs(self, monkeypatch):
        star = StarGraph(5)
        alive = np.ones(star.num_nodes, dtype=bool)
        alive[[3, 17, 44, 90]] = False
        reference = np.asarray(masked_bfs_distances(star, 0, alive))
        monkeypatch.setattr(ranking, "MAX_TABLE_DEGREE", 4)
        implicit_star = StarGraph(5)
        assert implicit_star.neighbor_source().table is None
        for chunk in (13, 10**9):
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
            assert np.array_equal(
                np.asarray(masked_bfs_distances(implicit_star, 0, alive)), reference
            )

    def test_embedding_tally(self, monkeypatch):
        from repro.embedding.metrics import (
            measure_embedding,
            measure_embedding_reference,
        )
        from repro.embedding.mesh_to_star import MeshToStarEmbedding

        for n in (3, 4, 5):
            reference = measure_embedding(MeshToStarEmbedding(n))
            monkeypatch.setattr(ranking, "MAX_TABLE_DEGREE", n - 1)
            implicit = measure_embedding(MeshToStarEmbedding(n))
            monkeypatch.undo()
            assert implicit == reference
            assert implicit == measure_embedding_reference(MeshToStarEmbedding(n))

    @pytest.mark.skipif(
        not HEAVY,
        reason="S_8-S_10 implicit sweeps take minutes; set REPRO_HEAVY_TESTS=1",
    )
    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_bfs_distances_heavy_degrees(self, n, monkeypatch):
        star = StarGraph(n)
        reference = np.asarray(index_bfs_distances(star.neighbor_index_table(), 0))
        source = ImplicitNeighborSource(star_position_generators(n), n)
        for chunk in (4096, 10**9):
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
            got = np.asarray(index_bfs_distances(source, 0))
            assert np.array_equal(got, reference)
