"""Chunked streaming kernels are exact: every chunk size is bit-identical.

:data:`repro.permutations.ranking.CHUNK_NODES` only trades memory against
throughput -- these tests monkeypatch pathological chunk sizes (1, a small
prime, larger than the whole graph) into every streamed kernel and demand
array equality with the default-chunk result.
"""

import numpy as np
import pytest

from repro.embedding.metrics import (
    _build_mesh_to_star_edge_data,
    measure_embedding,
    measure_embedding_reference,
)
from repro.embedding.mesh_to_star import MeshToStarEmbedding
from repro.exceptions import TableDegreeError
from repro.permutations import ranking
from repro.simulation.rerouting import masked_bfs_distances
from repro.topology.routing import (
    bfs_distances_from,
    connected_under_alive_mask,
    index_bfs_distances,
    star_distances_from,
)
from repro.topology.star import StarGraph

CHUNK_SIZES = (1, 7, 64, 10**9)


def _alive_mask(num_nodes, dead):
    mask = np.ones(num_nodes, dtype=bool)
    mask[list(dead)] = False
    return mask


class TestStarDistancesChunks:
    def test_chunks_match_default(self, star5, monkeypatch):
        reference = np.asarray(star_distances_from(star5.identity))
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
            chunked = np.asarray(star_distances_from(star5.identity))
            assert np.array_equal(chunked, reference)
        # 21! overflows int64 ranks, so no sweep exists at that degree.
        monkeypatch.setattr(ranking, "CHUNK_NODES", 7)
        with pytest.raises(TableDegreeError):
            star_distances_from(tuple(range(21)))

    def test_odd_chunks_match_default(self, star5, monkeypatch):
        reference = np.asarray(star_distances_from(star5.identity))
        for chunk in (3, 50):
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
            assert np.array_equal(
                np.asarray(star_distances_from(star5.identity)), reference
            )

    def test_non_identity_origin(self, star5, monkeypatch):
        origin = (2, 0, 4, 1, 3)
        reference = np.asarray(star_distances_from(origin))
        monkeypatch.setattr(ranking, "CHUNK_NODES", 11)
        assert np.array_equal(np.asarray(star_distances_from(origin)), reference)
        # Cross-check against the BFS sweep (no closed form at all).
        swept = np.asarray(bfs_distances_from(star5, origin))
        assert np.array_equal(reference, swept)


class TestBfsChunks:
    def test_index_bfs_chunks_match(self, star5, monkeypatch):
        table = star5.neighbor_index_table()
        reference = np.asarray(index_bfs_distances(table, 0))
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
            chunked = np.asarray(index_bfs_distances(table, 0))
            assert np.array_equal(chunked, reference)

    def test_masked_index_bfs_chunks_match(self, star5, monkeypatch):
        table = star5.neighbor_index_table()
        alive = _alive_mask(star5.num_nodes, dead=(3, 17, 44, 90))
        reference = np.asarray(index_bfs_distances(table, 0, alive_mask=alive))
        assert int(reference[3]) == -1  # dead nodes stay unreached
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
            chunked = np.asarray(index_bfs_distances(table, 0, alive_mask=alive))
            assert np.array_equal(chunked, reference)

    def test_masked_bfs_distances_chunks_match(self, star5, monkeypatch):
        alive = _alive_mask(star5.num_nodes, dead=(5, 6, 7, 100, 111))
        reference = np.asarray(masked_bfs_distances(star5, 0, alive))
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
            chunked = np.asarray(masked_bfs_distances(star5, 0, alive))
            assert np.array_equal(chunked, reference)

    def test_all_alive_masked_bfs_equals_plain_bfs(self, star5, monkeypatch):
        alive = np.ones(star5.num_nodes, dtype=bool)
        monkeypatch.setattr(ranking, "CHUNK_NODES", 13)
        masked = np.asarray(masked_bfs_distances(star5, 0, alive))
        plain = np.asarray(bfs_distances_from(star5, star5.identity))
        assert np.array_equal(masked, plain)


class TestConnectivityChunks:
    def test_connected_verdict_is_chunk_invariant(self, star5, monkeypatch):
        # Killing all n-1 neighbours of the identity disconnects it; killing
        # n-2 of them cannot (connectivity = degree, maximal fault tolerance).
        neighbor_ranks = [star5.node_index(v) for v in star5.neighbors(star5.identity)]
        disconnected = _alive_mask(star5.num_nodes, dead=neighbor_ranks)
        still_connected = _alive_mask(star5.num_nodes, dead=neighbor_ranks[:-1])
        for chunk in (1, 9, 10**9):
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
            assert not connected_under_alive_mask(star5, disconnected)
            assert connected_under_alive_mask(star5, still_connected)


class TestEmbeddingChunks:
    def test_edge_data_metrics_are_chunk_invariant(self, monkeypatch):
        embedding = MeshToStarEmbedding(5)
        reference = _build_mesh_to_star_edge_data(embedding).metrics()
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
            chunked = _build_mesh_to_star_edge_data(embedding).metrics()
            assert chunked == reference

    def test_chunked_measure_matches_reference_oracle(self, monkeypatch):
        for n in (4, 5):
            oracle = measure_embedding_reference(MeshToStarEmbedding(n))
            for chunk in (1, 17):
                monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
                # Fresh instance: the edge data is cached per embedding.
                assert measure_embedding(MeshToStarEmbedding(n)) == oracle
