"""Chunked streaming kernels are exact: every chunk size is bit-identical.

``REPRO_CHUNK_NODES`` (or the ``chunk_nodes=`` keyword) only trades memory
against throughput -- these tests sweep pathological chunk sizes (1, a small
prime, larger than the whole graph) over every streamed kernel and demand
array equality with the unchunked result, plus unit coverage of the
``REPRO_CHUNK_NODES`` knob itself.
"""

import numpy as np
import pytest

from repro.backend import DEFAULT_CHUNK_NODES, resolve_chunk_nodes
from repro.embedding.metrics import (
    _build_mesh_to_star_edge_data,
    measure_embedding,
    measure_embedding_reference,
)
from repro.embedding.mesh_to_star import MeshToStarEmbedding
from repro.exceptions import InvalidParameterError, TableDegreeError
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
    def test_kwarg_chunks_match_default(self, star5):
        reference = np.asarray(star_distances_from(star5.identity))
        for chunk in CHUNK_SIZES:
            chunked = np.asarray(
                star_distances_from(star5.identity, chunk_nodes=chunk)
            )
            assert np.array_equal(chunked, reference)
        # 21! overflows int64 ranks, so no sweep exists at that degree.
        with pytest.raises(TableDegreeError):
            star_distances_from(tuple(range(21)), chunk_nodes=7)

    def test_env_chunks_match_default(self, star5, monkeypatch):
        reference = np.asarray(star_distances_from(star5.identity))
        for chunk in (3, 50):
            monkeypatch.setenv("REPRO_CHUNK_NODES", str(chunk))
            assert np.array_equal(
                np.asarray(star_distances_from(star5.identity)), reference
            )

    def test_non_identity_origin(self, star5):
        origin = (2, 0, 4, 1, 3)
        reference = np.asarray(star_distances_from(origin))
        assert np.array_equal(
            np.asarray(star_distances_from(origin, chunk_nodes=11)), reference
        )
        # Cross-check against the BFS sweep (no closed form at all).
        swept = np.asarray(
            bfs_distances_from(star5, origin, use_closed_form=False)
        )
        assert np.array_equal(reference, swept)


class TestBfsChunks:
    def test_index_bfs_chunks_match(self, star5):
        table = star5.neighbor_index_table()
        reference = np.asarray(index_bfs_distances(table, star5.num_nodes, 0))
        for chunk in CHUNK_SIZES:
            chunked = np.asarray(
                index_bfs_distances(table, star5.num_nodes, 0, chunk_nodes=chunk)
            )
            assert np.array_equal(chunked, reference)

    def test_masked_index_bfs_chunks_match(self, star5):
        table = star5.neighbor_index_table()
        alive = _alive_mask(star5.num_nodes, dead=(3, 17, 44, 90))
        reference = np.asarray(
            index_bfs_distances(table, star5.num_nodes, 0, alive_mask=alive)
        )
        assert int(reference[3]) == -1  # dead nodes stay unreached
        for chunk in CHUNK_SIZES:
            chunked = np.asarray(
                index_bfs_distances(
                    table, star5.num_nodes, 0, alive_mask=alive, chunk_nodes=chunk
                )
            )
            assert np.array_equal(chunked, reference)

    def test_masked_bfs_distances_chunks_match(self, star5):
        alive = _alive_mask(star5.num_nodes, dead=(5, 6, 7, 100, 111))
        reference = np.asarray(masked_bfs_distances(star5, 0, alive))
        for chunk in CHUNK_SIZES:
            chunked = np.asarray(
                masked_bfs_distances(star5, 0, alive, chunk_nodes=chunk)
            )
            assert np.array_equal(chunked, reference)

    def test_all_alive_masked_bfs_equals_plain_bfs(self, star5):
        alive = np.ones(star5.num_nodes, dtype=bool)
        masked = np.asarray(masked_bfs_distances(star5, 0, alive, chunk_nodes=13))
        plain = np.asarray(
            bfs_distances_from(star5, star5.identity, use_closed_form=False)
        )
        assert np.array_equal(masked, plain)


class TestConnectivityChunks:
    def test_connected_verdict_is_chunk_invariant(self, star5, monkeypatch):
        # Killing all n-1 neighbours of the identity disconnects it; killing
        # n-2 of them cannot (connectivity = degree, maximal fault tolerance).
        neighbor_ranks = [star5.node_index(v) for v in star5.neighbors(star5.identity)]
        disconnected = _alive_mask(star5.num_nodes, dead=neighbor_ranks)
        still_connected = _alive_mask(star5.num_nodes, dead=neighbor_ranks[:-1])
        for chunk in (1, 9, 10**9):
            monkeypatch.setenv("REPRO_CHUNK_NODES", str(chunk))
            assert not connected_under_alive_mask(star5, disconnected)
            assert connected_under_alive_mask(star5, still_connected)


class TestEmbeddingChunks:
    def test_edge_data_metrics_are_chunk_invariant(self):
        embedding = MeshToStarEmbedding(5)
        reference = _build_mesh_to_star_edge_data(embedding).metrics()
        for chunk in CHUNK_SIZES:
            chunked = _build_mesh_to_star_edge_data(
                embedding, chunk_nodes=chunk
            ).metrics()
            assert chunked == reference

    def test_env_chunked_measure_matches_reference_oracle(self, monkeypatch):
        for n in (4, 5):
            oracle = measure_embedding_reference(MeshToStarEmbedding(n))
            for chunk in (1, 17):
                monkeypatch.setenv("REPRO_CHUNK_NODES", str(chunk))
                # Fresh instance: the edge data is cached per embedding.
                assert measure_embedding(MeshToStarEmbedding(n)) == oracle


class TestResolveChunkNodes:
    def test_precedence_explicit_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHUNK_NODES", raising=False)
        assert resolve_chunk_nodes() == DEFAULT_CHUNK_NODES
        monkeypatch.setenv("REPRO_CHUNK_NODES", "4096")
        assert resolve_chunk_nodes() == 4096
        assert resolve_chunk_nodes(128) == 128  # explicit beats env

    @pytest.mark.parametrize("bad", [0, -5, 2.5, True, "many"])
    def test_rejects_non_positive_ints(self, bad):
        with pytest.raises(InvalidParameterError):
            resolve_chunk_nodes(bad)

    @pytest.mark.parametrize("raw", ["zero", "1.5", "-3", "0"])
    def test_rejects_bad_env_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CHUNK_NODES", raw)
        with pytest.raises(InvalidParameterError):
            resolve_chunk_nodes()
