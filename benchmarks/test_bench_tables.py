"""Benchmarks for the table layer and the streamed kernels.

The **chunked vs single block** pairs run the streamed kernels at a bounded
block size against one whole-graph block, set through
:data:`repro.permutations.ranking.CHUNK_NODES` (identical results; the pair
measures what bounding peak memory costs in wall-clock).  Single rows
time the frontier BFS and the batched embedding measurement at degree 7.

The ``heavy_bench`` rows exercise the acceptance-scale graph ``S_10``
(3,628,800 nodes): the full closed-form distance sweep, one fault-campaign
connectivity trial over the adjacency table and the batched measurement of
the degree-10 embedding (~26 M mesh edges).
"""

import numpy as np
import pytest

from repro.embedding.mesh_to_star import MeshToStarEmbedding
from repro.embedding.metrics import measure_embedding
from repro.permutations import ranking
from repro.topology.routing import (
    connected_under_alive_mask,
    index_bfs_distances,
    star_distances_from,
)
from repro.topology.star import StarGraph


@pytest.fixture(scope="module")
def star7_table():
    star = StarGraph(7)
    return star, star.neighbor_index_table()


# ----------------------------------------------------- chunked-vs-dense pair
def test_star_distances_s7_single_block(benchmark, monkeypatch):
    """Ablation (a): the S_7 distance sweep as one whole-graph block."""
    origin = tuple(range(7))
    monkeypatch.setattr(ranking, "CHUNK_NODES", 10**9)
    result = benchmark(star_distances_from, origin)
    assert int(np.asarray(result).max()) == 9


def test_star_distances_s7_chunked(benchmark, monkeypatch):
    """Ablation (b): the same sweep streamed in 4096-node blocks."""
    origin = tuple(range(7))
    monkeypatch.setattr(ranking, "CHUNK_NODES", 4096)
    result = benchmark(star_distances_from, origin)
    assert int(np.asarray(result).max()) == 9


# ------------------------------------------------------------ degree-7 rows
def test_index_bfs_s7_numpy(benchmark, star7_table):
    """Frontier BFS over the S_7 adjacency table."""
    star, table = star7_table
    distances = benchmark(index_bfs_distances, table, 0)
    assert int(np.asarray(distances).max()) == 9


def test_measure_embedding_s7_numpy(benchmark):
    """Batched embedding measurement at degree 7."""
    metrics = benchmark(lambda: measure_embedding(MeshToStarEmbedding(7)))
    assert metrics.dilation == 3


# --------------------------------------------------------- S_10 heavy rows
@pytest.mark.heavy_bench
def test_s10_distances_sweep_chunked(benchmark):
    """S_10 closed-form distance sweep, default 1 Mi-node blocks (~620 MiB peak)."""
    origin = tuple(range(9, -1, -1))

    def sweep():
        return star_distances_from(origin)

    distances = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert int(np.asarray(distances).max()) == 13  # diameter floor(3*9/2)


@pytest.mark.heavy_bench
def test_s10_distances_sweep_single_block(benchmark, monkeypatch):
    """Ablation twin: the S_10 sweep as one 3.6 M-node block."""
    origin = tuple(range(9, -1, -1))
    monkeypatch.setattr(ranking, "CHUNK_NODES", 10**9)

    def sweep():
        return star_distances_from(origin)

    distances = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert int(np.asarray(distances).max()) == 13


@pytest.mark.heavy_bench
def test_s10_fault_campaign_trial(benchmark):
    """One S_10 connectivity trial: flood 3.6 M nodes with 8 faults applied."""
    star = StarGraph(10)
    table = star.neighbor_index_table()  # warm the dense-tier tables
    assert table.shape == (3628800, 9)
    rng = np.random.default_rng(1990)
    alive = np.ones(star.num_nodes, dtype=bool)
    alive[rng.choice(star.num_nodes, size=8, replace=False)] = False

    def trial():
        return connected_under_alive_mask(star, alive)

    connected = benchmark.pedantic(trial, rounds=1, iterations=1)
    assert connected  # n - 2 = 8 faults can never disconnect S_10


@pytest.mark.heavy_bench
def test_s10_measure_embedding(benchmark):
    """Batched measurement of the degree-10 embedding (~26 M mesh edges)."""

    def build_and_measure():
        return measure_embedding(MeshToStarEmbedding(10))

    metrics = benchmark.pedantic(build_and_measure, rounds=1, iterations=1)
    assert metrics.dilation == 3
