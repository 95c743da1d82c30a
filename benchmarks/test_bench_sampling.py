"""Benchmarks for the implicit adjacency source and the sampled estimators.

Ablation pairs quantify the PR-8 design decisions:

* **table vs implicit** — the same whole-graph neighbour block served from
  the materialised S_7 move tables against the on-the-fly
  ``unrank -> apply generator -> rank`` computation (identical results; the
  pair measures what table-freedom costs per block, and the BFS pair what it
  costs across a full frontier sweep);
* **chunked vs single block** — the degree-13 sampled distance estimator at
  the default 1 Mi-pair blocks against one whole-sample block (set through
  :data:`repro.permutations.ranking.CHUNK_NODES`).

Single rows time the batched Lehmer encode and the implicit block kernel.

The ``heavy_bench`` row is the acceptance-scale case: the S_13 sampled
distance distribution (6.2 G nodes, one million pairs) with no table at all.
"""

import math

import numpy as np
import pytest

from repro.permutations import ranking
from repro.permutations.ranking import (
    implicit_neighbor_block,
    rank_batch,
    star_position_generators,
    unrank_batch,
)
from repro.simulation.sampling import sampled_distance_estimate
from repro.topology.routing import (
    ImplicitNeighborSource,
    index_bfs_distances,
)
from repro.topology.star import StarGraph


@pytest.fixture(scope="module")
def star7():
    star = StarGraph(7)
    star.neighbor_index_table()  # warm the tables for the table legs
    return star


# --------------------------------------------------- table-vs-implicit pair
def test_neighbor_block_s7_table(benchmark, star7):
    """Ablation (a): all 5040 S_7 neighbour rows gathered from the table."""
    source = star7.neighbor_source()
    assert source.table is not None
    indices = np.arange(star7.num_nodes, dtype=np.int64)
    block = benchmark(source.neighbor_block, indices)
    assert block.shape == (5040, 6)


def test_neighbor_block_s7_implicit(benchmark, star7):
    """Ablation (b): the same rows computed unrank -> apply -> rank."""
    source = ImplicitNeighborSource(star_position_generators(7), 7)
    assert source.table is None
    indices = np.arange(star7.num_nodes, dtype=np.int64)
    block = benchmark(source.neighbor_block, indices)
    assert block.shape == (5040, 6)


def test_index_bfs_s7_table_source(benchmark, star7):
    """Ablation (a): the full S_7 BFS sweep over the materialised table."""
    distances = benchmark(index_bfs_distances, star7.neighbor_index_table(), 0)
    assert int(np.asarray(distances).max()) == 9


def test_index_bfs_s7_implicit_source(benchmark, star7):
    """Ablation (b): the same BFS with every frontier block computed on the fly."""
    source = ImplicitNeighborSource(star_position_generators(7), 7)
    distances = benchmark(index_bfs_distances, source, 0)
    assert int(np.asarray(distances).max()) == 9


# ------------------------------------------------------ rank and block rows
@pytest.fixture(scope="module")
def rank_batch_input():
    ranks = np.random.default_rng(13).integers(
        0, math.factorial(13), size=100_000, dtype=np.int64
    )
    return ranks, unrank_batch(ranks, 13)


def test_rank_batch_s13_numpy(benchmark, rank_batch_input):
    """Batched Lehmer encode of 100k degree-13 rows."""
    ranks, perms = rank_batch_input
    out = benchmark(rank_batch, perms)
    assert np.array_equal(out, ranks)


def test_implicit_block_s9_numpy(benchmark):
    """A 50k-rank implicit S_9 neighbour block."""
    generators = star_position_generators(9)
    ranks = np.random.default_rng(9).integers(
        0, math.factorial(9), size=50_000, dtype=np.int64
    )
    block = benchmark(implicit_neighbor_block, ranks, generators, 9)
    assert block.shape == (50_000, 8)


# ------------------------------------------------ chunked-vs-single sampling
def test_sampled_distance_s13_chunked(benchmark):
    """Ablation (a): the S_13 sampled estimator in default 1 Mi-pair blocks."""
    estimate = benchmark(
        sampled_distance_estimate, "star", 13, 100_000, 2206
    )
    assert estimate.diameter_consistent


def test_sampled_distance_s13_single_block(benchmark, monkeypatch):
    """Ablation (b): the same estimate evaluated as one whole-sample block."""
    monkeypatch.setattr(ranking, "CHUNK_NODES", 10**9)
    estimate = benchmark(sampled_distance_estimate, "star", 13, 100_000, 2206)
    assert estimate.diameter_consistent


# --------------------------------------------------------- S_13 heavy row
@pytest.mark.heavy_bench
def test_s13_sampled_distance_million_pairs(benchmark):
    """Acceptance scale: one million S_13 pairs, no table at all."""

    def estimate():
        return sampled_distance_estimate("star", 13, 1_000_000, 2206)

    result = benchmark.pedantic(estimate, rounds=1, iterations=1)
    assert result.diameter_lower_bound <= result.diameter_formula == 18
