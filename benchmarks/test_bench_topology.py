"""Benchmarks for the topology substrate: distances, routing, neighbourhood scans.

These are the primitives every experiment leans on; the ablation pair
"closed-form distance vs BFS" quantifies the design decision recorded in
DESIGN.md (formula preferred, BFS kept as an oracle).
"""

import random

import pytest

from repro.experiments.claims import exp_star_properties, exp_star_vs_hypercube
from repro.topology.mesh import paper_mesh
from repro.topology.nx_adapter import bfs_distances
from repro.topology.properties import (
    connectivity_after_faults,
    connectivity_after_faults_reference,
)
from repro.topology.routing import bfs_distances_from, star_distance, star_route
from repro.topology.star import StarGraph


@pytest.mark.parametrize("n", [5, 7, 9])
def test_star_distance_closed_form(benchmark, n):
    """Ablation (a): all-pairs-from-origin distances via the cycle-structure formula."""
    star = StarGraph(n)
    origin = star.identity
    nodes = [star.node_from_index(i) for i in range(0, star.num_nodes, max(1, star.num_nodes // 2000))]

    def all_distances():
        return [star_distance(origin, node) for node in nodes]

    benchmark(all_distances)


@pytest.mark.parametrize("n", [4, 5])
def test_star_distance_bfs_oracle(benchmark, n):
    """Ablation (b): the same distances via networkx BFS (the slow oracle)."""
    star = StarGraph(n)

    def bfs():
        return bfs_distances(star, star.identity)

    benchmark(bfs)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_star_greedy_routing(benchmark, n):
    """Greedy optimal routing between antipodal-ish nodes."""
    star = StarGraph(n)
    source = star.identity
    target = star.paper_origin

    def route():
        return star_route(source, target)

    path = benchmark(route)
    assert len(path) - 1 == star.distance(source, target)


@pytest.mark.parametrize("n", [4, 5, 7])
def test_star_neighborhood_scan(benchmark, n):
    """Enumerate every node's neighbourhood (the inner loop of the structural checks).

    Rank-indexed: the scan sweeps the precomputed generator move tables (one
    dense pass over all ``(n-1) * n!`` directed edges) instead of building
    ``n - 1`` neighbour tuples per node.  The tuple-based seed implementation
    is kept as the ablation baseline in ``test_bench_fast_core.py``.
    """
    star = StarGraph(n)
    star.move_tables()  # amortised precompute, not part of the per-scan cost

    def scan():
        total = 0
        for table in star.move_tables():
            # min() touches every entry: a full sweep of this generator's
            # neighbour ids, the dense analogue of enumerating neighbours.
            assert int(table.min() if hasattr(table, "min") else min(table)) >= 0
            total += len(table)
        return total

    total = benchmark(scan)
    assert total == star.num_nodes * (n - 1)


# ------------------------------------------------------------ PR-3 ablation
# Dict-BFS vs vectorised index-sweep distances over the same topology (the
# pair behind the PROP-D diameter and LEM2 distance measurements).
@pytest.mark.parametrize("name,topology", [("S6", StarGraph(6)), ("D6", paper_mesh(6))])
def test_bfs_distances_dict_reference(benchmark, name, topology):
    """Ablation (a): single-source distances via the retained dict BFS."""
    origin = topology.node_from_index(0)

    def sweep():
        return topology._bfs_distances(origin)  # noqa: SLF001 - the seed oracle

    distances = benchmark(sweep)
    assert len(distances) == topology.num_nodes


@pytest.mark.parametrize("name,topology", [("S6", StarGraph(6)), ("D6", paper_mesh(6))])
def test_bfs_distances_index_sweep(benchmark, name, topology):
    """Ablation (b): the same distances as a frontier sweep over the index table."""
    origin = topology.node_from_index(0)
    topology.neighbor_index_table()  # amortised precompute, shared by all sweeps

    def sweep():
        return bfs_distances_from(topology, origin)

    distances = benchmark(sweep)
    assert len(distances) == topology.num_nodes


# Fault-connectivity: dict-of-tuples flood vs boolean alive-mask flood.
@pytest.mark.parametrize("n", [5, 6])
def test_connectivity_faults_dict_reference(benchmark, n):
    """Ablation (a): fault trials through the tuple-set flood fill."""
    star = StarGraph(n)
    rng = random.Random(0)
    nodes = list(star.nodes())
    fault_sets = [rng.sample(nodes, n - 2) for _ in range(5)]

    def trials():
        return [connectivity_after_faults_reference(star, faults) for faults in fault_sets]

    assert all(benchmark(trials))


@pytest.mark.parametrize("n", [5, 6])
def test_connectivity_faults_index_mask(benchmark, n):
    """Ablation (b): the same trials through the alive-mask flood."""
    star = StarGraph(n)
    rng = random.Random(0)
    nodes = list(star.nodes())
    fault_sets = [rng.sample(nodes, n - 2) for _ in range(5)]
    star.neighbor_index_table()  # amortised precompute

    def trials():
        return [connectivity_after_faults(star, faults) for faults in fault_sets]

    assert all(benchmark(trials))


def test_propd_experiment(benchmark):
    """PROP-D: the Section-2 property measurements (diameter, symmetry, faults)."""
    result = benchmark(exp_star_properties.run, degrees=(3, 4), fault_trials=5)
    result.assert_claim()


def test_cmp_experiment(benchmark):
    """CMP: star vs hypercube comparison table plus embedding comparison."""
    result = benchmark(exp_star_vs_hypercube.run, max_degree=8, embedding_degrees=(3, 4))
    result.assert_claim()


# --------------------------------------------------------- Cayley family (PR 4)
def test_pancake_distance_summary_index_sweep(benchmark):
    """Ablation (a): diameter + average distance of P_6 via the all-sources sweep.

    All 720 sources in one bit-parallel BFS over the stacked move-table
    adjacency index -- the backend of the NETWORK-FAMILY experiment's measured
    columns.
    """
    from repro.topology.cayley import PancakeGraph
    from repro.topology.routing import distance_summary

    pancake = PancakeGraph(6)
    pancake.neighbor_index_table()  # amortised precompute, as in the experiments

    def summary():
        return distance_summary(pancake)

    result = benchmark(summary)
    assert result.diameter == 7  # the known pancake number for n = 6


def test_star_distance_summary_all_sources_s7(benchmark):
    """Diameter + average distance of S_7 (5 040 sources, five source blocks)."""
    from repro.topology.routing import distance_summary

    star = StarGraph(7)
    star.neighbor_index_table()  # amortised precompute, as in the experiments

    def summary():
        return distance_summary(star)

    result = benchmark(summary)
    assert result.diameter == 9  # floor(3 * (7 - 1) / 2)


@pytest.mark.heavy_bench
def test_pancake_distance_summary_dict_bfs(benchmark):
    """Ablation (b): the same aggregates from per-node dict BFS (the seed path)."""
    from repro.topology.cayley import PancakeGraph

    pancake = PancakeGraph(6)

    def summary():
        diameter = 0
        total = 0
        pairs = 0
        for node in pancake.nodes():
            distances = pancake._bfs_distances(node)  # noqa: SLF001 - the retained oracle
            diameter = max(diameter, max(distances.values()))
            total += sum(distances.values())
            pairs += len(distances) - 1
        return diameter, total / pairs

    diameter, _average = benchmark(summary)
    assert diameter == 7


def test_network_family_experiment(benchmark):
    """NETWORK-FAMILY: the cross-family comparison at its fast profile sizes."""
    from repro.experiments.claims import exp_network_family

    result = benchmark(exp_network_family.run, degrees=(3, 4), fault_trials=3)
    result.assert_claim()
