"""Structural property checks for topologies.

These functions verify, on concrete instances, the star-graph properties the
paper quotes from Akers & Krishnamurthy in Section 2 (regularity, vertex
symmetry, maximal fault tolerance) as well as generic sanity checks used by
the test-suite and the experiments.

All checks run over the dense adjacency index
(:meth:`repro.topology.base.Topology.neighbor_index_table`) -- degree counts
are one array reduction, eccentricities one frontier sweep and fault
connectivity one alive-mask flood -- instead of walking tuple neighbour lists
per node.  The dict/tuple BFS implementations are retained as the parity
references (``connectivity_after_faults_reference``,
``Topology._bfs_distances``); the tests in
``tests/topology/test_index_services.py`` hold the two bit-identical.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional

import numpy as _np

from repro.exceptions import InvalidParameterError
from repro.topology.base import Node, Topology
from repro.topology.routing import bfs_distances_from, connected_under_alive_mask

__all__ = [
    "degree_histogram",
    "node_degrees",
    "verify_regular",
    "edge_count",
    "is_vertex_transitive_sample",
    "connectivity_after_faults",
    "connectivity_after_faults_reference",
]


def node_degrees(topology: Topology):
    """Per-node degrees indexed by ``node_index`` (one pass over the table).

    Returns a NumPy ``int64`` array.
    """
    table = topology.neighbor_index_table()
    return (table >= 0).sum(axis=1, dtype=_np.int64)


def degree_histogram(topology: Topology) -> Dict[int, int]:
    """Map ``degree -> number of nodes with that degree``."""
    counts = _np.bincount(node_degrees(topology))
    return {int(d): int(c) for d, c in enumerate(counts) if c}


def verify_regular(topology: Topology, expected_degree: int) -> bool:
    """True if every node has exactly *expected_degree* neighbours."""
    return bool((node_degrees(topology) == expected_degree).all())


def edge_count(topology: Topology) -> int:
    """Number of undirected edges, as half the degree sum over the index table.

    Its independence from the ``num_edges`` closed forms rests on the
    table-vs-``neighbors()`` round-trip parity tests
    (``tests/topology/test_index_services.py``): the table is built from
    closed-form adjacency on the concrete topologies, and those tests are
    what tie it back to actual neighbour enumeration.
    """
    return int(node_degrees(topology).sum()) // 2


def is_vertex_transitive_sample(
    topology: Topology,
    *,
    samples: int = 8,
    rng: Optional[random.Random] = None,
) -> bool:
    """Heuristic vertex-symmetry check: sampled nodes all share the same
    degree and eccentricity.

    True vertex transitivity is expensive to decide; for the paper's claim
    ("each node is symmetrical to every other node") the experiments use this
    necessary condition on sampled nodes, which is what a practitioner would
    measure.  A return value of ``False`` *disproves* vertex transitivity;
    ``True`` is strong evidence but not a proof.
    """
    generator = rng if rng is not None else random.Random(0)
    num_nodes = topology.num_nodes
    if not num_nodes:
        raise InvalidParameterError("topology has no nodes")
    chosen = [0]
    if num_nodes > 1:
        chosen += generator.sample(range(1, num_nodes), min(samples, num_nodes - 1))
    degrees = node_degrees(topology)
    reference_degree = int(degrees[chosen[0]])
    reference_ecc = _index_eccentricity(topology, chosen[0])
    for index in chosen[1:]:
        if int(degrees[index]) != reference_degree:
            return False
        if _index_eccentricity(topology, index) != reference_ecc:
            return False
    return True


def _index_eccentricity(topology: Topology, index: int) -> int:
    """Eccentricity of the node at *index* via one BFS frontier sweep."""
    distances = bfs_distances_from(topology, topology.node_from_index(index))
    return int(distances.max())


def connectivity_after_faults(
    topology: Topology,
    faulty_nodes: Iterable[Node],
) -> bool:
    """True if the topology stays connected after removing *faulty_nodes*.

    Used by the fault-tolerance experiment: the star graph ``S_n`` tolerates
    any ``n - 2`` node faults (maximal fault tolerance), so removing up to
    ``n - 2`` arbitrary nodes must never disconnect it.

    The flood fill runs over the adjacency index with a boolean alive mask
    (:func:`repro.topology.routing.connected_under_alive_mask`); the original
    dict-of-tuples BFS is retained as
    :func:`connectivity_after_faults_reference` and the parity tests hold the
    two identical.
    """
    # Foreign fault nodes are silently ignored, matching the reference (a
    # fault outside the graph removes nothing).
    faulty_indices = {
        topology.node_index(node)
        for node in (tuple(fault) for fault in faulty_nodes)
        if topology.is_node(node)
    }
    num_nodes = topology.num_nodes
    alive = _np.ones(num_nodes, dtype=bool)
    if faulty_indices:
        alive[_np.fromiter(faulty_indices, dtype=_np.int64)] = False
    return connected_under_alive_mask(topology, alive)


def connectivity_after_faults_reference(
    topology: Topology,
    faulty_nodes: Iterable[Node],
) -> bool:
    """Dict/tuple reference for :func:`connectivity_after_faults` (seed code).

    Kept as the parity oracle for the alive-mask flood fill.
    """
    faulty = {tuple(node) for node in faulty_nodes}
    remaining = [node for node in topology.nodes() if node not in faulty]
    if not remaining:
        return False
    remaining_set = set(remaining)
    # BFS over the surviving subgraph.
    seen = {remaining[0]}
    frontier = [remaining[0]]
    while frontier:
        nxt: List[Node] = []
        for node in frontier:
            for neighbor in topology.neighbors(node):
                if neighbor in remaining_set and neighbor not in seen:
                    seen.add(neighbor)
                    nxt.append(neighbor)
        frontier = nxt
    return len(seen) == len(remaining)
