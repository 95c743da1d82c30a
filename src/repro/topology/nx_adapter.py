"""Adapters between :class:`~repro.topology.base.Topology` and :mod:`networkx`.

networkx is used (a) as an independent oracle in the test-suite -- BFS
distances, diameters and connectivity computed by networkx are compared
against the closed forms implemented by the topology classes -- and (b) by a
few experiments that want graph-algorithmic quantities (e.g. node
connectivity for the fault-tolerance claim) that are not worth reimplementing.

networkx is imported inside each function, so importing this module (or
:mod:`repro.topology`) does not load it: only the callers that build a graph
pay for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional

from repro.topology.base import Node, Topology

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import networkx as nx

__all__ = ["to_networkx", "bfs_distances", "bfs_eccentricity", "node_connectivity"]


def to_networkx(topology: Topology, *, nodes: Optional[Iterable[Node]] = None) -> "nx.Graph":
    """Materialise *topology* (or an induced subgraph of it) as a networkx graph.

    Parameters
    ----------
    topology:
        The topology to convert.
    nodes:
        If given, only this node subset is materialised (with the edges of the
        induced subgraph); otherwise the whole topology is converted.  Whole
        star graphs become large quickly (``S_7`` already has 5040 nodes and
        15120 edges), so experiments pass explicit subsets where possible.
    """
    import networkx as nx

    graph = nx.Graph()
    if nodes is None:
        graph.add_nodes_from(topology.nodes())
        graph.add_edges_from(topology.edges())
        return graph
    node_set = set(tuple(n) for n in nodes)
    graph.add_nodes_from(node_set)
    for node in node_set:
        for neighbor in topology.neighbors(node):
            if neighbor in node_set:
                graph.add_edge(node, neighbor)
    return graph


def bfs_distances(topology: Topology, source: Node) -> Dict[Node, int]:
    """Single-source shortest-path lengths computed by networkx BFS.

    Used as an oracle against the closed-form ``distance`` implementations.
    """
    import networkx as nx

    graph = to_networkx(topology)
    return dict(nx.single_source_shortest_path_length(graph, topology.validate_node(source)))


def bfs_eccentricity(topology: Topology, source: Node) -> int:
    """Eccentricity of *source* computed via BFS (oracle for diameters)."""
    return max(bfs_distances(topology, source).values())


def node_connectivity(topology: Topology) -> int:
    """Vertex connectivity of the whole topology (networkx algorithm).

    The star graph is *maximally fault tolerant*: its connectivity equals its
    degree ``n - 1`` (Section 2 property 4).  This is only tractable for small
    instances; the experiments call it for ``n <= 5``.
    """
    import networkx as nx

    graph = to_networkx(topology)
    return nx.node_connectivity(graph)
