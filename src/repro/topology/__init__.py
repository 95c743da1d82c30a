"""Interconnection-network topologies.

The paper studies three families of static interconnection networks:

* the **star graph** :class:`~repro.topology.star.StarGraph` ``S_n`` -- the
  host network of the embedding (Akers, Harel & Krishnamurthy);
* the **mesh** :class:`~repro.topology.mesh.Mesh` -- the guest network; in the
  paper it is the mixed-radix mesh ``D_n`` of size ``2*3*...*n`` but the class
  supports arbitrary side lengths (uniform meshes are needed for Section 4);
* the **hypercube** :class:`~repro.topology.hypercube.Hypercube` ``Q_n`` --
  the network the star graph is compared against in the introduction.

Beyond the paper's three, :mod:`repro.topology.cayley` generalises the star
graph to the whole permutation Cayley family -- pancake, bubble-sort and
arbitrary transposition-tree networks, parameterized by generator sets and
running on the same rank-indexed fast core.

All of them implement the small :class:`~repro.topology.base.Topology`
interface (nodes, neighbours, distance, shortest path, diameter, degree) so
the embedding metrics, the SIMD simulator and the experiments can be written
once against the interface.
"""

from repro._lazy import lazy_exports

#: public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    name: module
    for module, names in (
        ("repro.topology.base", ("Topology",)),
        ("repro.topology.star", ("StarGraph",)),
        ("repro.topology.mesh", ("Mesh", "paper_mesh")),
        ("repro.topology.hypercube", ("Hypercube",)),
        (
            "repro.topology.cayley",
            (
                "CayleyGraph",
                "PancakeGraph",
                "TranspositionCayleyGraph",
                "TranspositionTreeGraph",
                "BubbleSortGraph",
                "bubble_sort_distance",
            ),
        ),
        (
            "repro.topology.routing",
            (
                "star_route",
                "star_distance",
                "star_distances_between",
                "mesh_route",
                "mesh_distance",
                "hypercube_route",
                "hypercube_distance",
                "bfs_distances_from",
                "DistanceSummary",
                "distance_summary",
                "connected_under_alive_mask",
            ),
        ),
        (
            "repro.topology.nx_adapter",
            (
                "to_networkx",
                "bfs_distances",
                "bfs_eccentricity",
            ),
        ),
        (
            "repro.topology.properties",
            (
                "is_vertex_transitive_sample",
                "degree_histogram",
                "node_degrees",
                "verify_regular",
                "edge_count",
                "connectivity_after_faults",
            ),
        ),
    )
    for name in names
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
