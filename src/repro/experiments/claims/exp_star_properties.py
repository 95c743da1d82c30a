"""PROP-D -- Section 2 star-graph properties.

The paper (quoting Akers & Krishnamurthy) lists four properties of ``S_n``:

1. every node is symmetrical to every other node;
2. the diameter is ``floor(3 (n-1) / 2)``;
3. broadcasting costs at most about ``3 n lg n`` unit routes (measured by the
   separate PROP-B experiment);
4. the graph is maximally fault tolerant (connectivity ``n - 1``).

This experiment measures 1, 2 and 4 on concrete instances: diameters by a
BFS frontier sweep over the adjacency index table (held against the closed
form), regularity and vertex-symmetry samples, edge counts summed over the adjacency
index table against the formula (the table itself is parity-tested against
``neighbors()`` enumeration), node connectivity via networkx for the smallest
degrees, and
random fault injections of ``n - 2`` node failures that must never disconnect
the graph.  The index-native services (PR 3) run the whole default sweep --
including the 20 fault trials on the 5040-node ``S_7`` -- in a couple of
seconds, where the dict-BFS loops capped the experiment at degree 5.
"""

from __future__ import annotations

import random

from repro.analysis.bounds import star_diameter, star_num_edges
from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.topology.nx_adapter import node_connectivity
from repro.topology.properties import (
    connectivity_after_faults,
    edge_count,
    is_vertex_transitive_sample,
    verify_regular,
)
from repro.topology.routing import bfs_distances_from
from repro.topology.star import StarGraph

__all__ = ["ARTIFACT_SCHEMA", "run"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["PROP-D"]


def _bfs_diameter(star: StarGraph) -> int:
    """Eccentricity of the identity via an actual BFS sweep (not the closed form)."""
    distances = bfs_distances_from(star, star.identity)
    return int(max(distances))


def run(degrees=(3, 4, 5, 6, 7), fault_trials: int = 20, seed: int = 1) -> ExperimentResult:
    """Measure the Section-2 properties for each degree in *degrees*."""
    rng = random.Random(seed)
    rows = []
    claim = True
    for n in degrees:
        star = StarGraph(n)
        measured_diameter = _bfs_diameter(star)
        formula_diameter = star_diameter(n)
        regular = verify_regular(star, n - 1)
        edges_ok = edge_count(star) == star_num_edges(n)
        symmetric = is_vertex_transitive_sample(star, samples=6, rng=rng)
        connectivity = node_connectivity(star) if n <= 4 else None
        connectivity_ok = connectivity == n - 1 if connectivity is not None else True

        fault_tolerant = True
        num_nodes = star.num_nodes
        for _ in range(fault_trials):
            fault_indices = rng.sample(range(num_nodes), n - 2) if n >= 3 else []
            faults = [star.node_from_index(index) for index in fault_indices]
            if not connectivity_after_faults(star, faults):
                fault_tolerant = False
                break

        claim = claim and (measured_diameter == formula_diameter) and regular and edges_ok
        claim = claim and symmetric and connectivity_ok and fault_tolerant
        rows.append(
            (
                n,
                star.num_nodes,
                formula_diameter,
                measured_diameter,
                "yes" if regular else "NO",
                "yes" if edges_ok else "NO",
                "yes" if symmetric else "NO",
                connectivity if connectivity is not None else "(skipped)",
                "yes" if fault_tolerant else "NO",
            )
        )
    return ExperimentResult(
        experiment_id="PROP-D",
        title="Section 2: star-graph structural properties (diameter, symmetry, fault tolerance)",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary={"claim_holds": claim},
        notes=[
            "Node connectivity is computed exactly (networkx) only for n <= 4; for larger degrees the "
            "fault-injection trials provide the evidence.",
            "Diameters, degree scans and fault floods all run over the dense adjacency index "
            "(neighbor_index_table); the dict-BFS references are retained in the parity tests.",
        ],
    )
