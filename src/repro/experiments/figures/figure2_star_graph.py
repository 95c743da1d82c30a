"""FIG2 -- the topology of the star graph drawn in the paper's Figure 2.

The figure shows the 24-node star graph built on permutations of four symbols
(the caption calls it "a star graph of degree 3" because every node has three
neighbours; in this package's naming it is ``S_4``).  The experiment rebuilds
the graph, lists the adjacency of every node and checks the structural
constants the figure conveys: 24 nodes, 36 edges, every node of degree 3,
connected, diameter 4, and bipartite-like alternation between even and odd
permutations across every edge (each generator move is a single transposition,
so adjacent permutations always have opposite parity).
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.permutations.permutation import Permutation
from repro.topology.nx_adapter import bfs_eccentricity
from repro.topology.star import StarGraph

__all__ = ["ARTIFACT_SCHEMA", "run"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["FIG2"]


def run(n: int = 4) -> ExperimentResult:
    """Regenerate Figure 2 for ``S_n`` (the paper draws ``n = 4``)."""
    star = StarGraph(n)
    rows = []
    for node in star.nodes():
        neighbors = star.neighbors(node)
        rows.append(
            (
                "".join(map(str, node)),
                ", ".join("".join(map(str, nb)) for nb in neighbors),
                len(neighbors),
            )
        )

    degrees = {len(star.neighbors(node)) for node in star.nodes()}
    parity_alternates = all(
        Permutation(u).parity() != Permutation(v).parity() for u, v in star.edges()
    )
    measured_diameter = bfs_eccentricity(star, star.identity)
    summary = {
        "nodes": star.num_nodes,
        "edges": star.num_edges,
        "degree": star.node_degree,
        "diameter_formula": star.diameter(),
        "diameter_measured": measured_diameter,
        "edge_parity_alternates": parity_alternates,
        "claim_holds": (
            star.num_nodes == 24
            and star.num_edges == 36
            and degrees == {3}
            and measured_diameter == star.diameter()
        )
        if n == 4
        else (degrees == {n - 1} and measured_diameter == star.diameter()),
    }
    return ExperimentResult(
        experiment_id="FIG2",
        title=f"Figure 2: the star graph S_{n} ({star.num_nodes} nodes, degree {n - 1})",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary=summary,
        notes=[
            "The paper draws the 24-node graph; the adjacency list above is the same "
            "object in text form.",
        ],
    )
