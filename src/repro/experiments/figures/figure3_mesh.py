"""FIG3 -- the ``2*3*4`` mesh drawn in the paper's Figure 3.

The figure shows the 24-node mesh ``D_4`` (three dimensions of lengths 4, 3
and 2).  The experiment rebuilds it, lists every node with its neighbours and
checks the structural constants the drawing conveys: 24 nodes, 46 edges
(``3*2*(4-1) + 4*2*(3-1) + 4*3*(2-1)``), node degrees between 3 (corners) and
6 (the interior-most nodes), and diameter 6.
"""

from __future__ import annotations

from collections import Counter

from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.topology.mesh import paper_mesh
from repro.topology.properties import edge_count

__all__ = ["ARTIFACT_SCHEMA", "run"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["FIG3"]


def run(n: int = 4) -> ExperimentResult:
    """Regenerate Figure 3 for ``D_n`` (the paper draws ``n = 4``)."""
    mesh = paper_mesh(n)
    rows = []
    degree_histogram: Counter = Counter()
    for node in mesh.nodes():
        neighbors = mesh.neighbors(node)
        degree_histogram[len(neighbors)] += 1
        rows.append(
            (
                "".join(map(str, node)),
                ", ".join("".join(map(str, nb)) for nb in neighbors),
                len(neighbors),
            )
        )

    enumerated_edges = edge_count(mesh)
    summary = {
        "sides": "x".join(map(str, mesh.sides)),
        "nodes": mesh.num_nodes,
        "edges_formula": mesh.num_edges,
        "edges_enumerated": enumerated_edges,
        "max_degree": max(degree_histogram),
        "min_degree": min(degree_histogram),
        "diameter": mesh.diameter(),
        "claim_holds": (
            mesh.num_nodes == 24
            and mesh.num_edges == enumerated_edges
            and mesh.diameter() == 6
        )
        if n == 4
        else mesh.num_edges == enumerated_edges,
    }
    return ExperimentResult(
        experiment_id="FIG3",
        title=f"Figure 3: the {'*'.join(map(str, reversed(mesh.sides)))} mesh D_{n}",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary=summary,
        notes=[
            "Degree histogram: "
            + ", ".join(f"{count} nodes of degree {deg}" for deg, count in sorted(degree_histogram.items())),
        ],
    )
