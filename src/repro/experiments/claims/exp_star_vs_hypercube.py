"""CMP -- star graph versus hypercube (introduction).

The introduction motivates the star graph against the hypercube: at equal
degree it connects far more processors ((n+1)! vs 2^n) with an asymptotically
smaller diameter.  The experiment reproduces that comparison table and, as the
embedding-level counterpart, measures the Gray-code embedding of the paper
mesh into a hypercube next to the paper's star-graph embedding: the hypercube
achieves dilation 1 but pays expansion (its node count must be a power of two),
whereas the star graph achieves expansion 1 at dilation 3 -- the trade-off the
paper is about.
"""

from __future__ import annotations

from repro.analysis.comparison import (
    closest_hypercube_for_star,
    measured_network_rows,
    star_vs_hypercube_table,
)
from repro.embedding.mesh_to_hypercube import MeshToHypercubeEmbedding
from repro.embedding.mesh_to_star import MeshToStarEmbedding
from repro.embedding.metrics import measure_embedding
from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.topology.mesh import paper_mesh

__all__ = ["ARTIFACT_SCHEMA", "run"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["CMP"]


def run(max_degree: int = 9, embedding_degrees=(3, 4, 5, 6)) -> ExperimentResult:
    """Tabulate the network comparison and the two mesh embeddings side by side."""
    rows = []
    claim = True
    for row in star_vs_hypercube_table(max_degree):
        claim = claim and row.star_nodes > row.hypercube_nodes
        rows.append(
            (
                f"degree {row.degree}",
                f"S_{row.star_n}: {row.star_nodes} nodes, diam {row.star_diameter}",
                f"Q_{row.degree}: {row.hypercube_nodes} nodes, diam {row.hypercube_diameter}",
                round(row.node_ratio, 2),
                closest_hypercube_for_star(row.star_n),
            )
        )

    # Measured whole-graph metrics (vectorised distance sweeps) for every
    # instance small enough: the measured diameter must match the quoted
    # closed form, and the average distance is reported alongside.
    measured_rows = []
    for measured in measured_network_rows(max_degree):
        claim = claim and measured.diameter_matches
        # The cells are labelled because these rows reuse the comparison
        # table's headers, which describe the formula rows.
        measured_rows.append(
            (
                f"{measured.network} measured",
                f"{measured.nodes} nodes",
                f"diam {measured.diameter_measured} (formula {measured.diameter_formula})",
                f"avg distance {measured.average_distance:.3f}",
                "-",
            )
        )

    embedding_rows = []
    for n in embedding_degrees:
        star_metrics = measure_embedding(MeshToStarEmbedding(n))
        cube_metrics = measure_embedding(MeshToHypercubeEmbedding(paper_mesh(n)))
        claim = claim and star_metrics.expansion == 1.0 and star_metrics.dilation == 3
        claim = claim and cube_metrics.dilation == 1 and cube_metrics.expansion >= 1.0
        embedding_rows.append(
            (
                f"D_{n} embedding",
                f"star: expansion {star_metrics.expansion:g}, dilation {star_metrics.dilation}",
                f"hypercube: expansion {cube_metrics.expansion:g}, dilation {cube_metrics.dilation}",
                round(cube_metrics.expansion / star_metrics.expansion, 2),
                "-",
            )
        )

    return ExperimentResult(
        experiment_id="CMP",
        title="Introduction: star graph vs hypercube (networks and mesh embeddings)",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows + measured_rows + embedding_rows,
        summary={"claim_holds": claim},
        notes=[
            "At equal degree >= 3 the star graph connects strictly more processors; the Gray-code "
            "hypercube embedding of D_n has dilation 1 but needs up to 2x the nodes (expansion > 1) "
            "whenever a mesh side is not a power of two.",
            "'measured' rows are whole-graph distance sweeps over the adjacency index (star plus its "
            "pancake/bubble-sort Cayley siblings and the hypercube); the measured diameters must "
            "equal the quoted closed forms / known values for the claim to hold.",
        ],
    )
