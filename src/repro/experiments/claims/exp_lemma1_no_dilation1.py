"""LEM1 -- Lemma 1: no dilation-1 embedding of ``D_n`` into ``S_n`` for ``n > 2``.

The paper's argument is a degree comparison: a dilation-1 embedding would need
every guest degree to fit inside the host degree, but the interior mesh node
``(1, 1, ..., 1)`` has degree ``2n - 3`` while every star-graph node has degree
``n - 1``, so ``n > 2`` rules it out.  The experiment measures both degrees by
enumeration (not by formula) for a range of ``n`` and reports where a
dilation-1 embedding is possible.  The degree scan is one reduction over the
mesh's adjacency index table (:func:`repro.topology.properties.node_degrees`),
so the default sweep enumerates all 40320 nodes of ``D_8`` instead of falling
back to the formula above 5040 nodes as the per-node loop had to.  For
``n = 2`` (where the claim permits dilation 1) it also confirms the actual
embedding produced by the library has dilation 1.
"""

from __future__ import annotations

from repro.analysis.bounds import dilation_lower_bound_exists, paper_mesh_max_degree, star_degree
from repro.embedding.mesh_to_star import MeshToStarEmbedding
from repro.embedding.metrics import measure_embedding
from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.topology.mesh import paper_mesh
from repro.topology.properties import node_degrees

__all__ = ["ARTIFACT_SCHEMA", "run"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["LEM1"]


def run(max_n: int = 8) -> ExperimentResult:
    """Tabulate the degree argument for ``n = 2 .. max_n``."""
    rows = []
    consistent = True
    for n in range(2, max_n + 1):
        mesh = paper_mesh(n)
        measured_mesh_degree = int(max(node_degrees(mesh)))
        formula_mesh_degree = paper_mesh_max_degree(n)
        host_degree = star_degree(n)
        possible = dilation_lower_bound_exists(n)
        if measured_mesh_degree != formula_mesh_degree:
            consistent = False
        rows.append(
            (
                n,
                measured_mesh_degree,
                formula_mesh_degree,
                host_degree,
                "yes" if possible else "no",
            )
        )

    dilation_at_2 = measure_embedding(MeshToStarEmbedding(2)).dilation
    claim = consistent and dilation_at_2 == 1 and all(
        (row[0] <= 2) == (row[4] == "yes") for row in rows
    )
    return ExperimentResult(
        experiment_id="LEM1",
        title="Lemma 1: dilation-1 embeddings of D_n in S_n exist only for n <= 2",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary={
            "dilation_of_embedding_at_n=2": dilation_at_2,
            "claim_holds": claim,
        },
        notes=[
            "For n = 2 both graphs are a single edge, so the library's embedding indeed has dilation 1.",
        ],
    )
