"""FIG7 -- the complete mapping of ``V(D_4)`` into ``V(S_4)``.

Figure 7 of the paper lists all 24 mesh nodes of ``D_4`` with their star-graph
images.  The experiment regenerates the table with :func:`convert_d_s` and
compares every row against the values printed in the paper (transcribed below
verbatim); ``claim_holds`` is True only if all 24 rows agree and the map is a
bijection whose inverse is :func:`convert_s_d`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.embedding.mesh_to_star import convert_d_s, convert_s_d
from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.topology.mesh import paper_mesh

__all__ = ["ARTIFACT_SCHEMA", "run", "PAPER_FIGURE7"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["FIG7"]

#: The table printed in the paper's Figure 7: mesh node -> star node.
PAPER_FIGURE7: Dict[Tuple[int, int, int], Tuple[int, int, int, int]] = {
    (0, 0, 0): (3, 2, 1, 0),
    (0, 0, 1): (3, 2, 0, 1),
    (0, 1, 0): (3, 1, 2, 0),
    (0, 1, 1): (3, 1, 0, 2),
    (0, 2, 0): (3, 0, 2, 1),
    (0, 2, 1): (3, 0, 1, 2),
    (1, 0, 0): (2, 3, 1, 0),
    (1, 0, 1): (2, 3, 0, 1),
    (1, 1, 0): (2, 1, 3, 0),
    (1, 1, 1): (2, 1, 0, 3),
    (1, 2, 0): (2, 0, 3, 1),
    (1, 2, 1): (2, 0, 1, 3),
    (2, 0, 0): (1, 3, 2, 0),
    (2, 0, 1): (1, 3, 0, 2),
    (2, 1, 0): (1, 2, 3, 0),
    (2, 1, 1): (1, 2, 0, 3),
    (2, 2, 0): (1, 0, 3, 2),
    (2, 2, 1): (1, 0, 2, 3),
    (3, 0, 0): (0, 3, 2, 1),
    (3, 0, 1): (0, 3, 1, 2),
    (3, 1, 0): (0, 2, 3, 1),
    (3, 1, 1): (0, 2, 1, 3),
    (3, 2, 0): (0, 1, 3, 2),
    (3, 2, 1): (0, 1, 2, 3),
}


def run() -> ExperimentResult:
    """Regenerate Figure 7 and diff it against the paper's printed table."""
    mesh = paper_mesh(4)
    rows = []
    mismatches = 0
    images = set()
    inverse_ok = True
    for coords in mesh.nodes():
        computed = convert_d_s(coords, 4)
        expected = PAPER_FIGURE7[coords]  # type: ignore[index]
        match = computed == expected
        mismatches += 0 if match else 1
        images.add(computed)
        if convert_s_d(computed, 4) != coords:
            inverse_ok = False
        rows.append(
            (
                f"({coords[0]},{coords[1]},{coords[2]})",
                "(" + " ".join(map(str, computed)) + ")",
                "(" + " ".join(map(str, expected)) + ")",
                "ok" if match else "MISMATCH",
            )
        )
    summary = {
        "rows": len(rows),
        "mismatches": mismatches,
        "bijection": len(images) == mesh.num_nodes,
        "inverse_consistent": inverse_ok,
        "claim_holds": mismatches == 0 and len(images) == mesh.num_nodes and inverse_ok,
    }
    return ExperimentResult(
        experiment_id="FIG7",
        title="Figure 7: mapping of V(D_4) into V(S_4)",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary=summary,
    )
