"""TAB1 -- the per-dimension exchange sequences of Table 1.

Table 1 lists, for each mesh dimension ``i``, the sequence of adjacent-symbol
exchanges that realises a full traversal of that dimension:
``(i-1 i) (i-2 i-1) ... (1 2) (0 1)``.  The experiment regenerates the table
from :func:`repro.embedding.mesh_to_star.exchange_sequence` and additionally
verifies the property the table encodes: applying the first ``d_i`` exchanges
of row ``i`` (for every dimension, lowest first) to ``(n-1 ... 1 0)``
reproduces exactly :func:`convert_d_s`.
"""

from __future__ import annotations

from repro.embedding.mesh_to_star import convert_d_s, exchange_sequence
from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.topology.mesh import paper_mesh

__all__ = ["ARTIFACT_SCHEMA", "run"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["TAB1"]


def run(n: int = 6) -> ExperimentResult:
    """Regenerate Table 1 for dimensions ``1 .. n-1`` and verify it against CONVERT-D-S."""
    rows = []
    for dimension in range(1, n):
        full = exchange_sequence(dimension, dimension)
        rows.append(
            (
                dimension,
                " ".join(f"({a} {b})" for a, b in full),
                len(full),
            )
        )

    # Cross-check: replaying prefixes of the table rows is exactly CONVERT-D-S.
    consistent = True
    for coords in paper_mesh(min(n, 5)).nodes():
        degree = min(n, 5)
        arrangement = list(range(degree - 1, -1, -1))
        for dimension in range(1, degree):
            d_i = coords[degree - 1 - dimension]
            for a, b in exchange_sequence(dimension, dimension)[:d_i]:
                ia, ib = arrangement.index(a), arrangement.index(b)
                arrangement[ia], arrangement[ib] = arrangement[ib], arrangement[ia]
        if tuple(arrangement) != convert_d_s(coords, degree):
            consistent = False
            break

    summary = {
        "dimensions": n - 1,
        "row_i_length_equals_i": all(row[2] == row[0] for row in rows),
        "prefixes_reproduce_convert_d_s": consistent,
        "claim_holds": consistent and all(row[2] == row[0] for row in rows),
    }
    return ExperimentResult(
        experiment_id="TAB1",
        title="Table 1: sequence of exchanges per mesh dimension",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary=summary,
        notes=[
            "Row i of the table has exactly i exchanges; coordinate d_i uses the first d_i of them.",
        ],
    )
