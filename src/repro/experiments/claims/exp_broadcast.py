"""PROP-B -- broadcasting on the star graph and through the embedding.

Two measurements:

1. **Direct star broadcast** -- the SIMD-B greedy broadcast of
   :func:`repro.algorithms.broadcast.star_broadcast_greedy`, measured in unit
   routes and compared against the paper's quoted ``~3 n lg n`` bound
   (property 3 of Section 2) and the trivial lower bound ``ceil(log2 n!)``.
2. **Mesh broadcast through the embedding** -- the dimension-sweep mesh
   broadcast executed on a native mesh machine and on the embedded
   (mesh-on-star) machine; Theorem 6 predicts the star-level unit routes are
   at most 3x the mesh-level count.
"""

from __future__ import annotations

import math

from repro.algorithms.broadcast import mesh_broadcast, star_broadcast_bound, star_broadcast_greedy
from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.simd.embedded import EmbeddedMeshMachine
from repro.simd.mesh_machine import MeshMachine
from repro.simd.star_machine import StarMachine
from repro.topology.mesh import paper_mesh

__all__ = ["ARTIFACT_SCHEMA", "run"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["PROP-B"]


def run(degrees=(3, 4, 5, 6)) -> ExperimentResult:
    """Measure broadcast unit routes for every degree in *degrees*.

    The compiled route programs (PR 2) keep the embedded mesh broadcast cheap
    through degree 6; the claim checks are unchanged.
    """
    rows = []
    claim = True
    for n in degrees:
        # --- direct broadcast on S_n -------------------------------------
        star_machine = StarMachine(n)
        origin = star_machine.star.paper_origin
        star_machine.define_register("V", lambda node: 42 if node == origin else None)
        measured = star_broadcast_greedy(star_machine, origin, "V")
        delivered = all(v == 42 for v in star_machine.read_register("V_bcast").values())
        bound = star_broadcast_bound(n)
        lower = math.ceil(math.log2(math.factorial(n)))

        # --- mesh broadcast natively and through the embedding ------------
        sides = paper_mesh(n).sides
        native = MeshMachine(sides)
        embedded = EmbeddedMeshMachine(n)
        for machine in (native, embedded):
            machine.define_register("A", lambda node: 7 if node == tuple(0 for _ in sides) else None)
        source = tuple(0 for _ in sides)
        mesh_routes = mesh_broadcast(native, source, "A")
        mesh_broadcast(embedded, source, "A")
        star_routes = embedded.star_stats.unit_routes
        ratio = star_routes / embedded.stats.unit_routes
        embedded_ok = all(
            v == 7 for v in embedded.read_register("A_bcast").values()
        )

        claim = claim and delivered and embedded_ok and measured <= bound and ratio <= 3.0
        rows.append(
            (
                n,
                math.factorial(n),
                measured,
                round(bound, 1),
                lower,
                mesh_routes,
                embedded.stats.unit_routes,
                star_routes,
                round(ratio, 3),
            )
        )
    return ExperimentResult(
        experiment_id="PROP-B",
        title="Broadcasting: direct star broadcast vs the 3 n lg n bound, and mesh broadcast via the embedding",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary={"claim_holds": claim},
        notes=[
            "The greedy SIMD-B broadcast is typically far below the quoted bound because the bound "
            "covers the recursive SIMD algorithm of Akers & Krishnamurthy, not an adaptive schedule.",
        ],
    )
