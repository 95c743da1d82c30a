"""CONC -- sorting on the star graph through the embedding (conclusion discussion).

The conclusion argues that classic uniform-mesh sorting algorithms do not
transfer efficiently to the star graph and sketches the alternatives the
Section-4/Appendix machinery allows.  The experiment measures what *can* be
measured at laptop scale:

1. **Line sorts on ``D_n``** -- odd-even transposition sort of every line of
   the mesh along each dimension, executed natively and through the embedding;
   correctness is checked and the star/mesh unit-route ratio must stay <= 3
   (Theorem 6 applied to a real algorithm).
2. **Shearsort** -- Scherson/Sen/Ma's 2-D shearsort (the conclusion's example
   of a sort that avoids power-of-two divide and conquer) on the Appendix's
   2-D factorisation of ``n!`` keys, executed on a native 2-D mesh machine;
   its measured unit routes are compared with the ``O((log r + 1)(r + c))``
   bound and with the paper's cost estimates for full-dimension simulation
   (:func:`repro.analysis.simulation_cost.sorting_cost_estimates`).

Both kernels run through the compiled route programs of
:mod:`repro.simd.programs` (PR 2), which makes the sweep feasible up to
``degrees=(...,9)`` -- 9! = 362880 keys -- in about a minute per degree-9
measurement (see ``tests/integration/test_degree9_programs.py``); ledgers are
bit-identical to the per-call reference implementations.
"""

from __future__ import annotations

import math
import random

from repro.algorithms.sorting import odd_even_transposition_sort, shearsort_2d, snake_order_rank
from repro.analysis.simulation_cost import sorting_cost_estimates
from repro.embedding.uniform import factorise_paper_mesh
from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.simd.embedded import EmbeddedMeshMachine
from repro.simd.mesh_machine import MeshMachine
from repro.topology.mesh import paper_mesh

__all__ = ["ARTIFACT_SCHEMA", "run"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["CONC"]


def _line_sort_measurement(n: int, seed: int) -> tuple:
    """Sort every line of D_n along its longest dimension, natively and embedded."""
    rng = random.Random(seed)
    sides = paper_mesh(n).sides
    data = {node: rng.randint(0, 1000) for node in paper_mesh(n).nodes()}

    native = MeshMachine(sides)
    embedded = EmbeddedMeshMachine(n)
    for machine in (native, embedded):
        machine.define_register("K", dict(data))
        odd_even_transposition_sort(machine, "K", dim=0)

    def lines_sorted(machine) -> bool:
        values = machine.read_register("K")
        mesh = machine.mesh
        for rest in {node[1:] for node in mesh.nodes()}:
            line = [values[(a,) + rest] for a in range(sides[0])]
            if line != sorted(line):
                return False
        return True

    ok = lines_sorted(native) and lines_sorted(embedded)
    same = native.read_register("K") == embedded.read_register("K")
    ratio = embedded.star_stats.unit_routes / embedded.stats.unit_routes
    return ok and same, native.stats.unit_routes, embedded.star_stats.unit_routes, ratio


def _shearsort_measurement(n: int, seed: int) -> tuple:
    """Shearsort n! keys on the Appendix 2-D factorisation of D_n."""
    rng = random.Random(seed)
    rows, cols = factorise_paper_mesh(n, 2)
    machine = MeshMachine((rows, cols))
    data = {node: rng.randint(0, 10_000) for node in machine.mesh.nodes()}
    machine.define_register("K", data)
    routes = shearsort_2d(machine, "K")
    out = machine.read_register("K")
    ordered = [
        out[node]
        for node in sorted(machine.mesh.nodes(), key=lambda nd: snake_order_rank(nd, (rows, cols)))
    ]
    correct = ordered == sorted(data.values())
    bound = (math.ceil(math.log2(rows)) + 1) * 2 * (rows + cols) + 2 * cols
    return correct, rows, cols, routes, bound


def run(degrees=(4, 5), seed: int = 7) -> ExperimentResult:
    """Measure sorting kernels natively and through the embedding."""
    rows = []
    claim = True
    for n in degrees:
        line_ok, mesh_routes, star_routes, ratio = _line_sort_measurement(n, seed)
        shear_ok, r, c, shear_routes, shear_bound = _shearsort_measurement(n, seed)
        estimates = sorting_cost_estimates(n)
        claim = claim and line_ok and shear_ok and ratio <= 3.0 and shear_routes <= shear_bound
        rows.append(
            (
                n,
                math.factorial(n),
                mesh_routes,
                star_routes,
                round(ratio, 3),
                f"{r}x{c}",
                shear_routes,
                shear_bound,
                round(estimates["uniform_full_dimension"], 1),
                round(estimates["appendix_optimal"], 1),
                int(estimates["appendix_optimal_dimension"]),
            )
        )
    return ExperimentResult(
        experiment_id="CONC",
        title="Conclusion: sorting kernels on D_n, natively and through the star-graph embedding",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary={"claim_holds": claim},
        notes=[
            "Line sorts and shearsort are exact measurements; the last three columns are the paper's "
            "closed-form estimates (conclusion + Appendix), reported for shape comparison only.",
        ],
    )
