"""SIMD multicomputer simulator.

Section 2 of the paper fixes the machine model: ``N`` processing elements
(PEs) connected by a static interconnection network, a central control unit
broadcasting instructions with optional *masks* that select which PEs execute
them, and a cost model that counts only *unit routes* -- synchronous steps in
which data moves across directly connected PEs.  Two variants are used:

* **SIMD-A** -- in one unit route every (active) PE transmits along the *same*
  dimension/generator;
* **SIMD-B** -- in one unit route every PE may transmit to any one neighbour.

No star-graph hardware exists, so the machine is *simulated in software* here
(see DESIGN.md, substitutions): PEs are rows of a register table, a unit route
is one synchronous exchange over topology edges, and the simulator counts unit
routes exactly as the paper's complexity analyses do.  The simulator also
*verifies* the communication pattern: two messages crossing the same directed
link in the same unit route raise
:class:`repro.exceptions.RouteConflictError`, which turns Lemma 5 into a
runtime-checked property.

Layering
--------
:class:`~repro.simd.machine.SIMDMachine`
    Topology-generic machine (registers, masks, local ops, routed moves).
:class:`~repro.simd.star_machine.StarMachine` / :class:`~repro.simd.mesh_machine.MeshMachine`
    Convenience subclasses exposing the natural unit routes of each topology.
:class:`~repro.simd.embedded.EmbeddedMeshMachine`
    A mesh-programming interface executed on a star machine through the
    paper's embedding -- the object Theorem 6 is about.
"""

from repro._lazy import lazy_exports

#: public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    name: module
    for module, names in (
        ("repro.simd.trace", ("RouteStatistics",)),
        ("repro.simd.masks", ("Mask",)),
        ("repro.simd.machine", ("SIMDMachine",)),
        ("repro.simd.conflicts", ("check_unit_route_conflicts", "UnitRouteStep")),
        (
            "repro.simd.plans",
            (
                "UnitRoutePlan",
                "unit_route_plan",
                "unit_route_plan_subset",
            ),
        ),
        ("repro.simd.star_machine", ("StarMachine",)),
        ("repro.simd.cayley_machine", ("CayleyMachine",)),
        ("repro.simd.mesh_machine", ("MeshMachine",)),
        ("repro.simd.embedded", ("EmbeddedMeshMachine",)),
        ("repro.simd.kernels", ("Kernel",)),
        (
            "repro.simd.programs",
            (
                "Chain",
                "Fill",
                "Local",
                "Route",
                "RouteProgram",
                "ShiftSteps",
                "compile_program",
                "supports_programs",
            ),
        ),
    )
    for name in names
}

#: The program grammar, ``Kernel`` and ``unit_route_plan_subset`` resolve from
#: the root as well, but stay out of ``__all__``.
__all__ = [
    "RouteStatistics",
    "Mask",
    "SIMDMachine",
    "check_unit_route_conflicts",
    "UnitRouteStep",
    "UnitRoutePlan",
    "unit_route_plan",
    "StarMachine",
    "CayleyMachine",
    "MeshMachine",
    "EmbeddedMeshMachine",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
