"""Sorting on mesh machines.

The paper's conclusion discusses sorting: mesh sorting algorithms
(Thompson/Kung, Nassimi/Sahni bitonic sort, shearsort) assume uniform meshes,
and simulating them on the star graph goes through the Section-4 machinery.
This module provides the concrete kernels the experiments measure:

* :func:`odd_even_transposition_sort` -- the classic ``O(l)`` sort of every
  line of a mesh along one dimension (all lines in parallel);
* :func:`shearsort_2d` -- Scherson/Sen/Ma's shearsort on a two-dimensional
  mesh (alternating snake-ordered row sorts and column sorts,
  ``O((log r + 1) (r + c))`` unit routes), the algorithm the conclusion names
  as the one 2-D method that does not rely on power-of-two side lengths.

All kernels run unchanged on :class:`~repro.simd.mesh_machine.MeshMachine`
and :class:`~repro.simd.embedded.EmbeddedMeshMachine`; comparing their unit
route ledgers is the sorting experiment of EXPERIMENTS.md.

Compiled programs
-----------------
On the two machine types above, the whole sort compiles into one cached
:class:`~repro.simd.programs.RouteProgram` (masked routes as precomputed
gathers, compare-exchange as vectorised min/max kernels); registers and both
ledgers stay bit-identical to the per-call reference implementation
(:mod:`repro.algorithms.reference`, enforced by the parity tests).
*ascending_mask* may be a mask **spec** (e.g. ``("parity", 0, 0)``), a keyed
:class:`~repro.simd.masks.Mask`, or -- as before -- an arbitrary predicate,
in which case the reference path runs instead (opaque closures cannot key a
program cache).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.algorithms import reference as _reference
from repro.exceptions import InvalidParameterError
from repro.simd import kernels as _kernels
from repro.simd.masks import MASK_ALL, Mask, spec_and, spec_not
from repro.simd.programs import (
    Fill,
    Local,
    Route,
    compile_program,
    supports_programs,
)

__all__ = [
    "odd_even_transposition_sort",
    "shearsort_2d",
    "snake_order_rank",
]

# Stable boundary sentinel for the compiled compare-exchange staging register
# (the reference implementation creates a fresh one per phase; the identity of
# the sentinel is unobservable outside the scratch register).
_BOUNDARY = object()
_KEEP_MIN = _kernels.keep_min(_BOUNDARY)
_KEEP_MAX = _kernels.keep_max(_BOUNDARY)


def snake_order_rank(node: Sequence[int], sides: Sequence[int]) -> int:
    """Rank of a 2-D mesh node in boustrophedon (snake) order.

    Rows are traversed left-to-right on even rows and right-to-left on odd
    rows; this is the output order of :func:`shearsort_2d`.
    """
    node = tuple(node)
    sides = tuple(sides)
    if len(node) != 2 or len(sides) != 2:
        raise InvalidParameterError("snake order is defined for 2-D meshes only")
    row, col = node
    rows, cols = sides
    if not (0 <= row < rows and 0 <= col < cols):
        raise InvalidParameterError(f"{node!r} outside mesh of sides {sides!r}")
    return row * cols + (col if row % 2 == 0 else cols - 1 - col)


def _ascending_spec(ascending_mask):
    """Mask spec of *ascending_mask*, or None when it is an opaque predicate."""
    if ascending_mask is None:
        return MASK_ALL
    if isinstance(ascending_mask, Mask):
        return ascending_mask.key
    if isinstance(ascending_mask, tuple):
        return ascending_mask
    return None


def _compare_exchange_steps(
    register: str, dim: int, side: int, parity: int, ascending: tuple
) -> List[object]:
    """The seven program steps of one odd-even transposition phase."""
    low = spec_and(("parity", dim, parity), ("lt", dim, side - 1))
    high = spec_and(("parity", dim, 1 - parity), ("gt", dim, 0))
    descending = spec_not(ascending)
    pair = (register, "_cmp_in")
    return [
        Fill("_cmp_in", _BOUNDARY),
        Route(register, "_cmp_in", dim, +1, low),
        Route(register, "_cmp_in", dim, -1, high),
        Local(register, _KEEP_MIN, pair, spec_and(low, ascending)),
        Local(register, _KEEP_MAX, pair, spec_and(high, ascending)),
        Local(register, _KEEP_MAX, pair, spec_and(low, descending)),
        Local(register, _KEEP_MIN, pair, spec_and(high, descending)),
    ]


def _sort_steps(
    register: str, dim: int, side: int, phases: int, ascending: tuple
) -> List[object]:
    steps: List[object] = []
    for phase in range(phases):
        steps.extend(
            _compare_exchange_steps(register, dim, side, phase % 2, ascending)
        )
    return steps


def odd_even_transposition_sort(
    machine,
    register: str,
    dim: int,
    *,
    ascending_mask=None,
    phases: Optional[int] = None,
) -> int:
    """Sort every line of the mesh along *dim* by odd-even transposition.

    Each of the ``side`` phases costs two unit routes (the pairwise exchange),
    so the total is ``2 * side`` mesh unit routes.  *ascending_mask* selects
    lines sorted in ascending coordinate order (default: all); other lines
    are sorted descending -- shearsort uses this for its snake-ordered row
    phase.  It may be a mask spec / keyed mask (compiled) or any predicate
    (reference path).  Returns the number of unit routes.
    """
    ascending = _ascending_spec(ascending_mask)
    if not supports_programs(machine) or ascending is None:
        return _reference.odd_even_transposition_sort(
            machine, register, dim, ascending_mask=ascending_mask, phases=phases
        )
    if not (0 <= dim < machine.mesh.ndim):
        raise InvalidParameterError(
            f"dim must be in [0, {machine.mesh.ndim - 1}], got {dim}"
        )
    side = machine.mesh.sides[dim]
    total_phases = phases if phases is not None else side
    program = compile_program(
        machine, _sort_steps(register, dim, side, total_phases, ascending)
    )
    routes_before = machine.stats.unit_routes
    program.run(machine)
    return machine.stats.unit_routes - routes_before


def shearsort_2d(machine, register: str, *, rounds: Optional[int] = None) -> int:
    """Shearsort a two-dimensional mesh machine into snake order.

    Alternates snake-ordered row sorts (even rows ascending, odd rows
    descending along the column dimension) with ascending column sorts, for
    ``ceil(log2(rows)) + 1`` rounds, finishing with one extra row phase.
    After the call, reading *register* in :func:`snake_order_rank` order gives
    the values in non-decreasing order.  Returns the number of mesh unit
    routes issued.

    *rounds* overrides the round count (used by convergence studies and the
    ablation benchmarks); the default sorts completely.
    """
    mesh = machine.mesh
    if mesh.ndim != 2:
        raise InvalidParameterError(
            f"shearsort_2d needs a 2-dimensional mesh, got {mesh.ndim} dimensions"
        )
    if not supports_programs(machine):
        return _reference.shearsort_2d(machine, register, rounds=rounds)
    rows, cols = mesh.sides
    even_row = ("parity", 0, 0)
    total = rounds
    if total is None:
        total = max(1, math.ceil(math.log2(rows))) if rows > 1 else 1
    steps: List[object] = []
    for _ in range(total):
        # Row phase: sort along the column dimension, snake-ordered.
        steps.extend(_sort_steps(register, 1, cols, cols, even_row))
        # Column phase: sort along the row dimension, always ascending.
        steps.extend(_sort_steps(register, 0, rows, rows, MASK_ALL))
    # Final row phase leaves the data in snake order.
    steps.extend(_sort_steps(register, 1, cols, cols, even_row))
    program = compile_program(machine, steps)
    routes_before = machine.stats.unit_routes
    program.run(machine)
    return machine.stats.unit_routes - routes_before
