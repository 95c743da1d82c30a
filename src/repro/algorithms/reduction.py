"""Reductions on the mesh machine interface.

:func:`mesh_reduce` folds an associative operator over every PE's value and
leaves the result at the mesh origin ``(0, ..., 0)``.  It is the classic
dimension-sweep kernel: dimension ``k`` is reduced by ``side_k - 1`` unit
routes pushing partial results toward coordinate 0.

Run on an :class:`~repro.simd.embedded.EmbeddedMeshMachine` it exercises the
Theorem-6 simulation on a computation-heavy workload (numerical reductions are
the inner loop of the numerical-analysis applications the paper's introduction
motivates the embedding with).

On the two supported machine types the sweep compiles into a cached
:class:`~repro.simd.programs.RouteProgram`; registers and ledgers stay
bit-identical to the per-call reference (:mod:`repro.algorithms.reference`).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.algorithms import reference as _reference
from repro.simd import kernels as _kernels
from repro.simd.programs import (
    Fill,
    Local,
    Route,
    compile_program,
    supports_programs,
)
from repro.topology.base import Node

__all__ = ["mesh_reduce"]

# Shared with the reference module (sentinel identity is what the folds test).
_NEUTRAL = _reference._NEUTRAL


def mesh_reduce(
    machine,
    register: str,
    operator: Callable[[object, object], object],
    *,
    result: Optional[str] = None,
) -> object:
    """Reduce *register* over every PE with *operator*; result lands at the origin.

    Returns the reduced value (also left in register *result*, default
    ``register + "_red"``, at mesh node ``(0, ..., 0)``).  The operator must be
    associative; commutativity is not required because values are always
    folded in coordinate order (higher coordinate folded into lower).
    """
    if not supports_programs(machine):
        return _reference.mesh_reduce(machine, register, operator, result=result)
    mesh = machine.mesh
    result = result or f"{register}_red"
    fold = _kernels.fold(operator, _NEUTRAL, incoming_first=False)
    clear = _kernels.const(_NEUTRAL)
    steps: List[object] = [
        Local(result, _kernels.COPY, (register,)),
        Fill("_incoming_red", _NEUTRAL),
    ]
    for dim in range(mesh.ndim):
        side = mesh.sides[dim]
        for step in range(side - 1, 0, -1):
            # PEs whose coordinate along `dim` equals `step` push their partial
            # result one step toward 0; the receiver folds it in.
            steps.extend(
                [
                    Route(result, "_incoming_red", dim, -1, ("eq", dim, step)),
                    Local(result, fold, (result, "_incoming_red"), ("eq", dim, step - 1)),
                    Local("_incoming_red", clear, ("_incoming_red",)),
                ]
            )
    program = compile_program(machine, steps)
    program.run(machine)
    origin: Node = tuple(0 for _ in mesh.sides)
    return machine.read_value(result, origin)

