"""SIMD machine over a mesh.

Adds the mesh's natural SIMD-A unit route ("every active PE transmits one step
along dimension ``k`` in direction ``delta``") on top of
:class:`~repro.simd.machine.SIMDMachine`.  Algorithms in
:mod:`repro.algorithms` are written against this interface (they only call
:meth:`route_dimension`, :meth:`apply` and register accessors), which lets the
same algorithm run unchanged on the real mesh machine *and* on
:class:`~repro.simd.embedded.EmbeddedMeshMachine`, where every mesh unit route
is replayed as at most three star-graph unit routes (Theorem 6).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.exceptions import InvalidParameterError
from repro.simd.machine import SIMDMachine
from repro.simd.masks import Mask, MaskSource
from repro.topology.mesh import Mesh

__all__ = ["MeshMachine"]


class MeshMachine(SIMDMachine):
    """An SIMD multicomputer whose interconnection network is a mesh."""

    def __init__(self, sides: Sequence[int], *, check_conflicts: bool = True):
        super().__init__(Mesh(sides), check_conflicts=check_conflicts)
        # Dense (sender index, receiver index) moves per (dim, delta), built
        # lazily; a dimension shift is injective so it can never conflict.
        self._dimension_moves: dict = {}

    def _moves_along(self, dim: int, delta: int) -> list:
        key = (dim, delta)
        table = self._dimension_moves.get(key)
        if table is None:
            side = self.sides[dim]
            index_of = self._index_of
            table = []
            for index, node in enumerate(self._nodes):
                value = node[dim] + delta
                if 0 <= value < side:
                    destination = list(node)
                    destination[dim] = value
                    table.append((index, index_of[tuple(destination)]))
            self._dimension_moves[key] = table
        return table

    @property
    def mesh(self) -> Mesh:
        """The underlying mesh."""
        return self.topology  # type: ignore[return-value]

    @property
    def sides(self):
        """Mesh side lengths (most significant first)."""
        return self.mesh.sides

    def route_dimension(
        self,
        source_register: str,
        destination_register: str,
        dim: int,
        delta: int,
        *,
        where: MaskSource = None,
        label: Optional[str] = None,
    ) -> None:
        """One SIMD-A mesh unit route along tuple dimension *dim*, direction *delta*.

        Every active PE that has a neighbour at ``coords[dim] + delta``
        transmits the value of *source_register* to it; PEs on the mesh
        boundary in that direction simply do not transmit (there is no
        wraparound).  Receivers store the value in *destination_register*.
        """
        if delta not in (-1, +1):
            raise InvalidParameterError(f"delta must be +1 or -1, got {delta}")
        if not (0 <= dim < self.mesh.ndim):
            raise InvalidParameterError(
                f"dim must be in [0, {self.mesh.ndim - 1}], got {dim}"
            )
        table = self._moves_along(dim, delta)
        if where is None:
            moves = table
        elif isinstance(where, Mask) and where.topology == self.topology:
            flags = where.dense_flags()
            moves = [(src, dst) for src, dst in table if flags[src]]
        elif callable(where):
            nodes = self._nodes
            moves = [(src, dst) for src, dst in table if where(nodes[src])]
        else:
            mask = Mask.coerce(self.topology, where)
            is_active = mask.is_active
            nodes = self._nodes
            moves = [(src, dst) for src, dst in table if is_active(nodes[src])]
        # Moves come from the precomputed dimension table (links by
        # construction, injective hence conflict-free), so the generic
        # validation of route_moves is unnecessary.
        self.route_indexed(
            source_register,
            destination_register,
            moves,
            label=label or f"dim{dim}{'+' if delta > 0 else '-'}",
            check_conflicts=False,
        )
