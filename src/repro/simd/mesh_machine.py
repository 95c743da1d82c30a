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

from repro.simd.machine import SIMDMachine
from repro.simd.masks import Mask, MaskSource
from repro.topology.mesh import Mesh

__all__ = ["MeshMachine"]


class MeshMachine(SIMDMachine):
    """An SIMD multicomputer whose interconnection network is a mesh."""

    def __init__(self, sides: Sequence[int], *, check_conflicts: bool = True):
        super().__init__(Mesh(sides), check_conflicts=check_conflicts)
        # Mesh.unit_route_moves as the (sender, receiver) pairs route_indexed
        # takes, converted once per (dim, delta): the conversion costs as
        # much as the route itself.
        self._route_pairs: dict = {}

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
        moves = self._route_pairs.get((dim, delta))
        if moves is None:
            senders, receivers = self.mesh.unit_route_moves(dim, delta)
            moves = list(zip(senders.tolist(), receivers.tolist()))
            self._route_pairs[dim, delta] = moves
        if where is not None:
            flags = Mask.coerce(self.topology, where).dense_flags()
            moves = [(src, dst) for src, dst in moves if flags[src]]
        # Moves come from the mesh's unit-route table (links by construction,
        # injective hence conflict-free), so the generic validation of
        # route_moves is unnecessary.
        self.route_indexed(
            source_register,
            destination_register,
            moves,
            label=label or f"dim{dim}{'+' if delta > 0 else '-'}",
            check_conflicts=False,
        )
