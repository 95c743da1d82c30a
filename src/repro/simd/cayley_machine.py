"""SIMD machine over an arbitrary permutation Cayley network.

:class:`CayleyMachine` places one PE per permutation of ``0..n-1`` (dense
register index = Lehmer rank) connected by the generator set of any
:class:`~repro.topology.cayley.CayleyGraph` -- the star graph, pancake,
bubble-sort, any transposition tree.  Its :meth:`CayleyMachine.route_generator`
is a one-gather fast path
(:meth:`~repro.simd.machine.SIMDMachine.route_matching_table`): the
per-generator move table is validated once as a perfect matching and every
route, masked or not, replays as integer gathers with no per-move conflict
bookkeeping.

Generator indices are 0-based, in ``graph.generators`` order;
:class:`~repro.simd.star_machine.StarMachine` is the star-graph subclass
that keeps the paper's 1-based ``g_j``.  The generator-scheduled
broadcast/reduction programs in :mod:`repro.algorithms.cayley` run unchanged
on every family.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import InvalidParameterError
from repro.permutations.ranking import within_table_degree
from repro.simd.machine import SIMDMachine
from repro.simd.masks import MaskSource
from repro.topology.cayley import CayleyGraph
from repro.utils.validation import check_in_range

__all__ = ["CayleyMachine"]


class CayleyMachine(SIMDMachine):
    """An SIMD multicomputer whose interconnection network is a Cayley graph."""

    def __init__(self, graph: CayleyGraph, *, check_conflicts: bool = True):
        if not isinstance(graph, CayleyGraph):
            raise InvalidParameterError(
                f"CayleyMachine needs a CayleyGraph, got {type(graph).__name__}"
            )
        super().__init__(graph, check_conflicts=check_conflicts)
        # Node order is rank order (lexicographic), so the dense register
        # index of a node IS its Lehmer rank and the move tables apply as-is.
        self._generator_moves: dict = {}

    @property
    def graph(self) -> CayleyGraph:
        """The underlying Cayley graph."""
        return self.topology  # type: ignore[return-value]

    @property
    def n(self) -> int:
        """Degree parameter (number of symbols) of the Cayley graph."""
        return self.graph.n

    def _generator_table(self, generator: int) -> list:
        """Move table for one generator as a plain int list, validated once.

        The table must be a fixed-point-free involution (``table[table[i]] ==
        i`` and ``table[i] != i``), i.e. a perfect matching of the PEs.  The
        check runs once per machine and generator and replaces the per-call
        conflict check of the generic route path: any subset of a perfect
        matching is a valid unit route.
        """
        table = self._generator_moves.get(generator)
        if table is None:
            table = self.graph.move_tables()[generator].tolist()
            if any(table[table[index]] != index or table[index] == index
                   for index in range(len(table))):  # pragma: no cover - structural
                raise AssertionError(
                    f"move table for generator {self.graph.generator_names[generator]}"
                    " is not a perfect matching"
                )
            self._generator_moves[generator] = table
        return table

    def route_generator(
        self,
        source_register: str,
        destination_register: str,
        generator: int,
        *,
        where: MaskSource = None,
        label: Optional[str] = None,
    ) -> None:
        """One SIMD-A unit route: every active PE sends along one generator.

        *generator* is the 0-based index into ``graph.generators`` (the same
        order as ``neighbors()`` and the move-table columns); PE ``pi``
        transmits the value of *source_register* to PE ``pi o g`` where it is
        stored in *destination_register*.  Degrees beyond
        :data:`~repro.permutations.ranking.MAX_TABLE_DEGREE` have no dense
        tables and route the same moves through the conflict-checked tuple
        path.
        """
        check_in_range(generator, "generator", 0, self.graph.num_generators - 1)
        label = label or f"generator-{self.graph.generator_names[generator]}"
        if not within_table_degree(self.n):
            nodes = self._nodes
            moves = [
                (nodes[index], self.graph.apply_generator(nodes[index], generator))
                for index in self._active_indices(where)
            ]
            self.route_moves(source_register, destination_register, moves, label=label)
            return
        self.route_matching_table(
            self._generator_table(generator),
            source_register,
            destination_register,
            where=where,
            label=label,
        )
