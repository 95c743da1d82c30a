"""SIMD machine over the star graph.

:class:`StarMachine` is the :class:`~repro.simd.cayley_machine.CayleyMachine`
over :class:`~repro.topology.star.StarGraph`; it adds only the paper's
1-based generator numbering:

* :meth:`StarMachine.route_generator` -- the SIMD-A route "every active PE
  transmits along generator ``g_j``" (the paper's ``B(i^(2)) <- B(i)``),
  ``j = 1 .. n-1``, forwarded to the 0-based Cayley route ``j - 1``; ledger
  labels stay ``generator-j``;
* :meth:`StarMachine.route_paths` (inherited) -- the SIMD-B capability used to
  replay mesh unit routes through the embedding.

A generator route is a single gather through the per-degree move table: PE
``rank`` sends to PE ``table[rank]``, a perfect matching validated once per
generator, so a generator route can never conflict.
"""

from __future__ import annotations

from typing import Optional

from repro.simd.cayley_machine import CayleyMachine
from repro.simd.masks import MaskSource
from repro.topology.star import StarGraph
from repro.utils.validation import check_in_range, check_positive_int

__all__ = ["StarMachine"]


class StarMachine(CayleyMachine):
    """An SIMD multicomputer whose interconnection network is ``S_n``."""

    def __init__(self, n: int, *, check_conflicts: bool = True):
        check_positive_int(n, "n", minimum=2)
        super().__init__(StarGraph(n), check_conflicts=check_conflicts)

    @property
    def star(self) -> StarGraph:
        """The underlying star graph."""
        return self.topology  # type: ignore[return-value]

    def route_generator(
        self,
        source_register: str,
        destination_register: str,
        generator: int,
        *,
        where: MaskSource = None,
        label: Optional[str] = None,
    ) -> None:
        """One SIMD-A unit route: every active PE sends along generator ``g_j``.

        *generator* is the paper's 1-based ``j``; PE ``pi`` transmits the
        value of *source_register* to PE ``pi`` with tuple positions 0 and
        ``j`` exchanged; the value is stored in *destination_register* at the
        receiver.
        """
        check_in_range(generator, "generator", 1, self.n - 1)
        super().route_generator(
            source_register,
            destination_register,
            generator - 1,
            where=where,
            label=label,
        )
