"""Unit-route accounting.

The paper's complexity analyses count unit routes and nothing else ("our
complexity analysis will only count these"), so the simulator keeps an
explicit ledger.  :class:`RouteStatistics` is attached to every machine; the
embedded mesh-on-star machine keeps two ledgers (mesh-level and star-level) so
the Theorem-6 ratio can be read off directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["RouteStatistics"]


@dataclass
class RouteStatistics:
    """Counters for the operations a SIMD machine has executed."""

    unit_routes: int = 0
    messages: int = 0
    local_operations: int = 0
    broadcasts: int = 0
    by_label: Dict[str, int] = field(default_factory=dict)

    def record_route(self, *, messages: int, label: str = "route") -> None:
        """Record one unit route carrying *messages* point-to-point messages."""
        self.unit_routes += 1
        self.messages += messages
        self.by_label[label] = self.by_label.get(label, 0) + 1

    def record_routes(self, count: int, *, messages: int, label: str = "route") -> None:
        """Record *count* unit routes carrying *messages* messages in total.

        The batched twin of :meth:`record_route`: one counter update covers a
        whole program step (e.g. the <= 3 star unit routes replaying one mesh
        route, or a fused carry chain).  ``snapshot()`` output is identical to
        *count* individual :meth:`record_route` calls whose message counts sum
        to *messages*.
        """
        if count < 0 or messages < 0:
            raise ValueError("count and messages must be non-negative")
        if count == 0:
            return
        self.unit_routes += count
        self.messages += messages
        self.by_label[label] = self.by_label.get(label, 0) + count

    def record_charge(
        self, routes: int, messages: int, label: str, operations: int, broadcasts: int
    ) -> None:
        """Record a precomputed ledger entry in one update.

        ``snapshot()`` output is identical to ``record_routes(routes,
        messages=messages, label=label)``, ``record_local(operations=
        operations)`` and *broadcasts* :meth:`record_broadcast` calls.
        Compiled route programs (:mod:`repro.simd.programs`) carry their
        ledger entries as data and replay them through this method, once per
        op.
        """
        if routes:
            self.unit_routes += routes
            self.messages += messages
            self.by_label[label] = self.by_label.get(label, 0) + routes
        self.local_operations += operations
        self.broadcasts += broadcasts

    def record_local(self, *, operations: int = 1) -> None:
        """Record *operations* local (intra-PE) arithmetic steps."""
        self.local_operations += operations

    def record_broadcast(self) -> None:
        """Record one control-unit broadcast (instruction or immediate value)."""
        self.broadcasts += 1

    def reset(self) -> None:
        """Zero every counter."""
        self.unit_routes = 0
        self.messages = 0
        self.local_operations = 0
        self.broadcasts = 0
        self.by_label.clear()

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of the counters (used by experiments and tests)."""
        data = {
            "unit_routes": self.unit_routes,
            "messages": self.messages,
            "local_operations": self.local_operations,
            "broadcasts": self.broadcasts,
        }
        data.update({f"label:{key}": value for key, value in sorted(self.by_label.items())})
        return data

    def __add__(self, other: "RouteStatistics") -> "RouteStatistics":
        combined = RouteStatistics(
            unit_routes=self.unit_routes + other.unit_routes,
            messages=self.messages + other.messages,
            local_operations=self.local_operations + other.local_operations,
            broadcasts=self.broadcasts + other.broadcasts,
        )
        for source in (self.by_label, other.by_label):
            for key, value in source.items():
                combined.by_label[key] = combined.by_label.get(key, 0) + value
        return combined
