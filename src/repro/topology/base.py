"""The common interface implemented by every interconnection topology.

A :class:`Topology` is an undirected graph whose vertices ("nodes") are
hashable tuples.  The interface is intentionally small -- exactly what the
embedding layer, the SIMD simulator and the analysis experiments need:

* enumerate nodes (``nodes()``, ``num_nodes``, ``__contains__``),
* local structure (``neighbors``, ``degree``),
* metric structure (``distance``, ``shortest_path``, ``diameter``),
* a stable dense integer id per node (``node_index`` / ``node_from_index``)
  so simulators can use flat arrays,
* a dense adjacency index (``neighbor_index_table``) so whole-graph services
  can run as array sweeps instead of per-node tuple walks.

Concrete topologies override the analytic members (``distance``, ``diameter``)
with closed forms where they exist; the base class provides BFS fallbacks so a
new topology only has to implement ``nodes()`` and ``neighbors()`` to be fully
functional (and testable against the optimised subclasses).

The adjacency-index contract
----------------------------
``neighbor_index_table()`` returns a ``(num_nodes, max_degree)`` table whose
row ``i`` lists ``node_index(neighbor)`` for every neighbour of
``node_from_index(i)``, **in the same order as** ``neighbors()``, left-packed
and padded with ``-1`` for nodes of smaller degree.  It is a read-only NumPy
``int64`` array, cached per instance and shared by every vectorised service in
:mod:`repro.topology.routing`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as _np

from repro.exceptions import InvalidNodeError

Node = Tuple[int, ...]

__all__ = ["Topology", "Node", "pack_index_rows"]


def pack_index_rows(rows: Iterable[Sequence[int]], width: int):
    """Pack variable-length neighbour-index rows into the dense table format.

    Each row is left-packed and padded with ``-1`` up to *width*.  Returns a
    read-only NumPy ``int64`` array -- the concrete representation of the
    ``neighbor_index_table`` contract.
    """
    rows = list(rows)
    table = _np.full((len(rows), width), -1, dtype=_np.int64)
    for i, row in enumerate(rows):
        if row:
            table[i, : len(row)] = row
    table.setflags(write=False)
    return table


def _column_stack(tables):
    """Stack move tables as the columns of a read-only ``int64`` table.

    Column ``g`` is ``tables[g]``: the adjacency index table of a regular
    permutation Cayley graph, shared by the star and generic Cayley builders.
    """
    if not tables:
        return _np.zeros((0, 0), dtype=_np.int64)
    table = _np.column_stack(tables).astype(_np.int64, copy=False)
    table.setflags(write=False)
    return table


class Topology(ABC):
    """Abstract undirected interconnection network."""

    # ------------------------------------------------------------- structure
    @abstractmethod
    def nodes(self) -> Iterator[Node]:
        """Iterate over every node, in a deterministic canonical order."""

    @abstractmethod
    def neighbors(self, node: Node) -> List[Node]:
        """The nodes adjacent to *node*, in a deterministic order."""

    @property
    @abstractmethod
    def num_nodes(self) -> int:
        """Total number of nodes."""

    @abstractmethod
    def is_node(self, node: Sequence[int]) -> bool:
        """True if *node* is a vertex of this topology."""

    # -------------------------------------------------------------- defaults
    def __contains__(self, node: object) -> bool:
        if not isinstance(node, tuple):
            try:
                node = tuple(node)  # type: ignore[arg-type]
            except TypeError:
                return False
        return self.is_node(node)  # type: ignore[arg-type]

    def __iter__(self) -> Iterator[Node]:
        return self.nodes()

    def __len__(self) -> int:
        return self.num_nodes

    def validate_node(self, node: Sequence[int]) -> Node:
        """Return *node* as a tuple, raising :class:`InvalidNodeError` if foreign."""
        as_tuple = tuple(node)
        if not self.is_node(as_tuple):
            raise InvalidNodeError(f"{as_tuple!r} is not a node of {self!r}")
        return as_tuple

    def degree(self, node: Node) -> int:
        """Number of neighbours of *node*."""
        return len(self.neighbors(self.validate_node(node)))

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        """Iterate over every undirected edge exactly once (as sorted pairs)."""
        for node in self.nodes():
            for neighbor in self.neighbors(node):
                if node < neighbor:
                    yield (node, neighbor)

    @property
    def num_edges(self) -> int:
        """Total number of undirected edges."""
        return sum(1 for _ in self.edges())

    def has_edge(self, u: Node, v: Node) -> bool:
        """True if *u* and *v* are adjacent."""
        u = self.validate_node(u)
        v = self.validate_node(v)
        return self._adjacent(u, v)

    def _adjacent(self, u: Node, v: Node) -> bool:
        """Adjacency of two *already validated* nodes.

        Hot path of embedding-path validation; subclasses override with a
        closed form (Manhattan/Hamming distance 1, star generator shape)
        instead of materialising the neighbour list.
        """
        return v in self.neighbors(u)

    # ------------------------------------------------------------ node index
    def node_index(self, node: Node) -> int:
        """A dense integer id in ``[0, num_nodes)`` for *node*.

        The base implementation builds (and caches) a dictionary from the
        canonical node order; subclasses with a closed-form ranking override
        this.
        """
        table = self._index_table()
        node = self.validate_node(node)
        return table[node]

    def node_from_index(self, index: int) -> Node:
        """Inverse of :meth:`node_index`."""
        order = self._order_table()
        if not (0 <= index < self.num_nodes):
            raise InvalidNodeError(f"index {index} out of range for {self!r}")
        return order[index]

    def _index_table(self) -> Dict[Node, int]:
        cached = getattr(self, "_cached_index_table", None)
        if cached is None:
            cached = {node: i for i, node in enumerate(self.nodes())}
            setattr(self, "_cached_index_table", cached)
        return cached

    def _order_table(self) -> List[Node]:
        cached = getattr(self, "_cached_order_table", None)
        if cached is None:
            cached = list(self.nodes())
            setattr(self, "_cached_order_table", cached)
        return cached

    # -------------------------------------------------------- adjacency index
    def neighbor_index_table(self):
        """The dense adjacency index: a ``(num_nodes, max_degree)`` table.

        Row ``i`` lists the ``node_index`` of every neighbour of
        ``node_from_index(i)`` in ``neighbors()`` order, left-packed and
        padded with ``-1``.  Cached per instance; a read-only NumPy ``int64``
        array.

        Subclasses with closed-form adjacency override
        :meth:`_build_neighbor_index_table`; the base implementation walks
        ``nodes()``/``neighbors()`` once through the canonical node order.
        """
        cached = getattr(self, "_cached_neighbor_index_table", None)
        if cached is None:
            cached = self._build_neighbor_index_table()
            setattr(self, "_cached_neighbor_index_table", cached)
        return cached

    def neighbor_source(self):
        """The adjacency source the whole-graph kernels should sweep over.

        The base implementation wraps the cached :meth:`neighbor_index_table`
        in a :class:`~repro.topology.routing.TableNeighborSource`; the
        permutation Cayley families override it to serve the table-free
        implicit source past the table ceiling.
        """
        from repro.topology.routing import TableNeighborSource

        return TableNeighborSource(self.neighbor_index_table())

    def _build_neighbor_index_table(self):
        index_of = {node: i for i, node in enumerate(self.nodes())}
        rows: List[List[int]] = [
            [index_of[neighbor] for neighbor in self.neighbors(node)]
            for node in self.nodes()
        ]
        width = max((len(row) for row in rows), default=0)
        return pack_index_rows(rows, width)

    # ---------------------------------------------------------------- metric
    def distance(self, u: Node, v: Node) -> int:
        """Length of a shortest path between *u* and *v* (BFS fallback).

        The BFS stops as soon as *v* is discovered; no path is materialised
        (use :meth:`shortest_path` when the nodes themselves are needed).
        """
        u = self.validate_node(u)
        v = self.validate_node(v)
        if u == v:
            return 0
        depth = {u: 0}
        queue = deque([u])
        while queue:
            current = queue.popleft()
            next_depth = depth[current] + 1
            for neighbor in self.neighbors(current):
                if neighbor in depth:
                    continue
                if neighbor == v:
                    return next_depth
                depth[neighbor] = next_depth
                queue.append(neighbor)
        raise InvalidNodeError(f"no path between {u!r} and {v!r}")  # pragma: no cover

    def shortest_path(self, u: Node, v: Node) -> List[Node]:
        """A shortest path from *u* to *v* including both endpoints (BFS fallback)."""
        u = self.validate_node(u)
        v = self.validate_node(v)
        if u == v:
            return [u]
        parent: Dict[Node, Optional[Node]] = {u: None}
        queue = deque([u])
        while queue:
            current = queue.popleft()
            for neighbor in self.neighbors(current):
                if neighbor in parent:
                    continue
                parent[neighbor] = current
                if neighbor == v:
                    path = [neighbor]
                    back: Optional[Node] = current
                    while back is not None:
                        path.append(back)
                        back = parent[back]
                    path.reverse()
                    return path
                queue.append(neighbor)
        raise InvalidNodeError(f"no path between {u!r} and {v!r}")  # pragma: no cover

    def eccentricity(self, node: Node) -> int:
        """Greatest distance from *node* to any other node (BFS)."""
        node = self.validate_node(node)
        distances = self._bfs_distances(node)
        return max(distances.values())

    def _distance_totals(self) -> Tuple[int, float]:
        """``(diameter, average_distance)`` from one all-sources distance sweep.

        Cached per instance so requesting both metrics costs a single sweep.
        Uses the bit-parallel index-table sweep of
        :func:`repro.topology.routing.distance_summary`.
        """
        cached = getattr(self, "_cached_distance_totals", None)
        if cached is None:
            from repro.topology.routing import distance_summary

            summary = distance_summary(self)
            cached = (summary.diameter, summary.average_distance)
            setattr(self, "_cached_distance_totals", cached)
        return cached

    def diameter(self) -> int:
        """Greatest eccentricity over all nodes.

        The base implementation runs one all-sources sweep (shared with
        :meth:`average_distance`); subclasses with a closed form override it.
        """
        return self._distance_totals()[0]

    def average_distance(self) -> float:
        """Mean pairwise distance over ordered pairs of distinct nodes.

        Shares its all-sources distance sweep with :meth:`diameter`.
        """
        return self._distance_totals()[1]

    def _bfs_distances(self, source: Node) -> Dict[Node, int]:
        distances = {source: 0}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbor in self.neighbors(current):
                if neighbor not in distances:
                    distances[neighbor] = distances[current] + 1
                    queue.append(neighbor)
        return distances
