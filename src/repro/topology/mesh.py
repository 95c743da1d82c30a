"""The mesh topology (no wraparound).

An ``m``-dimensional mesh of size ``l_m * l_{m-1} * ... * l_1`` has one node
per coordinate tuple ``(d_m, d_{m-1}, ..., d_1)`` with ``0 <= d_j < l_j``; two
nodes are adjacent when they differ by exactly 1 in exactly one coordinate
(the paper's Section 2, item 3).

The paper's guest graph ``D_n`` is the special case with side lengths
``(n, n-1, ..., 3, 2)`` -- an ``(n-1)``-dimensional mesh with ``n!`` nodes --
constructed by :func:`paper_mesh`.

Coordinate convention
---------------------
The tuple is written *most significant side first*: ``coords[0]`` ranges over
``sides[0]``.  For :func:`paper_mesh` the sides are ``(n, n-1, ..., 2)`` so
``coords[0]`` is the paper's ``d_{n-1}`` (the dimension of length ``n``) and
``coords[-1]`` is the paper's ``d_1`` (the dimension of length 2).
:meth:`Mesh.coordinate_of_dimension` translates the paper's 1-based
dimension index into a tuple index.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.topology.base import Node, Topology
from repro.topology.routing import mesh_distance, mesh_route
from repro.utils.mixed_radix import MixedRadix
from repro.utils.validation import check_positive_int, check_sequence_of_ints

__all__ = ["Mesh", "paper_mesh"]


class Mesh(Topology):
    """An ``m``-dimensional mesh with per-dimension side lengths and no wraparound.

    Parameters
    ----------
    sides:
        Side lengths, most significant first.  Every side must be >= 1 and at
        least one dimension is required.

    Examples
    --------
    >>> d4 = Mesh((4, 3, 2))       # the paper's D_4 (2*3*4 mesh, Figure 3)
    >>> d4.num_nodes
    24
    >>> d4.degree((0, 0, 0))
    3
    >>> d4.degree((1, 1, 1))
    6
    """

    def __init__(self, sides: Sequence[int]):
        sides = check_sequence_of_ints(sides, "sides")
        if len(sides) == 0:
            raise InvalidParameterError("a mesh needs at least one dimension")
        for side in sides:
            check_positive_int(side, "side", minimum=1)
        self._sides: Tuple[int, ...] = tuple(sides)
        self._radix = MixedRadix(self._sides)
        self._unit_moves: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------ properties
    @property
    def sides(self) -> Tuple[int, ...]:
        """Side lengths, most significant first."""
        return self._sides

    @property
    def ndim(self) -> int:
        """Number of mesh dimensions ``m``."""
        return len(self._sides)

    @property
    def num_nodes(self) -> int:
        """Product of the side lengths."""
        return self._radix.size

    def max_degree(self) -> int:
        """Largest node degree: 2 per dimension of length >= 3, 1 per dimension of length 2.

        An interior node (coordinate neither 0 nor ``side - 1`` in every
        dimension) attains it; for the paper's ``D_n`` this is ``2n - 3``
        (Lemma 1's degree argument).
        """
        degree = 0
        for side in self._sides:
            if side >= 3:
                degree += 2
            elif side == 2:
                degree += 1
        return degree

    # -------------------------------------------------------------- structure
    def nodes(self) -> Iterator[Node]:
        """All coordinate tuples in lexicographic (row-major) order."""
        return iter(self._radix)

    def is_node(self, node: Sequence[int]) -> bool:
        node = tuple(node)
        if len(node) != self.ndim:
            return False
        return all(
            isinstance(c, int) and not isinstance(c, bool) and 0 <= c < s
            for c, s in zip(node, self._sides)
        )

    def neighbors(self, node: Node) -> List[Node]:
        """Adjacent nodes: +-1 in a single coordinate, staying inside the box."""
        node = self.validate_node(node)
        result: List[Node] = []
        for dim, side in enumerate(self._sides):
            for delta in (-1, +1):
                value = node[dim] + delta
                if 0 <= value < side:
                    coords = list(node)
                    coords[dim] = value
                    result.append(tuple(coords))
        return result

    def neighbor_along(self, node: Node, dim: int, delta: int) -> Node:
        """The neighbour of *node* at ``coords[dim] + delta`` (delta must be +-1).

        Raises
        ------
        InvalidParameterError
            If the neighbour would fall outside the mesh (no wraparound).
        """
        node = self.validate_node(node)
        if delta not in (-1, +1):
            raise InvalidParameterError(f"delta must be +1 or -1, got {delta}")
        if not (0 <= dim < self.ndim):
            raise InvalidParameterError(f"dimension {dim} out of range")
        value = node[dim] + delta
        if not (0 <= value < self._sides[dim]):
            raise InvalidParameterError(
                f"neighbour of {node!r} along dimension {dim} with delta {delta} "
                "falls outside the mesh"
            )
        coords = list(node)
        coords[dim] = value
        return tuple(coords)

    def _adjacent(self, u: Node, v: Node) -> bool:
        """Closed form: exactly one coordinate differs, by exactly 1."""
        return [abs(a - b) for a, b in zip(u, v) if a != b] == [1]

    @property
    def num_edges(self) -> int:
        """Closed form: sum over dimensions of ``(side - 1) * product(other sides)``."""
        total = 0
        for dim, side in enumerate(self._sides):
            others = math.prod(s for d, s in enumerate(self._sides) if d != dim)
            total += (side - 1) * others
        return total

    # -------------------------------------------------------- adjacency index
    def index_weights(self) -> Tuple[int, ...]:
        """Row-major linearisation weight of each dimension (most significant first)."""
        return self._radix.weights

    def unit_route_moves(self, dim: int, delta: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(senders, receivers)``: where a unit route along *dim* lands.

        Every node whose coordinate ``dim`` stays inside the box after adding
        *delta* (``+1`` or ``-1``) sends to the node ``delta * weight``
        further along in row-major order.  Both arrays are read-only NumPy
        ``int64`` node indices in ascending sender order, cached per
        dimension; the two directions share them (the ``-1`` route is the
        ``+1`` route reversed).
        """
        if delta not in (-1, +1):
            raise InvalidParameterError(f"delta must be +1 or -1, got {delta}")
        if not (0 <= dim < self.ndim):
            raise InvalidParameterError(f"dim must be in [0, {self.ndim - 1}], got {dim}")
        moves = self._unit_moves.get(dim)
        if moves is None:
            weight = self.index_weights()[dim]
            indices = np.arange(self.num_nodes, dtype=np.int64)
            lower = indices[(indices // weight) % self._sides[dim] < self._sides[dim] - 1]
            upper = lower + weight
            lower.setflags(write=False)
            upper.setflags(write=False)
            moves = self._unit_moves[dim] = (lower, upper)
        return moves if delta > 0 else (moves[1], moves[0])

    def dimension_edge_indices(self):
        """Yield ``(dim, u_indices, v_indices)`` for every mesh dimension.

        ``u_indices``/``v_indices`` are the row-major node indices of all
        ``+1`` edges along *dim* (``v = u + weight``), as read-only NumPy
        ``int64`` arrays (:meth:`unit_route_moves`) -- the shared edge
        enumeration behind the batched embedding kernel and the vectorised
        contraction measurement.
        """
        for dim in range(self.ndim):
            yield (dim,) + self.unit_route_moves(dim, +1)

    def _build_neighbor_index_table(self):
        """Closed-form adjacency index from the unit-route moves.

        Rows keep the ``neighbors()`` order (per dimension: ``-1`` then
        ``+1``) left-packed with ``-1`` padding -- no coordinate tuples are
        materialised.
        """
        columns = []
        for dim in range(self.ndim):
            for delta in (-1, +1):
                senders, receivers = self.unit_route_moves(dim, delta)
                column = np.full(self.num_nodes, -1, dtype=np.int64)
                column[senders] = receivers
                columns.append(column)
        table = np.stack(columns, axis=1)
        # Left-pack the valid entries of each row, preserving their order.
        invalid = table < 0
        order = np.argsort(invalid, axis=1, kind="stable")
        table = np.take_along_axis(table, order, axis=1)
        width = int((~invalid).sum(axis=1).max(initial=0))
        table = np.ascontiguousarray(table[:, :width])
        table.setflags(write=False)
        return table

    # --------------------------------------------------------------- indexing
    def node_index(self, node: Node) -> int:
        """Row-major linearisation of the coordinates."""
        node = self.validate_node(node)
        return self._radix.encode(node)

    def node_from_index(self, index: int) -> Node:
        """Inverse of :meth:`node_index`."""
        return self._radix.decode(index)

    # ------------------------------------------------------------------ metric
    def distance(self, u: Node, v: Node) -> int:
        """Manhattan distance."""
        u = self.validate_node(u)
        v = self.validate_node(v)
        return mesh_distance(u, v, self._sides)

    def shortest_path(self, u: Node, v: Node) -> List[Node]:
        """Dimension-order shortest path."""
        u = self.validate_node(u)
        v = self.validate_node(v)
        return mesh_route(u, v, self._sides)

    def diameter(self) -> int:
        """Sum of ``side - 1`` over all dimensions."""
        return sum(side - 1 for side in self._sides)

    # --------------------------------------------- paper dimension conventions
    def coordinate_of_dimension(self, paper_dim: int) -> int:
        """Tuple index of the paper's 1-based mesh dimension ``i``.

        The paper's dimension ``i`` (``1 <= i <= m``) has length ``l_i`` and is
        written *rightmost* for ``i = 1``; with the most-significant-first
        tuple used here it lives at tuple index ``m - i``.
        """
        if not (1 <= paper_dim <= self.ndim):
            raise InvalidParameterError(
                f"paper dimension must be in [1, {self.ndim}], got {paper_dim}"
            )
        return self.ndim - paper_dim

    # ------------------------------------------------------------------ dunder
    def __repr__(self) -> str:
        return f"Mesh(sides={self._sides})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mesh):
            return NotImplemented
        return self._sides == other._sides

    def __hash__(self) -> int:
        return hash(("Mesh", self._sides))


def paper_mesh(n: int) -> Mesh:
    """The paper's guest mesh ``D_n``: an ``(n-1)``-dimensional mesh of size ``2*3*...*n``.

    Side lengths are ``(n, n-1, ..., 3, 2)`` (most significant first), so the
    paper's dimension ``i`` (length ``i + 1``) is tuple index ``n - 1 - i``.

    >>> paper_mesh(4).sides
    (4, 3, 2)
    >>> paper_mesh(4).num_nodes
    24
    """
    check_positive_int(n, "n", minimum=2)
    return Mesh(tuple(range(n, 1, -1)))
