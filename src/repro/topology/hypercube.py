"""The binary hypercube ``Q_n``.

The hypercube is the network the star graph is positioned against in the
paper's introduction (and in Akers, Harel & Krishnamurthy 1987): for degree
``n`` it connects only ``2**n`` nodes whereas a star graph of the same degree
connects ``(n + 1)!``.  The class exists so the comparison tables and the
Gray-code mesh-embedding baseline can be computed against a real
implementation rather than quoted formulas.

Nodes are bit tuples ``(b_0, ..., b_{n-1})``; two nodes are adjacent when they
differ in exactly one bit.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.topology.base import Node, Topology
from repro.topology.routing import hypercube_distance, hypercube_route
from repro.utils.validation import check_positive_int

__all__ = ["Hypercube"]


class Hypercube(Topology):
    """The ``n``-dimensional binary hypercube ``Q_n`` on ``2**n`` nodes.

    Examples
    --------
    >>> q3 = Hypercube(3)
    >>> q3.num_nodes
    8
    >>> q3.degree((0, 0, 0))
    3
    >>> q3.diameter()
    3
    """

    def __init__(self, n: int):
        check_positive_int(n, "n", minimum=1)
        self._n = n

    # ------------------------------------------------------------ properties
    @property
    def n(self) -> int:
        """Number of dimensions (= degree of every node)."""
        return self._n

    @property
    def num_nodes(self) -> int:
        """``2**n`` nodes."""
        return 1 << self._n

    @property
    def node_degree(self) -> int:
        """Every node has degree ``n``."""
        return self._n

    # -------------------------------------------------------------- structure
    def nodes(self) -> Iterator[Node]:
        """All bit tuples in increasing binary order (bit 0 is the least significant)."""
        for value in range(self.num_nodes):
            yield self.node_from_index(value)

    def is_node(self, node: Sequence[int]) -> bool:
        node = tuple(node)
        return len(node) == self._n and all(bit in (0, 1) for bit in node)

    def neighbors(self, node: Node) -> List[Node]:
        """Flip each bit in turn."""
        node = self.validate_node(node)
        result: List[Node] = []
        for dim in range(self._n):
            bits = list(node)
            bits[dim] ^= 1
            result.append(tuple(bits))
        return result

    def neighbor_along(self, node: Node, dim: int) -> Node:
        """The neighbour across dimension *dim* (flip bit *dim*)."""
        node = self.validate_node(node)
        if not (0 <= dim < self._n):
            raise InvalidParameterError(f"dimension must be in [0, {self._n - 1}], got {dim}")
        bits = list(node)
        bits[dim] ^= 1
        return tuple(bits)

    def _adjacent(self, u: Node, v: Node) -> bool:
        """Closed form: Hamming distance 1."""
        return sum(a != b for a, b in zip(u, v)) == 1

    @property
    def num_edges(self) -> int:
        """``n * 2**(n-1)`` edges."""
        return self._n * (1 << (self._n - 1))

    # -------------------------------------------------------- adjacency index
    def _build_neighbor_index_table(self):
        """Closed-form adjacency index: column ``dim`` is ``index XOR 2**dim``.

        Matches the :meth:`neighbors` order (flip bit 0, bit 1, ...); the
        graph is regular so no padding appears.
        """
        indices = np.arange(self.num_nodes, dtype=np.int64)
        table = np.stack([indices ^ (1 << dim) for dim in range(self._n)], axis=1)
        table.setflags(write=False)
        return table

    # --------------------------------------------------------------- indexing
    def node_index(self, node: Node) -> int:
        """Binary value of the bit tuple (bit 0 least significant)."""
        node = self.validate_node(node)
        return sum(bit << dim for dim, bit in enumerate(node))

    def node_from_index(self, index: int) -> Node:
        """Inverse of :meth:`node_index`."""
        if not (0 <= index < self.num_nodes):
            raise InvalidParameterError(
                f"index must be in [0, {self.num_nodes}), got {index}"
            )
        return tuple((index >> dim) & 1 for dim in range(self._n))

    # ------------------------------------------------------------------ metric
    def distance(self, u: Node, v: Node) -> int:
        """Hamming distance."""
        u = self.validate_node(u)
        v = self.validate_node(v)
        return hypercube_distance(u, v)

    def shortest_path(self, u: Node, v: Node) -> List[Node]:
        """E-cube shortest path."""
        u = self.validate_node(u)
        v = self.validate_node(v)
        return hypercube_route(u, v)

    def diameter(self) -> int:
        """The diameter equals ``n``."""
        return self._n

    def eccentricity(self, node: Node) -> int:
        """Every node has eccentricity ``n`` (vertex symmetry)."""
        self.validate_node(node)
        return self._n

    # ------------------------------------------------------------------ dunder
    def __repr__(self) -> str:
        return f"Hypercube(n={self._n})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypercube):
            return NotImplemented
        return self._n == other._n

    def __hash__(self) -> int:
        return hash(("Hypercube", self._n))
