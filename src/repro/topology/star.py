"""The star graph ``S_n`` (Akers, Harel & Krishnamurthy 1987).

``S_n`` has ``n!`` nodes, one per permutation of the symbols ``0..n-1``.  Two
permutations are adjacent when one is obtained from the other by exchanging
the symbol in tuple position 0 (the paper's leftmost symbol) with the symbol
in any other position; hence every node has degree ``n - 1``.

Key closed-form properties used by the paper (Section 2):

* diameter ``floor(3 (n - 1) / 2)``;
* the graph is vertex symmetric and maximally fault tolerant (connectivity
  equals the degree ``n - 1``);
* the distance between two permutations has a closed form in terms of the
  cycle structure of their relative permutation (implemented in
  :meth:`StarGraph.distance`, cross-checked against BFS in the tests).
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence, Tuple

from repro.exceptions import InvalidParameterError
from repro.permutations.generators import apply_star_generator, star_neighbors
from repro.permutations.permutation import identity_permutation, is_permutation
from repro.permutations.ranking import (
    all_permutations,
    move_tables,
    permutation_rank,
    permutation_unrank,
)
from repro.topology.base import Node, Topology, _column_stack
from repro.topology.routing import star_distance, star_distances_from, star_route
from repro.utils.validation import check_in_range, check_positive_int

__all__ = ["StarGraph"]


class StarGraph(Topology):
    """The ``n``-star graph ``S_n`` on ``n!`` permutation nodes.

    Parameters
    ----------
    n:
        Degree parameter; the graph has ``n!`` nodes each of degree ``n - 1``.
        ``n >= 2`` is required (``S_1`` would be a single node with no edges
        and is rejected to avoid degenerate cases in the embedding layer).

    Examples
    --------
    >>> s4 = StarGraph(4)
    >>> s4.num_nodes
    24
    >>> s4.degree((3, 2, 1, 0))
    3
    >>> s4.diameter()
    4
    """

    def __init__(self, n: int):
        check_positive_int(n, "n", minimum=2)
        self._n = n

    # ------------------------------------------------------------ properties
    @property
    def n(self) -> int:
        """The degree parameter ``n`` (number of symbols)."""
        return self._n

    @property
    def num_nodes(self) -> int:
        """``n!`` nodes."""
        return math.factorial(self._n)

    @property
    def node_degree(self) -> int:
        """Every node has degree ``n - 1`` (the graph is regular)."""
        return self._n - 1

    @property
    def identity(self) -> Node:
        """The identity permutation, the conventional 'origin' node."""
        return identity_permutation(self._n)

    @property
    def paper_origin(self) -> Node:
        """The node the paper maps mesh node ``(0, ..., 0)`` to: ``(n-1, n-2, ..., 1, 0)``."""
        return tuple(range(self._n - 1, -1, -1))

    # -------------------------------------------------------------- structure
    def nodes(self) -> Iterator[Node]:
        """All permutations of ``0..n-1`` in lexicographic order."""
        return all_permutations(self._n)

    def is_node(self, node: Sequence[int]) -> bool:
        node = tuple(node)
        return len(node) == self._n and is_permutation(node)

    def neighbors(self, node: Node) -> List[Node]:
        """The ``n - 1`` nodes reachable by one generator move (g_1 .. g_{n-1})."""
        node = self.validate_node(node)
        return star_neighbors(node)

    def _adjacent(self, u: Node, v: Node) -> bool:
        """Closed form: adjacent iff the tuples differ exactly at positions 0
        and some ``j`` with the two symbols exchanged (no neighbour list)."""
        if u[0] == v[0]:
            return False
        j = 0
        for p in range(1, self._n):
            if u[p] != v[p]:
                if j:
                    return False
                j = p
        return j != 0 and u[0] == v[j] and v[0] == u[j]

    def neighbor_along(self, node: Node, j: int) -> Node:
        """Apply generator ``g_j`` (exchange tuple positions 0 and ``j``).

        This is the paper's notation ``pi^(i)`` with the paper's right-based
        dimension ``i = n - 1 - j``.
        """
        node = self.validate_node(node)
        return apply_star_generator(node, j)

    def generator_between(self, u: Node, v: Node) -> int:
        """The generator index ``j`` with ``neighbor_along(u, j) == v``.

        Adjacent nodes differ exactly at tuple positions 0 and ``j`` with the
        two symbols exchanged, so ``j`` is simply the position in *u* of *v*'s
        front symbol -- no generator applications needed.

        Raises
        ------
        InvalidParameterError
            If *u* and *v* are not adjacent.
        """
        u = self.validate_node(u)
        v = self.validate_node(v)
        if u[0] != v[0]:
            j = u.index(v[0])
            if (
                v[j] == u[0]
                and all(u[i] == v[i] for i in range(1, self._n) if i != j)
            ):
                return j
        raise InvalidParameterError(f"{u!r} and {v!r} are not adjacent in S_{self._n}")

    @property
    def num_edges(self) -> int:
        """``n! * (n - 1) / 2`` edges."""
        return math.factorial(self._n) * (self._n - 1) // 2

    # --------------------------------------------------------------- indexing
    def node_index(self, node: Node) -> int:
        """Dense id: the lexicographic rank of the permutation (Lehmer code)."""
        node = self.validate_node(node)
        return permutation_rank(node)

    def node_from_index(self, index: int) -> Node:
        """Inverse of :meth:`node_index` (lexicographic unranking)."""
        if not (0 <= index < self.num_nodes):
            raise InvalidParameterError(
                f"index must be in [0, {self.num_nodes}), got {index}"
            )
        return permutation_unrank(index, self._n)

    # ------------------------------------------------------------- fast core
    def _build_neighbor_index_table(self):
        """Closed-form adjacency index: the generator move tables as columns.

        Column ``j - 1`` of the ``(n!, n - 1)`` table is ``move_tables()[j-1]``,
        so row ``rank`` lists the neighbour ranks along ``g_1 .. g_{n-1}`` --
        exactly the order of :meth:`neighbors`.  The graph is regular, so no
        ``-1`` padding ever appears.
        """
        return _column_stack(move_tables(self._n))

    def move_tables(self) -> Tuple:
        """The per-degree generator move tables (cached, shared across instances).

        ``move_tables()[j - 1][rank]`` is the rank of
        ``neighbor_along(node_from_index(rank), j)``; see
        :func:`repro.permutations.ranking.move_tables`.
        """
        return move_tables(self._n)

    def neighbor_source(self):
        """Adjacency source chosen by the degree.

        The cached table through the table degrees, the table-free implicit
        source (``unrank -> g_j -> rank``) beyond them; see
        :func:`repro.topology.routing.permutation_neighbor_source`.
        """
        from repro.permutations.ranking import star_position_generators
        from repro.topology.routing import permutation_neighbor_source

        return permutation_neighbor_source(
            star_position_generators(self._n), self._n, self.neighbor_index_table
        )

    def neighbor_ranks(self, index: int, j: int) -> int:
        """Rank of the neighbour of node *index* along generator ``g_j``."""
        check_in_range(j, "j", 1, self._n - 1)
        if not (0 <= index < self.num_nodes):
            raise InvalidParameterError(
                f"index must be in [0, {self.num_nodes}), got {index}"
            )
        return int(move_tables(self._n)[j - 1][index])

    def distances_from(self, origin: Node):
        """Distances from *origin* to every node, indexed by rank.

        One vectorised sweep of the cycle-structure closed form over all
        ``n!`` nodes; entry ``r`` equals ``distance(origin, node_from_index(r))``.
        Returns a NumPy ``int64`` array.
        """
        origin = self.validate_node(origin)
        return star_distances_from(origin)

    # ------------------------------------------------------------------ metric
    def distance(self, u: Node, v: Node) -> int:
        """Shortest-path length via the cycle-structure closed form."""
        u = self.validate_node(u)
        v = self.validate_node(v)
        return star_distance(u, v)

    def shortest_path(self, u: Node, v: Node) -> List[Node]:
        """A shortest path computed by greedy cycle routing (see :func:`star_route`)."""
        u = self.validate_node(u)
        v = self.validate_node(v)
        return star_route(u, v)

    def diameter(self) -> int:
        """Closed form ``floor(3 (n - 1) / 2)`` from Akers & Krishnamurthy."""
        return (3 * (self._n - 1)) // 2

    def eccentricity(self, node: Node) -> int:
        """Every node has eccentricity equal to the diameter (vertex symmetry)."""
        self.validate_node(node)
        return self.diameter()

    # ------------------------------------------------------------------ dunder
    def __repr__(self) -> str:
        return f"StarGraph(n={self._n})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StarGraph):
            return NotImplemented
        return self._n == other._n

    def __hash__(self) -> int:
        return hash(("StarGraph", self._n))
