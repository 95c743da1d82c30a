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

:class:`StarGraph` is the star-tree member of the permutation Cayley family:
a :class:`~repro.topology.cayley.CayleyGraph` over
:func:`~repro.permutations.ranking.star_position_generators`, whose generator
``k`` (0-based) is the paper's ``g_{k+1}`` and is named ``"k+1"``.  Nodes,
ranks, neighbours and the adjacency source are inherited; this class adds
the closed forms and keeps the paper's **1-based** ``g_j`` as its public API
(:meth:`~StarGraph.neighbor_along`, :meth:`~StarGraph.generator_between`,
:meth:`~StarGraph.neighbor_ranks`).  Cayley-generic code uses only the
0-based indices: ``apply_generator(node, j - 1)`` and
``move_tables()[j - 1]`` are ``g_j``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.exceptions import InvalidParameterError
from repro.permutations.generators import apply_star_generator
from repro.permutations.ranking import move_tables, star_position_generators
from repro.topology.base import Node
from repro.topology.cayley import CayleyGraph
from repro.topology.routing import star_distance, star_distances_from, star_route
from repro.utils.validation import check_in_range, check_positive_int

__all__ = ["StarGraph"]


class StarGraph(CayleyGraph):
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
        super().__init__(
            n,
            star_position_generators(n),
            generator_names=tuple(str(j) for j in range(1, n)),
        )

    @property
    def paper_origin(self) -> Node:
        """The node the paper maps mesh node ``(0, ..., 0)`` to: ``(n-1, n-2, ..., 1, 0)``."""
        return tuple(range(self._n - 1, -1, -1))

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

    # ------------------------------------------------- paper's 1-based g_j
    def neighbor_along(self, node: Node, j: int) -> Node:
        """Apply generator ``g_j`` (exchange tuple positions 0 and ``j``).

        This is the paper's notation ``pi^(i)`` with the paper's right-based
        dimension ``i = n - 1 - j``.  ``j`` is 1-based; the 0-based
        Cayley-generic equivalent is ``apply_generator(node, j - 1)``.
        """
        node = self.validate_node(node)
        return apply_star_generator(node, j)

    def generator_between(self, u: Node, v: Node) -> int:
        """The 1-based generator index ``j`` with ``neighbor_along(u, j) == v``.

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

    def neighbor_ranks(self, index: int, j: int) -> int:
        """Rank of the neighbour of node *index* along generator ``g_j`` (1-based)."""
        check_in_range(j, "j", 1, self._n - 1)
        if not (0 <= index < self.num_nodes):
            raise InvalidParameterError(
                f"index must be in [0, {self.num_nodes}), got {index}"
            )
        return int(move_tables(self._n)[j - 1][index])

    # ------------------------------------------------------------- fast core
    def move_tables(self) -> Tuple:
        """The per-degree generator move tables (cached, shared across instances).

        ``move_tables()[j - 1][rank]`` is the rank of
        ``neighbor_along(node_from_index(rank), j)``.  Served from the
        unbounded per-degree :func:`repro.permutations.ranking.move_tables`
        cache rather than the LRU-bounded generic one, so the star's tables
        are built once per degree however many other generator sets churn.
        """
        return move_tables(self._n)

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

    def __repr__(self) -> str:
        return f"StarGraph(n={self._n})"
