"""The paper's embedding of the mesh ``D_n`` into the star graph ``S_n``.

This is the primary contribution of the paper (Section 3).  The vertex map is
given by two O(n^2) conversion procedures:

* :func:`convert_d_s` -- Figure 5's ``CONVERT-D-S``: mesh coordinate
  ``(d_{n-1}, ..., d_1)`` to star permutation ``(a_{n-1}, ..., a_0)``.
  Starting from the arrangement ``(n-1, n-2, ..., 1, 0)`` (the image of the
  mesh origin), each mesh dimension ``i`` contributes ``d_i`` adjacent-symbol
  exchanges ``(i-1, i), (i-2, i-1), ..., (i-d_i, i-d_i+1)`` (Table 1).
* :func:`convert_s_d` -- Figure 6's ``CONVERT-S-D``: the inverse.  Scanning
  the paper positions from ``n-1`` down to ``1``, the coordinate for
  dimension ``i`` is ``d_i = i - s`` where ``s`` is the symbol currently at
  paper position ``i``; the corresponding exchanges are then undone before
  moving to the next dimension.

Note on the paper's Figure 6 pseudocode: the in-place variant printed in the
technical report adjusts an auxiliary array with the condition ``q(j) >= i``;
tracing the paper's own worked example ``(0 2 1 3) -> (3, 1, 1)`` shows the
intended condition is "symbol greater than the displaced symbol", which is
what the arrangement-based implementation below (identical to the worked
example in the text) computes.  The property tests check that
:func:`convert_s_d` inverts :func:`convert_d_s` on every node for ``n <= 7``
and on random nodes for larger ``n``.

The edge-to-path map follows Lemma 2/Lemma 3: a mesh edge joins permutations
that differ by a *symbol* transposition, which is at star-distance 1 or 3; the
canonical 1- or 3-hop path of Lemma 2's proof is used
(:func:`repro.embedding.paths.transposition_path`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.embedding.base import Embedding
from repro.exceptions import InvalidNodeError, InvalidParameterError
from repro.permutations.permutation import is_permutation
from repro.topology.mesh import Mesh, paper_mesh
from repro.topology.star import StarGraph
from repro.utils.validation import check_in_range, check_positive_int, check_sequence_of_ints

__all__ = [
    "convert_d_s",
    "convert_s_d",
    "exchange_sequence",
    "mesh_neighbor_transposition",
    "MeshToStarEmbedding",
]

Node = Tuple[int, ...]


# --------------------------------------------------------------------- Table 1
def exchange_sequence(dimension: int, coordinate: int) -> List[Tuple[int, int]]:
    """The sequence of adjacent-symbol exchanges for one mesh dimension (Table 1).

    Moving from coordinate 0 to coordinate *coordinate* along the paper's mesh
    dimension *dimension* applies, in order, the symbol exchanges
    ``(dimension-1, dimension), (dimension-2, dimension-1), ...`` --
    *coordinate* of them.

    >>> exchange_sequence(3, 3)
    [(2, 3), (1, 2), (0, 1)]
    >>> exchange_sequence(2, 1)
    [(1, 2)]
    >>> exchange_sequence(1, 0)
    []
    """
    check_positive_int(dimension, "dimension", minimum=1)
    check_in_range(coordinate, "coordinate", 0, dimension)
    return [(dimension - j, dimension - j + 1) for j in range(1, coordinate + 1)]


# ----------------------------------------------------------------- CONVERT-D-S
def convert_d_s(coords: Sequence[int], n: int) -> Node:
    """Map a mesh node of ``D_n`` to its star-graph permutation (Figure 5).

    Parameters
    ----------
    coords:
        The mesh coordinates ``(d_{n-1}, d_{n-2}, ..., d_1)`` -- most
        significant (length-``n``) dimension first, exactly as the paper
        writes them.  ``0 <= d_i <= i`` is required.
    n:
        Degree of the star graph; ``len(coords) == n - 1``.

    Returns
    -------
    tuple
        The permutation ``(a_{n-1}, ..., a_0)`` written leftmost-symbol first.

    Examples
    --------
    >>> convert_d_s((0, 0, 0), 4)
    (3, 2, 1, 0)
    >>> convert_d_s((3, 0, 1), 4)
    (0, 3, 1, 2)
    """
    check_positive_int(n, "n", minimum=2)
    coords = check_sequence_of_ints(coords, "coords")
    if len(coords) != n - 1:
        raise InvalidParameterError(
            f"coords must have length n-1 = {n - 1}, got {len(coords)}"
        )
    # coords[0] is d_{n-1}; the coordinate of paper dimension i is coords[n-1-i].
    for i in range(1, n):
        d_i = coords[n - 1 - i]
        if not (0 <= d_i <= i):
            raise InvalidParameterError(
                f"coordinate for dimension {i} must be in [0, {i}], got {d_i}"
            )
    return _convert_d_s_unchecked(coords, n)


def _convert_d_s_unchecked(coords: Sequence[int], n: int) -> Node:
    """CONVERT-D-S on known-valid coordinates (bulk vertex-map fast path).

    Symbols are ``0..n-1``, so the position table is a plain list instead of a
    dictionary; the adjacent exchanges of Table 1 are applied inline.
    """
    # Arrangement written leftmost first; start at the image of the mesh origin.
    arrangement = list(range(n - 1, -1, -1))
    position_of = list(range(n - 1, -1, -1))  # position_of[symbol]

    for i in range(1, n):
        d_i = coords[n - 1 - i]
        # exchange_sequence(i, d_i): (i-1, i), (i-2, i-1), ..., d_i exchanges.
        for j in range(1, d_i + 1):
            a = i - j
            b = a + 1
            pa, pb = position_of[a], position_of[b]
            arrangement[pa], arrangement[pb] = b, a
            position_of[a], position_of[b] = pb, pa
    return tuple(arrangement)


# ----------------------------------------------------------------- CONVERT-S-D
def convert_s_d(perm: Sequence[int], n: Optional[int] = None) -> Node:
    """Map a star-graph permutation back to its mesh coordinates (Figure 6).

    Parameters
    ----------
    perm:
        The permutation ``(a_{n-1}, ..., a_0)``, leftmost symbol first.
    n:
        Optional degree; defaults to ``len(perm)`` and must match it.

    Returns
    -------
    tuple
        The mesh coordinates ``(d_{n-1}, ..., d_1)``.

    Examples
    --------
    >>> convert_s_d((3, 2, 1, 0))
    (0, 0, 0)
    >>> convert_s_d((0, 2, 1, 3))
    (3, 1, 1)
    """
    perm = tuple(perm)
    if n is None:
        n = len(perm)
    check_positive_int(n, "n", minimum=2)
    if len(perm) != n:
        raise InvalidParameterError(f"perm must have length n = {n}, got {len(perm)}")
    if not is_permutation(perm):
        raise InvalidParameterError(f"{perm!r} is not a permutation of 0..{n - 1}")

    arrangement = list(perm)
    position_of = {symbol: index for index, symbol in enumerate(arrangement)}

    def swap_symbols(a: int, b: int) -> None:
        pa, pb = position_of[a], position_of[b]
        arrangement[pa], arrangement[pb] = arrangement[pb], arrangement[pa]
        position_of[a], position_of[b] = pb, pa

    coords = [0] * (n - 1)
    for i in range(n - 1, 0, -1):
        # Paper position i is tuple index n - 1 - i.
        symbol_here = arrangement[n - 1 - i]
        d_i = i - symbol_here
        coords[n - 1 - i] = d_i
        # Undo the dimension-i exchanges: (s, s+1), (s+1, s+2), ..., (i-1, i)
        # restores symbol i to paper position i.
        for t in range(symbol_here, i):
            swap_symbols(t, t + 1)
    return tuple(coords)


# --------------------------------------------------------------------- Lemma 3
def mesh_neighbor_transposition(
    coords: Sequence[int], n: int, dimension: int, delta: int
) -> Tuple[int, int]:
    """The symbol transposition realising one mesh step (Lemma 3).

    For the mesh node *coords* of ``D_n`` mapped to permutation ``pi``, the
    neighbour obtained by moving ``delta`` (+1 or -1) along the paper's
    dimension *dimension* is ``pi`` with two *symbols* exchanged:

    * for ``delta = +1``: the symbol ``a_k`` at paper position ``k`` and the
      largest symbol smaller than ``a_k`` appearing to its right;
    * for ``delta = -1``: ``a_k`` and the smallest symbol greater than ``a_k``
      appearing to its right.

    Returns the pair of symbols ``(a_k, partner)``.

    Raises
    ------
    InvalidParameterError
        If the requested neighbour does not exist (coordinate would leave the
        mesh) or the arguments are malformed.
    """
    check_positive_int(n, "n", minimum=2)
    check_in_range(dimension, "dimension", 1, n - 1)
    if delta not in (+1, -1):
        raise InvalidParameterError(f"delta must be +1 or -1, got {delta}")
    coords = check_sequence_of_ints(coords, "coords")
    d_k = coords[n - 1 - dimension]
    new_value = d_k + delta
    if not (0 <= new_value <= dimension):
        raise InvalidParameterError(
            f"mesh node {coords!r} has no neighbour at dimension {dimension} delta {delta}"
        )
    perm = convert_d_s(coords, n)
    k_index = n - 1 - dimension          # tuple index of paper position k
    a_k = perm[k_index]
    right_symbols = perm[k_index + 1 :]  # paper positions k-1 .. 0
    if delta == +1:
        candidates = [s for s in right_symbols if s < a_k]
        if not candidates:
            raise InvalidParameterError(
                f"Lemma 3 precondition violated at {coords!r}, dimension {dimension}"
            )
        partner = max(candidates)
    else:
        candidates = [s for s in right_symbols if s > a_k]
        if not candidates:
            raise InvalidParameterError(
                f"Lemma 3 precondition violated at {coords!r}, dimension {dimension}"
            )
        partner = min(candidates)
    return a_k, partner


# ------------------------------------------------------------------ the object
class MeshToStarEmbedding(Embedding):
    """The dilation-3, expansion-1 embedding of ``D_n`` into ``S_n`` (Theorem 4).

    The guest graph is :func:`repro.topology.mesh.paper_mesh` (side lengths
    ``n, n-1, ..., 2``), the host graph is :class:`repro.topology.star.StarGraph`.
    The vertex map is :func:`convert_d_s`; each mesh edge is mapped to the
    canonical 1- or 3-hop path of Lemma 2.

    Examples
    --------
    >>> emb = MeshToStarEmbedding(4)
    >>> emb.map_node((0, 0, 0))
    (3, 2, 1, 0)
    >>> emb.inverse((0, 3, 1, 2))
    (3, 0, 1)
    """

    def __init__(self, n: int):
        check_positive_int(n, "n", minimum=2)
        self._n = n
        guest = paper_mesh(n)
        host = StarGraph(n)
        super().__init__(
            guest,
            host,
            vertex_map=lambda coords: convert_d_s(coords, n),
            edge_path=self._edge_path,
            name=f"mesh-to-star(n={n})",
        )

    # ------------------------------------------------------------ properties
    @property
    def n(self) -> int:
        """Degree of the star graph / number of mesh dimensions plus one."""
        return self._n

    @property
    def shortest_path_routed(self) -> bool:
        """Lemma 2: the canonical 1- and 3-hop paths are shortest star paths."""
        return True

    @property
    def mesh(self) -> Mesh:
        """The guest mesh ``D_n``."""
        return self.guest  # type: ignore[return-value]

    @property
    def star(self) -> StarGraph:
        """The host star graph ``S_n``."""
        return self.host  # type: ignore[return-value]

    # ------------------------------------------------------------------- maps
    def rank_vertex_map(self):
        """The whole vertex map as ranks: entry ``m`` is the lexicographic
        rank of the host image of the mesh node with row-major index ``m``.

        Built once per instance (CONVERT-D-S over every mesh node, then one
        batched :func:`repro.permutations.ranking.ranks_of` call) and cached;
        this is the substrate of the vectorised embedding measurement in
        :mod:`repro.embedding.metrics`.  A read-only NumPy ``int64`` array.
        """
        cached = getattr(self, "_cached_rank_vertex_map", None)
        if cached is None:
            from repro.permutations.ranking import ranks_of

            n = self._n
            rows = [_convert_d_s_unchecked(coords, n) for coords in self.guest.nodes()]
            cached = ranks_of(rows)
            cached.setflags(write=False)
            setattr(self, "_cached_rank_vertex_map", cached)
        return cached

    def _edge_path(self, u: Node, v: Node) -> List[Node]:
        from repro.embedding.paths import mesh_edge_path

        return mesh_edge_path(self, u, v)

    def edge_transposition(self, u: Node, v: Node) -> Tuple[int, int]:
        """The symbol pair exchanged between the images of adjacent mesh nodes."""
        u = self.guest.validate_node(u)
        v = self.guest.validate_node(v)
        diffs = [
            (index, v[index] - u[index]) for index in range(len(u)) if u[index] != v[index]
        ]
        if len(diffs) != 1 or abs(diffs[0][1]) != 1:
            raise InvalidNodeError(f"({u!r}, {v!r}) is not a mesh edge")
        index, delta = diffs[0]
        dimension = self._n - 1 - index
        return mesh_neighbor_transposition(u, self._n, dimension, delta)
