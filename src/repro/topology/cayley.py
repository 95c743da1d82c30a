"""Generic Cayley networks over the symmetric group ``S_n``.

The paper's star graph is one member of the family Akers & Krishnamurthy
proposed as hypercube alternatives: Cayley graphs whose vertices are the
``n!`` permutations of ``0..n-1`` and whose edges apply a fixed set of
*generators*.  This module turns the whole family into data: a
:class:`CayleyGraph` is parameterized by a tuple of involution *position
permutations* and every rank-indexed service of the star fast core (generator
move tables, the dense adjacency index, the BFS/connectivity sweeps in
:mod:`repro.topology.routing`) applies unchanged, because all of them consume
only ``move_tables_for(generators, n)``.

Concrete families:

* :class:`PancakeGraph` -- generators are the prefix reversals
  ``r_2 .. r_n`` (flip the first ``k`` symbols); degree ``n - 1``; no
  closed-form diameter is known (the "pancake numbers").
* :class:`TranspositionCayleyGraph` -- generators exchange two fixed tuple
  positions; any set of position pairs.
* :class:`TranspositionTreeGraph` -- a transposition set forming a spanning
  tree of the positions (the classic guarantee of connectivity);
  :meth:`TranspositionTreeGraph.star` is the star graph's tree (position 0
  joined to every other) and :meth:`TranspositionTreeGraph.path` the
  bubble-sort tree.
* :class:`BubbleSortGraph` -- the path-tree instance, with the Kendall-tau
  (inversion) closed form for distances and the ``n(n-1)/2`` diameter.

:class:`~repro.topology.star.StarGraph` is the star-tree member as a
subclass: it adds the cycle-structure closed forms (distances, greedy
routing) on top of this class.  Generator indices here are **0-based**
(:meth:`CayleyGraph.apply_generator`, ``move_tables()[g]``,
:meth:`repro.simd.cayley_machine.CayleyMachine.route_generator`); only
``StarGraph``/``StarMachine`` keep the paper's 1-based ``g_j`` as public API,
so generic code must never call their ``neighbor_along``.
:meth:`TranspositionTreeGraph.star` stays as the named parity oracle the
star graph is compared against (same nodes, neighbour order and move tables
bit for bit).
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import InvalidParameterError
from repro.permutations.permutation import identity_permutation, is_permutation
from repro.permutations.ranking import (
    all_permutations,
    inversion_count,
    move_tables_for,
    permutation_rank,
    permutation_unrank,
)
from repro.topology.base import Node, Topology, _column_stack
from repro.utils.validation import check_in_range, check_positive_int

__all__ = [
    "CayleyGraph",
    "PancakeGraph",
    "TranspositionCayleyGraph",
    "TranspositionTreeGraph",
    "BubbleSortGraph",
    "prefix_reversal_generators",
    "transposition_generators",
    "bubble_sort_distance",
]

Generator = Tuple[int, ...]


def prefix_reversal_generators(n: int) -> Tuple[Generator, ...]:
    """The pancake generators ``r_2 .. r_n`` as position permutations.

    ``r_k`` reverses tuple positions ``0 .. k-1`` (flips the top ``k``
    pancakes) and fixes the rest; every ``r_k`` is an involution.

    Parameters
    ----------
    n : int
        Degree (number of symbols), at least 2.

    Returns
    -------
    tuple of tuple of int
        The ``n - 1`` reversal position permutations, ``r_2`` first.

    Examples
    --------
    >>> prefix_reversal_generators(3)
    ((1, 0, 2), (2, 1, 0))
    """
    check_positive_int(n, "n", minimum=2)
    return tuple(
        tuple(range(k - 1, -1, -1)) + tuple(range(k, n)) for k in range(2, n + 1)
    )


def transposition_generators(
    n: int, transpositions: Sequence[Tuple[int, int]]
) -> Tuple[Generator, ...]:
    """Position-exchange generators for a set of position pairs.

    Each ``(a, b)`` becomes the involution exchanging tuple positions ``a``
    and ``b``; pairs are validated (distinct positions in range, no duplicate
    pairs) but *not* required to connect the positions -- see
    :class:`TranspositionTreeGraph` for the connected (tree) case.

    Parameters
    ----------
    n : int
        Degree (number of symbols), at least 2.
    transpositions : sequence of (int, int)
        Position pairs, each with two distinct positions in ``0 .. n-1``.

    Returns
    -------
    tuple of tuple of int
        One involution position permutation per pair, in input order.

    Raises
    ------
    InvalidParameterError
        If a pair repeats a position, duplicates another pair, or the
        sequence is empty.
    """
    check_positive_int(n, "n", minimum=2)
    generators: List[Generator] = []
    seen = set()
    for pair in transpositions:
        a, b = pair
        check_in_range(a, "transposition position", 0, n - 1)
        check_in_range(b, "transposition position", 0, n - 1)
        if a == b:
            raise InvalidParameterError(f"transposition {pair!r} repeats a position")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise InvalidParameterError(f"duplicate transposition {pair!r}")
        seen.add(key)
        values = list(range(n))
        values[a], values[b] = values[b], values[a]
        generators.append(tuple(values))
    if not generators:
        raise InvalidParameterError("at least one transposition is required")
    return tuple(generators)


def bubble_sort_distance(source: Sequence[int], target: Sequence[int]) -> int:
    """Kendall-tau distance: minimum adjacent-position exchanges from *source* to *target*.

    Relabel each symbol by its position in *target*; the answer is the number
    of inversions of the relabelled *source* (sorting by adjacent swaps),
    counted by the fast-core Lehmer helper
    :func:`repro.permutations.ranking.inversion_count`.  Cross-checked
    against BFS and the networkx oracle in the tests.

    Parameters
    ----------
    source, target : sequence of int
        Permutations of ``0 .. n-1`` of equal degree.

    Returns
    -------
    int
        The Kendall-tau (inversion) distance.

    Raises
    ------
    InvalidParameterError
        If the sequences differ in degree or are not permutations.
    """
    source = tuple(source)
    target = tuple(target)
    if len(source) != len(target):
        raise InvalidParameterError("source and target must have the same degree")
    if not is_permutation(source) or not is_permutation(target):
        raise InvalidParameterError("source and target must be permutations")
    position = {symbol: p for p, symbol in enumerate(target)}
    return inversion_count([position[symbol] for symbol in source])


class CayleyGraph(Topology):
    """A Cayley graph of ``S_n`` for a set of involution generators.

    Nodes are the permutations of ``0..n-1`` (dense id = Lehmer rank, exactly
    as in :class:`~repro.topology.star.StarGraph`); node ``pi`` is adjacent to
    ``tuple(pi[g[p]] for p in range(n))`` for every generator ``g``.  Because
    the generators are involutions the graph is undirected, and every
    generator's move table is a perfect matching of the nodes -- the
    invariant :meth:`repro.simd.cayley_machine.CayleyMachine.route_generator`
    turns into a single whole-register gather.

    Parameters
    ----------
    n : int
        Degree (number of symbols); the graph has ``n!`` nodes.
    generators : sequence of tuple of int
        Distinct non-identity involution position permutations.
    generator_names : sequence of str, optional
        Short labels (ledger labels, table headers); defaults to
        ``g0, g1, ...``.

    Notes
    -----
    The graph is connected iff the generators generate ``S_n`` (for
    transposition sets: iff the position pairs connect all positions).
    """

    def __init__(
        self,
        n: int,
        generators: Sequence[Generator],
        *,
        generator_names: Optional[Sequence[str]] = None,
    ):
        check_positive_int(n, "n", minimum=2)
        self._n = n
        self._generators = tuple(tuple(generator) for generator in generators)
        # Delegate structural validation (involution, non-identity, distinct)
        # to the table builder's checker so graph and tables can never
        # disagree about what a legal generator set is.
        from repro.permutations.ranking import _check_generators

        _check_generators(self._generators, n)
        if generator_names is None:
            generator_names = tuple(f"g{i}" for i in range(len(self._generators)))
        else:
            generator_names = tuple(generator_names)
            if len(generator_names) != len(self._generators):
                raise InvalidParameterError(
                    "generator_names must match the number of generators"
                )
        self._generator_names = generator_names
        self._generator_index = {
            generator: i for i, generator in enumerate(self._generators)
        }
        # One C-level gather per generator: ``neighbors()`` is the tuple
        # hot path of every dict walk and reference oracle.
        self._neighbor_getters = tuple(itemgetter(*g) for g in self._generators)

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
    def generators(self) -> Tuple[Generator, ...]:
        """The generator set, as position permutations, in table order."""
        return self._generators

    @property
    def generator_names(self) -> Tuple[str, ...]:
        """Short labels for the generators (ledger labels, table headers)."""
        return self._generator_names

    @property
    def num_generators(self) -> int:
        """Number of generators (= the degree of every node)."""
        return len(self._generators)

    @property
    def node_degree(self) -> int:
        """Every node has one neighbour per generator (the graph is regular)."""
        return len(self._generators)

    @property
    def identity(self) -> Node:
        """The identity permutation, the conventional 'origin' node."""
        return identity_permutation(self._n)

    # -------------------------------------------------------------- structure
    def nodes(self) -> Iterator[Node]:
        """All permutations of ``0..n-1`` in lexicographic (rank) order."""
        return all_permutations(self._n)

    def is_node(self, node: Sequence[int]) -> bool:
        node = tuple(node)
        return len(node) == self._n and is_permutation(node)

    def apply_generator(self, node: Node, generator: int) -> Node:
        """Apply one generator to a node.

        Parameters
        ----------
        node : tuple of int
            A permutation node of the graph.
        generator : int
            0-based generator (table) index.

        Returns
        -------
        tuple of int
            The neighbour ``tuple(node[g[p]] for p in range(n))``.
        """
        check_in_range(generator, "generator", 0, len(self._generators) - 1)
        node = self.validate_node(node)
        g = self._generators[generator]
        return tuple(node[p] for p in g)

    def neighbor_along(self, node: Node, generator: int) -> Node:
        """Alias of :meth:`apply_generator` (the edge along one generator)."""
        return self.apply_generator(node, generator)

    def neighbors(self, node: Node) -> List[Node]:
        """One neighbour per generator, in generator (table-column) order."""
        node = self.validate_node(node)
        return [get(node) for get in self._neighbor_getters]

    def _relative_generator(self, u: Node, v: Node) -> Optional[Generator]:
        """The position permutation ``g`` with ``v = u o g``, if it is a generator."""
        position = {symbol: p for p, symbol in enumerate(u)}
        g = tuple(position[symbol] for symbol in v)
        return g if g in self._generator_index else None

    def _adjacent(self, u: Node, v: Node) -> bool:
        """Closed form: the relative position permutation is a generator."""
        if u == v:
            return False
        return self._relative_generator(u, v) is not None

    def generator_between(self, u: Node, v: Node) -> int:
        """The 0-based generator index ``g`` with ``neighbor_along(u, g) == v``.

        Parameters
        ----------
        u, v : tuple of int
            Adjacent permutation nodes.

        Returns
        -------
        int
            The generator index connecting them.

        Raises
        ------
        InvalidParameterError
            If *u* and *v* are not adjacent.
        """
        u = self.validate_node(u)
        v = self.validate_node(v)
        if u != v:
            g = self._relative_generator(u, v)
            if g is not None:
                return self._generator_index[g]
        raise InvalidParameterError(f"{u!r} and {v!r} are not adjacent in {self!r}")

    @property
    def num_edges(self) -> int:
        """``n! * num_generators / 2`` edges (regular, no multi-edges)."""
        return math.factorial(self._n) * len(self._generators) // 2

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
    def move_tables(self) -> Tuple:
        """Per-generator move tables (cached per generator set, shared).

        ``move_tables()[g][rank]`` is the rank of
        ``neighbor_along(node_from_index(rank), g)``; see
        :func:`repro.permutations.ranking.move_tables_for`.
        """
        return move_tables_for(self._generators, self._n)

    def neighbor_source(self):
        """Adjacency source chosen by the degree.

        The cached table through the table degrees, the table-free implicit
        source (``unrank -> generator -> rank``) beyond them; see
        :func:`repro.topology.routing.permutation_neighbor_source`.
        """
        from repro.topology.routing import permutation_neighbor_source

        return permutation_neighbor_source(
            self._generators, self._n, self.neighbor_index_table
        )

    def neighbor_ranks(self, index: int, generator: int) -> int:
        """Rank of the neighbour of node *index* along one generator.

        Parameters
        ----------
        index : int
            Dense node id (Lehmer rank) in ``0 .. n!-1``.
        generator : int
            0-based generator (table) index.

        Returns
        -------
        int
            The neighbour's rank, read from the cached move table.
        """
        check_in_range(generator, "generator", 0, len(self._generators) - 1)
        if not (0 <= index < self.num_nodes):
            raise InvalidParameterError(
                f"index must be in [0, {self.num_nodes}), got {index}"
            )
        return int(self.move_tables()[generator][index])

    def _build_neighbor_index_table(self):
        """Closed-form adjacency index: the generator move tables as columns.

        Column ``g`` of the ``(n!, num_generators)`` table is
        ``move_tables()[g]``, exactly the order of :meth:`neighbors`; the
        graph is regular, so no ``-1`` padding ever appears.
        """
        return _column_stack(self.move_tables())

    # ------------------------------------------------------------------ dunder
    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self._n}, "
            f"generators={self._generator_names!r})"
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._n == other._n and self._generators == other._generators

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._n, self._generators))


class PancakeGraph(CayleyGraph):
    """The pancake network ``P_n``: prefix reversals on ``n!`` permutation nodes.

    Degree ``n - 1`` (reversals ``r_2 .. r_n``), the same vertex set and
    degree as the star graph ``S_n``; no closed-form diameter is known (see
    :data:`repro.analysis.bounds.KNOWN_PANCAKE_DIAMETERS`).

    Examples
    --------
    >>> p4 = PancakeGraph(4)
    >>> p4.num_nodes
    24
    >>> p4.neighbors((0, 1, 2, 3))
    [(1, 0, 2, 3), (2, 1, 0, 3), (3, 2, 1, 0)]
    """

    def __init__(self, n: int):
        super().__init__(
            n,
            prefix_reversal_generators(n),
            generator_names=tuple(f"r{k}" for k in range(2, n + 1)),
        )

    def __repr__(self) -> str:
        return f"PancakeGraph(n={self._n})"


class TranspositionCayleyGraph(CayleyGraph):
    """Cayley graph whose generators exchange fixed pairs of tuple positions.

    *transpositions* is a sequence of position pairs ``(a, b)``; the graph is
    connected iff the pairs connect all ``n`` positions (see
    :class:`TranspositionTreeGraph` for the validated tree case).
    """

    def __init__(self, n: int, transpositions: Sequence[Tuple[int, int]]):
        pairs = tuple(
            (min(a, b), max(a, b)) for a, b in (tuple(p) for p in transpositions)
        )
        super().__init__(
            n,
            transposition_generators(n, pairs),
            generator_names=tuple(f"t({a},{b})" for a, b in pairs),
        )
        self._transpositions = pairs

    @property
    def transpositions(self) -> Tuple[Tuple[int, int], ...]:
        """The generating position pairs, normalised as ``(min, max)``."""
        return self._transpositions

    def positions_connected(self) -> bool:
        """True if the transposition pairs connect all ``n`` positions.

        Equivalent to the Cayley graph itself being connected (a
        transposition set generates ``S_n`` iff its pair graph is connected).
        """
        reached = {self._transpositions[0][0]}
        frontier = [self._transpositions[0][0]]
        while frontier:
            position = frontier.pop()
            for a, b in self._transpositions:
                if a == position and b not in reached:
                    reached.add(b)
                    frontier.append(b)
                elif b == position and a not in reached:
                    reached.add(a)
                    frontier.append(a)
        return len(reached) == self._n

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self._n}, "
            f"transpositions={self._transpositions!r})"
        )


class TranspositionTreeGraph(TranspositionCayleyGraph):
    """A transposition Cayley graph whose pairs form a spanning tree.

    A tree on the ``n`` positions gives exactly ``n - 1`` generators and a
    connected, ``(n-1)``-regular, maximally fault-tolerant network -- the
    family Akers & Krishnamurthy's star graph belongs to
    (:meth:`star` is the star tree, :meth:`path` the bubble-sort tree).
    """

    def __init__(self, n: int, edges: Sequence[Tuple[int, int]]):
        super().__init__(n, edges)
        if len(self._transpositions) != n - 1 or not self.positions_connected():
            raise InvalidParameterError(
                f"{self._transpositions!r} is not a spanning tree of {n} positions"
            )

    @classmethod
    def star(cls, n: int) -> "TranspositionTreeGraph":
        """The star tree: position 0 joined to every other position.

        The resulting network is (isomorphic and *identical* to) the paper's
        ``S_n``: same nodes, same neighbour order, same cached move tables as
        :class:`~repro.topology.star.StarGraph`.
        """
        check_positive_int(n, "n", minimum=2)
        return cls(n, tuple((0, j) for j in range(1, n)))

    @classmethod
    def path(cls, n: int) -> "TranspositionTreeGraph":
        """The path tree ``0-1-2-...-(n-1)``: the bubble-sort generator set."""
        check_positive_int(n, "n", minimum=2)
        return cls(n, tuple((i, i + 1) for i in range(n - 1)))


class BubbleSortGraph(TranspositionTreeGraph):
    """The bubble-sort network ``B_n``: adjacent-position exchanges.

    The path-tree instance of the transposition family, with closed forms for
    the metric structure: distances are Kendall-tau inversion counts and the
    diameter is ``n (n - 1) / 2``.

    Examples
    --------
    >>> b3 = BubbleSortGraph(3)
    >>> b3.distance((0, 1, 2), (2, 1, 0))
    3
    >>> b3.diameter()
    3
    """

    def __init__(self, n: int):
        check_positive_int(n, "n", minimum=2)
        super().__init__(n, tuple((i, i + 1) for i in range(n - 1)))

    def distance(self, u: Node, v: Node) -> int:
        """Kendall-tau closed form (BFS-verified in the parity tests)."""
        u = self.validate_node(u)
        v = self.validate_node(v)
        return bubble_sort_distance(u, v)

    def diameter(self) -> int:
        """Closed form ``n (n - 1) / 2`` (the full reversal is antipodal)."""
        return self._n * (self._n - 1) // 2

    def __repr__(self) -> str:
        return f"BubbleSortGraph(n={self._n})"
