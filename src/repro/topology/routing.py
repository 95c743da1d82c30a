"""Point-to-point routing and closed-form distances for the three topologies.

Every routing function returns the full node sequence from source to
destination (inclusive of both), so ``len(path) - 1`` is the number of unit
routes it takes -- the paper's cost unit.

Star graph
----------
Distance uses the Akers & Krishnamurthy cycle-structure formula: writing the
*relative* permutation (what must still be applied to the source to obtain the
destination) as disjoint cycles, a non-trivial cycle through position 0 of
length ``l`` costs ``l - 1`` generator moves and any other non-trivial cycle
costs ``l + 1``.  Routing uses the matching greedy rule ("if the front symbol
is not home, send it home; otherwise bring any displaced symbol to the
front"), which realises exactly that bound.

Mesh
----
Dimension-order (e-cube style) routing; distance is the Manhattan metric.

Hypercube
---------
E-cube routing (correct differing bits from the lowest dimension up); distance
is the Hamming distance.

Whole-graph index services
--------------------------
On top of the point-to-point closed forms this module hosts the vectorised
whole-graph services of the adjacency-index backend (PR 3): frontier-sweep BFS
over ``Topology.neighbor_source()`` (:func:`bfs_distances_from`), the
bit-parallel all-sources sweep behind :func:`distance_summary`, alive-mask
connectivity (:func:`connected_under_alive_mask`) and batched pairwise star
distances (:func:`star_distances_between`).  Every service is bit-identical to
the retained tuple/dict BFS references (see
``tests/topology/test_index_services``).

:func:`bfs_distances_from` and :func:`distance_summary` always measure: they
sweep the graph whatever its type, which is what lets PROP-D, CMP and
NETWORK-FAMILY hold a measured BFS against a formula.  A closed form is a
method called by name (``StarGraph.distances_from``, ``StarGraph.diameter``).

The NumPy sweeps process node-index blocks of
:data:`~repro.permutations.ranking.CHUNK_NODES` at a time
(:func:`index_bfs_distances`, the chunked :func:`star_distances_from`) so
peak RSS stays bounded on large graphs -- exactly, with the unchunked sweep
as the parity oracle (``tests/tables/``).

The neighbour-source seam
-------------------------
Since PR 8 the whole-graph kernels no longer insist on a materialised
adjacency table: they consume a :class:`NeighborSource`, which serves
neighbour-index blocks either from an in-RAM table
(:class:`TableNeighborSource`) or computed on the fly as
``unrank -> apply generator -> rank`` with no table anywhere
(:class:`ImplicitNeighborSource`, backed by
:func:`repro.permutations.ranking.implicit_neighbor_block`).  For the
permutation Cayley families :func:`permutation_neighbor_source` picks the
source from the degree alone (tables through ``MAX_TABLE_DEGREE``, implicit
beyond it), and ``Topology.neighbor_source()`` hands the right one to every
sweep.  The seam is exact: implicit blocks are bit-identical to the table
rows, so BFS, connectivity floods and embedding tallies return the same
arrays from either source at every chunk size
(``tests/tables/test_implicit_neighbors.py``).
:func:`bounded_bfs_ball` grows its balls in the source's key space
(:meth:`NeighborSource.encode`): packed permutations on the implicit source
through degree 16, node indices everywhere else.  Its balls on the implicit
source through degree 15 are not swept at all: the graph is
vertex-symmetric, so every ball there is kept in the frame of one cached
identity ball and relabelled by the origin's permutation when read.  A
healthy ball's distances are the identity's levels; a faulted one's are a
flood of the identity ball's local adjacency, built on the first faulted
request, with the faults relabelled into the identity's frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as _np

from repro import telemetry
from repro.exceptions import InvalidParameterError
from repro.permutations.permutation import is_permutation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.topology.base import Topology

Node = Tuple[int, ...]

__all__ = [
    "star_distance",
    "star_distances_from",
    "star_distances_between",
    "star_route",
    "star_distance_profile",
    "mesh_distance",
    "mesh_route",
    "hypercube_distance",
    "hypercube_route",
    "NeighborSource",
    "TableNeighborSource",
    "ImplicitNeighborSource",
    "as_neighbor_source",
    "permutation_neighbor_source",
    "BoundedBall",
    "bounded_bfs_ball",
    "index_bfs_distances",
    "bfs_distances_from",
    "DistanceSummary",
    "SWEEP_SOURCE_BLOCK",
    "all_sources_level_counts",
    "distance_summary",
    "connected_under_alive_mask",
]

# --------------------------------------------------------------------------- star
def _relative_cycles(source: Node, target: Node) -> List[List[int]]:
    """Cycle decomposition of the position permutation taking *source* to *target*.

    Position ``p`` maps to the position where ``source[p]`` must end up, i.e.
    ``target.index(source[p])``.  Only non-trivial cycles are returned.
    """
    n = len(source)
    target_position = {symbol: p for p, symbol in enumerate(target)}
    mapping = [target_position[source[p]] for p in range(n)]
    seen = [False] * n
    cycles: List[List[int]] = []
    for start in range(n):
        if seen[start] or mapping[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = mapping[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = mapping[nxt]
        cycles.append(cycle)
    return cycles


def _check_star_pair(source: Sequence[int], target: Sequence[int]) -> Tuple[Node, Node]:
    source = tuple(source)
    target = tuple(target)
    if len(source) != len(target):
        raise InvalidParameterError("source and target must have the same degree")
    if not is_permutation(source) or not is_permutation(target):
        raise InvalidParameterError("source and target must be permutations")
    return source, target


def star_distance(source: Sequence[int], target: Sequence[int]) -> int:
    """Shortest-path length between two star-graph nodes (closed form)."""
    return star_distance_profile(source, target)[0]


def star_distance_profile(source: Sequence[int], target: Sequence[int]) -> Tuple[int, int, int]:
    """Return ``(distance, num_nontrivial_cycles, num_displaced_symbols)``.

    Useful for the analysis experiments: the distance equals
    ``m + c`` when position 0 is displaced together with its cycle
    (``m`` displaced symbols, ``c`` non-trivial cycles, the cycle through 0
    contributing ``l - 1`` instead of ``l + 1``).
    """
    source, target = _check_star_pair(source, target)
    cycles = _relative_cycles(source, target)
    displaced = sum(len(c) for c in cycles)
    distance = 0
    for cycle in cycles:
        distance += len(cycle) - 1 if 0 in cycle else len(cycle) + 1
    return distance, len(cycles), displaced


def star_distances_from(origin: Sequence[int]):
    """Distances from *origin* to every permutation of its degree, by rank.

    Entry ``r`` of the result is ``star_distance(origin, unrank(r))``.  The
    closed form ``d = m + c - 2*[position 0 displaced]`` (``m`` displaced
    positions, ``c`` non-trivial cycles of the relative permutation) is
    evaluated for all ``n!`` targets in rank-block sweeps: each block's
    permutations come as views of the cached population array within the
    table degree, or are unranked on the fly above it
    (:func:`~repro.permutations.ranking.permutations_slice` -- no ``(n!, n)``
    array is materialised there), the relative mappings are
    gathered, displaced positions are counted with one comparison, and the
    non-trivial cycle count comes from pointer-doubling cycle-minima (a
    position is counted once per cycle, at the cycle's minimum).  Chunking is
    exact -- every :data:`~repro.permutations.ranking.CHUNK_NODES` produces
    bit-identical results -- and is what keeps peak RSS bounded above the
    table degree.  Degrees whose ranks overflow int64 (``n > 20``) raise the
    canonical :class:`~repro.exceptions.TableDegreeError`
    (:func:`~repro.permutations.ranking.require_int64_rank_degree`).
    """
    source = tuple(origin)
    if not is_permutation(source):
        raise InvalidParameterError(f"{source!r} is not a permutation")
    n = len(source)

    from repro.permutations.ranking import (
        CHUNK_NODES,
        all_permutations_array,
        factorials,
        permutations_slice,
        require_int64_rank_degree,
        within_table_degree,
    )

    require_int64_rank_degree(n)
    dense = within_table_degree(n)
    if dense:
        # Rank blocks are views of the cached population array -- no
        # per-call unranking.
        perms_all = all_permutations_array(n)

        def perm_block(start, stop):
            return perms_all[start:stop]

    else:
        # No (n!, n) array exists; unrank on the fly.
        def perm_block(start, stop):
            return permutations_slice(start, stop, n)

    total = factorials(n)[n]
    source_columns = list(source)
    distances = _np.empty(total, dtype=_np.int64)
    with telemetry.span(
        "kernel.distance_sweep",
        degree=n,
        num_nodes=total,
        chunks=-(-total // CHUNK_NODES),
        tier="dense" if dense else "streamed",
    ):
        for start in range(0, total, CHUNK_NODES):
            stop = min(start + CHUNK_NODES, total)
            perms = perm_block(start, stop)
            # positions[r, s] = index of symbol s in row r
            positions = _np.argsort(perms, axis=1)
            mapping = positions[:, source_columns].astype(_np.int64)
            distances[start:stop] = _cycle_structure_distances(mapping)
    return distances


def _cycle_structure_distances(mapping):
    """Vectorised ``d = m + c - 2*[position 0 displaced]`` over mapping rows.

    Row ``r`` of *mapping* is the relative position permutation of one
    (source, target) pair; the non-trivial-cycle count comes from
    pointer-doubling cycle-minima: ``minima[r, p]`` covers a window of ``span``
    orbit nodes starting at ``p`` and ``ptr`` jumps ``span`` steps, so
    combining the window at ``p`` with the window at ``ptr[p]`` doubles the
    coverage -- log2(n) rounds cover every cycle, and each cycle is counted
    once (at its minimum).
    """
    n = mapping.shape[1]
    idx = _np.arange(n, dtype=_np.int64)
    displaced = mapping != idx
    num_displaced = displaced.sum(axis=1, dtype=_np.int64)
    minima = _np.minimum(idx, mapping)
    ptr = _np.take_along_axis(mapping, mapping, axis=1)
    span = 2
    while span < n:
        minima = _np.minimum(minima, _np.take_along_axis(minima, ptr, axis=1))
        ptr = _np.take_along_axis(ptr, ptr, axis=1)
        span *= 2
    leaders = (minima == idx) & displaced
    num_cycles = leaders.sum(axis=1, dtype=_np.int64)
    return num_displaced + num_cycles - 2 * (mapping[:, 0] != 0)


def star_distances_between(sources, targets):
    """Batched star distances between row-aligned permutation arrays.

    ``sources`` and ``targets`` are ``(m, n)`` batches (NumPy arrays or
    sequences of tuples); entry ``r`` of the result is
    ``star_distance(sources[r], targets[r])`` evaluated through the
    cycle-structure closed form in one vectorised sweep.  Rows are not
    re-validated (fast-core helper, like
    :func:`repro.permutations.ranking.ranks_of`).  Returns a NumPy ``int64``
    array.
    """
    source_rows = _np.asarray(sources)
    target_rows = _np.asarray(targets)
    if source_rows.ndim != 2 or source_rows.shape != target_rows.shape:
        raise InvalidParameterError(
            "star_distances_between expects two equal-shape (m, n) batches"
        )
    positions = _np.argsort(target_rows, axis=1)
    mapping = _np.take_along_axis(positions, source_rows.astype(_np.int64), axis=1)
    return _cycle_structure_distances(mapping)


def star_route(source: Sequence[int], target: Sequence[int]) -> List[Node]:
    """An optimal path between two star-graph nodes (greedy cycle routing).

    The returned list starts at *source*, ends at *target* and each
    consecutive pair differs by one generator move; its length minus one
    equals :func:`star_distance`.
    """
    source, target = _check_star_pair(source, target)
    target_position = {symbol: p for p, symbol in enumerate(target)}
    current = list(source)
    path: List[Node] = [tuple(current)]
    n = len(source)

    def is_home(position: int) -> bool:
        return target_position[current[position]] == position

    while tuple(current) != target:
        front_symbol = current[0]
        home = target_position[front_symbol]
        if home != 0:
            # The front symbol is displaced: send it home in one move.
            current[0], current[home] = current[home], current[0]
        else:
            # Front symbol already belongs at the front: bring the first
            # displaced symbol to the front (starts a new cycle).
            j = next(p for p in range(1, n) if not is_home(p))
            current[0], current[j] = current[j], current[0]
        path.append(tuple(current))
    return path


# --------------------------------------------------------------------------- mesh
def _check_mesh_pair(
    source: Sequence[int], target: Sequence[int], sides: Sequence[int]
) -> Tuple[Node, Node, Tuple[int, ...]]:
    source = tuple(source)
    target = tuple(target)
    sides = tuple(sides)
    if not (len(source) == len(target) == len(sides)):
        raise InvalidParameterError("source, target and sides must have equal length")
    for name, coords in (("source", source), ("target", target)):
        for c, s in zip(coords, sides):
            if not (0 <= c < s):
                raise InvalidParameterError(f"{name} coordinate {c} out of range for side {s}")
    return source, target, sides


def mesh_distance(source: Sequence[int], target: Sequence[int], sides: Sequence[int]) -> int:
    """Manhattan distance on a mesh without wraparound."""
    source, target, _ = _check_mesh_pair(source, target, sides)
    return sum(abs(a - b) for a, b in zip(source, target))


def mesh_route(source: Sequence[int], target: Sequence[int], sides: Sequence[int]) -> List[Node]:
    """Dimension-order route: correct coordinate 0 first, then 1, and so on."""
    source, target, _ = _check_mesh_pair(source, target, sides)
    current = list(source)
    path: List[Node] = [tuple(current)]
    for dim in range(len(sides)):
        step = 1 if target[dim] > current[dim] else -1
        while current[dim] != target[dim]:
            current[dim] += step
            path.append(tuple(current))
    return path


# ---------------------------------------------------------------------- hypercube
def _check_cube_pair(source: Sequence[int], target: Sequence[int]) -> Tuple[Node, Node]:
    source = tuple(source)
    target = tuple(target)
    if len(source) != len(target):
        raise InvalidParameterError("source and target must have the same dimension")
    for name, coords in (("source", source), ("target", target)):
        if any(bit not in (0, 1) for bit in coords):
            raise InvalidParameterError(f"{name} must be a tuple of bits, got {coords!r}")
    return source, target


def hypercube_distance(source: Sequence[int], target: Sequence[int]) -> int:
    """Hamming distance between two hypercube nodes (bit tuples)."""
    source, target = _check_cube_pair(source, target)
    return sum(1 for a, b in zip(source, target) if a != b)


def hypercube_route(source: Sequence[int], target: Sequence[int]) -> List[Node]:
    """E-cube route: flip differing bits from dimension 0 upwards."""
    source, target = _check_cube_pair(source, target)
    current = list(source)
    path: List[Node] = [tuple(current)]
    for dim in range(len(source)):
        if current[dim] != target[dim]:
            current[dim] = target[dim]
            path.append(tuple(current))
    return path


# ------------------------------------------------------- neighbour sources
class NeighborSource:
    """Where a whole-graph kernel reads adjacency from (the PR-8 seam).

    A source answers block queries over node indices instead of exposing one
    giant array, so the same frontier sweeps serve in-RAM tables and
    table-free implicit adjacency unchanged:

    * ``num_nodes`` / ``width`` -- graph size and max degree;
    * ``neighbor_block(indices)`` -- the ``(m, width)`` neighbour-index rows
      of *indices* (``-1``-padded for irregular graphs);
    * ``neighbor_along(indices, generators)`` -- one neighbour per row, along
      a scalar generator index or a per-row generator-index array (the shape
      the batched embedding tally gathers);
    * ``table`` -- the materialised ``(num_nodes, width)`` array when one
      exists, else ``None``.

    Sources are exact and interchangeable: for the same graph every source
    returns identical blocks, which the parity suite enforces.

    **Key space.**  :func:`bounded_bfs_ball` grows its balls in a source's
    *key space* rather than in node indices:

    * ``encode(ranks)`` / ``decode(keys)`` -- the order-preserving bijection
      between node indices and keys (sorted indices encode to sorted keys);
    * ``neighbor_keys(keys)`` -- the ``(m, width)`` neighbour keys of
      *keys*.

    By default keys **are** the ``int64`` node indices and
    ``neighbor_keys`` is ``neighbor_block``, so a source that overrides only
    ``neighbor_block`` serves the kernel unchanged.  The implicit source
    overrides all three with packed permutation keys through degree 16.
    """

    table = None

    def neighbor_block(self, indices):
        raise NotImplementedError

    def neighbor_along(self, indices, generators):
        raise NotImplementedError

    def encode(self, ranks):
        """Keys of node indices *ranks* (identity: the ``int64`` indices)."""
        return _np.asarray(ranks, dtype=_np.int64)

    def decode(self, keys):
        """Node indices of *keys* (identity: the keys themselves)."""
        return _np.asarray(keys, dtype=_np.int64)

    def neighbor_keys(self, keys):
        """Neighbour keys of *keys* (identity key space: ``neighbor_block``)."""
        return self.neighbor_block(keys)


class TableNeighborSource(NeighborSource):
    """Adjacency served from a materialised index table."""

    def __init__(self, table):
        self._table = table
        self._num_nodes = len(table)

    @property
    def table(self):
        """The backing ``(num_nodes, width)`` array (never ``None`` here)."""
        return self._table

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def width(self) -> int:
        return int(self._table.shape[1])

    def neighbor_block(self, indices):
        """Rows ``table[indices]`` -- a fancy-index gather."""
        return self._table[_np.asarray(indices, dtype=_np.int64)]

    def neighbor_along(self, indices, generators):
        """``table[indices, generators]`` with scalar or per-row generators."""
        return self._table[
            _np.asarray(indices, dtype=_np.int64), generators
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TableNeighborSource(num_nodes={self._num_nodes}, width={self.width})"


class ImplicitNeighborSource(NeighborSource):
    """Table-free adjacency for a permutation Cayley graph.

    Blocks are computed on demand as ``unrank -> apply generator -> rank``
    (:func:`repro.permutations.ranking.implicit_neighbor_block`); nothing is
    materialised, so the source works at any degree whose ranks fit in
    int64 (``n <= 20``) -- past the table ceiling.  ``table`` is ``None``.

    Through :data:`~repro.permutations.ranking.MAX_PACKED_DEGREE` its key
    space is the packed permutations
    (:func:`~repro.permutations.ranking.ranks_to_keys`): ``neighbor_keys``
    unpacks, gathers every generator image and packs, with no unrank and
    no rank.  Past it keys are ranks.  Both column arrays are built once
    here, not per block.
    """

    def __init__(self, generators, n: int):
        from repro.permutations.ranking import (
            _check_generators,
            factorials,
            require_int64_rank_degree,
            within_packed_degree,
        )

        self._generators = tuple(tuple(g) for g in generators)
        self._n = int(n)
        require_int64_rank_degree(self._n)
        _check_generators(self._generators, self._n)
        self._num_nodes = factorials(self._n)[self._n]
        width = len(self._generators)
        # (k, n) gather columns of the rank path.
        self._columns = _np.asarray(self._generators, dtype=_np.intp).reshape(
            width, self._n
        )
        # (k, 16) gather columns of the key path: positions n..15 stay put.
        self._key_columns = None
        if within_packed_degree(self._n):
            self._key_columns = _np.tile(_np.arange(16, dtype=_np.intp), (width, 1))
            self._key_columns[:, : self._n] = self._columns

    @property
    def generators(self):
        """The generator set, in the same order as the table columns."""
        return self._generators

    @property
    def n(self) -> int:
        """The permutation degree (number of symbols)."""
        return self._n

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def width(self) -> int:
        return len(self._generators)

    def neighbor_block(self, indices, *, keyed=False):
        """The ``(m, width)`` neighbour ranks of *indices*, computed on the fly.

        With ``keyed=True`` *indices* and the result are keys of this
        source's key space (:meth:`encode`) instead of ranks.  Inputs are
        trusted: the kernels pass only indices and keys they produced.
        """
        from repro.permutations.ranking import (
            _neighbor_key_rows,
            _neighbor_rank_rows,
        )

        if keyed and self._key_columns is not None:
            return _neighbor_key_rows(indices, self._key_columns)
        indices = _np.asarray(indices, dtype=_np.int64)
        return _neighbor_rank_rows(indices, self._columns)

    def neighbor_keys(self, keys):
        """Neighbour keys of *keys*: ``neighbor_block(keys, keyed=True)``."""
        return self.neighbor_block(keys, keyed=True)

    def encode(self, ranks):
        """Packed keys of *ranks* (the ranks themselves past degree 16)."""
        from repro.permutations.ranking import ranks_to_keys

        return ranks_to_keys(ranks, self._n)

    def decode(self, keys):
        """Ranks of packed *keys* (:meth:`encode` inverted)."""
        from repro.permutations.ranking import keys_to_ranks

        return keys_to_ranks(keys, self._n)

    def neighbor_along(self, indices, generators):
        """One neighbour per row along scalar or per-row generator indices."""
        from repro.permutations.ranking import _neighbor_rank_rows

        indices = _np.asarray(indices, dtype=_np.int64)
        if _np.ndim(generators) == 0:
            column = int(generators)
            return _neighbor_rank_rows(
                indices, self._columns[column : column + 1]
            )[:, 0]
        block = _neighbor_rank_rows(indices, self._columns)
        return block[
            _np.arange(indices.shape[0]), _np.asarray(generators, dtype=_np.int64)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ImplicitNeighborSource(n={self._n}, width={self.width})"


def as_neighbor_source(source) -> NeighborSource:
    """Coerce *source* -- a :class:`NeighborSource` or a raw table -- to a source.

    The adapter that lets :func:`index_bfs_distances` keep accepting the bare
    adjacency arrays its PR-3 callers pass while new callers hand it
    ``Topology.neighbor_source()`` directly.
    """
    if isinstance(source, NeighborSource):
        return source
    return TableNeighborSource(source)


def permutation_neighbor_source(generators, n: int, table_supplier) -> NeighborSource:
    """Select the adjacency source for a permutation Cayley graph.

    The degree decides: the materialised table from *table_supplier*
    through :data:`~repro.permutations.ranking.MAX_TABLE_DEGREE`, the
    implicit source beyond it, which is what makes degree-11+ sweeps
    possible with no table at all.  Both serve identical blocks.
    """
    from repro.permutations.ranking import within_table_degree

    if within_table_degree(n):
        return TableNeighborSource(table_supplier())
    return ImplicitNeighborSource(generators, n)


# ------------------------------------------------------ whole-graph services
def index_bfs_distances(source, origin_index: int, *, alive_mask=None):
    """Frontier-sweep BFS over an adjacency source.

    The one chunked sweep behind :func:`bfs_distances_from`,
    :func:`connected_under_alive_mask` and the masked rerouting floods
    (:mod:`repro.simulation.rerouting`): each frontier is processed in
    :data:`~repro.permutations.ranking.CHUNK_NODES` blocks, newly reached
    nodes are marked at the current level and the next frontier is recovered
    as ``flatnonzero(distances == level)`` -- the same sorted node set the
    unchunked ``np.unique`` sweep produced, so chunking is bit-exact while
    per-level gathers stay ``O(chunk * degree)``.  *source* may be an in-RAM
    array or any :class:`NeighborSource` -- including the table-free implicit
    source, which computes each frontier block's neighbours on the fly.

    ``alive_mask`` (one truth value per node, coerced to ``bool``) restricts
    the sweep to surviving nodes; dead nodes are impassable and keep
    distance ``-1``.  *origin_index* must lie in ``[0, num_nodes)`` and, under
    a mask, be alive.
    """
    source = as_neighbor_source(source)
    num_nodes = source.num_nodes
    if not 0 <= origin_index < num_nodes:
        raise InvalidParameterError(
            f"origin index {origin_index!r} outside [0, {num_nodes})"
        )
    if alive_mask is not None:
        alive_mask = _np.asarray(alive_mask, dtype=bool)
        if alive_mask.shape != (num_nodes,):
            raise InvalidParameterError(
                f"alive_mask has shape {alive_mask.shape}, expected ({num_nodes},)"
            )
        if not alive_mask[origin_index]:
            raise InvalidParameterError(
                f"origin index {origin_index} is not alive; sweeps start at survivors"
            )
    with telemetry.span(
        "kernel.bfs",
        num_nodes=int(num_nodes),
        neighbor_source="table" if source.table is not None else "implicit",
        masked=alive_mask is not None,
    ) as sp:
        distances = _np.full(num_nodes, -1, dtype=_np.int64)
        deepest, blocks = _flood_levels(
            source.neighbor_block, distances, origin_index, alive_mask
        )
        if telemetry.trace_enabled():
            sp.add(
                chunks=blocks,
                levels=deepest + 1,
                reached=int((distances >= 0).sum()),
            )
        return distances


def _flood_levels(neighbor_block, distances, origin, alive_mask=None, max_level=None):
    """The dense level loop: flood *distances* from *origin*, level by level.

    The one loop behind :func:`index_bfs_distances` and the framed faulted
    balls of :func:`bounded_bfs_ball`.  *distances* is a ``-1``-filled
    ``int64`` array over the node indices *neighbor_block* serves rows of
    (``-1`` entries are padding); each level expands its frontier in
    :data:`~repro.permutations.ranking.CHUNK_NODES` blocks, marks the
    alive, unreached candidates and recovers the next frontier as
    ``flatnonzero(distances == level)``.  The flood stops when a level adds
    nothing or after level *max_level*.  Returns ``(deepest populated level,
    blocks expanded)``.
    """
    from repro.permutations.ranking import CHUNK_NODES

    distances[origin] = 0
    frontier = _np.array([origin], dtype=_np.int64)
    level = blocks = 0
    while max_level is None or level < max_level:
        found = False
        for start in range(0, frontier.size, CHUNK_NODES):
            blocks += 1
            candidates = neighbor_block(frontier[start : start + CHUNK_NODES])
            candidates = candidates.reshape(-1)
            candidates = candidates[candidates >= 0]
            if alive_mask is not None:
                candidates = candidates[
                    alive_mask[candidates] & (distances[candidates] < 0)
                ]
            else:
                candidates = candidates[distances[candidates] < 0]
            if candidates.size:
                distances[candidates] = level + 1
                found = True
        if not found:
            break
        level += 1
        frontier = _np.flatnonzero(distances == level)
    return level, blocks


class BoundedBall:
    """The depth-``max_depth`` BFS ball of one origin, as sparse arrays.

    The return shape of :func:`bounded_bfs_ball` -- the whole-graph
    ``distances`` array of :func:`index_bfs_distances` does not exist at
    S_13+ (6.2 billion int64 entries), so the bounded sweep reports only the
    nodes it actually reached:

    Attributes
    ----------
    keys : array
        The reached nodes in the key space of the source that grew the ball
        (:class:`NeighborSource`), **sorted ascending**.  Key order is
        index order, so position ``i`` is the same node in ``keys`` and
        ``nodes``.
    nodes : int64 array
        The reached node indices (origin included), sorted ascending --
        decoded from ``keys`` on first access and cached.  Callers that
        need only a few nodes use :meth:`nodes_at` instead.
    distances : int64 array
        Aligned with ``nodes``: ``distances[i]`` is the BFS distance of
        ``nodes[i]`` from the origin (exact -- a bounded BFS distance is a
        true shortest-path distance for every node it reaches).
    truncated : bool
        ``True`` when the sweep stopped *because of the depth cap* with a
        non-empty final frontier -- nodes beyond ``max_depth`` may exist and
        their absence from the ball proves nothing.  ``False`` means the
        frontier died before the cap: the ball is the origin's entire
        connected component (minus excluded nodes) and absence **is**
        disconnection.
    levels : int
        Deepest level actually populated (``<= max_depth``).

    ``BoundedBall(nodes=..., distances=..., truncated=..., levels=...)``
    builds a ball whose keys are its node indices; the kernel passes
    ``keys=`` and the ``source`` that encodes and decodes them instead.
    """

    def __init__(
        self,
        nodes=None,
        distances=None,
        truncated=False,
        levels=0,
        *,
        keys=None,
        source=None,
    ):
        if (nodes is None) == (keys is None):
            raise InvalidParameterError("BoundedBall takes exactly one of nodes= or keys=")
        if keys is None:
            nodes = _np.asarray(nodes, dtype=_np.int64)
            keys, source = nodes, NeighborSource()
        self.keys = keys
        self.distances = distances
        self.truncated = truncated
        self.levels = levels
        self._source = source
        self._nodes = nodes

    @property
    def nodes(self):
        """Sorted reached node indices, decoded from ``keys`` once."""
        if self._nodes is None:
            self._nodes = self._source.decode(self.keys)
        return self._nodes

    @property
    def size(self) -> int:
        """Number of reached nodes, origin included."""
        return int(len(self.keys))

    def nodes_at(self, positions):
        """``nodes[positions]``, decoding only the selected entries."""
        if self._nodes is not None:
            return self._nodes[positions]
        return self._source.decode(self.keys[_np.asarray(positions, dtype=_np.intp)])

    def distance_of(self, targets):
        """Ball distances of *targets* (int64 array): ``-1`` when not in the ball.

        A ``-1`` means "not reached within ``max_depth``"; whether that is
        disconnection or truncation is the :attr:`truncated` flag's call.
        Only the targets are encoded; the ball is never decoded.
        """
        targets = self._source.encode(targets)
        positions = _np.searchsorted(self.keys, targets)
        positions = _np.minimum(positions, len(self.keys) - 1)
        found = self.keys[positions] == targets
        out = _np.full(targets.shape, -1, dtype=_np.int64)
        out[found] = self.distances[positions[found]]
        return out


def _sorted_unique(values):
    """``np.unique(values)`` for a 1-D int64 array: sort, then keep run heads.

    One ``np.sort`` plus an adjacent-difference mask -- the same sorted
    distinct values, without ``np.unique``'s hash-based path.
    """
    values = _np.sort(values)
    if values.size > 1:
        keep = _np.empty(values.size, dtype=bool)
        keep[0] = True
        _np.not_equal(values[1:], values[:-1], out=keep[1:])
        values = values[keep]
    return values


def _in_sorted(values, sorted_array):
    """Boolean mask: which *values* occur in *sorted_array* (same dtype)."""
    if sorted_array.size == 0:
        return _np.zeros(values.shape, dtype=bool)
    positions = _np.searchsorted(sorted_array, values)
    positions = _np.minimum(positions, sorted_array.size - 1)
    return sorted_array[positions] == values


def _drop_members(candidates, members):
    """Sorted distinct *candidates* minus every value of sorted *members*.

    Binary-searches the smaller array in the larger one: a level's
    candidates outnumber the visited set, a probe block's are far fewer.
    """
    if candidates.size <= members.size:
        return candidates[~_in_sorted(candidates, members)]
    positions = _np.minimum(
        _np.searchsorted(candidates, members), candidates.size - 1
    )
    keep = _np.ones(candidates.size, dtype=bool)
    keep[positions[candidates[positions] == members]] = False
    return candidates[keep]


def bounded_bfs_ball(
    source,
    origin_index: int,
    *,
    max_depth: int,
    excluded=None,
) -> BoundedBall:
    """Truncated frontier BFS: the depth-capped ball around *origin_index*.

    The depth-capped entry point of the sampled S_13+ campaigns
    (:mod:`repro.simulation.sampled_campaign`): where
    :func:`index_bfs_distances` allocates a whole-graph distances array,
    this sweep touches **only the ball it reaches** -- visited bookkeeping is
    a sorted key array that grows with the ball, never with ``n!`` -- so it
    runs on the table-free implicit source at any int64-rank degree.

    The sweep runs in the source's key space (:class:`NeighborSource`): the
    origin and ``excluded`` are encoded once, and frontier, visited set,
    dedupe and truncation probe all work on keys.  On the implicit source
    through degree 16 keys are packed permutations, so growing a ball
    neither unranks nor ranks; the returned ball decodes its nodes only
    when they are read.

    Each level expands the frontier in
    :data:`~repro.permutations.ranking.CHUNK_NODES` blocks, dedupes the
    candidates with one sort plus an adjacent-difference mask and drops the
    visited and excluded ones by ``searchsorted``.  When the depth cap is
    reached with a live frontier, ``truncated`` needs only one escaping
    neighbour: the probe expands the last frontier in prefix blocks of 1, 8,
    64, ... rows (each at most one chunk) and stops at the first block with
    an unvisited, non-excluded neighbour.  The bit is the one a full
    expansion would give; only the work depends on where the first escape
    sits.

    **Balls by symmetry.**  A permutation Cayley graph is
    vertex-symmetric: left multiplication by the origin's permutation maps
    the identity's ball onto the origin's, distances, ``truncated`` and
    ``levels`` included.  So on an :class:`ImplicitNeighborSource` in
    packed-key space whose spare low nibbles hold ``max_depth``
    (``n <= 15``) nothing is swept per origin.  Every such ball is kept in
    the frame of the identity's ball -- swept once per ``(generators, n,
    max_depth)`` and cached with its keys held once
    (:func:`_identity_ball`).  A healthy ball's frame distances are the
    cached levels; a faulted ball's are flooded over the frame's local
    adjacency with the exclusions relabelled by the origin's inverse
    (:func:`_symmetric_ball`).  ``size``, ``truncated``, ``levels`` and
    :meth:`~BoundedBall.distance_of` answer from the frame; ``keys`` and
    ``distances`` are relabelled by the origin's permutation on first read.
    Every other call (tables, ``n = 16``, rank keys, sources that override
    ``neighbor_block``, ``neighbor_keys`` or ``encode``) sweeps.  All paths
    return the same ball, bit for bit.

    Parameters
    ----------
    source : NeighborSource or adjacency table
        Where neighbour blocks come from (:func:`as_neighbor_source`); pass
        an :class:`ImplicitNeighborSource` for the table-free path.
    origin_index : int
        Node index the ball grows from (must not be excluded).
    max_depth : int
        Inclusive BFS depth cap; level ``max_depth`` nodes are still
        reported, the frontier is simply not expanded past them.
    excluded : int64 array, optional
        Impassable node indices in ``[0, num_nodes)`` (the campaign's fault
        set), in any order.  Excluded nodes are never visited nor traversed --
        exactly the alive-mask semantics of :func:`index_bfs_distances`,
        expressed sparsely because a boolean mask over ``n!`` nodes cannot
        exist at S_13+.

    *origin_index*, *max_depth* and *excluded* are checked once, here, for
    every path: Python and NumPy integers pass, bools and non-integers
    raise :class:`~repro.exceptions.InvalidParameterError`.

    Returns
    -------
    BoundedBall
        Sorted reached nodes, aligned exact distances, the ``truncated``
        flag and the deepest populated level.  For a graph small enough to
        sweep whole, ``max_depth >= eccentricity(origin)`` reproduces
        :func:`index_bfs_distances` restricted to its reached set, bit for
        bit (the parity tests hold the two against each other).
    """
    from repro.permutations.ranking import _integral

    for name, value in (("max_depth", max_depth), ("origin index", origin_index)):
        if _np.ndim(value) or not _integral(value):
            raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    max_depth, origin_index = int(max_depth), int(origin_index)
    if max_depth < 0:
        raise InvalidParameterError(f"max_depth must be >= 0, got {max_depth!r}")
    neighbor_source = as_neighbor_source(source)
    num_nodes = neighbor_source.num_nodes
    if not 0 <= origin_index < num_nodes:
        raise InvalidParameterError(
            f"origin index {origin_index!r} outside [0, {num_nodes})"
        )
    requested = [] if excluded is None else excluded
    excluded = _np.asarray(requested)
    if excluded.size:
        if not _integral(requested):
            kind = "bool" if excluded.dtype.kind in "iu" else str(excluded.dtype)
            raise InvalidParameterError(
                f"excluded node indices must be integers, got {kind} entries"
            )
        if not (0 <= excluded.min() and excluded.max() < num_nodes):
            raise InvalidParameterError(
                f"excluded node indices must lie in [0, {num_nodes})"
            )
        if (excluded == origin_index).any():
            raise InvalidParameterError(
                f"origin index {origin_index} is excluded; balls grow from survivors"
            )
    excluded = excluded.astype(_np.int64)
    symmetric = _translates(neighbor_source, max_depth)
    with telemetry.span(
        "kernel.bounded_bfs",
        num_nodes=int(num_nodes),
        neighbor_source="table" if neighbor_source.table is not None else "implicit",
        max_depth=max_depth,
        excluded=int(excluded.size),
        translated=symmetric and not excluded.size,
        framed=symmetric and bool(excluded.size),
    ) as sp:
        if symmetric:
            ball = _symmetric_ball(neighbor_source, origin_index, max_depth, excluded)
        else:
            ball = _sweep_ball(neighbor_source, origin_index, max_depth, excluded)
        if telemetry.trace_enabled():
            sp.add(reached=ball.size, levels=ball.levels, truncated=ball.truncated)
        return ball


def _translates(source, max_depth: int) -> bool:
    """True when *source*'s balls are translates of the identity's.

    The implicit source's own packed-key adjacency (a subclass that
    overrides how neighbours or keys are computed keeps sweeping), with a
    spare low nibble below the ``n`` symbols wide enough for ``max_depth``.
    """
    from repro.permutations.ranking import MAX_PACKED_DEGREE

    if not isinstance(source, ImplicitNeighborSource):
        return False
    kind = type(source)
    return (
        all(
            getattr(kind, name) is getattr(ImplicitNeighborSource, name)
            for name in ("neighbor_block", "neighbor_keys", "encode")
        )
        and source.n < MAX_PACKED_DEGREE
        and max_depth < 1 << 4 * (MAX_PACKED_DEGREE - source.n)
    )


class _IdentityBall:
    """The identity's ball, read-only: the frame every symmetric ball lives in.

    Frame positions are the ball's key order.  ``keys`` are its sorted
    packed keys -- the one copy; relabelling reads their bytes in place --
    ``levels`` its distances in the narrowest unsigned type, and
    ``truncated`` and ``deepest`` the swept ball's flag and deepest level.
    The local adjacency that faulted balls are flooded over is built on the
    first faulted request and kept (:meth:`adjacency`), so a caller that
    asks only for healthy balls never pays for it.
    """

    __slots__ = (
        "generators", "n", "max_depth", "keys", "levels", "truncated", "deepest",
        "_adjacency",
    )

    def __init__(self, generators, n: int, max_depth: int):
        ball = _sweep_ball(ImplicitNeighborSource(generators, n), 0, max_depth)
        self.generators, self.n, self.max_depth = generators, n, max_depth
        self.keys = ball.keys
        self.levels = ball.distances.astype(_np.min_scalar_type(ball.levels))
        self.truncated, self.deepest = ball.truncated, ball.levels
        self._adjacency = None
        for array in (self.keys, self.levels):
            array.setflags(write=False)

    def adjacency(self):
        """``(rows, row_of, parents)``, built on the first call and kept.

        ``rows[row_of[p]]`` holds the frame positions of the neighbours of
        every position ``p`` below the depth cap (``row_of`` is ``-1`` on the
        cap level, which has no row): such a node's neighbours all lie in
        the ball.  ``parents[p]`` counts the neighbours one level nearer of
        each cap-level node (``0`` elsewhere).  Positions are stored in the
        narrowest signed type that holds the ball (``int16`` below 32 768
        nodes).
        """
        if self._adjacency is None:
            keys, levels, cap = self.keys, self.levels, self.max_depth
            position = _np.min_scalar_type(-keys.size)
            inner = _np.flatnonzero(levels < cap)
            source = ImplicitNeighborSource(self.generators, self.n)
            rows = _np.searchsorted(keys, source.neighbor_keys(keys[inner]))
            rows = rows.astype(position)
            row_of = _np.full(keys.size, -1, dtype=position)
            row_of[inner] = _np.arange(inner.size)
            children = rows[levels[inner] == cap - 1].reshape(-1)
            children = children[levels[children] == cap]
            parents = _np.bincount(children, minlength=keys.size).astype(
                _np.min_scalar_type(len(self.generators))
            )
            for array in (rows, row_of, parents):
                array.setflags(write=False)
            self._adjacency = rows, row_of, parents
        return self._adjacency

    def locate(self, keys):
        """``(positions, inside)``: where *keys* sit in the frame, if they do."""
        positions = _np.minimum(_np.searchsorted(self.keys, keys), self.keys.size - 1)
        return positions, self.keys[positions] == keys


@lru_cache(maxsize=8)
def _identity_ball(generators, n: int, max_depth: int) -> _IdentityBall:
    """The :class:`_IdentityBall` of depth *max_depth*: the one identity cache."""
    return _IdentityBall(generators, n, max_depth)


def _relabelled(keys, levels, perm, n: int):
    """Sorted origin-frame ``(keys, int64 distances)`` of identity-frame nodes.

    Each identity key is left-multiplied by *perm*, read byte by byte in
    place, with its level folded into the spare low nibbles, so one
    ``np.sort`` orders the new keys and carries their distances along;
    masks split them again.
    """
    from repro.permutations.ranking import (
        MAX_PACKED_DEGREE,
        _key_byte_columns,
        translate_packed_keys,
    )

    tagged = translate_packed_keys(_key_byte_columns(keys, n), perm)
    tagged |= levels
    tagged.sort()
    spare = _np.uint64((1 << 4 * (MAX_PACKED_DEGREE - n)) - 1)
    return tagged & ~spare, (tagged & spare).astype(_np.int64)


class _SymmetricBall(BoundedBall):
    """A ball kept in the identity's frame (:func:`_symmetric_ball`).

    ``size``, ``truncated``, ``levels`` and :meth:`distance_of` answer from
    the frame; ``keys`` and ``distances`` are relabelled into the origin's
    frame on first read, and ``nodes`` / ``nodes_at`` decode them from
    there as for any ball.  A healthy ball is the frame's own ball; a
    faulted one carries the ``(frame distances, truncated, deepest level)``
    of its *flood*, ``-1`` where the flood did not reach.
    """

    def __init__(self, source, frame, perm, flood=None):
        self._source = source
        self._frame = frame
        self._perm = perm
        self._flooded = flood is not None
        if flood is None:
            flood = frame.levels, frame.truncated, frame.deepest
        self._frame_distances, self.truncated, self.levels = flood
        self._nodes = self._keys = self._distances = None

    @property
    def size(self) -> int:
        if self._flooded:
            return int(_np.count_nonzero(self._frame_distances >= 0))
        return int(self._frame.keys.size)

    @property
    def keys(self):
        if self._keys is None:
            self._relabel()
        return self._keys

    @property
    def distances(self):
        if self._distances is None:
            self._relabel()
        return self._distances

    def _relabel(self):
        keys, distances = self._frame.keys, self._frame_distances
        if self._flooded:  # only what the flood reached
            reached = _np.flatnonzero(distances >= 0)
            keys, distances = keys[reached], distances[reached].astype(_np.uint64)
        self._keys, self._distances = _relabelled(
            keys, distances, self._perm, self._source.n
        )

    def distance_of(self, targets):
        """Ball distances of *targets*, read in the identity's frame."""
        positions, inside = self._frame.locate(
            _frame_keys(targets, self._perm, self._source.n)
        )
        out = _np.full(positions.shape, -1, dtype=_np.int64)
        out[inside] = self._frame_distances[positions[inside]]
        return out


def _frame_keys(indices, perm, n: int):
    """Packed keys of nodes *indices* left-multiplied by the inverse of *perm*.

    A few nodes at a time (faults, targets): substituting their unranked
    rows beats building ``translate_packed_keys``'s per-byte tables for
    them (about 55 against 77 us for 16 nodes at S_13, unrank included,
    on 2 vCPUs).
    """
    from repro.permutations.ranking import pack_permutations, unrank_batch

    return pack_permutations(_np.argsort(perm)[unrank_batch(indices, n)])


def _symmetric_ball(source, origin_index: int, max_depth: int, excluded) -> BoundedBall:
    """The ball of *origin_index*, kept in the identity's frame.

    Left multiplication by the origin's permutation ``s`` is an automorphism
    that maps the identity's ball onto the origin's, so the ball with faults
    ``F`` is ``s`` times the identity's ball with faults ``s^-1 F``.  With
    no faults that is the cached identity ball itself.  Otherwise the faults
    are relabelled into the frame (:func:`_identity_ball`); a fault outside
    the healthy ball cannot shorten or lengthen a distance within the cap
    and matters only to the truncation probe.  Levels ``1 .. max_depth -
    1`` are flooded by :func:`_flood_levels` over the frame's rows.  The
    cap level is settled without expanding it: a cap-level node is reached
    if it is alive and one of its parents was reached one level nearer, and
    an alive node below the cap that the flood missed is reached if one of
    its neighbours was.  The truncation probe then expands the reached cap
    level in prefix blocks, as the sweep does.
    """
    from repro.permutations.ranking import CHUNK_NODES, permutation_unrank

    n = source.n
    frame = _identity_ball(source.generators, n, max_depth)
    # One permutation: the scalar unrank is still 6-9x cheaper than a batch of one.
    perm = permutation_unrank(origin_index, n)
    if not excluded.size:
        return _SymmetricBall(source, frame, perm)
    rows, row_of, parents = frame.adjacency()

    def neighbor_rows(positions):
        return rows[row_of[positions]]

    faults = _frame_keys(excluded, perm, n)
    positions, inside = frame.locate(faults)
    alive = _np.ones(frame.keys.size, dtype=bool)
    alive[positions[inside]] = False
    beyond = _np.sort(faults[~inside])
    distances = _np.full(frame.keys.size, -1, dtype=_np.int64)
    deepest, _ = _flood_levels(
        neighbor_rows, distances, 0, alive, max_level=max_depth - 1
    )
    if deepest == max_depth - 1:
        # Settle the cap level: parents lost to the faults, and detours.
        lost = _np.flatnonzero((frame.levels == deepest) & (distances != deepest))
        children = neighbor_rows(lost).reshape(-1)
        children = children[frame.levels[children] == max_depth]
        kept = alive & (parents > _np.bincount(children, minlength=frame.keys.size))
        strays = _np.flatnonzero(alive & (frame.levels < max_depth) & (distances < 0))
        detoured = (distances[neighbor_rows(strays)] == deepest).any(axis=1)
        distances[kept] = max_depth
        distances[strays[detoured]] = max_depth
        if kept.any() or detoured.any():
            deepest = max_depth
    truncated = False
    if deepest == max_depth:
        # One escaping neighbour settles the bit: a neighbour outside the
        # healthy ball escapes unless it is a fault, one inside it if it is
        # alive and unreached.
        rim = _np.flatnonzero(distances == max_depth)
        start, width = 0, 1
        while start < rim.size and not truncated:
            stop = min(start + width, rim.size)
            neighbours = source.neighbor_keys(frame.keys[rim[start:stop]]).reshape(-1)
            positions, inside = frame.locate(neighbours)
            escapes = _np.where(
                inside,
                alive[positions] & (distances[positions] < 0),
                ~_in_sorted(neighbours, beyond),
            )
            truncated = bool(escapes.any())
            start, width = stop, min(8 * width, CHUNK_NODES)
    return _SymmetricBall(source, frame, perm, (distances, truncated, deepest))


def _sweep_ball(neighbor_source, origin_index: int, max_depth: int, excluded=None):
    """The frontier sweep behind :func:`bounded_bfs_ball` -- its one BFS engine.

    Grows every table-backed, rank-keyed, ``n = 16`` or overriding-source
    ball, with or without exclusions, and the cached identity balls that
    symmetric balls are relabelled from; the parity oracle of the
    symmetric path.  *neighbor_source* is a :class:`NeighborSource`;
    *excluded* node indices may come in any order and must not hold the
    origin (:func:`bounded_bfs_ball` refuses that).
    """
    from repro.permutations.ranking import CHUNK_NODES

    if excluded is None:
        excluded = _np.empty(0, dtype=_np.int64)
    keys = neighbor_source.encode(_np.concatenate([[origin_index], excluded]))
    origin = keys[:1]
    # What a level may not add: the ball so far and the exclusions.
    blocked = _np.sort(keys)
    level_arrays = [origin]
    level_sizes = [1]
    frontier = origin
    truncated = False
    level = 0

    def unseen(rows):
        # Sorted distinct neighbours of *rows* that are not blocked.
        blocks = []
        for start in range(0, rows.size, CHUNK_NODES):
            candidates = neighbor_source.neighbor_keys(
                rows[start : start + CHUNK_NODES]
            ).reshape(-1)
            if candidates.dtype.kind == "i":  # index keys: drop -1 padding
                candidates = candidates[candidates >= 0]
            blocks.append(candidates)
        return _drop_members(_sorted_unique(_np.concatenate(blocks)), blocked)

    while frontier.size and level < max_depth:
        level += 1
        frontier = unseen(frontier)
        if frontier.size:
            level_arrays.append(frontier)
            level_sizes.append(int(frontier.size))
            # Two sorted runs: the stable sort merges them in O(n).
            blocked = _np.sort(
                _np.concatenate([blocked, frontier]), kind="stable"
            )
        else:
            level -= 1
            break
    if level == max_depth and frontier.size:
        # The cap stopped the sweep, not the graph: probe one level past
        # it to learn whether anything lies beyond.  One escaping node
        # settles the bit, so the last frontier is expanded in growing
        # prefix blocks (1, 8, 64, ... rows, each at most one chunk) and
        # the probe stops at the first block that escapes.
        start, width = 0, 1
        while start < frontier.size and not truncated:
            stop = min(start + width, frontier.size)
            truncated = bool(unseen(frontier[start:stop]).size)
            start, width = stop, min(8 * width, CHUNK_NODES)
    keys = _np.concatenate(level_arrays)
    distances = _np.repeat(
        _np.arange(len(level_sizes), dtype=_np.int64), level_sizes
    )
    order = _np.argsort(keys, kind="stable")  # merges the sorted levels
    return BoundedBall(
        keys=keys[order],
        distances=distances[order],
        truncated=truncated,
        levels=level,
        source=neighbor_source,
    )


def bfs_distances_from(topology: "Topology", origin):
    """Distances from *origin* to every node, indexed by ``node_index``.

    One whole-graph sweep over ``topology.neighbor_source()``: entry ``i``
    of the result is ``distance(origin, node_from_index(i))`` and
    unreachable nodes hold ``-1``.  The sweep runs for every topology, the
    star included, so the result is a measurement; the star's closed form
    is ``StarGraph.distances_from``.  Returns a NumPy ``int64`` array.
    """
    origin = topology.validate_node(origin)
    return index_bfs_distances(topology.neighbor_source(), topology.node_index(origin))


@dataclass(frozen=True)
class DistanceSummary:
    """Whole-graph metric aggregates over every ordered pair of nodes."""

    diameter: int
    average_distance: float
    num_nodes: int
    connected: bool


#: Sources per block of the all-sources sweep: one bit each in a node's reach
#: row, so each per-node array of a block holds ``num_nodes * 128`` bytes.
#: Narrower blocks repeat the per-level gathers more often; wider ones stop
#: paying off once the rows outgrow the cache (measured on S_7 and P_6).
SWEEP_SOURCE_BLOCK = 1024


def all_sources_level_counts(table):
    """Ordered-pair counts per distance, from one bit-parallel all-sources BFS.

    Entry ``d`` of the result is the number of ordered ``(source, target)``
    pairs at distance ``d`` over the adjacency index *table* (a
    ``(num_nodes, width)`` array padded with ``-1``, such as
    :meth:`~repro.topology.base.Topology.neighbor_index_table`); entry 0 is
    ``num_nodes`` and the ``int64`` array ends at the largest finite
    distance.  The adjacency must be symmetric, as it is for every topology
    of this package: a node's new sources are pulled from its own neighbour
    row.

    Sources run in blocks of :data:`SWEEP_SOURCE_BLOCK`.  Within a block each
    node holds the sources that reach it as packed bits; one level ORs the
    frontier rows of every neighbour column (padding reads a zero row), keeps
    the bits not yet reached and counts them with ``np.bitwise_count``.  A
    level costs ``num_nodes * width`` row gathers for the whole block, where
    a per-source BFS costs that much per source.
    """
    table = _np.asarray(table, dtype=_np.int64)
    num_nodes = int(table.shape[0])
    # Padding (-1) points at the zero row appended after the last node.
    columns = _np.where(table < 0, num_nodes, table).T
    counts = _np.zeros(num_nodes, dtype=_np.int64)
    for first in range(0, num_nodes, SWEEP_SOURCE_BLOCK):
        sources = _np.arange(first, min(first + SWEEP_SOURCE_BLOCK, num_nodes))
        offsets = sources - first
        reach = _np.zeros((num_nodes, (offsets.size + 63) // 64), dtype=_np.uint64)
        reach[sources, offsets >> 6] = _np.left_shift(
            _np.uint64(1), (offsets & 63).astype(_np.uint64)
        )
        frontier = _np.zeros((num_nodes + 1, reach.shape[1]), dtype=_np.uint64)
        frontier[:num_nodes] = reach
        counts[0] += sources.size
        level = 0
        while True:
            pulled = frontier[columns[0]]
            for column in columns[1:]:
                pulled |= frontier[column]
            pulled &= ~reach
            found = int(_np.bitwise_count(pulled).sum())
            if not found:
                break
            level += 1
            counts[level] += found
            reach |= pulled
            frontier[:num_nodes] = pulled
    return _np.trim_zeros(counts, "b")


def distance_summary(topology: "Topology") -> DistanceSummary:
    """Diameter and average distance over every ordered pair of nodes.

    One bit-parallel all-sources sweep over ``topology.neighbor_index_table()``
    (:func:`all_sources_level_counts`) yields the number of pairs at each
    distance, and both aggregates fold from those counts; no distance matrix
    is materialised.  The sweep runs for every topology, the star included.
    Unreachable pairs are left out of both aggregates and clear
    ``connected``.
    """
    num_nodes = topology.num_nodes
    counts = all_sources_level_counts(topology.neighbor_index_table()).tolist()
    pairs = sum(counts) - counts[0]
    total = sum(level * found for level, found in enumerate(counts))
    return DistanceSummary(
        diameter=len(counts) - 1,
        average_distance=total / pairs if pairs > 0 else 0.0,
        num_nodes=num_nodes,
        connected=sum(counts) == num_nodes * num_nodes,
    )


def connected_under_alive_mask(topology: "Topology", alive) -> bool:
    """True if the subgraph induced by the alive nodes is connected.

    *alive* is a boolean mask indexed by ``node_index`` (NumPy array or any
    sequence of booleans).  The flood fill runs as frontier gathers over the
    adjacency index table -- no tuple sets are built.  An empty alive set is
    not connected (matching the dict reference in
    :func:`repro.topology.properties.connectivity_after_faults_reference`).
    """
    alive_mask = _np.asarray(alive, dtype=bool)
    alive_indices = _np.flatnonzero(alive_mask)
    if alive_indices.size == 0:
        return False
    distances = index_bfs_distances(
        topology.neighbor_source(), int(alive_indices[0]), alive_mask=alive_mask
    )
    return int((distances >= 0).sum()) == int(alive_indices.size)
