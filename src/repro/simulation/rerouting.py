"""Fault-aware rerouting: BFS detours on the masked adjacency table.

When nodes fail, the closed-form routes of the healthy topology (e.g. the
star graph's cycle-structure paths) stop being available; survivors reroute
by searching the *surviving* subgraph.  This module runs that search as
frontier sweeps over ``topology.neighbor_source()`` (a materialised table or,
past the table ceiling, the table-free implicit source) restricted to an
alive mask -- the same index-native pattern as
:func:`repro.topology.routing.bfs_distances_from` and
:func:`repro.topology.routing.connected_under_alive_mask`, so no tuple sets
or per-fault graph copies are built.

:func:`masked_bfs_distances` is the campaign workhorse (one sweep serves all
targets of a source); :func:`masked_route` materialises one actual detour
path by walking the same sweep's distances back from the target, used by the
property tests to check that the reported distances are *realisable* routes,
edge by edge.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

import numpy as _np

from repro.exceptions import InvalidParameterError
from repro.topology.routing import index_bfs_distances

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology.base import Topology

__all__ = ["masked_bfs_distances", "masked_route"]


def _check_alive_origin(alive, origin_index: int, num_nodes: int) -> None:
    if not 0 <= origin_index < num_nodes:
        raise InvalidParameterError(
            f"origin index {origin_index!r} outside [0, {num_nodes})"
        )
    if not bool(alive[origin_index]):
        raise InvalidParameterError(
            f"origin index {origin_index} is not alive; routes start at survivors"
        )


def masked_bfs_distances(topology: "Topology", origin_index: int, alive):
    """Distances from *origin_index* through alive nodes only.

    Parameters
    ----------
    topology : Topology
        The healthy topology; faults are expressed through *alive*, not by
        rebuilding the graph.
    origin_index : int
        ``node_index`` of the (alive) source.
    alive : boolean mask
        Indexed by ``node_index``; dead nodes are impassable *and*
        unreachable.

    Returns
    -------
    distances
        Indexed by ``node_index``: hop count of the shortest surviving
        detour, ``-1`` for dead or disconnected nodes, as a NumPy ``int64``
        array.

    This is the shared chunked frontier sweep
    :func:`repro.topology.routing.index_bfs_distances` restricted to the
    alive mask, fed by
    ``topology.neighbor_source()`` -- a materialised table or, past the
    table ceiling, the table-free implicit source.
    """
    return index_bfs_distances(
        topology.neighbor_source(), origin_index, alive_mask=alive
    )


def masked_route(
    topology: "Topology", source_index: int, target_index: int, alive
) -> Optional[List[int]]:
    """One shortest surviving detour as an explicit node-index path.

    Runs one masked sweep (:func:`masked_bfs_distances`'s engine) from
    *source_index*, then walks back from *target_index*, each step to an
    alive neighbour one hop closer, and returns the path
    ``[source_index, ..., target_index]`` (so ``len(path) - 1`` hops), or
    ``None`` when the target is dead or unreachable.  Every consecutive pair
    is an edge of *topology* and every visited node is alive -- the property
    tests verify both.
    """
    neighbor_source = topology.neighbor_source()
    num_nodes = topology.num_nodes
    alive_mask = _np.asarray(alive, dtype=bool)
    _check_alive_origin(alive_mask, source_index, num_nodes)
    if not 0 <= target_index < num_nodes:
        raise InvalidParameterError(
            f"target index {target_index!r} outside [0, {num_nodes})"
        )
    if not alive_mask[target_index]:
        return None
    distances = index_bfs_distances(
        neighbor_source, source_index, alive_mask=alive_mask
    )
    if distances[target_index] < 0:
        return None
    path = [int(target_index)]
    for level in range(int(distances[target_index]) - 1, -1, -1):
        row = neighbor_source.neighbor_block([path[-1]])[0]
        row = row[row >= 0]
        path.append(int(row[distances[row] == level][0]))
    path.reverse()
    return path
