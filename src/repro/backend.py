"""Chunk-size and adjacency-source selection for the whole-graph kernels.

Two environment knobs tune the whole-graph kernels without touching any call
site:

``REPRO_CHUNK_NODES`` (positive int, default ``1048576``)
    How many node indices a streamed kernel processes per block.  The chunked
    sweeps (:func:`repro.topology.routing.star_distances_from`, the frontier
    BFS, the masked floods, the batched embedding tallies) touch
    ``O(chunk * degree)`` elements at a time instead of whole ``n!`` arrays,
    which is what keeps peak RSS bounded on the large graphs.  Chunking is
    exact: every chunk size produces bit-identical results (only wall-clock
    and memory change).

``REPRO_NEIGHBORS`` (``auto`` | ``table`` | ``implicit``, default ``auto``)
    Where the whole-graph kernels read adjacency from.  ``table`` serves the
    in-RAM move tables; ``implicit`` computes neighbour blocks on the fly as
    ``unrank -> apply generator -> rank``
    (:func:`repro.permutations.ranking.implicit_neighbor_block`) with no
    table at all; ``auto`` uses tables through
    :data:`repro.permutations.ranking.MAX_TABLE_DEGREE` and switches to the
    implicit backend beyond it.  The choice never changes results -- the
    implicit blocks are bit-identical to the table rows
    (``tests/tables/test_implicit_neighbors.py``).
"""

from __future__ import annotations

import os

from repro.exceptions import InvalidParameterError

__all__ = [
    "CHUNK_ENV",
    "NEIGHBORS_ENV",
    "NEIGHBOR_MODES",
    "DEFAULT_CHUNK_NODES",
    "neighbor_mode",
    "resolve_chunk_nodes",
]

CHUNK_ENV = "REPRO_CHUNK_NODES"
NEIGHBORS_ENV = "REPRO_NEIGHBORS"
NEIGHBOR_MODES = ("auto", "table", "implicit")

#: Default node-index block size of the streamed kernels (~8 MB of int64
#: indices per gathered column; the full working set of one chunk stays in
#: the tens of megabytes at the top table degrees).
DEFAULT_CHUNK_NODES = 1 << 20


def neighbor_mode() -> str:
    """The requested adjacency source (``REPRO_NEIGHBORS``), validated.

    Read at call time (not import time), so one process can switch
    between table-backed and implicit kernels mid-campaign.  The selection
    itself lives in :func:`repro.topology.routing.permutation_neighbor_source`
    (``auto`` resolves against the table-degree bound there).
    """
    value = os.environ.get(NEIGHBORS_ENV, "").strip().lower() or "auto"
    if value not in NEIGHBOR_MODES:
        raise InvalidParameterError(
            f"{NEIGHBORS_ENV} must be one of {NEIGHBOR_MODES}, got {value!r}"
        )
    return value


def resolve_chunk_nodes(explicit=None) -> int:
    """The node-index block size of the streamed kernels.

    Precedence: an explicit ``chunk_nodes=`` argument, then the
    ``REPRO_CHUNK_NODES`` environment variable, then
    :data:`DEFAULT_CHUNK_NODES`.  Any positive int is valid -- chunk size
    never changes results, only the memory/throughput trade-off.
    """
    if explicit is not None:
        value = explicit
    else:
        raw = os.environ.get(CHUNK_ENV, "").strip()
        if not raw:
            return DEFAULT_CHUNK_NODES
        try:
            value = int(raw)
        except ValueError:
            raise InvalidParameterError(
                f"{CHUNK_ENV} must be a positive integer, got {raw!r}"
            ) from None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InvalidParameterError(
            f"chunk_nodes must be a positive integer, got {value!r}"
        )
    return value
