"""Embedding quality metrics.

Section 3.1 of the paper defines:

* **expansion** -- ``|V(S)| / |V(G)|``;
* **dilation** -- the maximum, over guest edges, of the length of the shortest
  host path between the images of the endpoints.  (For a concrete embedding
  with explicit edge paths we also report the maximum *assigned* path length,
  which upper-bounds the dilation; for the paper's embedding the two agree.)
* **congestion** -- the maximum, over host edges, of the number of assigned
  guest-edge paths that traverse it.

We additionally report the *average* dilation and the host-node load (how many
guest nodes map to each host node -- always one for expansion-1 embeddings),
which are standard in the embedding literature and useful in the experiments.

Measurement of the paper's
:class:`~repro.embedding.mesh_to_star.MeshToStarEmbedding` runs index-native
(PR 3): the canonical Lemma-2 paths are never materialised as tuples -- every
hop is a gather through the star generator move tables, and the
dilation/congestion/load tallies accumulate into one bounded usage array over
dense ``(min rank, generator)`` host-link ids (:func:`_mesh_to_star_edge_data`).
Edges are processed in :data:`~repro.permutations.ranking.CHUNK_NODES`
blocks (bit-exact for every block size) so the kernel streams past the
table degree too.  That kernel is what makes the degree-8 Theorem-4 sweep
run in seconds.  Other
embeddings walk their edge paths
per-hop (the construction cost dominates there); that implementation is
:func:`measure_embedding_reference`, which doubles as the parity oracle for
the batched kernel (``tests/embedding/test_base_and_metrics.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as _np

from repro import telemetry
from repro.embedding.base import Embedding
from repro.exceptions import EmbeddingError
from repro.topology.base import Node
from repro.utils.itertools_ext import pairwise

__all__ = [
    "EmbeddingMetrics",
    "measure_embedding",
    "measure_embedding_reference",
    "dilation",
    "expansion",
    "congestion",
    "average_dilation",
    "verify_embedding",
]

UndirectedEdge = Tuple[Node, Node]


class _EdgeInterner:
    """Canonical ``(rank, rank)`` ids for undirected host edges.

    Host nodes are interned to dense integer ranks on first sight (insertion
    order -- the ids only need to be stable within one measurement), so the
    congestion counters hash small int pairs instead of tuple-of-tuple edges.
    """

    __slots__ = ("_rank_of",)

    def __init__(self) -> None:
        self._rank_of: Dict[Node, int] = {}

    def node_id(self, node: Node) -> int:
        """The dense integer rank of one host node."""
        return self._rank_of.setdefault(node, len(self._rank_of))

    def edge_id(self, u: Node, v: Node) -> Tuple[int, int]:
        a = self.node_id(u)
        b = self.node_id(v)
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class EmbeddingMetrics:
    """All quality measures of one embedding, computed by :func:`measure_embedding`."""

    name: str
    guest_nodes: int
    host_nodes: int
    guest_edges: int
    expansion: float
    dilation: int
    shortest_path_dilation: int
    average_dilation: float
    congestion: int
    max_load: int
    edge_length_histogram: Dict[int, int] = field(default_factory=dict)



def expansion(embedding: Embedding) -> float:
    """``|V(host)| / |V(guest)|``."""
    return embedding.host.num_nodes / embedding.guest.num_nodes


def dilation(embedding: Embedding) -> int:
    """Maximum length of the host paths assigned to guest edges."""
    data = _mesh_to_star_edge_data(embedding)
    if data is not None:
        data.raise_on_invalid()
        return data.dilation
    longest = 0
    for _, path in embedding.edge_paths():
        longest = max(longest, len(path) - 1)
    return longest


def average_dilation(embedding: Embedding) -> float:
    """Mean assigned path length over all guest edges."""
    data = _mesh_to_star_edge_data(embedding)
    if data is not None:
        data.raise_on_invalid()
        return data.average_dilation
    total = 0
    count = 0
    for _, path in embedding.edge_paths():
        total += len(path) - 1
        count += 1
    return total / count if count else 0.0


def congestion(embedding: Embedding) -> int:
    """Maximum number of assigned paths crossing any single host edge."""
    data = _mesh_to_star_edge_data(embedding)
    if data is not None:
        data.raise_on_invalid()
        return data.congestion
    counter: Counter = Counter()
    edges = _EdgeInterner()
    for _, path in embedding.edge_paths():
        for a, b in pairwise(path):
            counter[edges.edge_id(a, b)] += 1
    return max(counter.values()) if counter else 0


def verify_embedding(embedding: Embedding, *, max_dilation: Optional[int] = None) -> bool:
    """Validate the embedding and optionally assert a dilation bound.

    Returns True on success; raises :class:`repro.exceptions.EmbeddingError`
    (from :meth:`Embedding.validate`) or
    :class:`repro.exceptions.DilationViolationError` on failure.

    For the canonical mesh-to-star embedding validation runs vectorised: the
    rank vertex map is checked injective and every canonical hop is replayed
    through the generator move tables (endpoint, adjacency-by-construction
    and simplicity checks on whole arrays) -- see :func:`_mesh_to_star_edge_data`.
    """
    from repro.exceptions import DilationViolationError

    data = _mesh_to_star_edge_data(embedding)
    if data is not None:
        data.raise_on_invalid()
    else:
        embedding.validate()
    if max_dilation is not None:
        actual = data.dilation if data is not None else dilation(embedding)
        if actual > max_dilation:
            raise DilationViolationError(
                f"embedding {embedding.name!r} has dilation {actual} > claimed {max_dilation}"
            )
    return True


def measure_embedding(embedding: Embedding) -> EmbeddingMetrics:
    """Compute every metric in a single pass over the edge paths.

    Dispatches to the move-table batched kernel for the canonical
    mesh-to-star embedding (no per-edge tuples at all); every other embedding
    walks its edge paths once through :func:`measure_embedding_reference` --
    the per-hop path construction dominates there, so a vectorised tally
    would buy nothing.  Identical results on every valid embedding.
    """
    data = _mesh_to_star_edge_data(embedding)
    if data is not None:
        return data.metrics()
    return measure_embedding_reference(embedding)


def measure_embedding_reference(embedding: Embedding) -> EmbeddingMetrics:
    """Per-path tuple/Counter measurement (the seed implementation).

    Retained as the parity oracle for :func:`measure_embedding` and as the
    baseline side of the benchmark ablation.
    """
    images = embedding.vertex_images()
    shortest_routed = getattr(embedding, "shortest_path_routed", False)

    edge_lengths: Counter = Counter()
    link_usage: Counter = Counter()
    edges = _EdgeInterner()
    shortest_dilation = 0
    guest_edges = 0
    for (u, v), path in embedding.edge_paths():
        guest_edges += 1
        length = len(path) - 1
        edge_lengths[length] += 1
        for a, b in pairwise(path):
            link_usage[edges.edge_id(a, b)] += 1
        if shortest_routed:
            shortest = length
        else:
            shortest = embedding.host.distance(images[u], images[v])
        shortest_dilation = max(shortest_dilation, shortest)

    load: Counter = Counter(images.values())

    total_length = sum(length * count for length, count in edge_lengths.items())
    return EmbeddingMetrics(
        name=embedding.name,
        guest_nodes=embedding.guest.num_nodes,
        host_nodes=embedding.host.num_nodes,
        guest_edges=guest_edges,
        expansion=embedding.host.num_nodes / embedding.guest.num_nodes,
        dilation=max(edge_lengths) if edge_lengths else 0,
        shortest_path_dilation=shortest_dilation,
        average_dilation=(total_length / guest_edges) if guest_edges else 0.0,
        congestion=max(link_usage.values()) if link_usage else 0,
        max_load=max(load.values()) if load else 0,
        edge_length_histogram=dict(sorted(edge_lengths.items())),
    )


# ------------------------------------------------ mesh-to-star batched kernel
@dataclass(frozen=True)
class _MeshToStarEdgeData:
    """Aggregates of the canonical Lemma-2 paths, computed without tuples.

    Everything an embedding metric or validation needs, reduced from whole
    arrays: per-edge path lengths, interned host-link ids for every hop and
    the validity flags of the batched construction.
    """

    name: str
    num_nodes: int
    guest_edges: int
    dilation: int
    average_dilation: float
    congestion: int
    max_load: int
    edge_length_histogram: Dict[int, int]
    injective: bool
    paths_consistent: bool

    def raise_on_invalid(self) -> None:
        if not self.injective:
            raise EmbeddingError(f"vertex map of {self.name!r} is not injective")
        if not self.paths_consistent:
            raise EmbeddingError(
                f"canonical paths of {self.name!r} do not connect the mapped endpoints"
            )

    def metrics(self) -> EmbeddingMetrics:
        self.raise_on_invalid()
        return EmbeddingMetrics(
            name=self.name,
            guest_nodes=self.num_nodes,
            host_nodes=self.num_nodes,
            guest_edges=self.guest_edges,
            expansion=1.0,
            dilation=self.dilation,
            # Lemma 2: the canonical paths are shortest host paths
            # (embedding.shortest_path_routed is True by construction).
            shortest_path_dilation=self.dilation,
            average_dilation=self.average_dilation,
            congestion=self.congestion,
            max_load=self.max_load,
            edge_length_histogram=dict(self.edge_length_histogram),
        )


def _mesh_to_star_edge_data(embedding: Embedding) -> Optional[_MeshToStarEdgeData]:
    """The batched edge kernel for the canonical embedding, or None.

    Returns None (caller falls back to the tuple walk) unless *embedding* is
    a :class:`~repro.embedding.mesh_to_star.MeshToStarEmbedding` of an
    int64-rank degree (``n <= 20``): tables serve it through the table
    bound, the table-free implicit source past it.  The result is cached on
    the embedding instance.
    """
    from repro.embedding.mesh_to_star import MeshToStarEmbedding
    from repro.permutations.ranking import within_int64_rank_degree

    if type(embedding) is not MeshToStarEmbedding:
        return None
    if not within_int64_rank_degree(embedding.n):
        return None
    cached = getattr(embedding, "_cached_fast_edge_data", None)
    if cached is None:
        cached = _build_mesh_to_star_edge_data(embedding)
        setattr(embedding, "_cached_fast_edge_data", cached)
    return cached


def _build_mesh_to_star_edge_data(embedding) -> _MeshToStarEdgeData:
    from repro.permutations.ranking import (
        CHUNK_NODES,
        all_permutations_array,
        unrank_batch,
        within_table_degree,
    )
    from repro.topology.routing import _sorted_unique

    n = embedding.n
    star = embedding.star
    mesh = embedding.mesh
    num_nodes = star.num_nodes
    width = n - 1

    ranks = _np.asarray(embedding.rank_vertex_map(), dtype=_np.int64)
    # Column j-1 = generator g_j, whether the source is a materialised table
    # or the table-free implicit source.
    neighbor_source = star.neighbor_source()

    injective = (
        ranks.size == num_nodes
        and bool((ranks >= 0).all())
        and bool((ranks < num_nodes).all())
        and _sorted_unique(ranks).size == ranks.size
    )
    if not injective:
        # Out-of-range ranks would fault the gathers below; report the broken
        # vertex map through the normal EmbeddingError channel instead.
        return _MeshToStarEdgeData(
            name=embedding.name,
            num_nodes=num_nodes,
            guest_edges=0,
            dilation=0,
            average_dilation=0.0,
            congestion=0,
            max_load=0,
            edge_length_histogram={},
            injective=False,
            paths_consistent=False,
        )

    if within_table_degree(n):
        perms = all_permutations_array(n)

        def permutation_rows(rank_block):
            return perms[rank_block].astype(_np.int64)

    else:
        # Past the table degree no (n!, n) population array exists; unrank
        # the endpoint blocks on the fly instead.
        def permutation_rows(rank_block):
            return unrank_batch(rank_block, n).astype(_np.int64)

    # Star edges are (node rank, generator) pairs, so the undirected host
    # link ``{r, move[r, g]}`` has the dense id ``min * (n-1) + g``: usage
    # tallies accumulate into one bounded array instead of a concatenate +
    # np.unique over every traversed hop (whose working set would grow with
    # the *edge* count, gigabytes at the top degrees).
    usage = _np.zeros(num_nodes * width, dtype=_np.int64)
    any_links = False
    one_hop_edges = 0
    three_hop_edges = 0
    consistent = True
    with telemetry.span(
        "kernel.embedding_tally",
        degree=n,
        num_nodes=num_nodes,
        neighbor_source="table" if neighbor_source.table is not None else "implicit",
    ) as sp:
        blocks = 0
        for _dim, u_indices, v_indices in mesh.dimension_edge_indices():
            for start in range(0, len(u_indices), CHUNK_NODES):
                u_ranks = ranks[u_indices[start : start + CHUNK_NODES]]
                v_ranks = ranks[v_indices[start : start + CHUNK_NODES]]
                if u_ranks.size == 0:
                    continue
                blocks += 1
                source = permutation_rows(u_ranks)
                target = permutation_rows(v_ranks)
                links, ones, threes, block_ok = _mesh_star_edge_block(
                    source, target, neighbor_source, u_ranks, v_ranks, n
                )
                one_hop_edges += ones
                three_hop_edges += threes
                consistent = consistent and bool(block_ok)
                if links.size:
                    any_links = True
                    ids, counts = _np.unique(links, return_counts=True)
                    usage[ids] += counts
        if telemetry.trace_enabled():
            sp.add(chunks=blocks, guest_edges=one_hop_edges + three_hop_edges)

    guest_edges = one_hop_edges + three_hop_edges
    load = _np.bincount(ranks, minlength=num_nodes)
    histogram = {}
    if one_hop_edges:
        histogram[1] = one_hop_edges
    if three_hop_edges:
        histogram[3] = three_hop_edges

    return _MeshToStarEdgeData(
        name=embedding.name,
        num_nodes=num_nodes,
        guest_edges=guest_edges,
        dilation=3 if three_hop_edges else (1 if one_hop_edges else 0),
        average_dilation=(
            (one_hop_edges + 3.0 * three_hop_edges) / guest_edges
            if guest_edges
            else 0.0
        ),
        congestion=int(usage.max()) if any_links else 0,
        max_load=int(load.max()),
        edge_length_histogram=histogram,
        injective=injective,
        paths_consistent=consistent,
    )


def _mesh_star_edge_block(source, target, neighbor_source, u_ranks, v_ranks, n: int):
    """Vectorised Lemma-2 path tallies for one block of mesh edges.

    *neighbor_source* is any :class:`~repro.topology.routing.NeighborSource`
    over the host star graph; the per-row generator gathers go through
    ``neighbor_along``, so table-backed and implicit adjacency produce the
    same tallies.  Returns ``(link_ids, one_hop_count, three_hop_count,
    consistent)``.
    """
    width = n - 1
    differs = source != target
    rows = _np.arange(source.shape[0])
    # A mesh edge joins permutations differing by one symbol transposition:
    # exactly two positions differ, with the symbols exchanged (Lemma 3).
    i = differs.argmax(axis=1)
    j = (n - 1) - differs[:, ::-1].argmax(axis=1)
    consistent = bool(
        (differs.sum(axis=1) == 2).all()
        and (source[rows, i] == target[rows, j]).all()
        and (source[rows, j] == target[rows, i]).all()
    )
    one_hop = i == 0
    link_parts: List = []

    # Distance-1 edges: a single generator move g_j.
    r0 = u_ranks[one_hop]
    g = j[one_hop] - 1
    hop = neighbor_source.neighbor_along(r0, g)
    consistent = consistent and bool((hop == v_ranks[one_hop]).all())
    link_parts.append(_np.minimum(r0, hop) * width + g)

    # Distance-3 edges: the canonical g_i, g_j, g_i path of Lemma 2.
    r0 = u_ranks[~one_hop]
    gi = i[~one_hop] - 1
    gj = j[~one_hop] - 1
    r1 = neighbor_source.neighbor_along(r0, gi)
    r2 = neighbor_source.neighbor_along(r1, gj)
    r3 = neighbor_source.neighbor_along(r2, gi)
    consistent = consistent and bool(
        (r3 == v_ranks[~one_hop]).all()
        # Simplicity: generator moves are fixed-point free, so consecutive
        # hops differ; the non-consecutive pairs are checked explicitly.
        and (r0 != r2).all()
        and (r1 != r3).all()
        and (r0 != r3).all()
    )
    link_parts.append(_np.minimum(r0, r1) * width + gi)
    link_parts.append(_np.minimum(r1, r2) * width + gj)
    link_parts.append(_np.minimum(r2, r3) * width + gi)

    links = _np.concatenate(link_parts)
    return links, int(one_hop.sum()), int((~one_hop).sum()), consistent
