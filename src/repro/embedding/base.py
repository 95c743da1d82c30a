"""The generic embedding container.

Section 3.1 of the paper defines an embedding of a guest graph ``G`` into a
host graph ``S`` as (a) an injective map from ``V(G)`` to ``V(S)`` and (b) a
map from every edge of ``G`` to a simple path of ``S`` connecting the images
of its endpoints.  :class:`Embedding` stores exactly those two maps plus
references to the guest and host topologies, and knows how to validate itself
(injectivity, endpoints, path validity/simplicity).

The quality measures defined in the same section -- expansion, dilation,
congestion -- are computed by :mod:`repro.embedding.metrics` on top of this
container.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.exceptions import EmbeddingError
from repro.topology.base import Node, Topology
from repro.utils.itertools_ext import pairwise

__all__ = ["Embedding"]

Edge = Tuple[Node, Node]
Path = List[Node]


class Embedding:
    """An embedding of a guest topology into a host topology.

    Parameters
    ----------
    guest, host:
        The two topologies.  ``host.num_nodes >= guest.num_nodes`` is required
        for an embedding to exist.
    vertex_map:
        Either a mapping ``guest node -> host node`` covering every guest
        node, or a callable computing the host node on demand (it is then
        materialised lazily and cached per node).
    edge_path:
        Optional callable ``(guest_u, guest_v) -> [host nodes]`` returning the
        host path (including both endpoints) assigned to a guest edge.  When
        omitted, shortest host paths are used.
    name:
        Human-readable label used in reports.
    """

    def __init__(
        self,
        guest: Topology,
        host: Topology,
        vertex_map: "Mapping[Node, Node] | Callable[[Node], Node]",
        *,
        edge_path: Optional[Callable[[Node, Node], Path]] = None,
        name: str = "embedding",
    ):
        if host.num_nodes < guest.num_nodes:
            raise EmbeddingError(
                f"host has {host.num_nodes} nodes but guest has {guest.num_nodes}; "
                "an embedding requires |S| >= |G|"
            )
        self._guest = guest
        self._host = host
        self._name = name
        self._edge_path_fn = edge_path
        if callable(vertex_map) and not isinstance(vertex_map, Mapping):
            self._vertex_fn: Optional[Callable[[Node], Node]] = vertex_map
            self._vertex_cache: Dict[Node, Node] = {}
        else:
            self._vertex_fn = None
            self._vertex_cache = {tuple(k): tuple(v) for k, v in dict(vertex_map).items()}

    # ------------------------------------------------------------ properties
    @property
    def guest(self) -> Topology:
        """The guest topology ``G``."""
        return self._guest

    @property
    def host(self) -> Topology:
        """The host topology ``S``."""
        return self._host

    @property
    def name(self) -> str:
        """Human-readable label."""
        return self._name

    @property
    def shortest_path_routed(self) -> bool:
        """True when every assigned edge path is a shortest host path.

        Embeddings without an explicit ``edge_path`` function route along
        shortest host paths by construction; subclasses with custom paths that
        are provably shortest (e.g. the paper's Lemma-2 canonical paths)
        override this so :func:`repro.embedding.metrics.measure_embedding` can
        reuse the assigned path length as the shortest-path distance.
        """
        return self._edge_path_fn is None

    # ------------------------------------------------------------------ maps
    def map_node(self, guest_node: Node) -> Node:
        """Image of a guest node in the host graph (the paper's ``m(x)``)."""
        guest_node = self._guest.validate_node(guest_node)
        if guest_node in self._vertex_cache:
            return self._vertex_cache[guest_node]
        if self._vertex_fn is None:
            raise EmbeddingError(f"vertex map does not cover guest node {guest_node!r}")
        image = self._host.validate_node(self._vertex_fn(guest_node))
        self._vertex_cache[guest_node] = image
        return image

    def __call__(self, guest_node: Node) -> Node:
        return self.map_node(guest_node)

    def map_edge(self, u: Node, v: Node) -> Path:
        """Host path assigned to the guest edge ``(u, v)`` (endpoints included)."""
        u = self._guest.validate_node(u)
        v = self._guest.validate_node(v)
        if not self._guest.has_edge(u, v):
            raise EmbeddingError(f"({u!r}, {v!r}) is not an edge of the guest graph")
        if self._edge_path_fn is not None:
            path = [self._host.validate_node(p) for p in self._edge_path_fn(u, v)]
        else:
            path = self._host.shortest_path(self.map_node(u), self.map_node(v))
        self._check_path(u, v, path)
        return path

    def vertex_images(self) -> Dict[Node, Node]:
        """The complete vertex map as a dictionary (materialises lazy maps)."""
        return {node: self.map_node(node) for node in self._guest.nodes()}

    def edge_paths(self) -> Iterable[Tuple[Edge, Path]]:
        """Iterate over every guest edge with its assigned host path."""
        for u, v in self._guest.edges():
            yield (u, v), self.map_edge(u, v)

    # ------------------------------------------------------------- validation
    def _check_path(self, u: Node, v: Node, path: Path) -> None:
        if len(path) < 1:
            raise EmbeddingError(f"empty path assigned to guest edge ({u!r}, {v!r})")
        if path[0] != self.map_node(u) or path[-1] != self.map_node(v):
            raise EmbeddingError(
                f"path for guest edge ({u!r}, {v!r}) does not connect the mapped endpoints"
            )
        for a, b in pairwise(path):
            # Path nodes are validated before this check runs, so the
            # closed-form adjacency predicate is safe (and much cheaper).
            if not self._host._adjacent(a, b):  # noqa: SLF001 - hot validation loop
                raise EmbeddingError(
                    f"path for guest edge ({u!r}, {v!r}) uses the non-edge ({a!r}, {b!r})"
                )
        if len(set(path)) != len(path):
            raise EmbeddingError(
                f"path for guest edge ({u!r}, {v!r}) is not simple: {path!r}"
            )

    def validate(self) -> None:
        """Fully validate the embedding.

        Checks that the vertex map is defined on every guest node, is
        injective, maps into the host vertex set, and that every guest edge is
        assigned a valid simple host path between the mapped endpoints.

        Raises
        ------
        EmbeddingError
            On the first violation found.
        """
        images = self.vertex_images()
        if len(set(images.values())) != len(images):
            seen: Dict[Node, Node] = {}
            for guest_node, host_node in images.items():
                if host_node in seen:
                    raise EmbeddingError(
                        f"vertex map is not injective: {guest_node!r} and "
                        f"{seen[host_node]!r} both map to {host_node!r}"
                    )
                seen[host_node] = guest_node
        for (u, v), path in self.edge_paths():
            # map_edge already validates each path; iterating forces the checks.
            assert path  # noqa: S101 - checked by _check_path

    # ------------------------------------------------------------------ dunder
    def __repr__(self) -> str:
        return (
            f"Embedding(name={self._name!r}, guest={self._guest!r}, host={self._host!r})"
        )
