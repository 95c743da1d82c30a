"""Gray-code embedding of meshes into hypercubes (baseline).

The paper's introduction motivates the star-graph embedding by the classical
result that meshes embed efficiently in hypercubes (Saad & Schultz 1988,
Chan & Chin 1988).  This module implements that baseline: each mesh dimension
is encoded with a reflected binary Gray code, so mesh neighbours differ in a
single bit of the concatenated code and the embedding has **dilation 1**.  The
price is expansion: a side of length ``l`` consumes ``ceil(log2 l)`` bits, so
the hypercube may have up to twice as many nodes per dimension as the mesh
(expansion 1 exactly when every side is a power of two).

The benchmark/without-benchmark comparison star-vs-hypercube in the
experiments uses this class as the hypercube-side competitor.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.embedding.base import Embedding
from repro.exceptions import InvalidParameterError
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh
from repro.utils.validation import check_positive_int

__all__ = ["gray_code", "MeshToHypercubeEmbedding"]

Node = Tuple[int, ...]


def gray_code(value: int) -> int:
    """The reflected binary Gray code of *value*.

    Consecutive integers map to codewords differing in exactly one bit.

    >>> [gray_code(i) for i in range(4)]
    [0, 1, 3, 2]
    """
    if value < 0:
        raise InvalidParameterError(f"value must be >= 0, got {value}")
    return value ^ (value >> 1)


class MeshToHypercubeEmbedding(Embedding):
    """Dilation-1 Gray-code embedding of a :class:`Mesh` into a :class:`Hypercube`.

    Parameters
    ----------
    mesh:
        The guest mesh.  Every side of length 1 consumes zero bits; a side of
        length ``l >= 2`` consumes ``ceil(log2 l)`` bits of the hypercube
        address.

    Examples
    --------
    >>> emb = MeshToHypercubeEmbedding(Mesh((4, 3, 2)))
    >>> emb.host.n           # 2 + 2 + 1 bits
    5
    >>> emb.map_node((0, 0, 0))
    (0, 0, 0, 0, 0)
    """

    def __init__(self, mesh: Mesh):
        if not isinstance(mesh, Mesh):
            raise InvalidParameterError("guest must be a Mesh instance")
        self._bits_per_dim: List[int] = [
            0 if side == 1 else max(1, math.ceil(math.log2(side))) for side in mesh.sides
        ]
        total_bits = sum(self._bits_per_dim)
        check_positive_int(total_bits, "total hypercube dimension", minimum=1)
        host = Hypercube(total_bits)
        super().__init__(
            mesh,
            host,
            vertex_map=self._map_coords,
            name=f"mesh-to-hypercube(sides={mesh.sides})",
        )

    def _map_coords(self, coords: Sequence[int]) -> Node:
        bits: List[int] = []
        for value, width in zip(coords, self._bits_per_dim):
            code = gray_code(value)
            bits.extend((code >> b) & 1 for b in range(width))
        return tuple(bits)
