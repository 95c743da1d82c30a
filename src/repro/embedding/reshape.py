"""Reshaping ``D_n`` into the Appendix's ``d``-dimensional mesh with dilation 1.

The Appendix states that the ``2*3*...*n`` mesh can simulate a ``d``-dimensional
mesh ``R = l_1 x ... x l_d`` (with the explicit side lengths of
:func:`repro.embedding.uniform.factorise_paper_mesh`) in O(1) time.  The
constructive content is an embedding of ``R`` into ``D_n`` in which every
``R``-edge maps to a single ``D_n``-edge:

* side ``l_k`` of ``R`` is the product of a *group* of original mesh sides
  (the factors ``n-(k-1), n-(k-1)-d, ...``);
* the coordinate ``x_k`` along ``R``-dimension ``k`` is expanded into the
  group's digits using the **reflected mixed-radix Gray code**, under which
  consecutive values differ in exactly one digit by exactly ±1;
* therefore stepping ``x_k -> x_k ± 1`` moves the image by one step along a
  single dimension of ``D_n`` -- dilation 1, expansion 1 (both meshes have
  ``n!`` nodes).

This is an extension beyond what the paper spells out (it only asserts the
O(1) simulation); the Gray-code construction realises it and is verified by
the tests (bijectivity, dilation 1) and measured by the embedding metrics.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.embedding.base import Embedding
from repro.embedding.metrics import measure_embedding
from repro.embedding.uniform import factorise_paper_mesh
from repro.exceptions import InvalidParameterError
from repro.topology.mesh import Mesh, paper_mesh
from repro.utils.validation import check_in_range, check_positive_int

__all__ = [
    "mixed_radix_gray_encode",
    "mixed_radix_gray_decode",
    "PaperMeshReshapeEmbedding",
]

Node = Tuple[int, ...]


def mixed_radix_gray_encode(value: int, radices: Sequence[int]) -> Tuple[int, ...]:
    """Digits of *value* in the reflected mixed-radix Gray code.

    The code enumerates the digit tuples of the mixed-radix system (most
    significant digit first) so that consecutive values differ in exactly one
    digit, by exactly ±1.  The construction is the classic reflection: the
    block of values sharing a leading digit ``i`` enumerates the remaining
    digits in forward order when ``i`` is even and in reverse order when ``i``
    is odd, recursively.

    >>> [mixed_radix_gray_encode(v, (2, 2)) for v in range(4)]
    [(0, 0), (0, 1), (1, 1), (1, 0)]
    """
    radices = tuple(radices)
    if not radices or any(r < 1 for r in radices):
        raise InvalidParameterError("radices must be non-empty and positive")
    total = 1
    for r in radices:
        total *= r
    if not (0 <= value < total):
        raise InvalidParameterError(f"value must be in [0, {total}), got {value}")
    gray: List[int] = []
    remaining = value
    suffix_product = total
    for radix in radices:
        suffix_product //= radix
        digit, position = divmod(remaining, suffix_product)
        gray.append(digit)
        # Odd leading digit: the rest of the block runs in reverse order.
        remaining = position if digit % 2 == 0 else suffix_product - 1 - position
    return tuple(gray)


def mixed_radix_gray_decode(gray: Sequence[int], radices: Sequence[int]) -> int:
    """Inverse of :func:`mixed_radix_gray_encode`.

    >>> mixed_radix_gray_decode((1, 0), (2, 2))
    3
    """
    gray = tuple(gray)
    radices = tuple(radices)
    if len(gray) != len(radices):
        raise InvalidParameterError("gray code and radices must have the same length")
    for g, radix in zip(gray, radices):
        if not (0 <= g < radix):
            raise InvalidParameterError(f"gray digit {g} out of range for radix {radix}")
    # Undo the reflection from the least significant digit upwards.
    value = 0  # position within the suffix block processed so far
    suffix_product = 1
    for g, radix in zip(reversed(gray), reversed(radices)):
        inner = value if g % 2 == 0 else suffix_product - 1 - value
        value = g * suffix_product + inner
        suffix_product *= radix
    return value


class PaperMeshReshapeEmbedding(Embedding):
    """Dilation-1, expansion-1 embedding of the Appendix mesh ``R`` into ``D_n``.

    Parameters
    ----------
    n:
        Degree of the paper mesh ``D_n`` (host).
    d:
        Target dimension; the guest is ``Mesh(factorise_paper_mesh(n, d))``.

    Examples
    --------
    >>> emb = PaperMeshReshapeEmbedding(5, 2)     # 15 x 8 mesh into 5*4*3*2
    >>> emb.guest.sides, emb.host.sides
    ((15, 8), (5, 4, 3, 2))
    >>> from repro.embedding.metrics import dilation
    >>> dilation(emb)
    1
    """

    def __init__(self, n: int, d: int):
        check_positive_int(n, "n", minimum=2)
        check_in_range(d, "d", 1, n - 1)
        self._n = n
        self._d = d
        guest = Mesh(factorise_paper_mesh(n, d))
        host = paper_mesh(n)
        # Group k (0-based) collects the factors n-k, n-k-d, n-k-2d, ...; a factor f
        # is the side of the host dimension at tuple index n - f (host sides are
        # (n, n-1, ..., 2) at indices (0, 1, ..., n-2)).
        self._groups: List[List[int]] = []
        for k in range(d):
            indices = []
            factor = n - k
            while factor >= 2:
                indices.append(n - factor)
                factor -= d
            self._groups.append(indices)
        self._group_radices: List[Tuple[int, ...]] = [
            tuple(host.sides[i] for i in indices) for indices in self._groups
        ]
        super().__init__(
            guest,
            host,
            vertex_map=self._map_coords,
            name=f"appendix-reshape(n={n}, d={d})",
        )

    # ------------------------------------------------------------ properties
    @property
    def n(self) -> int:
        """Degree of the host paper mesh."""
        return self._n

    @property
    def d(self) -> int:
        """Number of guest dimensions."""
        return self._d

    @property
    def groups(self) -> List[List[int]]:
        """Host tuple indices grouped per guest dimension (a partition of 0..n-2)."""
        return [list(g) for g in self._groups]

    # ------------------------------------------------------------------- maps
    def _map_coords(self, coords: Sequence[int]) -> Node:
        host_coords = [0] * (self._n - 1)
        for value, indices, radices in zip(coords, self._groups, self._group_radices):
            digits = mixed_radix_gray_encode(value, radices)
            for index, digit in zip(indices, digits):
                host_coords[index] = digit
        return tuple(host_coords)

    def inverse(self, host_node: Sequence[int]) -> Node:
        """Guest (reshaped) coordinates of a ``D_n`` node."""
        host_node = self.host.validate_node(tuple(host_node))
        coords = []
        for indices, radices in zip(self._groups, self._group_radices):
            gray = tuple(host_node[i] for i in indices)
            coords.append(mixed_radix_gray_decode(gray, radices))
        return tuple(coords)

    def measured_dilation(self) -> int:
        """Convenience: the measured dilation (the Appendix's O(1) is exactly 1)."""
        return measure_embedding(self).dilation
