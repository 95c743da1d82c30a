"""Mixed-radix (variable-base) integer codes.

The paper's mesh :math:`D_n` has side lengths ``2, 3, 4, ..., n`` -- a
*mixed-radix* index space whose total size is :math:`n!`.  Enumerating,
linearising and de-linearising such index spaces is needed in several places
(mesh node enumeration, uniform-mesh re-shaping in Section 4, the Appendix
factorisation), so the machinery lives here.

A mixed-radix system with radices ``(r_{m-1}, ..., r_1, r_0)`` represents the
integers ``0 .. prod(r_i) - 1`` as digit tuples ``(d_{m-1}, ..., d_0)`` with
``0 <= d_i < r_i``.  We use the *most significant digit first* convention to
match the paper's mesh coordinates ``(d_m, d_{m-1}, ..., d_1)``.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence, Tuple

from repro.exceptions import InvalidParameterError
from repro.utils.validation import check_sequence_of_ints

__all__ = [
    "MixedRadix",
    "iter_mixed_radix",
]


class MixedRadix:
    """A fixed mixed-radix number system.

    Parameters
    ----------
    radices:
        Digit bases, most significant first.  Every radix must be >= 1.

    Examples
    --------
    >>> mr = MixedRadix((4, 3, 2))   # the D_4 mesh of the paper, sides 4*3*2
    >>> mr.size
    24
    >>> mr.encode((3, 2, 1))
    23
    >>> mr.decode(0)
    (0, 0, 0)
    """

    __slots__ = ("_radices", "_weights", "_size")

    def __init__(self, radices: Sequence[int]):
        radices = check_sequence_of_ints(radices, "radices")
        if len(radices) == 0:
            raise InvalidParameterError("radices must not be empty")
        for r in radices:
            if r < 1:
                raise InvalidParameterError(f"every radix must be >= 1, got {r}")
        self._radices: Tuple[int, ...] = tuple(radices)
        # weight of digit i (msd first): product of radices to its right
        weights = []
        acc = 1
        for r in reversed(self._radices):
            weights.append(acc)
            acc *= r
        self._weights: Tuple[int, ...] = tuple(reversed(weights))
        self._size = acc

    @property
    def radices(self) -> Tuple[int, ...]:
        """The digit bases, most significant first."""
        return self._radices

    @property
    def weights(self) -> Tuple[int, ...]:
        """Linearisation weight of each digit (most significant first)."""
        return self._weights

    @property
    def ndigits(self) -> int:
        """Number of digits in the system."""
        return len(self._radices)

    @property
    def size(self) -> int:
        """Total number of representable values (product of the radices)."""
        return self._size

    def encode(self, digits: Sequence[int]) -> int:
        """Linearise a digit tuple into an integer in ``[0, size)``."""
        digits = check_sequence_of_ints(digits, "digits")
        if len(digits) != self.ndigits:
            raise InvalidParameterError(
                f"expected {self.ndigits} digits, got {len(digits)}"
            )
        value = 0
        for d, r, w in zip(digits, self._radices, self._weights):
            if not (0 <= d < r):
                raise InvalidParameterError(f"digit {d} out of range for radix {r}")
            value += d * w
        return value

    def decode(self, value: int) -> Tuple[int, ...]:
        """Expand an integer in ``[0, size)`` into its digit tuple."""
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidParameterError("value must be an int")
        if not (0 <= value < self._size):
            raise InvalidParameterError(
                f"value must be in [0, {self._size}), got {value}"
            )
        digits = []
        for w, r in zip(self._weights, self._radices):
            d, value = divmod(value, w)
            digits.append(d)
        return tuple(digits)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        """Iterate over all digit tuples in increasing linearised order."""
        return iter_mixed_radix(self._radices)

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"MixedRadix(radices={self._radices})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MixedRadix):
            return NotImplemented
        return self._radices == other._radices

    def __hash__(self) -> int:
        return hash(("MixedRadix", self._radices))


def iter_mixed_radix(radices: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Yield every digit tuple of the mixed-radix system in lexicographic order.

    Equivalent to ``itertools.product(*[range(r) for r in radices])`` but kept
    as an explicit generator so the iteration order is documented and stable.
    """
    radices = tuple(radices)
    if any(r < 1 for r in radices):
        raise InvalidParameterError("every radix must be >= 1")
    total = math.prod(radices)
    mr = MixedRadix(radices)
    for value in range(total):
        yield mr.decode(value)
