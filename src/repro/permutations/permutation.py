"""An immutable permutation value type.

Conventions
-----------
A permutation of degree ``n`` is stored as a tuple ``(a_0, a_1, ..., a_{n-1})``
of the symbols ``0..n-1``; entry ``i`` of the tuple is the symbol written at
*tuple position* ``i``.

The paper writes star-graph nodes as symbol strings
``a_{n-1} a_{n-2} ... a_1 a_0`` and indexes positions *from the right*
(position 0 is the rightmost symbol).  The correspondence with the tuple used
here is simply left-to-right reading order: tuple position ``0`` holds the
paper's leftmost symbol ``a_{n-1}`` and tuple position ``n-1-i`` holds the
paper's symbol ``a_i``: the paper's position ``i`` lives at tuple index
``n - 1 - i``.

Functionally a permutation ``p`` is the map *position -> symbol*:
``p(i) = p[i]``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

from repro.exceptions import InvalidParameterError, InvalidPermutationError

__all__ = [
    "Permutation",
    "identity_permutation",
    "is_permutation",
    "swap_symbols",
]


def is_permutation(values: Sequence[int]) -> bool:
    """Return True if *values* is a permutation of ``0..len(values)-1``."""
    try:
        seq = tuple(values)
    except TypeError:
        return False
    n = len(seq)
    seen = [False] * n
    for v in seq:
        if isinstance(v, bool) or not isinstance(v, int):
            return False
        if not (0 <= v < n) or seen[v]:
            return False
        seen[v] = True
    return True


def _validate(values: Sequence[int]) -> Tuple[int, ...]:
    seq = tuple(values)
    if not is_permutation(seq):
        raise InvalidPermutationError(f"{seq!r} is not a permutation of 0..{len(seq) - 1}")
    return seq


def swap_symbols(values: Sequence[int], a: int, b: int) -> Tuple[int, ...]:
    """Return a copy of *values* with the *symbols* ``a`` and ``b`` exchanged.

    This is the paper's Definition 1 operation ``pi_(a,b)``: wherever symbol
    ``a`` appears it is replaced by ``b`` and vice versa.  Positions of all
    other symbols are untouched.
    """
    seq = list(values)
    try:
        ia = seq.index(a)
        ib = seq.index(b)
    except ValueError as exc:
        raise InvalidParameterError(f"symbols {a}, {b} must both occur in {seq!r}") from exc
    seq[ia], seq[ib] = seq[ib], seq[ia]
    return tuple(seq)


class Permutation:
    """An immutable permutation of ``0..n-1`` acting as a position->symbol map."""

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[int]):
        self._values = _validate(tuple(values))

    # ------------------------------------------------------------------ basic
    @property
    def values(self) -> Tuple[int, ...]:
        """The underlying tuple ``(a_0, ..., a_{n-1})``."""
        return self._values

    @property
    def degree(self) -> int:
        """Number of symbols ``n``."""
        return len(self._values)

    # ------------------------------------------------------------- container
    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __getitem__(self, position: int) -> int:
        return self._values[position]

    def __call__(self, position: int) -> int:
        """Apply the permutation as a function: position -> symbol."""
        return self._values[position]

    def __hash__(self) -> int:
        return hash(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Permutation):
            return self._values == other._values
        if isinstance(other, tuple):
            return self._values == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"Permutation({list(self._values)})"

    def __str__(self) -> str:
        return " ".join(str(v) for v in self._values)

    # ------------------------------------------------------------- structure
    def num_inversions(self) -> int:
        """Number of inversions (pairs ``i < j`` with ``self[i] > self[j]``).

        Computed as the sum of the Lehmer-code digits
        (:func:`repro.permutations.ranking.inversion_count`), which switches
        to an O(n log n) Fenwick-tree count at larger degrees.
        """
        # Imported here: ranking depends on this module for validation.
        from repro.permutations.ranking import _lehmer_digits

        return sum(_lehmer_digits(self._values))

    def parity(self) -> int:
        """0 for even permutations, 1 for odd permutations."""
        return self.num_inversions() % 2


def identity_permutation(n: int) -> Tuple[int, ...]:
    """The identity permutation as a plain tuple ``(0, 1, ..., n-1)``."""
    if n < 1:
        raise InvalidParameterError(f"degree must be >= 1, got {n}")
    return tuple(range(n))

