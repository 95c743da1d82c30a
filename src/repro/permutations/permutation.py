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
``p(i) = p[i]``.  Composition follows the usual convention
``(p * q)(i) = p(q(i))``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.exceptions import InvalidParameterError, InvalidPermutationError

__all__ = [
    "Permutation",
    "identity_permutation",
    "is_permutation",
    "swap_positions",
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


def swap_positions(values: Sequence[int], i: int, j: int) -> Tuple[int, ...]:
    """Return a copy of *values* with the entries at tuple indices *i*, *j* swapped."""
    seq = list(values)
    n = len(seq)
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidParameterError(f"positions ({i}, {j}) out of range for length {n}")
    seq[i], seq[j] = seq[j], seq[i]
    return tuple(seq)


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

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        """The identity permutation ``(0, 1, ..., n-1)``."""
        if n < 1:
            raise InvalidParameterError(f"degree must be >= 1, got {n}")
        return cls(range(n))

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

    # ---------------------------------------------------------------- algebra
    def compose(self, other: "Permutation") -> "Permutation":
        """Return ``self * other`` with ``(self * other)(i) = self(other(i))``."""
        if self.degree != other.degree:
            raise InvalidParameterError("cannot compose permutations of different degrees")
        return Permutation(tuple(self._values[other._values[i]] for i in range(self.degree)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def position_of(self, symbol: int) -> int:
        """Tuple index at which *symbol* occurs (the paper's ``pi[k]`` lookup)."""
        try:
            return self._values.index(symbol)
        except ValueError as exc:
            raise InvalidParameterError(f"symbol {symbol} not in permutation") from exc

    # ----------------------------------------------------------- permutations
    def swap_positions(self, i: int, j: int) -> "Permutation":
        """Exchange the symbols stored at tuple indices *i* and *j*."""
        return Permutation(swap_positions(self._values, i, j))

    def swap_symbols(self, a: int, b: int) -> "Permutation":
        """Exchange the symbols *a* and *b* (paper Definition 1, ``pi_(a,b)``)."""
        return Permutation(swap_symbols(self._values, a, b))

    # ------------------------------------------------------------- structure
    def cycles(self, *, include_fixed_points: bool = False) -> List[Tuple[int, ...]]:
        """Disjoint cycle decomposition (cycles of *positions*).

        Cycles are reported with their smallest element first and sorted by
        that element, which makes the output deterministic and easy to test.
        """
        n = self.degree
        seen = [False] * n
        cycles: List[Tuple[int, ...]] = []
        for start in range(n):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            nxt = self._values[start]
            while nxt != start:
                cycle.append(nxt)
                seen[nxt] = True
                nxt = self._values[nxt]
            if len(cycle) > 1 or include_fixed_points:
                cycles.append(tuple(cycle))
        return cycles

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

