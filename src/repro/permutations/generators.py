"""Star-graph generators.

The star graph ``S_n`` connects permutation ``pi`` to the ``n - 1``
permutations obtained by exchanging the symbol at tuple position ``0`` (the
paper's leftmost symbol ``a_{n-1}``) with the symbol at tuple position ``j``
for ``j = 1 .. n-1``.  This module provides that generator move as a pure
function on plain tuples, plus the decomposition of an arbitrary *symbol*
transposition into 1 or 3 generator moves (the constructive content of the
paper's Lemma 2).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.exceptions import InvalidParameterError
from repro.permutations.permutation import is_permutation

__all__ = [
    "apply_star_generator",
    "transposition_to_star_routes",
]


def apply_star_generator(node: Sequence[int], j: int) -> Tuple[int, ...]:
    """Apply generator ``g_j`` to *node*: exchange tuple positions 0 and ``j``.

    This is the paper's edge "along dimension ``i``" with ``i = n - 1 - j`` in
    the paper's right-based numbering.
    """
    node = tuple(node)
    n = len(node)
    if not (1 <= j <= n - 1):
        raise InvalidParameterError(f"generator index must be in [1, {n - 1}], got {j}")
    values = list(node)
    values[0], values[j] = values[j], values[0]
    return tuple(values)


def transposition_to_star_routes(node: Sequence[int], a: int, b: int) -> List[Tuple[int, ...]]:
    """The canonical shortest star-graph path from *node* to ``node_(a,b)``.

    ``node_(a,b)`` exchanges the *symbols* ``a`` and ``b`` (Definition 1 in the
    paper).  Lemma 2 shows the distance is 1 when either symbol is at tuple
    position 0 and exactly 3 otherwise; this function returns the intermediate
    and final nodes of the canonical path used in the paper's proof:

    * distance 1: ``[node_(a,b)]``;
    * distance 3: with ``node = (k ... a ... b ...)`` the path passes through
      ``(a ... k ... b ...)`` and ``(b ... k ... a ...)`` before reaching
      ``(k ... b ... a ...) = node_(a,b)``.

    Returns the list of nodes *after* each unit route (i.e. excluding the
    start node); its length is the number of unit routes used.
    """
    node = tuple(node)
    if not is_permutation(node):
        raise InvalidParameterError(f"{node!r} is not a permutation")
    if a == b:
        raise InvalidParameterError("transposition needs two distinct symbols")
    try:
        pos_a = node.index(a)
        pos_b = node.index(b)
    except ValueError as exc:
        raise InvalidParameterError(f"symbols {a}, {b} must occur in {node!r}") from exc

    def swap(seq: Tuple[int, ...], i: int, j: int) -> Tuple[int, ...]:
        values = list(seq)
        values[i], values[j] = values[j], values[i]
        return tuple(values)

    if pos_a == 0:
        return [swap(node, 0, pos_b)]
    if pos_b == 0:
        return [swap(node, 0, pos_a)]

    # Neither symbol is at the front: 3 generator moves via the paper's
    # intermediate nodes pi1 = (a ... k ... b ...) and pi2 = (b ... k ... a ...).
    step1 = swap(node, 0, pos_a)      # brings a to the front
    step2 = swap(step1, 0, pos_b)     # brings b to the front, a goes to b's slot
    step3 = swap(step2, 0, pos_a)     # k returns to the front, b lands in a's slot
    return [step1, step2, step3]
