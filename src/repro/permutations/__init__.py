"""Permutation algebra.

Star-graph nodes *are* permutations of ``0..n-1``; this subpackage provides

* :class:`~repro.permutations.permutation.Permutation` -- an immutable
  permutation value type with inversions and parity (the module-level
  :func:`~repro.permutations.permutation.swap_symbols` is the symbol
  transposition the paper's lemmas are phrased in terms of);
* ranking/unranking between permutations and integers ``0..n!-1`` using the
  Lehmer code (factorial number system), used to give every star-graph node a
  dense integer id for the SIMD simulator;
* the star graph's generator move (swap the first symbol with the symbol at
  position ``i``) and Lemma 2's decomposition of a symbol transposition into
  generator moves.

Throughout the package permutations are written *symbol-sequence first*, i.e.
``(a_{n-1}, a_{n-2}, ..., a_1, a_0)`` exactly like the paper writes
``a_{n-1} a_{n-2} ... a_1 a_0``; index ``0`` of the Python tuple is the paper's
*leftmost* (most significant) symbol ``a_{n-1}``, so the paper's position
``i`` (counted from the right) is tuple index ``n - 1 - i``.
"""

from repro._lazy import lazy_exports

#: public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    name: module
    for module, names in (
        (
            "repro.permutations.permutation",
            (
                "Permutation",
                "identity_permutation",
                "is_permutation",
                "swap_symbols",
            ),
        ),
        (
            "repro.permutations.ranking",
            (
                "factorials",
                "inversion_count",
                "lehmer_code",
                "lehmer_decode",
                "move_tables",
                "permutation_rank",
                "permutation_unrank",
                "all_permutations",
                "all_permutations_array",
                "ranks_of",
            ),
        ),
        (
            "repro.permutations.generators",
            (
                "apply_star_generator",
                "transposition_to_star_routes",
            ),
        ),
    )
    for name in names
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
