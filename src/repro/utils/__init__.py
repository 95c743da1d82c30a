"""Small generic helpers shared across the :mod:`repro` package.

* :mod:`~repro.utils.validation` -- the eager argument checks every public
  constructor runs (``check_positive_int``, ``check_in_range``,
  ``check_sequence_of_ints``);
* :mod:`~repro.utils.mixed_radix` -- :class:`MixedRadix` codes and
  ``iter_mixed_radix``, the index spaces of the paper's meshes;
* :mod:`~repro.utils.itertools_ext` -- ``pairwise``, ``first`` and ``argmax``.

The helpers are intentionally dependency-free (standard library only) so that
the lowest layers of the library -- permutations and topologies -- do not pull
in numpy/networkx unless the caller actually needs array output or graph
conversion.
"""

from repro._lazy import lazy_exports

#: public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    name: module
    for module, names in (
        (
            "repro.utils.validation",
            (
                "check_positive_int",
                "check_in_range",
                "check_sequence_of_ints",
            ),
        ),
        ("repro.utils.mixed_radix", ("MixedRadix", "iter_mixed_radix")),
        ("repro.utils.itertools_ext", ("pairwise", "first", "argmax")),
    )
    for name in names
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
