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

from repro.utils.validation import (
    check_positive_int,
    check_in_range,
    check_sequence_of_ints,
)
from repro.utils.mixed_radix import (
    MixedRadix,
    iter_mixed_radix,
)
from repro.utils.itertools_ext import (
    pairwise,
    first,
    argmax,
)

__all__ = [
    "check_positive_int",
    "check_in_range",
    "check_sequence_of_ints",
    "MixedRadix",
    "iter_mixed_radix",
    "pairwise",
    "first",
    "argmax",
]
