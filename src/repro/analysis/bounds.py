"""Closed-form structural bounds quoted by the paper.

These are the quantities Section 1/2 uses to motivate the star graph and
Lemma 1 uses to rule out dilation-1 embeddings.  Every formula here has a
matching *measured* counterpart in the experiments (enumerated on concrete
instances), so the test-suite cross-checks formula against enumeration.
"""

from __future__ import annotations

import math

from repro.utils.validation import check_positive_int

__all__ = [
    "star_num_nodes",
    "star_degree",
    "star_diameter",
    "star_num_edges",
    "hypercube_num_nodes",
    "hypercube_diameter",
    "bubble_sort_diameter",
    "pancake_diameter_known",
    "KNOWN_PANCAKE_DIAMETERS",
    "paper_mesh_max_degree",
    "dilation_lower_bound_exists",
]


def star_num_nodes(n: int) -> int:
    """``n!`` -- number of PEs connected by ``S_n`` (introduction)."""
    check_positive_int(n, "n", minimum=1)
    return math.factorial(n)


def star_degree(n: int) -> int:
    """``n - 1`` -- degree of every node of ``S_n``."""
    check_positive_int(n, "n", minimum=2)
    return n - 1


def star_diameter(n: int) -> int:
    """``floor(3 (n - 1) / 2)`` -- Section 2, property 2."""
    check_positive_int(n, "n", minimum=2)
    return (3 * (n - 1)) // 2


def star_num_edges(n: int) -> int:
    """``n! (n - 1) / 2`` edges of ``S_n``."""
    check_positive_int(n, "n", minimum=2)
    return math.factorial(n) * (n - 1) // 2


def hypercube_num_nodes(n: int) -> int:
    """``2**n`` -- nodes of the degree-``n`` hypercube (the comparison network)."""
    check_positive_int(n, "n", minimum=1)
    return 1 << n


def hypercube_diameter(n: int) -> int:
    """``n`` -- diameter of ``Q_n``."""
    check_positive_int(n, "n", minimum=1)
    return n


def bubble_sort_diameter(n: int) -> int:
    """``n (n - 1) / 2`` -- diameter of the bubble-sort network ``B_n``.

    The bubble-sort distance between two permutations is the Kendall tau
    (inversion) distance, maximised by the full reversal at ``C(n, 2)``.
    """
    check_positive_int(n, "n", minimum=2)
    return n * (n - 1) // 2


#: Exact pancake-graph diameters (the "pancake numbers"), known only for small
#: degrees (Gates & Papadimitriou 1979 and exhaustive searches since); no
#: closed form is known.  Every instance small enough to measure with the
#: index-sweep services falls inside this table.
KNOWN_PANCAKE_DIAMETERS = {
    2: 1,
    3: 3,
    4: 4,
    5: 5,
    6: 7,
    7: 8,
    8: 9,
    9: 10,
    10: 11,
    11: 13,
    12: 14,
    13: 15,
}


def pancake_diameter_known(n: int):
    """The known diameter of the pancake network ``P_n``, or ``None``.

    Unlike the star graph's ``floor(3(n-1)/2)`` no closed form exists;
    measured diameters are held against this table where it has an entry.
    """
    check_positive_int(n, "n", minimum=2)
    return KNOWN_PANCAKE_DIAMETERS.get(n)


def paper_mesh_max_degree(n: int) -> int:
    """``2n - 3`` -- degree of the interior node ``(1, 1, ..., 1)`` of ``D_n`` (Lemma 1).

    For ``n >= 3`` the dimension of length 2 contributes one neighbour and the
    other ``n - 2`` dimensions contribute two each.
    """
    check_positive_int(n, "n", minimum=2)
    if n == 2:
        return 1
    return 2 * n - 3


def dilation_lower_bound_exists(n: int) -> bool:
    """Lemma 1: a dilation-1 embedding of ``D_n`` into ``S_n`` exists iff ``n <= 2``.

    The argument is the degree comparison ``2n - 3 <= n - 1``.
    """
    check_positive_int(n, "n", minimum=2)
    return paper_mesh_max_degree(n) <= star_degree(n)

