"""Star graph versus hypercube comparison.

The introduction (following Akers, Harel & Krishnamurthy) motivates the star
graph by comparing it with the hypercube at equal degree: with degree ``n``
the star graph ``S_{n+1}`` connects ``(n+1)!`` processors while the hypercube
``Q_n`` connects only ``2**n``, and the star graph's diameter grows more
slowly relative to its size.  :func:`star_vs_hypercube_table` materialises
that comparison; :func:`closest_hypercube_for_star` answers the dual question
("how large must a hypercube be to host as many nodes as ``S_n``?") used in
the experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.exceptions import InvalidParameterError

from repro.analysis.bounds import (
    bubble_sort_diameter,
    hypercube_diameter,
    hypercube_num_nodes,
    pancake_diameter_known,
    star_diameter,
    star_num_nodes,
)
from repro.utils.validation import check_positive_int

__all__ = [
    "NetworkRow",
    "star_vs_hypercube_table",
    "closest_hypercube_for_star",
    "MeasuredNetworkRow",
    "MEASURED_FAMILIES",
    "measured_instances",
    "measured_network_rows",
]


@dataclass(frozen=True)
class NetworkRow:
    """One row of the comparison table."""

    degree: int
    star_n: int
    star_nodes: int
    star_diameter: int
    hypercube_nodes: int
    hypercube_diameter: int

    @property
    def node_ratio(self) -> float:
        """How many times more processors the star graph connects at equal degree."""
        return self.star_nodes / self.hypercube_nodes


def star_vs_hypercube_table(max_degree: int) -> List[NetworkRow]:
    """Rows for degree 2..*max_degree* comparing ``S_{degree+1}`` against ``Q_degree``."""
    check_positive_int(max_degree, "max_degree", minimum=2)
    rows: List[NetworkRow] = []
    for degree in range(2, max_degree + 1):
        n = degree + 1  # S_n has degree n - 1
        rows.append(
            NetworkRow(
                degree=degree,
                star_n=n,
                star_nodes=star_num_nodes(n),
                star_diameter=star_diameter(n),
                hypercube_nodes=hypercube_num_nodes(degree),
                hypercube_diameter=hypercube_diameter(degree),
            )
        )
    return rows


@dataclass(frozen=True)
class MeasuredNetworkRow:
    """Measured whole-graph metrics of one concrete network instance.

    ``diameter_measured`` and ``average_distance`` come from the bit-parallel
    all-sources sweep of :func:`repro.topology.routing.distance_summary` over
    the adjacency index table; ``diameter_formula`` is
    the closed form the measurement is held against, or ``None`` where no
    formula (or known value) exists -- pancake diameters beyond the known
    table.
    """

    degree: int
    family: str
    network: str
    nodes: int
    diameter_formula: Optional[int]
    diameter_measured: int
    average_distance: float

    @property
    def diameter_matches(self) -> bool:
        """True when the measured diameter equals the closed form.

        Rows without a formula (``diameter_formula is None``) vacuously
        match: the measurement *is* the only known value.
        """
        if self.diameter_formula is None:
            return True
        return self.diameter_measured == self.diameter_formula


#: The network families :func:`measured_network_rows` can measure, in row
#: order per degree.  Star and hypercube are the paper's comparison; pancake
#: and bubble-sort are the sibling Cayley families sharing the star's
#: ``n!``-node vertex set and degree.
MEASURED_FAMILIES: tuple = ("star", "pancake", "bubble-sort", "hypercube")


def measured_instances(degree: int):
    """``family -> (display name, topology instance, formula diameter)`` at *degree*.

    The single source of the comparison networks: both
    :func:`measured_network_rows` and the NETWORK-FAMILY experiment build
    their instances here, keyed by the stable family slugs of
    :data:`MEASURED_FAMILIES`.
    """
    from repro.topology.cayley import BubbleSortGraph, PancakeGraph
    from repro.topology.hypercube import Hypercube
    from repro.topology.star import StarGraph

    n = degree + 1  # the permutation families have degree n - 1
    return {
        "star": (f"S_{n}", StarGraph(n), star_diameter(n)),
        "pancake": (f"P_{n}", PancakeGraph(n), pancake_diameter_known(n)),
        "bubble-sort": (f"B_{n}", BubbleSortGraph(n), bubble_sort_diameter(n)),
        "hypercube": (f"Q_{degree}", Hypercube(degree), hypercube_diameter(degree)),
    }


def measured_network_rows(
    max_degree: Optional[int] = None,
    *,
    max_nodes: int = 1024,
    families: Sequence[str] = MEASURED_FAMILIES,
    degrees: Optional[Sequence[int]] = None,
) -> List[MeasuredNetworkRow]:
    """Measured diameters/average distances for the comparison networks.

    The degrees to measure come from exactly one of the two forms: a
    *max_degree* sweep (every degree ``2..max_degree``) or an explicit
    *degrees* sequence.  At each degree every requested family instance
    (star ``S_{degree+1}``, pancake ``P_{degree+1}``, bubble-sort
    ``B_{degree+1}``, hypercube ``Q_degree``) is measured through the
    all-sources index-table sweep, skipping instances above *max_nodes* (the
    sweep visits every ordered pair, so its work grows with the square of
    the node count).  Used by the CMP and
    NETWORK-FAMILY experiments to put measured numbers next to the quoted
    formulas/known values.
    """
    if (max_degree is None) == (degrees is None):
        raise InvalidParameterError(
            "pass exactly one of max_degree (a 2..max sweep) or degrees"
        )
    from repro.topology.routing import distance_summary

    unknown = set(families) - set(MEASURED_FAMILIES)
    if unknown:
        raise InvalidParameterError(
            f"unknown families {sorted(unknown)!r}; available: {MEASURED_FAMILIES}"
        )
    if degrees is None:
        check_positive_int(max_degree, "max_degree", minimum=2)
        degrees = range(2, max_degree + 1)
    rows: List[MeasuredNetworkRow] = []
    for degree in degrees:
        check_positive_int(degree, "degree", minimum=2)
        instances = measured_instances(degree)
        for family in families:
            name, topology, formula = instances[family]
            if topology.num_nodes > max_nodes:
                continue
            summary = distance_summary(topology)
            rows.append(
                MeasuredNetworkRow(
                    degree=degree,
                    family=family,
                    network=name,
                    nodes=topology.num_nodes,
                    diameter_formula=formula,
                    diameter_measured=summary.diameter,
                    average_distance=summary.average_distance,
                )
            )
    return rows


def closest_hypercube_for_star(n: int) -> int:
    """Smallest hypercube dimension whose node count reaches ``n!``.

    Used to compare diameters at (approximately) equal machine size rather
    than equal degree: ``ceil(log2 n!)``.
    """
    check_positive_int(n, "n", minimum=2)
    return math.ceil(math.log2(math.factorial(n)))
