"""Appendix analysis: reshaping ``D_n`` and the optimal simulation dimension.

The Appendix observes that the ``2*3*...*n`` mesh can simulate a
``d``-dimensional mesh whose side lengths are explicit products of the
original sides, and that for an algorithm running in ``O(N^{1/d})`` time on a
``d``-dimensional uniform mesh the best choice of ``d`` is about
``sqrt(log N) / 2``, giving total time ``O(sqrt(log N) * N^{c/sqrt(log N)})``.

This module evaluates the exact discrete cost model for every candidate ``d``
so the experiments can plot the cost curve, identify its argmin and compare it
with the analytic ``sqrt(log N)/2`` prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.embedding.uniform import factorise_paper_mesh
from repro.utils.validation import check_in_range, check_positive_int

__all__ = ["appendix_cost", "optimal_dimension_table"]


def appendix_cost(n: int, d: int, *, dilation: int = 3) -> float:
    """Estimated star unit routes for an ``O(N^{1/d})``-step algorithm at dimension *d*.

    The Appendix's accounting: the algorithm takes ``O(d N^{1/d})`` steps on a
    ``d``-dimensional *uniform* mesh of ``N`` processors; simulating that
    uniform mesh on the Appendix mesh ``l_1 x ... x l_d`` costs
    ``2^d * max_k(l_k) / N^{1/d}`` per step (Theorem 8); each mesh step costs
    *dilation* star unit routes (Theorem 6).  With
    ``max_k l_k <= d N^{1/d} n^{1 - 1/d}``, the paper simplifies the product to
    ``O(d 2^d N^{1/d} * N^{1/d})``; here the un-simplified product with the
    exact ``l_k`` is evaluated.
    """
    check_positive_int(n, "n", minimum=2)
    check_in_range(d, "d", 1, n - 1)
    total = math.factorial(n)
    sides = factorise_paper_mesh(n, d)
    per_step = (2.0**d) * max(sides) / (total ** (1.0 / d))
    algorithm_steps = d * (total ** (1.0 / d))
    return dilation * per_step * algorithm_steps


@dataclass(frozen=True)
class DimensionCostRow:
    """Cost of one candidate simulation dimension."""

    d: int
    side_lengths: Tuple[int, ...]
    max_side: int
    cost: float


def optimal_dimension_table(n: int, *, dilation: int = 3) -> List[DimensionCostRow]:
    """Cost rows for every candidate dimension ``d`` in ``1..n-1``, sorted by ``d``."""
    check_positive_int(n, "n", minimum=2)
    rows: List[DimensionCostRow] = []
    for d in range(1, n):
        sides = factorise_paper_mesh(n, d)
        rows.append(
            DimensionCostRow(
                d=d,
                side_lengths=sides,
                max_side=max(sides),
                cost=appendix_cost(n, d, dilation=dilation),
            )
        )
    return rows
