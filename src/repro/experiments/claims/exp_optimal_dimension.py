"""APP -- the Appendix: reshaping ``D_n`` and the optimal simulation dimension.

Reproduces the two constructive statements of the Appendix:

1. the explicit factorisation of ``n!`` into ``d`` side lengths
   (``l_1 = n (n-d)(n-2d)...``, etc.) -- checked to multiply back to ``n!``
   and to satisfy the paper's ``l_1 / l_d < n (1 + n mod d) <= n d`` spread
   bound;
2. the cost model for running an ``O(N^{1/d})``-step uniform-mesh algorithm
   through that factorisation, whose discrete argmin is compared with the
   analytic optimum ``d ~ sqrt(log2 N) / 2``.
"""

from __future__ import annotations

import math

from repro.analysis.optimal_dimension import appendix_cost, optimal_dimension_table
from repro.embedding.uniform import factorise_paper_mesh
from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS

__all__ = ["ARTIFACT_SCHEMA", "run"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["APP"]


def run(degrees=(5, 6, 7, 8, 9, 10)) -> ExperimentResult:
    """Evaluate the Appendix construction and cost curve for each degree."""
    rows = []
    claim = True
    for n in degrees:
        total = math.factorial(n)
        table = optimal_dimension_table(n)
        best = min(table, key=lambda row: row.cost)
        analytic = 0.5 * math.sqrt(math.log2(total))
        # Factorisation sanity: product equals n! and the spread bound holds.
        factorisation_ok = True
        for d in range(1, n):
            sides = factorise_paper_mesh(n, d)
            if math.prod(sides) != total:
                factorisation_ok = False
            spread = max(sides) / min(sides)
            if spread >= n * d + 1e-9 and d > 1:
                factorisation_ok = False
        # The discrete argmin should bracket the analytic optimum loosely
        # (within a factor of ~2 or +-2 dimensions) -- the paper only claims the
        # asymptotic scaling.
        close = abs(best.d - analytic) <= max(2.0, analytic)
        claim = claim and factorisation_ok and close
        rows.append(
            (
                n,
                total,
                "x".join(map(str, factorise_paper_mesh(n, 2))),
                best.d,
                round(analytic, 2),
                "x".join(map(str, best.side_lengths)),
                round(best.cost, 1),
                round(appendix_cost(n, n - 1), 1),
                "yes" if factorisation_ok else "NO",
            )
        )
    return ExperimentResult(
        experiment_id="APP",
        title="Appendix: factorising D_n into d dimensions and the optimal simulation dimension",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary={"claim_holds": claim},
        notes=[
            "Costs are the paper's unit-route estimates for an O(N^{1/d})-time mesh algorithm "
            "(e.g. sorting), including the 2^d Theorem-8 factor and the dilation-3 embedding.",
            "The reshaped dimension always beats d = n-1, which is the conclusion's point about "
            "sorting not transferring efficiently at full dimension.",
        ],
    )
