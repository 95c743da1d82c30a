"""SAMPLED-PROPERTIES -- sampled family comparison at matched sizes with CIs.

NETWORK-FAMILY measures star / pancake / bubble-sort / hypercube exhaustively
and therefore stops at the sweepable degrees.  This experiment carries the
same comparison -- average distance and diameter per family at matched
machine sizes -- into the S_13-S_14 regime by sampling closed-form distances
on seeded random node pairs (:mod:`repro.simulation.sampling`): star
(cycle-structure form), bubble-sort (Kendall-tau inversions) and the
matched-size hypercube ``Q_ceil(log2 n!)`` (Hamming weight).  The pancake
graph has no closed-form distance and is reported absent by design, not
silently dropped.

The claim, per family and degree: the sampled 95% mean interval brackets the
exact average distance wherever the exact value is computable (bubble-sort
and hypercube have closed formulas at *every* size; the star's exact mean
comes from one vectorised sweep at degrees up to ``exact_check_max``), and
the observed maximum distance never exceeds the closed-form diameter.

Pairs derive from ``(seed, "sampled-distance", family, size, samples)``
(:func:`repro.simulation.stats.derive_trial_seed`); the artifact is a pure
function of its parameters at every chunk size.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.simulation.sampling import (
    SAMPLING_FAMILIES,
    exact_average_distance,
    sampled_distance_estimate,
)

__all__ = ["ARTIFACT_SCHEMA", "run"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["SAMPLED-PROPERTIES"]


def _family_size(family: str, degree: int) -> int:
    """Matched machine size: permutation families at ``n = degree + 1``
    (``(degree+1)!`` nodes), the hypercube at ``ceil(log2 n!)`` dimensions."""
    n = degree + 1
    if family == "hypercube":
        from repro.analysis.comparison import closest_hypercube_for_star

        return closest_hypercube_for_star(n)
    return n


_FAMILY_NAMES = {
    "star": "S_{n}",
    "bubble-sort": "B_{n}",
    "hypercube": "Q_{m}",
}


def run(
    degrees=(7, 8),
    samples: int = 100_000,
    seed: int = 2206,
    exact_check_max: int = 8,
) -> ExperimentResult:
    """Sampled average distance and diameter bounds per family at *degrees*.

    Parameters
    ----------
    degrees : sequence of int
        Permutation-family degrees; degree ``d`` selects ``S/B_{d+1}``
        (``(d+1)!`` nodes) and the matched-size hypercube.
    samples : int
        Random distinct node pairs per family instance.
    seed : int
        Campaign seed; pair streams derive order-free from it per instance.
    exact_check_max : int
        Largest star degree ``n = d + 1`` at which the exact star mean is
        computed (full closed-form sweep) and bracket-checked.  Bubble-sort
        and hypercube have closed formulas and are checked at every size.
    """
    rows = []
    claim = True
    bracket_checks = 0
    for degree in degrees:
        n = degree + 1
        for family in SAMPLING_FAMILIES:
            size = _family_size(family, degree)
            estimate = sampled_distance_estimate(family, size, samples, seed)
            claim = claim and estimate.diameter_consistent
            if family == "star" and n > exact_check_max:
                exact = None
                exact_text = "(sampled only)"
            else:
                exact = exact_average_distance(family, size)
                exact_text = f"{exact:.4f}"
                bracket_checks += 1
                claim = claim and estimate.brackets(exact)
            name = _FAMILY_NAMES[family].format(n=size, m=size)
            rows.append(
                (
                    degree,
                    name,
                    estimate.num_nodes,
                    samples,
                    f"{estimate.mean:.4f} "
                    f"[{estimate.mean_low:.4f}, {estimate.mean_high:.4f}]",
                    exact_text,
                    estimate.diameter_lower_bound,
                    estimate.diameter_formula,
                )
            )
    return ExperimentResult(
        experiment_id="SAMPLED-PROPERTIES",
        title="Sampled family comparison at matched sizes (with 95% CIs)",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary={
            "claim_holds": claim,
            "families": list(SAMPLING_FAMILIES),
            "bracket_checks": bracket_checks,
        },
        notes=[
            "Star and bubble-sort run at (degree+1)! nodes; the hypercube is "
            "Q_ceil(log2 n!) -- matched machine sizes, as in NETWORK-FAMILY.",
            "The pancake graph is absent by design: prefix-reversal distance has "
            "no closed form, so it cannot be sampled without BFS.",
            "Exact anchors: bubble-sort n(n-1)/4 * n!/(n!-1), hypercube "
            "m*2^(m-1)/(2^m - 1), star via one closed-form sweep at degrees up "
            "to exact_check_max; every computed anchor must fall inside the "
            "sampled 95% interval.",
            "'diameter >=' is the maximum observed distance -- a lower bound, "
            "never a diameter claim -- and must respect the closed form.",
        ],
    )
