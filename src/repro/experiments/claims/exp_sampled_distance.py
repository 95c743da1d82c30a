"""SAMPLED-DISTANCE -- sampled star-graph distance distribution with CIs.

The whole-graph distance sweeps (PROP-D, NETWORK-FAMILY) end where ``n!``
does: a degree-13 star graph has 6.2 billion nodes.  This experiment
estimates the S_n distance distribution, average distance and a diameter
lower bound from seeded random node pairs evaluated through the
cycle-structure *closed form* -- no adjacency table, no implicit blocks, no
enumeration -- so degrees 13-14 run in seconds on a laptop
(:mod:`repro.simulation.sampling`).

Every sampled number carries honest uncertainty, per the CI-for-ranks
methodology the fault campaigns already follow: the mean distance is a 95%
normal-approximation interval from exact integer moments, every histogram
bucket a Wilson 95% proportion interval, and the diameter estimate is
reported strictly as a lower bound (the maximum observed distance).

The claim: at every degree small enough for the exact mean (one vectorised
closed-form sweep from the identity -- the graph is vertex-transitive), the
sampled 95% interval brackets the exact value, and at *every* degree the
observed maximum distance respects the closed-form diameter
``floor(3(n-1)/2)``.  Degrees beyond ``exact_check_max`` contribute the
bracket check vacuously -- there the sampled interval *is* the result.

Pairs derive from ``(seed, "sampled-distance", "star", n, samples)``
(:func:`repro.simulation.stats.derive_trial_seed`) and only the distance
evaluation is chunked, so the artifact is a pure function of its parameters
at every chunk size.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.simulation.sampling import (
    exact_average_distance,
    sampled_distance_estimate,
)

__all__ = ["ARTIFACT_SCHEMA", "run"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["SAMPLED-DISTANCE"]


def run(
    degrees=(7, 8),
    samples: int = 100_000,
    seed: int = 2206,
    exact_check_max: int = 8,
) -> ExperimentResult:
    """Estimate the S_n distance distribution from seeded sampled pairs.

    Parameters
    ----------
    degrees : sequence of int
        Star-graph degrees ``n`` (any ``n <= 20``; no tables are built at
        any of them).
    samples : int
        Random distinct node pairs per degree.
    seed : int
        Campaign seed; pair streams derive order-free from it per degree.
    exact_check_max : int
        Largest degree at which the exact mean is computed (one full
        closed-form sweep, ``O(n!)``) and the sampled CI must bracket it.
    """
    rows = []
    claim = True
    means = {}
    diameter_lower_bounds = {}
    exact_checked = []
    for n in degrees:
        estimate = sampled_distance_estimate("star", n, samples, seed)
        means[str(n)] = [estimate.mean, estimate.mean_low, estimate.mean_high]
        diameter_lower_bounds[str(n)] = [
            estimate.diameter_lower_bound,
            estimate.diameter_formula,
        ]
        claim = claim and estimate.diameter_consistent
        if n <= exact_check_max:
            exact_checked.append(n)
            claim = claim and estimate.brackets(exact_average_distance("star", n))
        for distance in sorted(estimate.histogram):
            count = estimate.histogram[distance]
            share, low, high = estimate.histogram_intervals[distance]
            rows.append(
                (
                    n,
                    estimate.num_nodes,
                    samples,
                    distance,
                    count,
                    f"{share:.4f} [{low:.4f}, {high:.4f}]",
                )
            )
    return ExperimentResult(
        experiment_id="SAMPLED-DISTANCE",
        title="Sampled S_n distance distribution past the table ceiling",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary={
            "claim_holds": claim,
            "means": means,
            "diameter_lower_bounds": diameter_lower_bounds,
            "exact_checked_degrees": exact_checked,
        },
        notes=[
            "Distances come from the cycle-structure closed form on sampled rank "
            "pairs -- no table, no adjacency, no enumeration -- so degrees past "
            "the memmap-table ceiling (n > 12) run in seconds.",
            "The mean interval uses exact int64 moments; histogram buckets carry "
            "Wilson 95% intervals; the diameter column of the summary is a lower "
            "bound (max observed), checked against floor(3(n-1)/2).",
            "At degrees <= exact_check_max the exact mean (one vectorised sweep "
            "from the identity; the graph is vertex-transitive) must fall inside "
            "the sampled 95% interval -- the bracket check of the claim.",
            "Pairs are drawn up front from seeds derived per (seed, family, n, "
            "samples); chunk size never changes the artifact.",
        ],
    )
