"""FAULT-STRETCH -- route stretch of fault-aware rerouting under node faults.

Connectivity says survivors *can* still talk; stretch says what the detours
*cost*.  For each fault point the campaign
(:func:`repro.simulation.campaign.stretch_campaign`) kills a seeded fault
set, samples surviving source/target pairs, and compares the shortest
surviving detour (masked BFS over the adjacency index,
:mod:`repro.simulation.rerouting`) against the healthy shortest path:

    stretch = detour hops / healthy shortest-path hops

Each curve point reports the mean stretch with a normal 95% interval over
the sampled pairs, the worst observed stretch, and how many pairs had no
surviving route at all.  The zero-fault point is a built-in oracle: with
nothing failed the detour *is* the shortest path, so every sample must be
exactly 1.0.

The claim: the zero-fault point is exactly 1.0 for every family, no sampled
stretch ever drops below 1.0 (a detour cannot beat the healthy shortest
path), and below the connectivity threshold every sampled pair remains
reroutable.  Families and matched sizes as in FAULT-CONNECTIVITY; trial
seeds derive from the campaign seed and trial coordinates, keeping the
artifact a pure function of its parameters.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.simulation.campaign import (
    CAMPAIGN_FAMILIES,
    campaign_instances,
    fault_counts_for_rates,
    stretch_campaign,
)

__all__ = ["ARTIFACT_SCHEMA", "run"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["FAULT-STRETCH"]


def run(
    degrees=(4,),
    fault_rates=(0.0, 0.05, 0.1, 0.2),
    trials: int = 30,
    pairs_per_trial: int = 8,
    seed: int = 1906,
) -> ExperimentResult:
    """Measure route-stretch curves for every family at *degrees*.

    Parameters
    ----------
    degrees : sequence of int
        Permutation-family degrees (``S/P/B_{d+1}`` plus the matched-size
        hypercube, as in FAULT-CONNECTIVITY).
    fault_rates : sequence of float
        Fractions of nodes to kill; include ``0.0`` to keep the built-in
        stretch-equals-one oracle point.
    trials : int
        Seeded fault injections per curve point.
    pairs_per_trial : int
        Surviving source/target pairs sampled per trial (one masked sweep
        serves all of a trial's pairs).
    seed : int
        Campaign seed; trials derive independent order-free streams from it.
    """
    rows = []
    claim = True
    total_pairs = 0
    worst = 0.0
    for degree in degrees:
        instances = campaign_instances(degree)
        for family in CAMPAIGN_FAMILIES:
            name, topology = instances[family]
            kappa = topology.degree(topology.node_from_index(0))
            counts = fault_counts_for_rates(topology.num_nodes, fault_rates)
            points = stretch_campaign(
                topology,
                fault_counts=counts,
                trials=trials,
                pairs_per_trial=pairs_per_trial,
                seed=seed,
                label=f"{family}/{degree}",
            )
            for point in points:
                total_pairs += point.pairs
                worst = max(worst, point.max_stretch)
                if point.fault_count == 0:
                    # Healthy machine: the detour is the shortest path.
                    claim = (
                        claim
                        and point.mean_stretch == 1.0
                        and point.max_stretch == 1.0
                        and point.unreachable == 0
                    )
                if point.pairs > point.unreachable:
                    claim = claim and point.mean_stretch >= 1.0
                if point.fault_count < kappa:
                    claim = claim and point.unreachable == 0
                rows.append(
                    (
                        kappa,
                        name,
                        topology.num_nodes,
                        point.fault_count,
                        f"{point.fault_rate:.3f}",
                        point.pairs,
                        point.unreachable,
                        f"{point.mean_stretch:.3f} "
                        f"[{point.ci_low:.3f}, {point.ci_high:.3f}]"
                        if point.pairs > point.unreachable
                        else "-",
                        f"{point.max_stretch:.3f}"
                        if point.pairs > point.unreachable
                        else "-",
                    )
                )
    return ExperimentResult(
        experiment_id="FAULT-STRETCH",
        title="Fault campaign: rerouting stretch vs node-fault rate",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary={
            "claim_holds": claim,
            "total_pairs": total_pairs,
            "worst_stretch": worst,
        },
        notes=[
            "stretch = shortest surviving detour / healthy shortest path, per "
            "sampled survivor pair; one masked BFS sweep per trial serves all of "
            "the trial's targets.",
            "The 0-fault rows are an oracle: every stretch must be exactly 1.0.",
            "Below the connectivity threshold no sampled pair may be unreachable "
            "(maximal fault tolerance); beyond it, unreachable pairs are counted "
            "and excluded from the mean.",
            "Families and matched machine sizes as in FAULT-CONNECTIVITY.",
        ],
    )
