"""SAMPLED-STRETCH -- ball-local rerouting stretch at S_13+ (implicit backend).

The stretch twin of SAMPLED-FAULT: same bounded-ball trials
(:func:`repro.simulation.sampled_campaign.sampled_fault_campaign`), read for
what the detours *cost*.  For every reached pair the campaign compares the
faulted ball's distance against the healthy ball's:

    stretch = faulted ball distance / healthy ball distance

Targets sit at healthy distance ``<= depth - detour_slack``, so a detour has
spare hops before the cap; pairs whose detour would exceed the cap land in
the explicit ``truncated`` channel instead of biasing the mean.

The claim: the zero-fault points (which reuse the healthy ball verbatim)
have stretch exactly 1.0 on every pair; no sampled stretch ever drops below
1.0 (removing nodes cannot shorten a shortest path); and the accounting
identity ``reached + disconnected + truncated == pairs`` holds on every
point.  Deterministic per the usual contract: order-free trial seeds make
the artifact a pure function of its parameters.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.simulation.sampled_campaign import (
    SAMPLED_CAMPAIGN_FAMILIES,
    sampled_campaign_instances,
    sampled_fault_campaign,
)

__all__ = ["ARTIFACT_SCHEMA", "run"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["SAMPLED-STRETCH"]


def run(
    sizes=(13,),
    fault_counts=(0, 6, 16),
    trials: int = 10,
    pairs_per_trial: int = 4,
    depth: int = 4,
    seed: int = 2614,
) -> ExperimentResult:
    """Measure ball-local rerouting-stretch curves for every family at *sizes*.

    Parameters
    ----------
    sizes : sequence of int
        Permutation degrees ``n``; any ``n <= 20`` works table-free.
    fault_counts : sequence of int
        Faults injected per trial; include ``0`` to keep the built-in
        stretch-equals-one oracle point.
    trials : int
        Seeded trials per curve point.
    pairs_per_trial : int
        Pairs measured per trial (one faulted sweep serves all of them).
    depth : int
        BFS ball radius; targets keep one detour hop of slack inside it.
    seed : int
        Campaign seed; trials derive independent order-free streams.
    """
    rows = []
    claim = True
    total_pairs = 0
    total_truncated = 0
    worst = 0.0
    for size in sizes:
        instances = sampled_campaign_instances(size)
        for family in SAMPLED_CAMPAIGN_FAMILIES:
            name, topology = instances[family]
            points = sampled_fault_campaign(
                topology,
                fault_counts=fault_counts,
                trials=trials,
                pairs_per_trial=pairs_per_trial,
                depth=depth,
                seed=seed,
                label=f"{family}/{size}",
            )
            for point in points:
                total_pairs += point.pairs
                total_truncated += point.truncated
                worst = max(worst, point.max_stretch)
                claim = claim and (
                    point.reached + point.disconnected + point.truncated
                    == point.pairs
                )
                if point.fault_count == 0:
                    claim = claim and (
                        point.mean_stretch == 1.0
                        and point.max_stretch == 1.0
                        and point.reached == point.pairs
                    )
                if point.reached:
                    claim = claim and point.mean_stretch >= 1.0
                rows.append(
                    (
                        size,
                        name,
                        topology.num_nodes,
                        depth,
                        point.fault_count,
                        point.pairs,
                        point.reached,
                        point.truncated,
                        f"{point.mean_stretch:.3f} "
                        f"[{point.stretch_low:.3f}, {point.stretch_high:.3f}]"
                        if point.reached
                        else "-",
                        f"{point.max_stretch:.3f}" if point.reached else "-",
                    )
                )
    return ExperimentResult(
        experiment_id="SAMPLED-STRETCH",
        title="Sampled ball-local rerouting stretch at S_13+ (implicit backend)",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary={
            "claim_holds": claim,
            "total_pairs": total_pairs,
            "total_truncated": total_truncated,
            "worst_stretch": worst,
        },
        notes=[
            "stretch = faulted ball distance / healthy ball distance per reached "
            "pair; both distances come from depth-capped sweeps over the "
            "implicit backend, so S_13+ needs no move table and no whole-graph "
            "arrays.",
            "Targets sit detour_slack hops inside the ball; detours the cap "
            "still hides are counted in the explicit truncated channel instead "
            "of biasing the mean.",
            "The 0-fault rows are an oracle: the faulted ball is the healthy "
            "ball, so every stretch is exactly 1.0.",
            "Trial streams derive order-free from the campaign seed: serial, "
            "sharded and restarted runs agree bit for bit.",
        ],
    )
