"""FAULT-CONNECTIVITY -- Monte-Carlo disconnection curves under node faults.

The paper proves the star graph maximally fault tolerant: connectivity
``n - 1`` equals the degree, so *any* ``n - 2`` node faults leave the
survivors connected (Section 2).  PROP-D spot-checks that with a handful of
clean trials; this experiment measures the whole degradation curve with the
campaign layer (:mod:`repro.simulation.campaign`):

* every family of the comparison set -- star, pancake, bubble-sort at the
  shared ``n!`` nodes and the hypercube re-sized to ``ceil(log2 n!)``
  dimensions, so all four machines have matched sizes;
* one guaranteed point at ``connectivity - 1`` faults (the theorem regime:
  all four families are maximally connected, so *zero* trials may
  disconnect) plus one point per requested fault *rate* beyond it;
* each point is ``trials`` seeded fault injections resolved by one
  alive-mask flood each, reported as a Wilson 95% interval on the
  disconnection probability.

The claim: across every family and every trial with fewer faults than the
connectivity, the survivors stayed connected -- the Monte-Carlo curve
reproduces the theorem's zero-disconnection regime exactly, and beyond it
the measured probabilities are reported with their intervals.

Trial seeds derive from ``(seed, family, degree, fault_count, point, trial)``
(:func:`repro.simulation.stats.derive_trial_seed`), so the artifact is a pure
function of its parameters -- same params, same bytes, serial or sharded.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.simulation.campaign import (
    CAMPAIGN_FAMILIES,
    campaign_instances,
    connectivity_campaign,
    fault_counts_for_rates,
)

__all__ = ["ARTIFACT_SCHEMA", "run"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["FAULT-CONNECTIVITY"]


def run(
    degrees=(4,),
    fault_rates=(0.05, 0.1, 0.2, 0.3),
    trials: int = 80,
    seed: int = 2206,
) -> ExperimentResult:
    """Measure disconnection-probability curves for every family at *degrees*.

    Parameters
    ----------
    degrees : sequence of int
        Permutation-family degrees; degree ``d`` selects ``S/P/B_{d+1}``
        (``(d+1)!`` nodes) and the matched-size hypercube.
    fault_rates : sequence of float
        Fractions of nodes to kill, one curve point per rate (the guaranteed
        ``connectivity - 1`` point is always prepended).
    trials : int
        Seeded fault injections per curve point.
    seed : int
        Campaign seed; trials derive independent order-free streams from it.
    """
    rows = []
    claim = True
    total_trials = 0
    sub_connectivity_disconnections = 0
    for degree in degrees:
        instances = campaign_instances(degree)
        for family in CAMPAIGN_FAMILIES:
            name, topology = instances[family]
            # All four families are regular and maximally connected, so the
            # connectivity equals the degree of any node.
            kappa = topology.degree(topology.node_from_index(0))
            counts = [kappa - 1] + fault_counts_for_rates(
                topology.num_nodes, fault_rates
            )
            points = connectivity_campaign(
                topology,
                fault_counts=counts,
                trials=trials,
                seed=seed,
                label=f"{family}/{degree}",
            )
            for index, point in enumerate(points):
                total_trials += point.trials
                guaranteed = point.fault_count < kappa
                if guaranteed:
                    sub_connectivity_disconnections += point.disconnected
                    claim = claim and point.disconnected == 0
                rows.append(
                    (
                        kappa,
                        name,
                        topology.num_nodes,
                        f"{point.fault_count} (< connectivity)"
                        if guaranteed
                        else point.fault_count,
                        f"{point.fault_rate:.3f}",
                        point.trials,
                        point.disconnected,
                        f"{point.p_disconnect:.3f} "
                        f"[{point.ci_low:.3f}, {point.ci_high:.3f}]",
                    )
                )
    return ExperimentResult(
        experiment_id="FAULT-CONNECTIVITY",
        title="Fault campaign: disconnection probability vs node-fault rate",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary={
            "claim_holds": claim,
            "total_trials": total_trials,
            "sub_connectivity_disconnections": sub_connectivity_disconnections,
        },
        notes=[
            "Star, pancake and bubble-sort run at (degree+1)! nodes; the hypercube "
            "is Q_ceil(log2 n!) -- matched machine sizes, not matched degrees.",
            "All four families are maximally connected, so every trial with fewer "
            "faults than the connectivity must stay connected (the '< connectivity' "
            "rows); beyond that regime the Wilson 95% interval bounds the measured "
            "disconnection probability.",
            "One alive-mask flood (connected_under_alive_mask) resolves each trial; "
            "per-trial seeds derive from the campaign seed and the trial coordinates, "
            "so the table is a pure function of the parameters.",
        ],
    )
