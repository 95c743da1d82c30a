"""SAMPLED-FAULT -- ball-local fault connectivity at S_13+ (implicit backend).

FAULT-CONNECTIVITY floods the whole machine per trial and therefore stops at
table-sized degrees.  This experiment runs the same question at S_13+ through
:func:`repro.simulation.sampled_campaign.sampled_fault_campaign`: every trial
sweeps a bounded-depth BFS ball around a sampled origin over the implicit
adjacency backend (no move table, no whole-graph arrays), injects a seeded
fault set drawn from that ball, and classifies sampled origin/target pairs as
**reached**, **disconnected** (provably -- the faulted ball exhausted the
surviving component) or **truncated** (the depth cap hid the verdict; counted
explicitly, never folded into either bucket).

The claim: the accounting identity ``reached + disconnected + truncated ==
pairs`` holds on every curve point; the zero-fault points reach every pair;
and no trial below the connectivity bound ``n - 1`` (maximal fault tolerance,
Section 2 of the paper -- shared by all three permutation families) ever
produces a disconnection proof.

Each trial derives its own order-free stream from the campaign seed, so the
artifact is a pure function of its parameters: bit-identical across serial,
sharded and restarted runs, at any chunk size, on every backend.
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
ARTIFACT_SCHEMA = SCHEMAS["SAMPLED-FAULT"]


def run(
    sizes=(13,),
    fault_counts=(0, 6, 16),
    trials: int = 10,
    pairs_per_trial: int = 4,
    depth: int = 4,
    seed: int = 2613,
) -> ExperimentResult:
    """Measure ball-local disconnection curves for every family at *sizes*.

    Parameters
    ----------
    sizes : sequence of int
        Permutation degrees ``n`` (``S_n`` / ``P_n`` / ``B_n`` on ``n!``
        nodes); any ``n <= 20`` works table-free.
    fault_counts : sequence of int
        Faults injected per trial, drawn from the origin's healthy ball;
        include ``0`` to keep the all-reached oracle point and a value
        ``>= n - 1`` to exercise the beyond-connectivity regime.
    trials : int
        Seeded trials per curve point.
    pairs_per_trial : int
        Origin/target pairs classified per trial (one faulted sweep serves
        all of them).
    depth : int
        BFS ball radius; targets sit at least one detour hop inside it.
    seed : int
        Campaign seed; trials derive independent order-free streams.
    """
    rows = []
    claim = True
    total_pairs = 0
    total_disconnected = 0
    total_truncated = 0
    for size in sizes:
        instances = sampled_campaign_instances(size)
        kappa = size - 1
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
                total_disconnected += point.disconnected
                total_truncated += point.truncated
                claim = claim and (
                    point.reached + point.disconnected + point.truncated
                    == point.pairs
                )
                if point.fault_count == 0:
                    claim = claim and point.reached == point.pairs
                if point.fault_count < kappa:
                    claim = claim and point.disconnected == 0
                rows.append(
                    (
                        size,
                        name,
                        topology.num_nodes,
                        depth,
                        point.fault_count,
                        point.trials,
                        point.pairs,
                        point.reached,
                        point.disconnected,
                        point.truncated,
                        f"{point.p_disconnect:.4f} "
                        f"[{point.ci_low:.4f}, {point.ci_high:.4f}]"
                        if point.decided
                        else "-",
                    )
                )
    return ExperimentResult(
        experiment_id="SAMPLED-FAULT",
        title="Sampled ball-local fault connectivity at S_13+ (implicit backend)",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary={
            "claim_holds": claim,
            "total_pairs": total_pairs,
            "total_disconnected": total_disconnected,
            "total_truncated": total_truncated,
        },
        notes=[
            "Each trial sweeps a depth-capped BFS ball around a sampled origin "
            "over the implicit backend -- no move table, no whole-graph arrays -- "
            "then injects faults drawn from that ball and classifies sampled "
            "pairs as reached / disconnected / truncated.",
            "'disconnected' is a proof (the faulted sweep exhausted the origin's "
            "surviving component); 'truncated' means the depth cap hid the "
            "verdict and is reported as its own channel, never folded into "
            "either bucket.",
            "The Wilson interval conditions on decided pairs only.",
            "Oracles: zero-fault points reach every pair; below the connectivity "
            "n - 1 no disconnection proof can exist (maximal fault tolerance).",
            "Trial streams derive order-free from the campaign seed: serial, "
            "sharded and restarted runs agree bit for bit.",
        ],
    )
