"""NETWORK-FAMILY -- cross-family comparison of the Cayley networks.

The paper compares the star graph against the hypercube (introduction); this
experiment widens the comparison to the star graph's Cayley siblings on the
same ``n!``-node permutation vertex set -- the pancake network (prefix
reversals) and the bubble-sort network (adjacent transpositions) -- measured
with exactly the same index-native services:

* **degree / regularity** -- one reduction over the adjacency index table;
* **diameter and average distance** -- one bit-parallel all-sources BFS sweep
  (:func:`~repro.topology.routing.distance_summary` always measures; no
  family answers from a formula there), held against the closed forms where
  they exist (star ``floor(3(n-1)/2)``, bubble-sort ``n(n-1)/2``, hypercube
  ``n``) and against the known pancake numbers;
* **fault tolerance** -- random ``degree - 1`` node-fault injections through
  the alive-mask flood (all four families have maximal connectivity, so no
  trial may disconnect them);
* **tree broadcast** -- the generator-scheduled SIMD-A broadcast of
  :mod:`repro.algorithms.cayley` replayed on a
  :class:`~repro.simd.cayley_machine.CayleyMachine` per permutation family
  (the same program on every family; ``StarGraph`` is itself the star-tree
  Cayley graph), reporting measured unit routes next to the
  BFS-depth lower bound.

The claim: at equal degree the three permutation families connect the same
``(degree+1)!`` processors -- far more than the hypercube's ``2^degree`` --
with measured structure matching every known closed form, and one generic
rank-indexed subsystem (tables, sweeps, machines) serves them all.
"""

from __future__ import annotations

import math
import random

from repro.algorithms.cayley import cayley_broadcast_tree, generator_tree_plan
from repro.analysis.comparison import (
    MEASURED_FAMILIES,
    measured_instances,
    measured_network_rows,
)
from repro.experiments.report import ExperimentResult
from repro.experiments.schemas import SCHEMAS
from repro.simd.cayley_machine import CayleyMachine
from repro.topology.properties import connectivity_after_faults, verify_regular

__all__ = ["ARTIFACT_SCHEMA", "run"]

#: Declared artifact shape (see repro.experiments.schemas).
ARTIFACT_SCHEMA = SCHEMAS["NETWORK-FAMILY"]

#: Largest machine (PE count) the broadcast-replay column builds per row.
_MAX_BROADCAST_NODES = 5040


def run(degrees=(3, 4, 5), fault_trials: int = 5, seed: int = 9) -> ExperimentResult:
    """Measure the cross-family comparison at every degree in *degrees*."""
    rng = random.Random(seed)
    rows = []
    claim = True
    # One sweep batch covers exactly the requested degrees (rows keyed by the
    # stable family slug); the bound admits the largest requested instance.
    measured = {
        (row.degree, row.family): row
        for row in measured_network_rows(
            max_nodes=math.factorial(max(degrees) + 1),
            degrees=sorted(set(degrees)),
        )
    }
    for degree in degrees:
        instances = measured_instances(degree)
        for family in MEASURED_FAMILIES:
            name, graph, _formula = instances[family]
            row = measured[(degree, family)]
            regular = verify_regular(graph, degree)

            fault_tolerant = True
            for _ in range(fault_trials):
                faults = [
                    graph.node_from_index(index)
                    for index in rng.sample(range(graph.num_nodes), max(0, degree - 1))
                ]
                if not connectivity_after_faults(graph, faults):
                    fault_tolerant = False
                    break

            # Generator-scheduled broadcast replay: permutation families only
            # (the hypercube is not a permutation Cayley graph).
            if family == "hypercube":
                broadcast_cell = "-"
            elif graph.num_nodes > _MAX_BROADCAST_NODES:
                broadcast_cell = "(skipped)"
            else:
                machine = CayleyMachine(graph)
                machine.define_register("A", {node: node[0] for node in graph.nodes()})
                source = graph.node_from_index(0)
                routes = cayley_broadcast_tree(machine, source, "A")
                plan = generator_tree_plan(graph, 0)
                informed = all(
                    value == source[0] for value in machine.register_values("A_bcast")
                )
                claim = claim and informed and plan.depth <= routes
                broadcast_cell = f"{routes} routes (depth {plan.depth})"

            claim = claim and regular and fault_tolerant and row.diameter_matches
            rows.append(
                (
                    degree,
                    name,
                    row.nodes,
                    f"{row.diameter_measured}"
                    + (
                        f" (formula {row.diameter_formula})"
                        if row.diameter_formula is not None
                        else " (no known formula)"
                    ),
                    round(row.average_distance, 3),
                    "yes" if regular else "NO",
                    "yes" if fault_tolerant else "NO",
                    broadcast_cell,
                )
            )
    return ExperimentResult(
        experiment_id="NETWORK-FAMILY",
        title="Cayley network family: star vs pancake vs bubble-sort vs hypercube",
        headers=list(ARTIFACT_SCHEMA.columns),
        rows=rows,
        summary={"claim_holds": claim},
        notes=[
            "S/P/B share the n!-permutation vertex set; at equal degree each connects "
            "(degree+1)! processors against the hypercube's 2^degree.",
            "All measurements run on the generic rank-indexed services: stacked move-table "
            "adjacency, BFS frontier sweeps, alive-mask fault floods; the star graph runs as "
            "the star-tree instance of the transposition family.",
            "Pancake diameters have no closed form; measured values are held against the known "
            "pancake numbers (Gates & Papadimitriou 1979 and later exhaustive searches).",
            "'tree broadcast' replays the generator-scheduled SIMD-A broadcast program on a "
            "CayleyMachine -- the same compiled program on every permutation family.",
        ],
    )
