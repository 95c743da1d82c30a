"""Seeded Monte-Carlo node-fault campaigns over the alive-mask services.

The paper proves the star graph maximally fault tolerant (connectivity
``n - 1`` equals the degree, so any ``n - 2`` node faults leave it
connected); PROP-D spot-checks that with a handful of clean trials.  This
module turns the spot-check into *degradation curves*: sweep the fault rate,
inject hundreds of seeded random fault sets per point, and measure

* **disconnection probability** -- one alive-mask flood per trial
  (:func:`repro.topology.routing.connected_under_alive_mask`), reported with
  Wilson intervals (:mod:`repro.simulation.stats`);
* **route stretch** -- how much longer the surviving BFS detour
  (:mod:`repro.simulation.rerouting`) is than the healthy shortest path, per
  surviving source/target pair, reported with a normal interval on the mean.

Campaigns run for the four comparison families at approximately matched
machine sizes: star / pancake / bubble-sort share the ``n!`` permutation
nodes, and the hypercube instance is ``Q_m`` with ``m = ceil(log2 n!)``
(:func:`repro.analysis.comparison.closest_hypercube_for_star`) rather than
the equal-degree ``Q_{n-1}`` -- fault curves compare machines of the same
size, not the same degree.

Everything is a pure function of its parameters: each trial draws from
``random.Random(derive_trial_seed(seed, family, fault_count, trial))``, so
results are independent of execution order, process boundaries and trial
interleaving -- exactly what the sharded runner's bit-parity contract needs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as _np

from repro import telemetry
from repro.exceptions import InvalidParameterError
from repro.simulation.rerouting import masked_bfs_distances
from repro.simulation.stats import derive_trial_seed, mean_interval, wilson_interval
from repro.topology.base import Topology
from repro.topology.hypercube import Hypercube
from repro.topology.properties import connectivity_after_faults_reference
from repro.topology.routing import bfs_distances_from, connected_under_alive_mask

__all__ = [
    "CAMPAIGN_FAMILIES",
    "campaign_instances",
    "fault_counts_for_rates",
    "sample_fault_indices",
    "ConnectivityPoint",
    "connectivity_campaign",
    "connectivity_campaign_reference",
    "StretchPoint",
    "stretch_campaign",
]

#: Stable family slugs of the campaign networks, in presentation order.
CAMPAIGN_FAMILIES: Tuple[str, ...] = ("star", "pancake", "bubble-sort", "hypercube")


def campaign_instances(degree: int) -> Dict[str, Tuple[str, Topology]]:
    """``family -> (display name, topology)`` at matched machine sizes.

    The permutation families come from
    :func:`repro.analysis.comparison.measured_instances` at *degree* (all on
    ``(degree+1)!`` nodes); the hypercube is re-sized to the smallest ``Q_m``
    reaching that node count, so every curve in one campaign describes a
    machine of (approximately) the same size.
    """
    # Imported here: the sampled campaigns import this module and need
    # nothing from repro.analysis, whose package __init__ loads all of it.
    from repro.analysis.comparison import (
        closest_hypercube_for_star,
        measured_instances,
    )

    measured = measured_instances(degree)
    instances: Dict[str, Tuple[str, Topology]] = {}
    for family in CAMPAIGN_FAMILIES:
        if family == "hypercube":
            m = closest_hypercube_for_star(degree + 1)
            instances[family] = (f"Q_{m}", Hypercube(m))
        else:
            name, topology, _formula = measured[family]
            instances[family] = (name, topology)
    return instances


def fault_counts_for_rates(
    num_nodes: int, fault_rates: Sequence[float]
) -> List[int]:
    """Node-fault counts for *fault_rates*, clamped to ``[0, num_nodes - 1]``.

    ``round(rate * num_nodes)`` per rate, in input order (duplicates kept:
    the caller's rows stay aligned with the requested rates).  At least one
    node always survives -- a fully dead machine has no curve to measure.
    """
    counts = []
    for rate in fault_rates:
        if not 0.0 <= rate < 1.0:
            raise InvalidParameterError(
                f"fault rate must be in [0, 1), got {rate!r}"
            )
        counts.append(min(num_nodes - 1, round(rate * num_nodes)))
    return counts


def sample_fault_indices(rng: random.Random, num_nodes: int, count: int) -> List[int]:
    """*count* distinct faulty node indices drawn from *rng*."""
    if not 0 <= count < num_nodes:
        raise InvalidParameterError(
            f"fault count must be in [0, {num_nodes}), got {count!r}"
        )
    return rng.sample(range(num_nodes), count)


def _alive_mask(num_nodes: int, fault_indices: Sequence[int]):
    alive = _np.ones(num_nodes, dtype=bool)
    if fault_indices:
        alive[_np.asarray(fault_indices, dtype=_np.int64)] = False
    return alive


@dataclass(frozen=True)
class ConnectivityPoint:
    """One point of a disconnection-probability degradation curve.

    Attributes
    ----------
    fault_count : int
        Nodes killed per trial.
    fault_rate : float
        ``fault_count / num_nodes`` (the *realised* rate, not the requested
        one).
    trials : int
        Monte-Carlo trials at this point.
    disconnected : int
        Trials whose surviving subgraph was disconnected.
    p_disconnect, ci_low, ci_high : float
        Wilson point estimate and 95% bounds of the disconnection
        probability.
    """

    fault_count: int
    fault_rate: float
    trials: int
    disconnected: int
    p_disconnect: float
    ci_low: float
    ci_high: float


def connectivity_campaign(
    topology: Topology,
    *,
    fault_counts: Sequence[int],
    trials: int,
    seed: int,
    label: str,
) -> List[ConnectivityPoint]:
    """Disconnection probability vs fault count, one alive-mask flood per trial.

    Parameters
    ----------
    topology : Topology
        The healthy machine.
    fault_counts : sequence of int
        Nodes to kill per trial, one curve point per entry.
    trials : int
        Trials per point.
    seed : int
        Campaign seed; every trial derives its own independent stream via
        :func:`repro.simulation.stats.derive_trial_seed` with coordinates
        ``(label, fault_count, point_index, trial)``.
    label : str
        Trial-seed namespace (the family slug) -- keeps the star's draws
        decorrelated from the pancake's at equal fault counts.
    """
    if trials <= 0:
        raise InvalidParameterError(f"trials must be positive, got {trials!r}")
    num_nodes = topology.num_nodes
    points = []
    for point_index, fault_count in enumerate(fault_counts):
        disconnected = 0
        with telemetry.span(
            "campaign.connectivity_point",
            family=label,
            num_nodes=num_nodes,
            fault_count=fault_count,
            trials=trials,
        ) as sp:
            for trial in range(trials):
                rng = random.Random(
                    derive_trial_seed(seed, label, fault_count, point_index, trial)
                )
                faults = sample_fault_indices(rng, num_nodes, fault_count)
                if not connected_under_alive_mask(
                    topology, _alive_mask(num_nodes, faults)
                ):
                    disconnected += 1
            if telemetry.trace_enabled():
                sp.add(disconnected=disconnected)
                elapsed = time.perf_counter() - sp.started
                if elapsed > 0:
                    telemetry.set_gauge(
                        "campaign.trials_per_second",
                        round(trials / elapsed, 3),
                        family=label,
                        fault_count=fault_count,
                    )
        p_hat, low, high = wilson_interval(disconnected, trials)
        points.append(
            ConnectivityPoint(
                fault_count=fault_count,
                fault_rate=fault_count / num_nodes,
                trials=trials,
                disconnected=disconnected,
                p_disconnect=p_hat,
                ci_low=low,
                ci_high=high,
            )
        )
    return points


def connectivity_campaign_reference(
    topology: Topology,
    *,
    fault_counts: Sequence[int],
    trials: int,
    seed: int,
    label: str,
) -> List[ConnectivityPoint]:
    """Per-trial tuple-loop reference for :func:`connectivity_campaign`.

    Identical trial seeding and fault draws, but each trial materialises its
    faulty nodes as tuples and runs the dict-BFS oracle
    (:func:`repro.topology.properties.connectivity_after_faults_reference`)
    instead of the batched alive-mask flood.  The parity test holds the two
    campaigns bit-identical; the benchmark ablation measures what the
    batched mask buys.
    """
    if trials <= 0:
        raise InvalidParameterError(f"trials must be positive, got {trials!r}")
    num_nodes = topology.num_nodes
    points = []
    for point_index, fault_count in enumerate(fault_counts):
        disconnected = 0
        for trial in range(trials):
            rng = random.Random(
                derive_trial_seed(seed, label, fault_count, point_index, trial)
            )
            fault_nodes = [
                topology.node_from_index(index)
                for index in sample_fault_indices(rng, num_nodes, fault_count)
            ]
            if not connectivity_after_faults_reference(topology, fault_nodes):
                disconnected += 1
        p_hat, low, high = wilson_interval(disconnected, trials)
        points.append(
            ConnectivityPoint(
                fault_count=fault_count,
                fault_rate=fault_count / num_nodes,
                trials=trials,
                disconnected=disconnected,
                p_disconnect=p_hat,
                ci_low=low,
                ci_high=high,
            )
        )
    return points


@dataclass(frozen=True)
class StretchPoint:
    """One point of a route-stretch degradation curve.

    Attributes
    ----------
    fault_count : int
        Nodes killed per trial.
    fault_rate : float
        Realised fault rate (``fault_count / num_nodes``).
    trials : int
        Trials at this point (each contributes up to *pairs_per_trial*
        source/target pairs).
    pairs : int
        Pairs sampled in total (both endpoints alive).
    unreachable : int
        Pairs whose target had no surviving route (disconnected survivors).
    mean_stretch, ci_low, ci_high : float
        Mean detour stretch over the reroutable pairs with its 95% normal
        interval; ``stretch = masked detour hops / healthy shortest-path
        hops``, so ``1.0`` means faults cost nothing on that pair.  All
        three are 0.0 when no pair was reroutable.
    max_stretch : float
        Worst stretch observed at this point (0.0 when none).
    """

    fault_count: int
    fault_rate: float
    trials: int
    pairs: int
    unreachable: int
    mean_stretch: float
    ci_low: float
    ci_high: float
    max_stretch: float


def stretch_campaign(
    topology: Topology,
    *,
    fault_counts: Sequence[int],
    trials: int,
    pairs_per_trial: int,
    seed: int,
    label: str,
) -> List[StretchPoint]:
    """Route stretch of fault-aware rerouting vs fault count.

    Each trial kills a seeded fault set, picks one surviving source and
    *pairs_per_trial* surviving targets, and measures every pair with two
    sweeps: the healthy shortest-path distances
    (:func:`repro.topology.routing.bfs_distances_from`) and the surviving
    detour distances (:func:`repro.simulation.rerouting.masked_bfs_distances`
    -- one masked sweep serves all the trial's targets).  Stretch is the
    ratio of the two; a detour can never beat the healthy shortest path, so
    every sample is ``>= 1``, and with zero faults every sample is exactly
    ``1.0`` (the campaigns' built-in sanity row).
    """
    if trials <= 0:
        raise InvalidParameterError(f"trials must be positive, got {trials!r}")
    if pairs_per_trial <= 0:
        raise InvalidParameterError(
            f"pairs_per_trial must be positive, got {pairs_per_trial!r}"
        )
    num_nodes = topology.num_nodes
    points = []
    for point_index, fault_count in enumerate(fault_counts):
        if fault_count >= num_nodes - 1:
            raise InvalidParameterError(
                f"fault count {fault_count} leaves fewer than two survivors "
                f"on {num_nodes} nodes; no pairs to measure"
            )
        stretches: List[float] = []
        pairs = 0
        unreachable = 0
        with telemetry.span(
            "campaign.stretch_point",
            family=label,
            num_nodes=num_nodes,
            fault_count=fault_count,
            trials=trials,
        ) as sp:
            for trial in range(trials):
                rng = random.Random(
                    derive_trial_seed(seed, label, fault_count, point_index, trial)
                )
                faults = sample_fault_indices(rng, num_nodes, fault_count)
                alive = _alive_mask(num_nodes, faults)
                fault_set = set(faults)
                survivors = [i for i in range(num_nodes) if i not in fault_set]
                source = rng.choice(survivors)
                candidates = [i for i in survivors if i != source]
                targets = rng.sample(
                    candidates, min(pairs_per_trial, len(candidates))
                )
                healthy = bfs_distances_from(
                    topology, topology.node_from_index(source)
                )
                detour = masked_bfs_distances(topology, source, alive)
                for target in targets:
                    pairs += 1
                    if detour[target] < 0:
                        unreachable += 1
                    else:
                        stretches.append(
                            float(detour[target]) / float(healthy[target])
                        )
            if telemetry.trace_enabled():
                sp.add(pairs=pairs, unreachable=unreachable)
                elapsed = time.perf_counter() - sp.started
                if elapsed > 0:
                    telemetry.set_gauge(
                        "campaign.trials_per_second",
                        round(trials / elapsed, 3),
                        family=label,
                        fault_count=fault_count,
                    )
        if stretches:
            mean, low, high = mean_interval(stretches)
            worst = max(stretches)
        else:
            mean = low = high = worst = 0.0
        points.append(
            StretchPoint(
                fault_count=fault_count,
                fault_rate=fault_count / num_nodes,
                trials=trials,
                pairs=pairs,
                unreachable=unreachable,
                mean_stretch=mean,
                ci_low=low,
                ci_high=high,
                max_stretch=worst,
            )
        )
    return points
