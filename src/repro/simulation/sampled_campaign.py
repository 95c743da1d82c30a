"""Sampled fault & rerouting campaigns at S_13+ over bounded BFS balls.

The PR 6 campaigns (:mod:`repro.simulation.campaign`) flood the *whole*
machine per trial, which ends where move tables end: a degree-13 star graph
has 6.2 billion nodes and no whole-graph array fits anywhere.  This module
re-derives the same degradation statistics from **bounded-depth BFS balls**
(:func:`repro.topology.routing.bounded_bfs_ball`) over the implicit
adjacency source -- every sweep touches only the few thousand nodes within
``depth`` hops of a sampled origin, so S_13 and S_14 are routine campaign
sizes instead of demos.

Trial design
------------
Random far-apart pairs are useless under a depth cap (typical S_13 distances
exceed any feasible depth), so each trial localises the question:

1. sample an origin uniformly from all ``n!`` node ranks and sweep its
   *healthy* ball to ``depth``;
2. draw the trial's faults uniformly from the ball (minus the origin) --
   faults outside the ball cannot affect what the trial measures;
3. sample targets among ball nodes at healthy distance in
   ``[1, depth - detour_slack]``, so a detour has ``detour_slack`` spare
   hops before hitting the cap;
4. sweep the *faulted* ball (same origin, faults excluded) and classify
   every pair:

   * **reached** -- the faulted ball still reaches the target; its stretch
     is ``faulted distance / healthy distance`` (always >= 1);
   * **disconnected** -- the target is absent from a faulted ball that is
     *not* truncated: the sweep exhausted the origin's surviving component,
     so absence is a proof of disconnection;
   * **truncated** -- the target is absent but the faulted ball hit the
     depth cap: unknown, and reported as such rather than folded into
     either bucket.

``reached + disconnected + truncated == pairs`` is an invariant of every
curve point; the disconnection probability is a Wilson interval over the
*decided* pairs only.  Built-in oracles: the zero-fault point reuses the
healthy ball, so every pair is reached with stretch exactly 1.0; and below
the connectivity ``n - 1`` (all three permutation families are maximally
fault tolerant) no trial can produce a disconnection proof.

Determinism matches the PR 6 contract: each trial derives its own stream
via ``derive_trial_seed(seed, label, fault_count, point_index, trial)``, so
campaigns are pure functions of their parameters -- bit-identical across
serial, sharded and restarted runs, at any chunk size.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as _np

from repro import telemetry
from repro.exceptions import InvalidParameterError
from repro.simulation.stats import derive_trial_seed, mean_interval, wilson_interval
from repro.topology.base import Topology
from repro.utils.validation import check_positive_int

__all__ = [
    "SAMPLED_CAMPAIGN_FAMILIES",
    "sampled_campaign_instances",
    "SampledFaultPoint",
    "sampled_fault_campaign",
]

#: Families the sampled campaigns cover: the three permutation networks on
#: ``n!`` nodes, i.e. exactly the families the implicit rank/unrank source
#: can expand without any adjacency table.  The hypercube is absent -- its
#: matched-size instance (``Q_33`` against S_13) has no implicit
#: ``NeighborSource`` and needs none of this machinery.
SAMPLED_CAMPAIGN_FAMILIES: Tuple[str, ...] = ("star", "pancake", "bubble-sort")


def sampled_campaign_instances(size: int) -> Dict[str, Tuple[str, Topology]]:
    """``family -> (display name, topology)`` at permutation degree *size*.

    All three instances share the ``size!`` node set and the maximal
    connectivity ``size - 1``; their adjacency comes from
    ``topology.neighbor_source()``, which goes implicit (table-free) past
    the table ceiling.
    """
    check_positive_int(size, "size", minimum=3)
    from repro.topology.cayley import BubbleSortGraph, PancakeGraph
    from repro.topology.star import StarGraph

    return {
        "star": (f"S_{size}", StarGraph(size)),
        "pancake": (f"P_{size}", PancakeGraph(size)),
        "bubble-sort": (f"B_{size}", BubbleSortGraph(size)),
    }


@dataclass(frozen=True)
class SampledFaultPoint:
    """One curve point of a sampled (ball-local) fault campaign.

    Attributes
    ----------
    fault_count : int
        Faults injected into each trial's healthy ball.
    trials : int
        Trials at this point.
    pairs : int
        Origin/target pairs measured in total.
    reached, disconnected, truncated : int
        The three-way classification; ``reached + disconnected + truncated
        == pairs`` always (the explicit accounting channel).
    p_disconnect, ci_low, ci_high : float
        Wilson point estimate and 95% bounds of the disconnection
        probability **over the decided pairs** (``reached +
        disconnected``); all 0.0 when no pair was decided.
    mean_stretch, stretch_low, stretch_high : float
        Mean detour stretch over the reached pairs with its 95% normal
        interval; all 0.0 when no pair was reached.
    max_stretch : float
        Worst stretch observed at this point (0.0 when none).
    """

    fault_count: int
    trials: int
    pairs: int
    reached: int
    disconnected: int
    truncated: int
    p_disconnect: float
    ci_low: float
    ci_high: float
    mean_stretch: float
    stretch_low: float
    stretch_high: float
    max_stretch: float

    @property
    def decided(self) -> int:
        """Pairs with a definite verdict (not truncated)."""
        return self.reached + self.disconnected


def sampled_fault_campaign(
    topology: Topology,
    *,
    fault_counts: Sequence[int],
    trials: int,
    pairs_per_trial: int,
    depth: int,
    seed: int,
    label: str,
    detour_slack: int = 1,
) -> List[SampledFaultPoint]:
    """Ball-local fault/stretch degradation curve of one (huge) topology.

    Parameters
    ----------
    topology : Topology
        The healthy machine; adjacency comes from
        ``topology.neighbor_source()`` (implicit past the table ceiling).
    fault_counts : sequence of int
        Faults per trial, one curve point per entry; each trial draws its
        faults from the sampled origin's healthy ball.
    trials : int
        Trials per point (each contributes up to *pairs_per_trial* pairs).
    pairs_per_trial : int
        Targets sampled per trial; one faulted sweep serves all of them.
    depth : int
        BFS ball radius.  Must exceed *detour_slack*.
    seed : int
        Campaign seed; every trial derives an independent order-free stream
        with coordinates ``(label, fault_count, point_index, trial)``.
    label : str
        Trial-seed namespace (e.g. ``"star/13"``).
    detour_slack : int, optional
        Targets sit at healthy distance ``<= depth - detour_slack``, giving
        detours that many spare hops before the cap truncates them.
    """
    check_positive_int(trials, "trials", minimum=1)
    check_positive_int(pairs_per_trial, "pairs_per_trial", minimum=1)
    check_positive_int(depth, "depth", minimum=1)
    if detour_slack < 0 or detour_slack >= depth:
        raise InvalidParameterError(
            f"detour_slack must be in [0, depth), got {detour_slack!r} "
            f"at depth {depth}"
        )
    from repro.topology.routing import bounded_bfs_ball

    source = topology.neighbor_source()
    num_nodes = topology.num_nodes
    max_target_depth = depth - detour_slack
    points = []
    for point_index, fault_count in enumerate(fault_counts):
        if fault_count < 0:
            raise InvalidParameterError(
                f"fault counts must be non-negative, got {fault_count!r}"
            )
        pairs = reached = disconnected = truncated = 0
        stretches: List[float] = []
        with telemetry.span(
            "campaign.sampled_fault_point",
            family=label,
            num_nodes=int(num_nodes),
            fault_count=int(fault_count),
            depth=int(depth),
            trials=int(trials),
        ) as sp:
            for trial in range(trials):
                rng = random.Random(
                    derive_trial_seed(seed, label, fault_count, point_index, trial)
                )
                origin = rng.randrange(num_nodes)
                healthy = bounded_bfs_ball(source, origin, max_depth=depth)
                distances = _np.asarray(healthy.distances)
                if fault_count > healthy.size - 1:
                    raise InvalidParameterError(
                        f"fault count {fault_count} exceeds the {healthy.size - 1} "
                        f"non-origin nodes of a depth-{depth} ball; lower the "
                        f"fault count or raise the depth"
                    )
                # The origin is the ball's only node at distance 0.
                origin_position = int(_np.flatnonzero(distances == 0)[0])
                fault_positions = [
                    position + (position >= origin_position)
                    for position in rng.sample(range(healthy.size - 1), fault_count)
                ]

                candidate_mask = (distances >= 1) & (distances <= max_target_depth)
                if fault_count:
                    candidate_mask[fault_positions] = False
                candidates = _np.flatnonzero(candidate_mask)
                candidate_distances = distances[candidates]
                wanted = min(pairs_per_trial, int(candidates.size))
                if wanted == 0:
                    continue
                target_positions = rng.sample(range(int(candidates.size)), wanted)
                # Only the drawn faults and targets are decoded to ranks, in
                # one call; the rest of the ball stays in the source's key
                # space.
                drawn = healthy.nodes_at(
                    _np.concatenate(
                        [
                            _np.array(fault_positions, dtype=_np.intp),
                            candidates[target_positions],
                        ]
                    )
                )
                faults, targets = _np.sort(drawn[:fault_count]), drawn[fault_count:]
                healthy_distances = candidate_distances[target_positions]

                if fault_count == 0:
                    # The faulted ball *is* the healthy ball: no second
                    # sweep, and the stretch-exactly-1.0 oracle is exact by
                    # construction.
                    faulted = healthy
                else:
                    faulted = bounded_bfs_ball(
                        source, origin, max_depth=depth, excluded=faults
                    )
                faulted_distances = _np.asarray(faulted.distance_of(targets))
                for faulted_distance, healthy_distance in zip(
                    faulted_distances, healthy_distances
                ):
                    pairs += 1
                    if faulted_distance >= 0:
                        reached += 1
                        stretches.append(
                            float(faulted_distance) / float(healthy_distance)
                        )
                    elif faulted.truncated:
                        truncated += 1
                    else:
                        disconnected += 1
            if telemetry.trace_enabled():
                sp.add(
                    pairs=pairs,
                    reached=reached,
                    disconnected=disconnected,
                    truncated=truncated,
                )
                elapsed = time.perf_counter() - sp.started
                if elapsed > 0:
                    telemetry.set_gauge(
                        "campaign.sampled_trials_per_second",
                        round(trials / elapsed, 3),
                        family=label,
                        fault_count=fault_count,
                    )
        decided = reached + disconnected
        if decided:
            p_hat, ci_low, ci_high = wilson_interval(disconnected, decided)
        else:
            p_hat = ci_low = ci_high = 0.0
        if stretches:
            mean_stretch, stretch_low, stretch_high = mean_interval(stretches)
            max_stretch = max(stretches)
        else:
            mean_stretch = stretch_low = stretch_high = max_stretch = 0.0
        points.append(
            SampledFaultPoint(
                fault_count=fault_count,
                trials=trials,
                pairs=pairs,
                reached=reached,
                disconnected=disconnected,
                truncated=truncated,
                p_disconnect=p_hat,
                ci_low=ci_low,
                ci_high=ci_high,
                mean_stretch=mean_stretch,
                stretch_low=stretch_low,
                stretch_high=stretch_high,
                max_stretch=max_stretch,
            )
        )
    return points
