"""Sampled whole-graph distance statistics past the table ceiling.

Whole-graph sweeps end where ``n!`` does: a degree-13 star graph has 6.2
billion nodes, so even the table-free implicit kernels cannot enumerate it in
reasonable time.  This module estimates the same S_13-S_14 statistics --
distance distribution, average distance, diameter lower bound -- from seeded
random node pairs evaluated through the *closed-form* distances (no
adjacency anywhere): cycle structure for the star graph, Kendall-tau
inversions for bubble-sort, Hamming weight for the hypercube.  The pancake
graph has no closed-form distance and is deliberately absent.

Estimates ship with honest uncertainty, following the CI-for-ranks
methodology of the csranks line of work: the mean carries a 95%
normal-approximation interval from exact integer moments
(:func:`repro.simulation.stats.moments_interval`) and every histogram bucket
a Wilson score interval (:func:`repro.simulation.stats.wilson_interval`).
The diameter estimate is reported as what it is -- a *lower* bound (the
maximum observed distance), never a diameter claim.

Determinism contract (same as the fault campaigns): all pairs are drawn up
front from one :func:`numpy.random.default_rng` stream seeded by
:func:`repro.simulation.stats.derive_trial_seed` of ``(seed, family, size,
samples)``, and only the distance evaluation is chunked -- so every
:data:`~repro.permutations.ranking.CHUNK_NODES` produces bit-identical
estimates and reruns are pure functions of their parameters.  Distance sums
and sums of squares accumulate as exact int64 integers, so the intervals are
reproducible to the last ulp.

Small-``n`` anchors for the parity tests: :func:`exact_average_distance`
returns the exact mean pairwise distance from one closed-form sweep (star,
vertex-transitive) or a closed formula (bubble-sort ``n(n-1)/4 *
n!/(n!-1)``, hypercube ``m * 2^(m-1) / (2^m - 1)``), which the sampled CIs
must bracket.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as _np

from repro import telemetry
from repro.exceptions import InvalidParameterError
from repro.simulation.stats import (
    derive_trial_seed,
    moments_interval,
    wilson_interval,
)
from repro.utils.validation import check_positive_int

__all__ = [
    "SAMPLING_FAMILIES",
    "SampledDistanceEstimate",
    "sampled_pair_distances",
    "sampled_distance_estimate",
    "exact_average_distance",
    "family_num_nodes",
    "family_diameter_formula",
    "PancakeDistanceEstimate",
    "pancake_relative_ranks",
    "default_pancake_depth",
    "sampled_pancake_estimate",
]

#: Families with a closed-form pairwise distance, i.e. the ones the sampled
#: estimators can evaluate without any adjacency structure.  The pancake
#: graph is absent on purpose: prefix-reversal distance has no known closed
#: form (that is the "pancake number" problem).
SAMPLING_FAMILIES: Tuple[str, ...] = ("star", "bubble-sort", "hypercube")

#: Largest pancake size the estimator resolves with one exact whole-graph
#: sweep (12! nodes); larger sizes use the depth-capped ball.
_EXACT_PANCAKE_MAX_SIZE = 12


def _check_family(family: str) -> None:
    if family not in SAMPLING_FAMILIES:
        raise InvalidParameterError(
            f"family must be one of {SAMPLING_FAMILIES}, got {family!r}"
            " (pancake distances have no closed form and cannot be sampled;"
            " use sampled_pancake_estimate for truncated-BFS pancake"
            " estimates instead)"
        )


def family_num_nodes(family: str, size: int) -> int:
    """Node count of one sampling family instance.

    *size* is the permutation degree ``n`` for ``star`` / ``bubble-sort``
    (``n!`` nodes, ``n >= 2``) and the dimension ``m`` for ``hypercube``
    (``2^m`` nodes, ``m >= 1``).  Permutation families are bounded by the
    int64 rank degree (``n <= 20``), hypercubes by int64 node ids
    (``m <= 62``).
    """
    _check_family(family)
    if family == "hypercube":
        check_positive_int(size, "size", minimum=1)
        if size > 62:
            raise InvalidParameterError(
                f"hypercube sampling is limited to dimension <= 62 "
                f"(node ids must fit in int64), got {size}"
            )
        return 1 << size
    check_positive_int(size, "size", minimum=2)
    from repro.permutations.ranking import (
        factorials,
        require_int64_rank_degree,
    )

    require_int64_rank_degree(size)
    return factorials(size)[size]


def family_diameter_formula(family: str, size: int) -> int:
    """The closed-form diameter the sampled lower bound is held against."""
    _check_family(family)
    if family == "star":
        return (3 * (size - 1)) // 2
    if family == "bubble-sort":
        return size * (size - 1) // 2
    return size


def _kendall_tau_rows(source_rows, target_rows):
    """Row-wise Kendall-tau (inversion) distances of two permutation batches.

    Relabels each source row by the symbol positions of its target row, then
    counts inversions with one comparison sum per position (the sum of the
    Lehmer digits) -- the batched twin of
    :func:`repro.topology.cayley.bubble_sort_distance`.
    """
    positions = _np.argsort(target_rows, axis=1)
    mapping = _np.take_along_axis(positions, source_rows, axis=1)
    n = mapping.shape[1]
    inversions = _np.zeros(mapping.shape[0], dtype=_np.int64)
    for i in range(n - 1):
        inversions += (mapping[:, i + 1 :] < mapping[:, i : i + 1]).sum(
            axis=1, dtype=_np.int64
        )
    return inversions


def _hamming_rows(sources, targets, size: int):
    """Row-wise Hamming distances between int64 hypercube node ids."""
    diff = sources ^ targets
    out = _np.zeros(diff.shape[0], dtype=_np.int64)
    for shift in range(size):
        out += (diff >> shift) & 1
    return out


def _pair_block_distances(family: str, size: int, sources, targets):
    """Closed-form distances of one block of (source, target) rank pairs."""
    if family == "hypercube":
        return _hamming_rows(sources, targets, size)
    from repro.permutations.ranking import unrank_batch

    source_rows = unrank_batch(sources, size)
    target_rows = unrank_batch(targets, size)
    if family == "star":
        from repro.topology.routing import star_distances_between

        return star_distances_between(source_rows, target_rows)
    return _kendall_tau_rows(source_rows, target_rows)


def sampled_pair_distances(family: str, size: int, samples: int, seed: int):
    """Closed-form distances of *samples* seeded random distinct node pairs.

    All pairs are drawn up front from one seeded stream (targets use the
    shift trick -- draw in ``[0, num_nodes - 1)`` and step over the source --
    so pairs are uniform over *ordered distinct* pairs); only the distance
    evaluation is chunked, so the chunk size never changes the returned
    array.

    Returns the int64 distance array of length *samples*.
    """
    _check_family(family)
    check_positive_int(samples, "samples", minimum=1)
    num_nodes = family_num_nodes(family, size)
    if num_nodes < 2:
        raise InvalidParameterError(
            f"{family} instance of size {size} has no distinct node pairs"
        )
    rng = _np.random.default_rng(
        derive_trial_seed(seed, "sampled-distance", family, size, samples)
    )
    sources = rng.integers(0, num_nodes, size=samples, dtype=_np.int64)
    targets = rng.integers(0, num_nodes - 1, size=samples, dtype=_np.int64)
    targets += targets >= sources  # uniform over targets != source

    from repro.permutations.ranking import CHUNK_NODES

    distances = _np.empty(samples, dtype=_np.int64)
    with telemetry.span(
        "sampling.pairs",
        family=family,
        size=size,
        samples=samples,
        chunks=-(-samples // CHUNK_NODES),
    ) as sp:
        for start in range(0, samples, CHUNK_NODES):
            stop = min(start + CHUNK_NODES, samples)
            distances[start:stop] = _pair_block_distances(
                family, size, sources[start:stop], targets[start:stop]
            )
        if telemetry.trace_enabled():
            elapsed = time.perf_counter() - sp.started
            if elapsed > 0:
                telemetry.set_gauge(
                    "sampling.samples_per_second",
                    round(samples / elapsed, 3),
                    family=family,
                    size=size,
                )
    return distances


@dataclass(frozen=True)
class SampledDistanceEstimate:
    """Sampled whole-graph distance statistics of one family instance.

    ``mean`` / ``mean_low`` / ``mean_high`` is the 95% normal-approximation
    interval over the sampled pairwise distances (exact integer moments);
    ``diameter_lower_bound`` is the maximum observed distance -- a lower
    bound, not a diameter estimate; ``histogram`` maps each observed distance
    to its count and ``histogram_intervals`` to its Wilson 95% proportion
    interval ``(p_hat, low, high)``.
    """

    family: str
    size: int
    num_nodes: int
    samples: int
    seed: int
    mean: float
    mean_low: float
    mean_high: float
    diameter_lower_bound: int
    diameter_formula: int
    histogram: Dict[int, int] = field(hash=False)
    histogram_intervals: Dict[int, Tuple[float, float, float]] = field(hash=False)

    @property
    def diameter_consistent(self) -> bool:
        """True when the observed lower bound respects the closed form."""
        return self.diameter_lower_bound <= self.diameter_formula

    def brackets(self, exact_mean: float) -> bool:
        """True when the mean interval covers *exact_mean*."""
        return self.mean_low <= exact_mean <= self.mean_high


def sampled_distance_estimate(
    family: str,
    size: int,
    samples: int,
    seed: int,
) -> SampledDistanceEstimate:
    """Estimate distance statistics of one family instance from seeded pairs.

    One call to :func:`sampled_pair_distances` folded into a
    :class:`SampledDistanceEstimate`: the mean interval comes from exact
    int64 moments (:func:`~repro.simulation.stats.moments_interval`), each
    histogram bucket from a Wilson interval, and the diameter lower bound is
    the sample maximum.  Deterministic in ``(family, size, samples, seed)``
    and invariant under the chunk size.
    """
    distances = sampled_pair_distances(family, size, samples, seed)
    total = int(distances.sum())
    total_squares = int((distances * distances).sum())
    mean, low, high = moments_interval(total, total_squares, samples)
    counts = _np.bincount(distances)
    histogram = {
        int(d): int(count) for d, count in enumerate(counts) if count
    }
    intervals = {
        d: wilson_interval(count, samples) for d, count in histogram.items()
    }
    return SampledDistanceEstimate(
        family=family,
        size=size,
        num_nodes=family_num_nodes(family, size),
        samples=samples,
        seed=seed,
        mean=mean,
        mean_low=low,
        mean_high=high,
        diameter_lower_bound=int(distances.max()),
        diameter_formula=family_diameter_formula(family, size),
        histogram=histogram,
        histogram_intervals=intervals,
    )


def exact_average_distance(family: str, size: int) -> float:
    """Exact mean pairwise distance over ordered distinct node pairs.

    The anchor the sampled intervals are tested against:

    * ``bubble-sort`` -- expected inversions of a uniform relative
      permutation is ``n (n - 1) / 4``; conditioning away the ``n!``
      self-pairs scales by ``n! / (n! - 1)``;
    * ``hypercube`` -- expected Hamming distance is ``m / 2``; excluding
      self-pairs gives ``m * 2^(m-1) / (2^m - 1)``;
    * ``star`` -- no simple closed form, but the graph is vertex-transitive,
      so one full closed-form sweep from the identity
      (:func:`repro.topology.routing.star_distances_from`) is the exact
      whole-graph mean.  Feasible through the sweepable degrees only (S_10
      in seconds); that is precisely why the sampled estimator exists.
    """
    _check_family(family)
    num_nodes = family_num_nodes(family, size)
    if family == "bubble-sort":
        return (size * (size - 1) / 4.0) * num_nodes / (num_nodes - 1)
    if family == "hypercube":
        return size * (1 << (size - 1)) / (num_nodes - 1)
    from repro.topology.routing import star_distances_from

    distances = star_distances_from(tuple(range(size)))
    return int(_np.asarray(distances).sum()) / (num_nodes - 1)


def pancake_relative_ranks(sources, targets, size: int):
    """Lehmer ranks of the relative permutations ``source^-1 o target``.

    The pancake graph is a Cayley graph under right multiplication, so
    ``d(source, target) = d(identity, source^-1 o target)`` -- one BFS from
    the identity (rank 0) answers every sampled pair through this relabeling.
    Chunked over :data:`~repro.permutations.ranking.CHUNK_NODES` without
    changing the result.
    """
    from repro.permutations.ranking import CHUNK_NODES, rank_batch, unrank_batch

    sources = _np.asarray(sources, dtype=_np.int64)
    targets = _np.asarray(targets, dtype=_np.int64)
    out = _np.empty(sources.shape[0], dtype=_np.int64)
    for start in range(0, sources.shape[0], CHUNK_NODES):
        stop = min(start + CHUNK_NODES, sources.shape[0])
        source_rows = _np.asarray(unrank_batch(sources[start:stop], size))
        target_rows = _np.asarray(unrank_batch(targets[start:stop], size))
        positions = _np.argsort(source_rows, axis=1)
        relative = _np.take_along_axis(positions, target_rows, axis=1)
        out[start:stop] = rank_batch(relative)
    return out


def default_pancake_depth(size: int) -> int:
    """Default truncation depth for the sampled pancake tier.

    Deep enough to resolve a useful share of random pairs, shallow enough
    that the identity ball stays a few million nodes: the largest depth
    whose worst-case ball growth ``(size - 1)^depth`` stays under 4e6.
    """
    check_positive_int(size, "size", minimum=2)
    depth = 1
    while (size - 1) ** (depth + 1) <= 4_000_000:
        depth += 1
    return depth


@dataclass(frozen=True)
class PancakeDistanceEstimate:
    """Sampled pancake-distance statistics with truncation accounting.

    Pancake distance has no closed form, so this estimate comes from BFS:
    exact when a whole-graph identity sweep is feasible
    (``size <= 12``, ``exact=True``), otherwise from a
    depth-``max_depth`` truncated identity ball where every unresolved pair
    contributes the certified lower bound ``max_depth + 1``.  The
    ``truncated`` channel is explicit: ``mean`` is the exact sampled mean
    when ``truncated == 0`` and a *lower bound* on it otherwise -- never a
    silently biased point estimate.
    """

    size: int
    num_nodes: int
    samples: int
    seed: int
    exact: bool
    max_depth: int
    resolved: int
    truncated: int
    mean: float
    mean_low: float
    mean_high: float
    diameter_lower_bound: int
    histogram: Dict[int, int] = field(hash=False)
    histogram_intervals: Dict[int, Tuple[float, float, float]] = field(hash=False)

    def brackets(self, exact_mean: float) -> bool:
        """True when the mean interval covers *exact_mean*.

        Meaningful as a two-sided check only when ``truncated == 0``; with
        truncation the interval is around a lower-bound statistic.
        """
        return self.mean_low <= exact_mean <= self.mean_high


def sampled_pancake_estimate(
    size: int,
    samples: int,
    seed: int,
    *,
    max_depth: Optional[int] = None,
) -> PancakeDistanceEstimate:
    """Estimate pancake-graph distance statistics from seeded random pairs.

    Fills the deliberate pancake gap in :data:`SAMPLING_FAMILIES`: instead
    of a closed form, distances come from one identity-origin BFS
    (vertex-transitivity turns every pair into a single-source lookup via
    :func:`pancake_relative_ranks`):

    * ``size <= 12`` and ``max_depth`` unset -- one full sweep over
      ``graph.neighbor_source()``; every sampled pair gets its **exact**
      distance.
    * otherwise -- a :func:`repro.topology.routing.bounded_bfs_ball` of
      depth ``max_depth`` (default :func:`default_pancake_depth`); pairs
      whose relative rank falls outside the ball are counted in the
      ``truncated`` channel and contribute the certified lower bound
      ``max_depth + 1``.

    Pair sampling matches :func:`sampled_pair_distances` (one seeded stream
    keyed by ``derive_trial_seed(seed, "sampled-pancake", size, samples)``,
    uniform over ordered distinct pairs) and does **not** depend on
    ``max_depth``: deepening the ball resolves more of the *same* pairs.
    Deterministic in its parameters and invariant under the chunk size.
    """
    check_positive_int(samples, "samples", minimum=1)
    from repro.permutations.ranking import (
        factorials,
        require_int64_rank_degree,
    )

    check_positive_int(size, "size", minimum=2)
    require_int64_rank_degree(size)
    num_nodes = factorials(size)[size]
    rng = _np.random.default_rng(
        derive_trial_seed(seed, "sampled-pancake", size, samples)
    )
    sources = rng.integers(0, num_nodes, size=samples, dtype=_np.int64)
    targets = rng.integers(0, num_nodes - 1, size=samples, dtype=_np.int64)
    targets += targets >= sources  # uniform over targets != source

    exact = max_depth is None and size <= _EXACT_PANCAKE_MAX_SIZE
    if max_depth is None and not exact:
        max_depth = default_pancake_depth(size)
    if max_depth is not None:
        check_positive_int(max_depth, "max_depth", minimum=1)

    from repro.topology.cayley import PancakeGraph

    graph = PancakeGraph(size)
    with telemetry.span(
        "sampling.pancake",
        size=size,
        samples=samples,
        tier="exact" if exact else "truncated",
        max_depth=-1 if exact else int(max_depth),
    ) as sp:
        relative = pancake_relative_ranks(sources, targets, size)
        if exact:
            from repro.topology.routing import index_bfs_distances

            full = index_bfs_distances(graph.neighbor_source(), 0)
            distances = full[relative]
            resolved_mask = _np.ones(samples, dtype=bool)
            depth_used = int(full.max())
        else:
            from repro.topology.routing import bounded_bfs_ball

            ball = bounded_bfs_ball(graph.neighbor_source(), 0, max_depth=max_depth)
            looked = _np.asarray(ball.distance_of(relative))
            resolved_mask = looked >= 0
            distances = _np.where(resolved_mask, looked, max_depth + 1)
            depth_used = int(max_depth)
        if telemetry.trace_enabled():
            sp.add(resolved=int(resolved_mask.sum()))

    resolved = int(resolved_mask.sum())
    truncated = samples - resolved
    total = int(distances.sum())
    total_squares = int((distances * distances).sum())
    mean, low, high = moments_interval(total, total_squares, samples)
    counts = _np.bincount(distances[resolved_mask], minlength=0)
    histogram = {int(d): int(count) for d, count in enumerate(counts) if count}
    intervals = {
        d: wilson_interval(count, samples) for d, count in histogram.items()
    }
    observed_max = int(distances[resolved_mask].max()) if resolved else 0
    diameter_lower_bound = max(
        observed_max, depth_used + 1 if truncated else 0
    )
    return PancakeDistanceEstimate(
        size=size,
        num_nodes=num_nodes,
        samples=samples,
        seed=seed,
        exact=exact,
        max_depth=depth_used,
        resolved=resolved,
        truncated=truncated,
        mean=mean,
        mean_low=low,
        mean_high=high,
        diameter_lower_bound=diameter_lower_bound,
        histogram=histogram,
        histogram_intervals=intervals,
    )
