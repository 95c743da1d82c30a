"""Calibration: the intervals must actually cover at their nominal rate.

The sampled campaigns' honesty rests on their intervals, so this suite
replays each interval construction against *known* ground truth -- exact
S_7 / S_8 whole-graph sweeps and closed-form family means -- over many
seeded replications and checks the empirical coverage:

* :func:`~repro.simulation.stats.wilson_interval` against exact distance
  histogram shares (binomial draws at the true proportion);
* :func:`~repro.simulation.stats.moments_interval` through
  :func:`~repro.simulation.sampling.sampled_distance_estimate` against the
  exact mean distance;
* the simultaneous machinery
  (:func:`~repro.simulation.stats.simultaneous_intervals` /
  :func:`~repro.simulation.stats.rank_intervals`) against the exact means
  and the true ranking of the four comparison families -- coverage here is
  *joint*: one replication counts only if every family is covered at once.

Every replication derives its stream from
:func:`~repro.simulation.stats.derive_trial_seed`, so the observed coverage
numbers are deterministic; the assertions allow nominal minus a slack that
accounts for the finite replication count.  Tier-1 runs ~40 replications;
``REPRO_HEAVY_TESTS=1`` raises that to ~200 with a tighter slack.
"""

import os

import numpy as np

from repro.analysis.comparison import closest_hypercube_for_star
from repro.simulation.sampling import (
    exact_average_distance,
    sampled_distance_estimate,
    sampled_pancake_estimate,
)
from repro.simulation.stats import (
    Z_95,
    derive_trial_seed,
    normal_cdf,
    normal_quantile,
    rank_intervals,
    simultaneous_intervals,
    wilson_interval,
)
from repro.topology.routing import star_distances_from

HEAVY = bool(os.environ.get("REPRO_HEAVY_TESTS"))

#: (replications, coverage slack) per tier: more replications, tighter slack.
REPLICATIONS, SLACK = (200, 0.05) if HEAVY else (40, 0.10)

NOMINAL = 0.95

#: Exact sweep degree: S_7 in tier-1, S_8 under the heavy flag.
SWEEP_DEGREE = 8 if HEAVY else 7


def _exact_star_histogram(n):
    """``distance -> exact share of ordered distinct pairs`` for ``S_n``.

    One identity sweep suffices: the star graph is vertex-transitive, so the
    identity row's distance distribution *is* the whole graph's.
    """
    distances = np.asarray(star_distances_from(tuple(range(n))))
    counts = np.bincount(distances)
    total = distances.size - 1  # exclude the self-pair at distance 0
    return {
        int(d): int(count) / total
        for d, count in enumerate(counts)
        if d > 0 and count
    }


class TestNormalQuantile:
    def test_recovers_z95(self):
        assert abs(normal_quantile(0.975) - Z_95) < 1e-12

    def test_round_trips_against_the_cdf(self):
        for p in (1e-9, 1e-4, 0.02425, 0.3, 0.5, 0.7, 0.975, 1 - 1e-4, 1 - 1e-9):
            assert abs(normal_cdf(normal_quantile(p)) - p) < 1e-9

    def test_symmetry(self):
        assert abs(normal_quantile(0.25) + normal_quantile(0.75)) < 1e-12


class TestWilsonCalibration:
    def test_coverage_at_exact_histogram_shares(self):
        histogram = _exact_star_histogram(SWEEP_DEGREE)
        # A mid-mass bucket and a tail bucket: Wilson must hold both.
        shares = sorted(histogram.values())
        for true_p in (shares[-1], shares[0]):
            covered = 0
            trials = 400
            for replication in range(REPLICATIONS):
                rng = np.random.default_rng(
                    derive_trial_seed(
                        7101, "wilson-calibration", SWEEP_DEGREE, true_p, replication
                    )
                )
                successes = int(rng.binomial(trials, true_p))
                _p_hat, low, high = wilson_interval(successes, trials)
                if low <= true_p <= high:
                    covered += 1
            coverage = covered / REPLICATIONS
            assert coverage >= NOMINAL - SLACK, (true_p, coverage)


class TestMomentsCalibration:
    def test_mean_interval_covers_exact_star_mean(self):
        exact = exact_average_distance("star", SWEEP_DEGREE)
        covered = 0
        for replication in range(REPLICATIONS):
            estimate = sampled_distance_estimate(
                "star", SWEEP_DEGREE, 1_500, seed=replication
            )
            if estimate.brackets(exact):
                covered += 1
        coverage = covered / REPLICATIONS
        assert coverage >= NOMINAL - SLACK, coverage


class TestSimultaneousCalibration:
    """Joint coverage of the csranks-style machinery at matched size 6.

    Size 6 keeps the per-replication cost tiny (the pancake estimator's
    exact tier sweeps 720 nodes) while the four families still produce the
    non-trivial true ranking the rank intervals must cover.
    """

    SIZE = 6

    def _family_estimates(self, replication):
        cube_dim = closest_hypercube_for_star(self.SIZE)
        estimates = []
        for family in ("star", "pancake", "bubble-sort", "hypercube"):
            if family == "pancake":
                estimate = sampled_pancake_estimate(
                    self.SIZE, 1_000, seed=replication
                )
            elif family == "hypercube":
                estimate = sampled_distance_estimate(
                    "hypercube", cube_dim, 1_000, seed=replication
                )
            else:
                estimate = sampled_distance_estimate(
                    family, self.SIZE, 1_000, seed=replication
                )
            estimates.append(
                (estimate.mean, (estimate.mean_high - estimate.mean) / Z_95)
            )
        return estimates

    def _exact_means(self):
        cube_dim = closest_hypercube_for_star(self.SIZE)
        from repro.topology.cayley import PancakeGraph
        from repro.topology.routing import index_bfs_distances

        pancake = PancakeGraph(self.SIZE)
        pancake_mean = int(
            np.asarray(
                index_bfs_distances(pancake.neighbor_source(), 0)
            ).sum()
        ) / (pancake.num_nodes - 1)
        return [
            exact_average_distance("star", self.SIZE),
            pancake_mean,
            exact_average_distance("bubble-sort", self.SIZE),
            exact_average_distance("hypercube", cube_dim),
        ]

    def test_joint_interval_coverage(self):
        exact_means = self._exact_means()
        covered = 0
        for replication in range(REPLICATIONS):
            intervals = simultaneous_intervals(self._family_estimates(replication))
            if all(
                low <= exact <= high
                for (_mean, low, high), exact in zip(intervals, exact_means)
            ):
                covered += 1
        coverage = covered / REPLICATIONS
        assert coverage >= NOMINAL - SLACK, coverage

    def test_rank_interval_coverage(self):
        exact_means = self._exact_means()
        true_ranks = [
            1 + sum(1 for other in exact_means if other < mean)
            for mean in exact_means
        ]
        covered = 0
        for replication in range(REPLICATIONS):
            intervals = rank_intervals(self._family_estimates(replication))
            if all(
                interval.rank_low <= rank <= interval.rank_high
                for interval, rank in zip(intervals, true_ranks)
            ):
                covered += 1
        coverage = covered / REPLICATIONS
        assert coverage >= NOMINAL - SLACK, coverage

    def test_joint_intervals_contain_marginals(self):
        estimates = self._family_estimates(0)
        joint = simultaneous_intervals(estimates)
        for (mean, std_err), (_m, low, high) in zip(estimates, joint):
            assert low <= mean - Z_95 * std_err
            assert mean + Z_95 * std_err <= high
