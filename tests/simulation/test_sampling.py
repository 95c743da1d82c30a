"""Sampled whole-graph statistics (repro.simulation.sampling, PR 8).

The contract under test: sampled distances are deterministic in ``(family,
size, samples, seed)`` and invariant under every chunk size, the closed-form
per-pair distances agree with the exact graph metrics at sweepable sizes,
the 95% mean interval brackets the exact average distance, and the interval
arithmetic (``moments_interval``) agrees with the incumbent
``mean_interval`` to floating-point noise.  The degree-13 estimator -- the
whole point of the module -- must run with no table at all.
"""

import itertools
import math
import os

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, TableDegreeError
from repro.permutations import ranking
from repro.simulation.sampling import (
    SAMPLING_FAMILIES,
    exact_average_distance,
    family_diameter_formula,
    family_num_nodes,
    sampled_distance_estimate,
    sampled_pair_distances,
)
from repro.simulation.stats import (
    mean_interval,
    moments_interval,
    wilson_interval,
)

HEAVY = bool(os.environ.get("REPRO_HEAVY_TESTS"))

#: One modest instance per family, shared by the statistical tests.
INSTANCES = (("star", 7), ("bubble-sort", 7), ("hypercube", 10))


class TestFamilyHelpers:
    def test_num_nodes(self):
        assert family_num_nodes("star", 5) == 120
        assert family_num_nodes("bubble-sort", 4) == 24
        assert family_num_nodes("hypercube", 10) == 1024

    def test_diameter_formulas(self):
        assert family_diameter_formula("star", 9) == 12  # floor(3*8/2)
        assert family_diameter_formula("bubble-sort", 5) == 10
        assert family_diameter_formula("hypercube", 7) == 7

    def test_pancake_is_rejected_with_the_reason(self):
        with pytest.raises(InvalidParameterError) as excinfo:
            family_num_nodes("pancake", 5)
        assert "closed form" in str(excinfo.value)
        with pytest.raises(InvalidParameterError):
            sampled_pair_distances("pancake", 5, 10, 0)

    def test_size_bounds(self):
        with pytest.raises(TableDegreeError):
            family_num_nodes("star", 21)  # 21! overflows int64
        with pytest.raises(InvalidParameterError):
            family_num_nodes("hypercube", 63)  # node ids must fit in int64
        with pytest.raises(InvalidParameterError):
            family_num_nodes("bubble-sort", 1)  # no distinct pairs at 1! = 1


class TestPairSampling:
    @pytest.mark.parametrize("family,size", INSTANCES)
    def test_deterministic_in_the_seed(self, family, size):
        a = sampled_pair_distances(family, size, 500, 42)
        b = sampled_pair_distances(family, size, 500, 42)
        assert np.array_equal(a, b)
        c = sampled_pair_distances(family, size, 500, 43)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("family,size", INSTANCES)
    def test_chunk_size_never_changes_the_distances(self, family, size, monkeypatch):
        reference = sampled_pair_distances(family, size, 400, 7)
        for chunk in (1, 13, 37, 10**9):
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
            assert np.array_equal(
                sampled_pair_distances(family, size, 400, 7), reference
            )

    @pytest.mark.parametrize("family,size", INSTANCES)
    def test_distances_are_in_range(self, family, size):
        distances = sampled_pair_distances(family, size, 2000, 11)
        assert distances.shape == (2000,)
        assert distances.dtype == np.int64
        # Pairs are distinct, so no distance is ever 0; the closed-form
        # diameter is the hard upper bound.
        assert int(distances.min()) >= 1
        assert int(distances.max()) <= family_diameter_formula(family, size)

    def test_star_pairs_match_the_graph_metric(self):
        """Closed-form sampled distances == BFS distances on the real graph."""
        from repro.permutations.ranking import unrank_batch
        from repro.topology.star import StarGraph

        star = StarGraph(5)
        distances = sampled_pair_distances("star", 5, 64, 3)
        # Recreate the pair stream exactly as the sampler draws it.
        from repro.simulation.stats import derive_trial_seed

        rng = np.random.default_rng(
            derive_trial_seed(3, "sampled-distance", "star", 5, 64)
        )
        sources = rng.integers(0, 120, size=64, dtype=np.int64)
        targets = rng.integers(0, 119, size=64, dtype=np.int64)
        targets += targets >= sources
        for s, t, d in zip(sources, targets, distances):
            u = star.node_from_index(int(s))
            v = star.node_from_index(int(t))
            assert star.distance(u, v) == int(d)

    def test_bubble_sort_pairs_match_the_graph_metric(self):
        from repro.topology.cayley import bubble_sort_distance
        from repro.permutations.ranking import unrank_batch
        from repro.simulation.stats import derive_trial_seed

        distances = sampled_pair_distances("bubble-sort", 5, 64, 9)
        rng = np.random.default_rng(
            derive_trial_seed(9, "sampled-distance", "bubble-sort", 5, 64)
        )
        sources = rng.integers(0, 120, size=64, dtype=np.int64)
        targets = rng.integers(0, 119, size=64, dtype=np.int64)
        targets += targets >= sources
        source_rows = unrank_batch(sources, 5)
        target_rows = unrank_batch(targets, 5)
        for u, v, d in zip(source_rows, target_rows, distances):
            assert bubble_sort_distance(
                tuple(map(int, u)), tuple(map(int, v))
            ) == int(d)


class TestExactAnchors:
    """``exact_average_distance`` against brute force at tiny sizes."""

    def test_star_matches_brute_force(self):
        from repro.topology.star import StarGraph

        star = StarGraph(4)
        nodes = list(star.nodes())
        total = sum(
            star.distance(u, v) for u, v in itertools.permutations(nodes, 2)
        )
        pairs = len(nodes) * (len(nodes) - 1)
        assert exact_average_distance("star", 4) == pytest.approx(total / pairs)

    def test_bubble_sort_matches_brute_force(self):
        from repro.topology.cayley import BubbleSortGraph

        graph = BubbleSortGraph(4)
        nodes = list(graph.nodes())
        total = sum(
            graph.distance(u, v) for u, v in itertools.permutations(nodes, 2)
        )
        pairs = len(nodes) * (len(nodes) - 1)
        assert exact_average_distance("bubble-sort", 4) == pytest.approx(
            total / pairs
        )

    def test_hypercube_matches_brute_force(self):
        m = 4
        total = sum(
            bin(u ^ v).count("1")
            for u in range(1 << m)
            for v in range(1 << m)
            if u != v
        )
        pairs = (1 << m) * ((1 << m) - 1)
        assert exact_average_distance("hypercube", m) == pytest.approx(
            total / pairs
        )


class TestEstimate:
    @pytest.mark.parametrize("family,size", INSTANCES)
    def test_interval_brackets_the_exact_mean(self, family, size):
        estimate = sampled_distance_estimate(family, size, 20_000, 2206)
        assert estimate.brackets(exact_average_distance(family, size))
        assert estimate.diameter_consistent
        assert estimate.mean_low <= estimate.mean <= estimate.mean_high

    @pytest.mark.parametrize("family,size", INSTANCES)
    def test_histogram_accounts_for_every_sample(self, family, size):
        estimate = sampled_distance_estimate(family, size, 3_000, 5)
        assert sum(estimate.histogram.values()) == 3_000
        for distance, count in estimate.histogram.items():
            assert 1 <= distance <= estimate.diameter_formula
            assert estimate.histogram_intervals[distance] == wilson_interval(
                count, 3_000
            )
        assert estimate.diameter_lower_bound == max(estimate.histogram)

    def test_estimate_is_chunk_invariant_and_deterministic(self, monkeypatch):
        reference = sampled_distance_estimate("star", 6, 1_000, 77)
        monkeypatch.setattr(ranking, "CHUNK_NODES", 17)
        again = sampled_distance_estimate("star", 6, 1_000, 77)
        assert again == reference

    def test_moments_interval_agrees_with_mean_interval(self):
        distances = sampled_pair_distances("star", 7, 5_000, 13)
        total = int(distances.sum())
        total_squares = int((distances * distances).sum())
        from_moments = moments_interval(total, total_squares, 5_000)
        from_values = mean_interval([int(d) for d in distances])
        assert from_moments == pytest.approx(from_values, abs=1e-12)

    def test_degree_13_needs_no_table(self):
        """The headline case: S_13 statistics with no table in RAM."""
        estimate = sampled_distance_estimate("star", 13, 5_000, 2206)
        assert estimate.num_nodes == math.factorial(13)
        assert estimate.diameter_formula == 18
        assert estimate.diameter_consistent
        assert 1 <= estimate.diameter_lower_bound <= 18

    @pytest.mark.skipif(
        not HEAVY,
        reason="exact S_10 sweep takes ~15 s; set REPRO_HEAVY_TESTS=1",
    )
    def test_interval_brackets_exact_s10(self):
        """Acceptance: the sampled CI brackets the exact S_10 average.

        A 95% interval misses one seed in twenty by construction; the test
        pins a seed whose draw covers the exact value comfortably (the
        coverage *rate* is the statistical claim, checked at small sizes by
        ``test_interval_brackets_the_exact_mean`` across three families).
        """
        exact = exact_average_distance("star", 10)
        estimate = sampled_distance_estimate("star", 10, 200_000, 42)
        assert estimate.brackets(exact)
        assert estimate.diameter_consistent


class TestExperiments:
    def test_sampled_distance_fast_profile_claim_holds(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment("SAMPLED-DISTANCE", profile="fast")
        assert result.summary["claim_holds"] is True
        assert result.summary["exact_checked_degrees"] == [5]

    def test_sampled_properties_fast_profile_claim_holds(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment("SAMPLED-PROPERTIES", profile="fast")
        assert result.summary["claim_holds"] is True
        assert result.summary["families"] == list(SAMPLING_FAMILIES)
        assert result.summary["bracket_checks"] == 3

    def test_sampled_distance_runs_past_the_table_ceiling(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment(
            "SAMPLED-DISTANCE", degrees=(13,), samples=2_000
        )
        assert result.summary["claim_holds"] is True
        bound, formula = result.summary["diameter_lower_bounds"]["13"]
        assert formula == 18
        assert bound <= formula
