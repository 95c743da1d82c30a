"""Tests for the S_13+ sampled campaign layer.

Three layers, each held against an exact small-degree oracle:

* :func:`repro.topology.routing.bounded_bfs_ball` against whole-graph
  sweeps (:func:`index_bfs_distances`) and masked fault floods
  (:func:`masked_bfs_distances`) -- the depth-capped kernel the campaigns
  stand on;
* :func:`repro.simulation.sampling.sampled_pancake_estimate` against
  per-pair BFS ground truth (exact tier) and against the exact sweep's
  verdicts for every truncated-tier classification;
* :func:`repro.simulation.sampled_campaign.sampled_fault_campaign` and the
  SAMPLED-FAULT / SAMPLED-STRETCH / RANKING experiments: accounting
  identity, zero-fault oracles, sub-connectivity oracle, chunk and
  adjacency-source invariance, registry wiring.
"""

import os

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.registry import get_spec, list_experiments, run_experiment
from repro.simulation.rerouting import masked_bfs_distances
from repro.simulation.sampled_campaign import (
    SAMPLED_CAMPAIGN_FAMILIES,
    sampled_campaign_instances,
    sampled_fault_campaign,
)
from repro.simulation.sampling import (
    default_pancake_depth,
    pancake_relative_ranks,
    sampled_pancake_estimate,
)
from repro.permutations import ranking
from repro.permutations.ranking import (
    permutation_unrank,
    star_position_generators,
)
from repro.simulation.stats import derive_trial_seed
from repro.topology.cayley import PancakeGraph
from repro.topology.routing import (
    BoundedBall,
    ImplicitNeighborSource,
    NeighborSource,
    _sorted_unique,
    bounded_bfs_ball,
    index_bfs_distances,
    star_distance,
)
from repro.topology.star import StarGraph

HEAVY = bool(os.environ.get("REPRO_HEAVY_TESTS"))


def _full_sweep(topology, origin=0):
    return np.asarray(index_bfs_distances(topology.neighbor_index_table(), origin))


class _CountingSource(NeighborSource):
    """Wraps a source and counts the frontier rows it is asked to expand."""

    def __init__(self, inner):
        self.inner = inner
        self.num_nodes = inner.num_nodes
        self.rows = 0

    def neighbor_block(self, indices):
        self.rows += len(indices)
        return self.inner.neighbor_block(indices)


class _DecodeCountingSource(ImplicitNeighborSource):
    """An implicit source that counts the keys it decodes to ranks."""

    decoded = 0

    def decode(self, keys):
        self.decoded += len(keys)
        return super().decode(keys)


def _assert_same_ball(ball, oracle):
    assert np.array_equal(np.asarray(ball.nodes), np.asarray(oracle.nodes))
    assert np.array_equal(np.asarray(ball.distances), np.asarray(oracle.distances))
    assert ball.truncated == oracle.truncated
    assert ball.levels == oracle.levels


class TestBoundedBall:
    def test_full_depth_ball_equals_whole_graph_sweep(self):
        star = StarGraph(6)
        full = _full_sweep(star)
        ball = bounded_bfs_ball(
            star.neighbor_source(), 0, max_depth=int(full.max())
        )
        assert not ball.truncated
        assert ball.size == star.num_nodes
        assert np.array_equal(np.asarray(ball.nodes), np.arange(star.num_nodes))
        assert np.array_equal(np.asarray(ball.distances), full)
        assert ball.levels == int(full.max())

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_shallow_ball_is_the_sweep_restricted_to_depth(self, depth):
        star = StarGraph(6)
        full = _full_sweep(star)
        ball = bounded_bfs_ball(star.neighbor_source(), 0, max_depth=depth)
        expected = np.nonzero(full <= depth)[0]
        assert np.array_equal(np.asarray(ball.nodes), expected)
        assert np.array_equal(np.asarray(ball.distances), full[expected])
        # Below the eccentricity the cap is what stopped the sweep.
        assert ball.truncated == (depth < int(full.max()))

    def test_truncated_distinguishes_cap_from_component_exhaustion(self):
        star = StarGraph(5)
        ecc = int(_full_sweep(star).max())
        capped = bounded_bfs_ball(star.neighbor_source(), 0, max_depth=ecc - 1)
        exhausted = bounded_bfs_ball(star.neighbor_source(), 0, max_depth=ecc + 5)
        assert capped.truncated
        assert not exhausted.truncated
        assert exhausted.levels == ecc

    def test_excluded_ball_matches_masked_flood(self):
        star = StarGraph(6)
        rng = np.random.default_rng(7)
        faults = rng.choice(np.arange(1, star.num_nodes), size=40, replace=False)
        alive = np.ones(star.num_nodes, dtype=bool)
        alive[faults] = False
        masked = np.asarray(masked_bfs_distances(star, 0, alive))
        ball = bounded_bfs_ball(
            star.neighbor_source(),
            0,
            max_depth=star.num_nodes,
            excluded=np.sort(faults),
        )
        dense = np.full(star.num_nodes, -1, dtype=np.int64)
        dense[np.asarray(ball.nodes)] = np.asarray(ball.distances)
        assert np.array_equal(dense, masked)
        assert not ball.truncated

    def test_chunk_size_never_changes_the_ball(self, monkeypatch):
        star = StarGraph(6)
        reference = bounded_bfs_ball(star.neighbor_source(), 3, max_depth=3)
        for chunk in (1, 7, 64, 10**9):
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
            ball = bounded_bfs_ball(star.neighbor_source(), 3, max_depth=3)
            assert np.array_equal(np.asarray(ball.nodes), np.asarray(reference.nodes))
            assert np.array_equal(
                np.asarray(ball.distances), np.asarray(reference.distances)
            )
            assert ball.truncated == reference.truncated

    def test_distance_of_reports_minus_one_outside_the_ball(self):
        star = StarGraph(6)
        full = _full_sweep(star)
        ball = bounded_bfs_ball(star.neighbor_source(), 0, max_depth=2)
        probes = np.asarray([0, 5, star.num_nodes - 1])
        expected = np.where(full[probes] <= 2, full[probes], -1)
        assert np.array_equal(np.asarray(ball.distance_of(probes)), expected)

    def test_excluded_origin_is_rejected(self):
        star = StarGraph(5)
        with pytest.raises(InvalidParameterError, match="excluded"):
            bounded_bfs_ball(
                star.neighbor_source(),
                0,
                max_depth=2,
                excluded=np.asarray([0], dtype=np.int64),
            )

    def test_sorted_unique_matches_np_unique(self):
        rng = np.random.default_rng(11)
        for values in ([], [5], [3, 3], rng.integers(-50, 50, size=400)):
            values = np.asarray(values, dtype=np.int64)
            out = _sorted_unique(values)
            assert out.dtype == np.int64
            assert np.array_equal(out, np.unique(values))

    @pytest.mark.parametrize("escape", [True, False])
    def test_probe_against_adversarial_exclusions(self, escape, monkeypatch):
        # Exclude every level-(d+1) node except (escape=True) one whose only
        # level-d neighbour is the highest-index level-d node -- the last row
        # the probe reaches -- or (escape=False) all of them, so the last
        # frontier stays live but nothing lies beyond it.
        star, depth = StarGraph(6), 3
        full = _full_sweep(star)
        table = np.asarray(star.neighbor_index_table())
        beyond = np.flatnonzero(full == depth + 1)
        last = int(np.flatnonzero(full == depth)[-1])
        escapes = [
            int(x)
            for x in table[last]
            if full[x] == depth + 1 and (full[table[x]] == depth).sum() == 1
        ]
        assert escapes
        excluded = np.setdiff1d(beyond, escapes[:1] if escape else [])
        # Oracle: a whole-graph sweep with the exclusions as dead nodes.
        alive = np.ones(star.num_nodes, dtype=bool)
        alive[excluded] = False
        masked = index_bfs_distances(star.neighbor_source(), 0, alive_mask=alive)
        inside = np.flatnonzero((masked >= 0) & (masked <= depth))
        oracle = BoundedBall(
            nodes=inside,
            distances=masked[inside],
            truncated=bool((masked == depth + 1).any()),
            levels=int(masked[inside].max()),
        )
        assert oracle.truncated is escape
        assert oracle.levels == depth
        for chunk in (1, 2, 7, ranking.CHUNK_NODES):
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
            ball = bounded_bfs_ball(
                star.neighbor_source(), 0, max_depth=depth, excluded=excluded
            )
            _assert_same_ball(ball, oracle)

    def test_probe_stops_at_the_first_escaping_row(self):
        star, depth = StarGraph(7), 3
        full = _full_sweep(star)
        first = int(np.flatnonzero(full == depth)[0])
        table = np.asarray(star.neighbor_index_table())
        assert (full[table[first]] == depth + 1).any()
        source = _CountingSource(star.neighbor_source())
        ball = bounded_bfs_ball(source, 0, max_depth=depth)
        assert ball.truncated
        last_level = int((np.asarray(ball.distances) == depth).sum())
        # Every row of levels 0..d-1 is expanded once; the probe adds one.
        assert source.rows == ball.size - last_level + 1

    def test_implicit_backend_matches_table_backend(self):
        star = StarGraph(7)
        table_ball = bounded_bfs_ball(star.neighbor_source(), 11, max_depth=3)
        implicit_source = ImplicitNeighborSource(star_position_generators(7), 7)
        implicit_ball = bounded_bfs_ball(implicit_source, 11, max_depth=3)
        assert np.array_equal(
            np.asarray(implicit_ball.nodes), np.asarray(table_ball.nodes)
        )
        assert np.array_equal(
            np.asarray(implicit_ball.distances), np.asarray(table_ball.distances)
        )
        assert implicit_ball.truncated == table_ball.truncated


class TestPackedKeyBalls:
    """Balls grown in packed-permutation key space vs table balls."""

    @pytest.mark.parametrize("family", SAMPLED_CAMPAIGN_FAMILIES)
    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_packed_ball_is_bit_identical_to_the_table_ball(
        self, family, n, monkeypatch
    ):
        table_source = sampled_campaign_instances(n)[family][1].neighbor_source()
        assert table_source.table is not None
        monkeypatch.setattr(ranking, "MAX_TABLE_DEGREE", n - 1)
        packed_source = sampled_campaign_instances(n)[family][1].neighbor_source()
        assert packed_source.table is None
        rng = np.random.default_rng(31 * n + len(family))
        origin = int(rng.integers(table_source.num_nodes))
        healthy = bounded_bfs_ball(table_source, origin, max_depth=3)
        inner = np.flatnonzero(np.asarray(healthy.distances) >= 1)
        excluded = np.sort(healthy.nodes[rng.choice(inner, size=2 * n, replace=False)])
        for chunk in (1, 2, 7, ranking.CHUNK_NODES):
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
            oracle = bounded_bfs_ball(
                table_source, origin, max_depth=3, excluded=excluded
            )
            ball = bounded_bfs_ball(
                packed_source, origin, max_depth=3, excluded=excluded
            )
            assert ball.keys.dtype == np.uint64
            _assert_same_ball(ball, oracle)
            probes = np.concatenate([excluded, oracle.nodes[::5], [0]])
            assert np.array_equal(ball.distance_of(probes), oracle.distance_of(probes))

    def test_rank_keyed_ball_past_the_packed_degree(self):
        # S_17 no longer packs into a uint64: keys are the ranks themselves,
        # and every distance must still be the closed-form star distance.
        n, origin = 17, 123456789012
        source = ImplicitNeighborSource(star_position_generators(n), n)
        ball = bounded_bfs_ball(source, origin, max_depth=2)
        assert ball.keys.dtype == np.int64
        assert np.array_equal(ball.keys, ball.nodes)
        assert ball.size == 1 + 16 + 16 * 15 and ball.truncated
        start = permutation_unrank(origin, n)
        for rank, distance in zip(ball.nodes, ball.distances):
            assert int(distance) == star_distance(start, permutation_unrank(int(rank), n))

    def test_ball_still_constructs_from_node_indices(self):
        ball = BoundedBall(
            nodes=np.array([2, 5, 9]),
            distances=np.array([1, 0, 1]),
            truncated=True,
            levels=1,
        )
        assert ball.size == 3 and ball.truncated and ball.levels == 1
        assert np.array_equal(ball.keys, ball.nodes)
        assert np.array_equal(ball.distance_of([9, 4, 5]), [1, -1, 0])
        assert np.array_equal(ball.nodes_at([2, 0]), [9, 2])
        with pytest.raises(InvalidParameterError):
            BoundedBall(distances=np.array([0]), truncated=False, levels=0)

    def test_nodes_at_decodes_only_the_selected_entries(self):
        source = _DecodeCountingSource(star_position_generators(9), 9)
        ball = bounded_bfs_ball(source, 4321, max_depth=3)
        assert source.decoded == 0  # growing the ball ranks nothing
        ball.distance_of([4321, 0])
        assert source.decoded == 0  # lookups encode the targets only
        positions = np.random.default_rng(5).choice(ball.size, size=25, replace=False)
        picked = ball.nodes_at(positions)
        assert source.decoded == 25
        assert np.array_equal(picked, ball.nodes[positions])
        assert source.decoded == 25 + ball.size
        assert ball.nodes is ball.nodes  # cached: decoded once
        assert source.decoded == 25 + ball.size
        table_ball = bounded_bfs_ball(StarGraph(9).neighbor_source(), 4321, max_depth=3)
        _assert_same_ball(ball, table_ball)


class TestPancakeEstimator:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_exact_tier_matches_per_pair_sweeps(self, n):
        estimate = sampled_pancake_estimate(n, 100, seed=42)
        assert estimate.exact
        assert estimate.truncated == 0 and estimate.resolved == 100
        graph = PancakeGraph(n)
        full = _full_sweep(graph)
        rng = np.random.default_rng(derive_trial_seed(42, "sampled-pancake", n, 100))
        sources = rng.integers(0, graph.num_nodes, size=100, dtype=np.int64)
        targets = rng.integers(0, graph.num_nodes - 1, size=100, dtype=np.int64)
        targets += targets >= sources
        exact = [
            int(_full_sweep(graph, int(source))[target])
            for source, target in zip(sources, targets)
        ]
        assert estimate.mean == pytest.approx(sum(exact) / len(exact), abs=1e-12)
        assert estimate.diameter_lower_bound == max(exact)
        assert sum(estimate.histogram.values()) == 100

    def test_relative_rank_identity(self):
        # d(source, target) == d(identity, source^-1 o target): the
        # vertex-transitivity relabeling the estimator stands on.
        n = 6
        graph = PancakeGraph(n)
        full = _full_sweep(graph)
        rng = np.random.default_rng(3)
        sources = rng.integers(0, graph.num_nodes, 25)
        targets = rng.integers(0, graph.num_nodes, 25)
        relative = pancake_relative_ranks(sources, targets, n)
        for source, target, rel in zip(sources, targets, relative):
            assert _full_sweep(graph, int(source))[target] == full[rel]

    def test_truncated_tier_accounting_matches_exact_sweep(self):
        n = 7
        depth = 3
        estimate = sampled_pancake_estimate(n, 300, seed=7, max_depth=depth)
        assert not estimate.exact
        assert estimate.resolved + estimate.truncated == 300
        assert estimate.truncated > 0
        graph = PancakeGraph(n)
        full = _full_sweep(graph)
        rng = np.random.default_rng(derive_trial_seed(7, "sampled-pancake", n, 300))
        sources = rng.integers(0, graph.num_nodes, size=300, dtype=np.int64)
        targets = rng.integers(0, graph.num_nodes - 1, size=300, dtype=np.int64)
        targets += targets >= sources
        exact = full[pancake_relative_ranks(sources, targets, n)]
        assert estimate.truncated == int((exact > depth).sum())
        # Truncation certifies distance > depth, so the diameter lower
        # bound is depth + 1 and the mean is a lower bound on the exact one.
        assert estimate.diameter_lower_bound == depth + 1
        exact_estimate = sampled_pancake_estimate(n, 300, seed=7)
        assert estimate.mean <= exact_estimate.mean

    def test_pairs_do_not_depend_on_depth(self):
        shallow = sampled_pancake_estimate(7, 200, seed=9, max_depth=2)
        deep = sampled_pancake_estimate(7, 200, seed=9, max_depth=6)
        # Deepening the ball resolves more of the same pairs, so resolved
        # counts grow monotonically and resolved histograms are nested.
        assert deep.resolved >= shallow.resolved
        for distance, count in shallow.histogram.items():
            assert deep.histogram.get(distance) == count

    def test_chunk_invariance(self, monkeypatch):
        reference = sampled_pancake_estimate(7, 200, seed=5, max_depth=4)
        for chunk in (1, 7, 64, 10**9):
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
            estimate = sampled_pancake_estimate(7, 200, seed=5, max_depth=4)
            assert estimate == reference

    def test_default_depth_grows_with_budget(self):
        assert default_pancake_depth(13) == 6
        assert default_pancake_depth(20) >= 4

    def test_rejection_message_names_this_estimator(self):
        from repro.simulation.sampling import sampled_pair_distances

        with pytest.raises(InvalidParameterError, match="sampled_pancake_estimate"):
            sampled_pair_distances("pancake", 6, 10, 0)


class TestSampledFaultCampaign:
    @pytest.mark.parametrize("family", SAMPLED_CAMPAIGN_FAMILIES)
    def test_oracles_at_small_degree(self, family):
        name, topology = sampled_campaign_instances(6)[family]
        points = sampled_fault_campaign(
            topology,
            fault_counts=(0, 3),
            trials=6,
            pairs_per_trial=4,
            depth=4,
            seed=11,
            label=f"{family}/6",
        )
        kappa = 5
        for point in points:
            assert point.reached + point.disconnected + point.truncated == point.pairs
            if point.fault_count == 0:
                assert point.reached == point.pairs
                assert point.mean_stretch == 1.0 and point.max_stretch == 1.0
            if point.fault_count < kappa:
                assert point.disconnected == 0
            if point.reached:
                assert point.mean_stretch >= 1.0

    def test_deterministic_and_chunk_invariant(self, monkeypatch):
        _name, topology = sampled_campaign_instances(6)["star"]
        kwargs = dict(
            fault_counts=(0, 3),
            trials=6,
            pairs_per_trial=4,
            depth=4,
            seed=11,
            label="star/6",
        )
        reference = sampled_fault_campaign(topology, **kwargs)
        assert sampled_fault_campaign(topology, **kwargs) == reference
        monkeypatch.setattr(ranking, "CHUNK_NODES", 13)
        assert sampled_fault_campaign(topology, **kwargs) == reference

    def test_one_decode_per_trial(self, monkeypatch):
        # Faults and targets of a trial are decoded to ranks in one call.
        _name, topology = sampled_campaign_instances(11)["pancake"]
        decoded = []
        nodes_at = BoundedBall.nodes_at

        def counting(ball, positions):
            decoded.append(len(positions))
            return nodes_at(ball, positions)

        monkeypatch.setattr(BoundedBall, "nodes_at", counting)
        trials, pairs = 4, 3
        sampled_fault_campaign(
            topology,
            fault_counts=(0, 5),
            trials=trials,
            pairs_per_trial=pairs,
            depth=3,
            seed=3,
            label="pancake/11",
        )
        assert decoded == [pairs] * trials + [5 + pairs] * trials

    def test_disconnection_is_provable_when_faults_cut_the_origin(self):
        # Kill every neighbour of the origin: the faulted ball collapses to
        # the origin alone, the frontier dies (not truncated), and every
        # pair classifies as a disconnection proof.
        star = StarGraph(5)
        source = star.neighbor_source()
        neighbors = np.sort(
            np.asarray(source.neighbor_block(np.asarray([0]))).reshape(-1)
        )
        ball = bounded_bfs_ball(source, 0, max_depth=3, excluded=neighbors)
        assert ball.size == 1
        assert not ball.truncated

    def test_depth_must_exceed_detour_slack(self):
        _name, topology = sampled_campaign_instances(5)["star"]
        with pytest.raises(InvalidParameterError, match="detour_slack"):
            sampled_fault_campaign(
                topology,
                fault_counts=(0,),
                trials=1,
                pairs_per_trial=1,
                depth=2,
                seed=1,
                label="star/5",
                detour_slack=2,
            )


class TestExperiments:
    def test_registry_has_the_three_new_experiments(self):
        experiments = list_experiments()
        for experiment_id in ("SAMPLED-FAULT", "SAMPLED-STRETCH", "RANKING"):
            assert experiment_id in experiments
            spec = get_spec(experiment_id)
            assert spec.schema is not None
            assert "fast" in spec.profiles and "heavy" in spec.profiles
        assert len(experiments) == 24

    def test_sampled_fault_truncation_fields_in_schema(self):
        schema = get_spec("SAMPLED-FAULT").schema
        assert "truncated" in schema.columns
        assert "reached" in schema.columns
        assert "disconnected" in schema.columns
        assert "total_truncated" in schema.summary_keys
        stretch_schema = get_spec("SAMPLED-STRETCH").schema
        assert "truncated" in stretch_schema.columns
        assert "total_truncated" in stretch_schema.summary_keys

    def test_sampled_fault_fast_profile_claim_holds(self):
        result = run_experiment("SAMPLED-FAULT", profile="fast")
        assert result.summary["claim_holds"] is True
        assert result.headers == list(get_spec("SAMPLED-FAULT").schema.columns)
        reached = result.headers.index("reached")
        disconnected = result.headers.index("disconnected")
        truncated = result.headers.index("truncated")
        pairs = result.headers.index("pairs")
        for row in result.rows:
            assert row[reached] + row[disconnected] + row[truncated] == row[pairs]

    def test_sampled_stretch_fast_profile_claim_holds(self):
        result = run_experiment("SAMPLED-STRETCH", profile="fast")
        assert result.summary["claim_holds"] is True
        assert result.summary["worst_stretch"] >= 1.0

    def test_ranking_fast_profile_claim_holds(self):
        result = run_experiment("RANKING", profile="fast")
        assert result.summary["claim_holds"] is True
        assert result.summary["exact_checked_sizes"]
        intervals = result.summary["rank_intervals"]
        for per_size in intervals.values():
            for rank_low, rank_high in per_size.values():
                assert 1 <= rank_low <= rank_high <= len(per_size)

    @pytest.mark.skipif(not HEAVY, reason="S_13 acceptance run is heavy-gated")
    def test_s13_fast_profile_runs_table_free(self):
        assert StarGraph(13).neighbor_source().table is None
        result = run_experiment("SAMPLED-FAULT", profile="fast")
        assert result.summary["claim_holds"] is True
        assert any(row[0] == 13 for row in result.rows)
