"""Benchmarks for the bounded-ball kernel and the S_13+ sampled campaigns.

Ablation pairs quantify the PR-10 design decisions:

* **table vs implicit** — the same depth-bounded BFS ball grown from the
  materialised S_7 move tables against the table-free
  ``unrank -> apply generator -> rank`` expansion (identical balls; the
  pair measures what table-freedom costs per truncated sweep);
* **ball-local vs whole-graph** — the depth-bounded ball against the full
  ``index_bfs_distances`` sweep it replaces wherever only a neighbourhood
  is needed;
* a standing **S_13 depth-3 ball** row — the campaign building block at
  acceptance scale (1 531 of 6.2 G nodes, no table anywhere), plus one
  sampled fault-campaign trial point at S_7;
* micro rows for the campaign's own shape: the **S_13 depth-4 ball**, whose
  truncation probe stops at the first escaping frontier row, and
  ``rank_batch`` / ``unrank_batch`` on one 14 k-row S_13 block (the size of
  a depth-4 frontier) and on 4 and 17 of its rows (the campaign's own call
  sizes, where the fixed cost of a call dominates);
* **rank-keyed vs packed-key** neighbour blocks on that same block — the
  ``unrank -> gather -> rank`` rows against the key-space
  ``unpack -> gather -> pack`` rows the bounded ball now grows with (the
  same neighbours, decoded);
* the **P_13 depth-6 estimate** — the truncated pancake estimator, whose
  1.18 M-node identity ball is grown in key space and never ranked;
* **relabelled vs swept** healthy S_13 depth-4 balls, per family — the
  cached identity ball left-multiplied by the origin's permutation against
  the frontier sweep it replaces (identical balls).  Since healthy balls on
  the implicit source are relabelled, the S_7 implicit and S_13 depth-3 /
  depth-4 rows above time the relabel after their first round;
* **framed vs swept** faulted S_13 depth-4 balls, per family (origin 12345,
  16 faults) -- the flood of the cached identity frame against the excluded
  frontier sweep it replaces (identical balls).  The framed row times what
  a campaign trial reads (``distance_of`` and ``truncated``); the ball
  relabels its keys into the origin's frame only when they are read.

The ``heavy_bench`` row runs the full SAMPLED-FAULT default profile at
S_13 on the implicit source — the acceptance-scale campaign.
"""

import numpy as np
import pytest

from repro.experiments.registry import run_experiment
from repro.simulation.sampled_campaign import (
    SAMPLED_CAMPAIGN_FAMILIES,
    sampled_campaign_instances,
    sampled_fault_campaign,
)
from repro.simulation.sampling import sampled_pancake_estimate
from repro.topology.routing import (
    ImplicitNeighborSource,
    _sweep_ball,
    bounded_bfs_ball,
    index_bfs_distances,
)
from repro.permutations.ranking import (
    rank_batch,
    star_position_generators,
    unrank_batch,
)
from repro.topology.star import StarGraph

BALL_DEPTH = 4


@pytest.fixture(scope="module")
def star7():
    star = StarGraph(7)
    star.neighbor_index_table()  # warm the dense tables for the table legs
    return star


# --------------------------------------------------- table-vs-implicit pair
def test_bounded_ball_s7_table(benchmark, star7):
    """Ablation (a): a depth-4 S_7 ball grown from the materialised table."""
    source = star7.neighbor_source()
    assert source.table is not None
    ball = benchmark(bounded_bfs_ball, source, 0, max_depth=BALL_DEPTH)
    assert ball.truncated and ball.levels == BALL_DEPTH


def test_bounded_ball_s7_implicit(benchmark, star7):
    """Ablation (b): the same ball with every frontier computed on the fly."""
    source = ImplicitNeighborSource(star_position_generators(7), 7)
    assert source.table is None
    ball = benchmark(bounded_bfs_ball, source, 0, max_depth=BALL_DEPTH)
    assert ball.truncated and ball.levels == BALL_DEPTH


# ------------------------------------------------ ball-local vs whole-graph
def test_whole_graph_sweep_s7(benchmark, star7):
    """Ablation (a): the full S_7 sweep the bounded ball replaces."""
    distances = benchmark(index_bfs_distances, star7.neighbor_index_table(), 0)
    assert int(np.asarray(distances).max()) == 9


def test_bounded_ball_s7_full_depth(benchmark, star7):
    """Ablation (b): the ball run to the eccentricity (same visited set)."""
    source = star7.neighbor_source()
    ball = benchmark(bounded_bfs_ball, source, 0, max_depth=9)
    assert not ball.truncated and ball.size == star7.num_nodes


# ------------------------------------------------------ acceptance building blocks
def test_bounded_ball_s13_implicit_depth3(benchmark):
    """The campaign building block at scale: 1 531 of 6.2 G nodes, no table."""
    source = ImplicitNeighborSource(star_position_generators(13), 13)
    ball = benchmark(bounded_bfs_ball, source, 12345, max_depth=3)
    assert ball.size == 1531 and ball.truncated


def test_bounded_ball_s13_implicit_depth4(benchmark):
    """The campaign's depth: 14 511 nodes, then a probe that stops early."""
    source = ImplicitNeighborSource(star_position_generators(13), 13)
    ball = benchmark(bounded_bfs_ball, source, 12345, max_depth=BALL_DEPTH)
    assert ball.size == 14511 and ball.truncated


@pytest.fixture(scope="module")
def s13_block():
    """One depth-4-frontier-sized block of seeded S_13 ranks and their rows."""
    ranks = np.random.default_rng(2613).integers(
        0, 6227020800, size=14000, dtype=np.int64
    )
    return ranks, unrank_batch(ranks, 13)


def test_unrank_batch_s13_block(benchmark, s13_block):
    ranks, perms = s13_block
    assert np.array_equal(benchmark(unrank_batch, ranks, 13), perms)


def test_rank_batch_s13_block(benchmark, s13_block):
    ranks, perms = s13_block
    assert np.array_equal(benchmark(rank_batch, perms), ranks)


# The campaign's own call sizes: one encode of an origin and its faults, one
# decode of a trial's targets.  These rows time the fixed cost of a call.
@pytest.mark.parametrize("m", (4, 17))
def test_unrank_batch_s13_tiny(benchmark, s13_block, m):
    ranks, perms = s13_block
    assert np.array_equal(benchmark(unrank_batch, ranks[:m], 13), perms[:m])


@pytest.mark.parametrize("m", (4, 17))
def test_rank_batch_s13_tiny(benchmark, s13_block, m):
    ranks, perms = s13_block
    assert np.array_equal(benchmark(rank_batch, perms[:m]), ranks[:m])


# ------------------------------------------------ rank-keyed vs packed keys
@pytest.fixture(scope="module")
def s13_source():
    return ImplicitNeighborSource(star_position_generators(13), 13)


def test_neighbor_block_s13_rank_keyed(benchmark, s13_block, s13_source):
    """Ablation (a): the 14 k-row block's neighbour ranks (unrank, gather, rank)."""
    ranks, _ = s13_block
    block = benchmark(s13_source.neighbor_block, ranks)
    assert block.shape == (ranks.size, 12)


def test_neighbor_block_s13_packed_keys(benchmark, s13_block, s13_source):
    """Ablation (b): the same neighbours as packed keys (unpack, gather, pack)."""
    ranks, _ = s13_block
    keys = s13_source.encode(ranks)
    block = benchmark(s13_source.neighbor_keys, keys)
    decoded = s13_source.decode(block.reshape(-1)).reshape(block.shape)
    assert np.array_equal(decoded, s13_source.neighbor_block(ranks))


# ----------------------------------------- relabelled vs swept healthy balls
@pytest.fixture(scope="module")
def s13_family_sources():
    return {
        family: topology.neighbor_source()
        for family, (_, topology) in sampled_campaign_instances(13).items()
    }


@pytest.mark.parametrize("family", SAMPLED_CAMPAIGN_FAMILIES)
def test_healthy_ball_s13_depth4_relabelled(benchmark, s13_family_sources, family):
    """Ablation (a): the cached identity ball relabelled to origin 12345."""
    source = s13_family_sources[family]
    bounded_bfs_ball(source, 0, max_depth=BALL_DEPTH)  # cache the identity ball

    def trial():
        # Balls relabel on first read; a campaign reads every distance.
        ball = bounded_bfs_ball(source, 12345, max_depth=BALL_DEPTH)
        ball.distances
        return ball

    ball = benchmark(trial)
    swept = _sweep_ball(source, 12345, BALL_DEPTH)
    assert np.array_equal(ball.keys, swept.keys)
    assert np.array_equal(ball.distances, swept.distances)
    assert ball.truncated and ball.levels == BALL_DEPTH


@pytest.mark.parametrize("family", SAMPLED_CAMPAIGN_FAMILIES)
def test_healthy_ball_s13_depth4_swept(benchmark, s13_family_sources, family):
    """Ablation (b): the same ball from the frontier sweep."""
    source = s13_family_sources[family]
    ball = benchmark(_sweep_ball, source, 12345, BALL_DEPTH)
    assert ball.truncated and ball.levels == BALL_DEPTH


# ---------------------------------------------- framed vs swept faulted balls
def _s13_faults(source):
    healthy = bounded_bfs_ball(source, 12345, max_depth=BALL_DEPTH)
    rng = np.random.default_rng(12345)
    drawn = rng.choice(np.flatnonzero(healthy.distances > 0), 16, replace=False)
    return np.sort(healthy.nodes_at(drawn))


@pytest.mark.parametrize("family", SAMPLED_CAMPAIGN_FAMILIES)
def test_faulted_ball_s13_depth4_framed(benchmark, s13_family_sources, family):
    """Ablation (a): 16 faults flooded in the cached identity frame."""
    source = s13_family_sources[family]
    faults = _s13_faults(source)
    bounded_bfs_ball(source, 12345, max_depth=BALL_DEPTH, excluded=faults)

    def trial():
        ball = bounded_bfs_ball(source, 12345, max_depth=BALL_DEPTH, excluded=faults)
        return ball, ball.distance_of(faults[:4])

    ball, _ = benchmark(trial)
    swept = _sweep_ball(source, 12345, BALL_DEPTH, faults)
    assert np.array_equal(ball.keys, swept.keys)
    assert np.array_equal(ball.distances, swept.distances)
    assert ball.truncated is swept.truncated and ball.levels == swept.levels


@pytest.mark.parametrize("family", SAMPLED_CAMPAIGN_FAMILIES)
def test_faulted_ball_s13_depth4_swept(benchmark, s13_family_sources, family):
    """Ablation (b): the same faulted ball from the excluded frontier sweep."""
    source = s13_family_sources[family]
    faults = _s13_faults(source)

    def trial():
        ball = _sweep_ball(source, 12345, BALL_DEPTH, faults)
        return ball, ball.distance_of(faults[:4])

    ball, _ = benchmark(trial)
    assert ball.truncated and ball.levels == BALL_DEPTH


def test_sampled_fault_point_s7(benchmark, star7):
    """One seeded fault-campaign point (4 trials x 4 pairs) on S_7."""

    def point():
        return sampled_fault_campaign(
            star7,
            fault_counts=(4,),
            trials=4,
            pairs_per_trial=4,
            depth=4,
            seed=2613,
            label="bench/s7",
        )

    (result,) = benchmark(point)
    assert result.reached + result.disconnected + result.truncated == result.pairs


def test_sampled_pancake_estimate_exact_p7(benchmark):
    """The exact-tier pancake estimator: 500 pairs against one P_7 sweep."""
    estimate = benchmark(sampled_pancake_estimate, 7, 500, seed=2613)
    assert estimate.exact and estimate.truncated == 0


def test_sampled_pancake_estimate_p13_depth6(benchmark):
    """The truncated pancake estimator: 200 pairs against a depth-6 P_13 ball."""
    estimate = benchmark.pedantic(
        sampled_pancake_estimate,
        args=(13, 200),
        kwargs={"seed": 2613, "max_depth": 6},
        rounds=3,
        iterations=1,
    )
    assert not estimate.exact and estimate.truncated == 200


# --------------------------------------------------------- S_13 heavy row
@pytest.mark.heavy_bench
def test_s13_sampled_fault_default_profile(benchmark):
    """Acceptance scale: the full SAMPLED-FAULT default profile, table-free."""

    def campaign():
        return run_experiment("SAMPLED-FAULT")

    result = benchmark.pedantic(campaign, rounds=1, iterations=1)
    assert result.summary["claim_holds"] is True
