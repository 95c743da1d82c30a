"""The single in-RAM table bound and the table-free paths past it.

Move tables exist through :data:`repro.permutations.ranking.MAX_TABLE_DEGREE`
(``n <= 10``).  Past that bound every permutation-graph kernel must run with
no table at all -- adjacency goes implicit, the closed-form distance sweep
unranks its blocks on the fly, the embedding tally unranks its endpoint rows
-- and produce exactly the bytes the table-backed paths produce.  The degree
is the only input to that choice: no environment variable or keyword
selects a source or a chunk size.

Three kinds of test pin that contract:

* at the real boundary (degree 11) the cheap entry points -- building a
  topology, picking its adjacency source, answering a neighbour block --
  switch over without touching a table, and the source switches exactly at
  the bound for every family;
* the past-the-bound branches are run end to end at test-sized degrees by
  lowering ``MAX_TABLE_DEGREE`` (read at call time by
  :func:`~repro.permutations.ranking.within_table_degree`), and compared with
  the table-backed results computed under the real bound, at several
  :data:`~repro.permutations.ranking.CHUNK_NODES` block sizes;
* the retired ``REPRO_NEIGHBORS`` / ``REPRO_CHUNK_NODES`` variables are
  inert: setting them changes nothing and raises nothing.
"""

import math

import numpy as np
import pytest

from repro import telemetry
from repro.embedding.metrics import measure_embedding, measure_embedding_reference
from repro.embedding.mesh_to_star import MeshToStarEmbedding
from repro.exceptions import TableDegreeError
from repro.permutations import ranking
from repro.permutations.ranking import MAX_TABLE_DEGREE
from repro.simulation.rerouting import masked_bfs_distances
from repro.simulation.sampling import sampled_pancake_estimate
from repro.topology.cayley import BubbleSortGraph, PancakeGraph
from repro.topology.routing import (
    ImplicitNeighborSource,
    TableNeighborSource,
    bfs_distances_from,
    bounded_bfs_ball,
    connected_under_alive_mask,
    star_distance,
    star_distances_from,
)
from repro.topology.star import StarGraph

OVER = MAX_TABLE_DEGREE + 1

FAMILIES = {
    "star": StarGraph,
    "pancake": PancakeGraph,
    "bubble-sort": BubbleSortGraph,
}

#: Degree run past a lowered bound: small enough for exhaustive oracles.
PAST = 5


@pytest.fixture
def lowered_bound(monkeypatch):
    """Lower the table bound below :data:`PAST` for the duration of a test."""
    monkeypatch.setattr(ranking, "MAX_TABLE_DEGREE", PAST - 1)


class TestAtTheRealBound:
    """Degree 11: the first degree with no move tables."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_index_table_is_refused(self, family):
        with pytest.raises(TableDegreeError) as excinfo:
            FAMILIES[family](OVER).neighbor_index_table()
        assert f"n <= {MAX_TABLE_DEGREE}" in str(excinfo.value)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_auto_source_is_implicit_and_agrees_with_neighbors(
        self, family
    ):
        graph = FAMILIES[family](OVER)
        source = graph.neighbor_source()
        assert isinstance(source, ImplicitNeighborSource)
        assert source.table is None
        assert source.num_nodes == math.factorial(OVER)
        ranks = np.array([0, 1, 12345, math.factorial(OVER) - 1], dtype=np.int64)
        block = source.neighbor_block(ranks)
        for rank, row in zip(ranks, block):
            node = graph.node_from_index(int(rank))
            expected = [graph.node_index(v) for v in graph.neighbors(node)]
            assert [int(r) for r in row] == expected

    def test_bounded_ball_runs_on_the_implicit_source(self):
        star = StarGraph(OVER)
        ball = bounded_bfs_ball(star.neighbor_source(), 0, max_depth=2)
        # S_11 balls: 1 node, 10 neighbours, 10 * 9 nodes at distance two.
        assert ball.nodes.size == 1 + 10 + 90
        assert np.array_equal(np.sort(ball.nodes), ball.nodes)
        for rank, distance in zip(ball.nodes, ball.distances):
            node = star.node_from_index(int(rank))
            assert int(distance) == star_distance(star.identity, node)

    def test_last_table_degree_still_selects_the_table(self):
        calls = []

        def supplier():
            calls.append(MAX_TABLE_DEGREE)
            return StarGraph(4).neighbor_index_table()

        from repro.permutations.ranking import star_position_generators
        from repro.topology.routing import permutation_neighbor_source

        source = permutation_neighbor_source(
            star_position_generators(MAX_TABLE_DEGREE), MAX_TABLE_DEGREE, supplier
        )
        assert isinstance(source, TableNeighborSource)
        assert calls == [MAX_TABLE_DEGREE]


class TestPastTheBound:
    """The table-free branches, run at degree 5 under a lowered bound."""

    ORIGIN = (2, 0, 4, 1, 3)

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_distance_sweep_unranks_bit_identically(self, chunk, monkeypatch):
        reference = np.asarray(star_distances_from(self.ORIGIN))
        monkeypatch.setattr(ranking, "MAX_TABLE_DEGREE", PAST - 1)
        if chunk is not None:
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
        streamed = np.asarray(star_distances_from(self.ORIGIN))
        assert streamed.dtype == reference.dtype
        assert np.array_equal(streamed, reference)

    def test_distance_sweep_reports_the_streamed_tier(self, tmp_path, lowered_bound):
        path = tmp_path / "trace.jsonl"
        telemetry.enable(path)
        try:
            star_distances_from(self.ORIGIN)
        finally:
            telemetry.disable()
        (event,) = [
            e for e in telemetry.load_trace(path)
            if e["name"] == "kernel.distance_sweep"
        ]
        assert event["attrs"]["tier"] == "streamed"

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bfs_goes_implicit_and_matches_the_table(self, family, monkeypatch):
        table_graph = FAMILIES[family](PAST)
        expected = np.asarray(
            bfs_distances_from(table_graph, table_graph.node_from_index(0))
        )
        monkeypatch.setattr(ranking, "MAX_TABLE_DEGREE", PAST - 1)
        graph = FAMILIES[family](PAST)
        assert isinstance(graph.neighbor_source(), ImplicitNeighborSource)
        swept = np.asarray(bfs_distances_from(graph, graph.node_from_index(0)))
        assert np.array_equal(swept, expected)
        if family == "star":
            assert np.array_equal(
                swept, np.asarray(star_distances_from(graph.identity))
            )

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_connectivity_and_masked_bfs_match_the_table(self, chunk, monkeypatch):
        dead = [3, 17, 44, 90]
        alive = np.ones(math.factorial(PAST), dtype=bool)
        alive[dead] = False
        table_star = StarGraph(PAST)
        expected_flood = np.asarray(masked_bfs_distances(table_star, 0, alive))
        expected_verdict = connected_under_alive_mask(table_star, alive)
        monkeypatch.setattr(ranking, "MAX_TABLE_DEGREE", PAST - 1)
        if chunk is not None:
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
        star = StarGraph(PAST)
        assert np.array_equal(
            np.asarray(masked_bfs_distances(star, 0, alive)), expected_flood
        )
        assert connected_under_alive_mask(star, alive) == expected_verdict

    @pytest.mark.parametrize("chunk", [1, None])
    @pytest.mark.parametrize("n", [PAST, PAST + 1])
    def test_embedding_tally_matches_the_tuple_walk(
        self, n, chunk, lowered_bound, monkeypatch
    ):
        if chunk is not None:
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
        assert measure_embedding(MeshToStarEmbedding(n)) == (
            measure_embedding_reference(MeshToStarEmbedding(n))
        )

    @pytest.mark.parametrize("chunk", [1, None])
    def test_pancake_estimate_keeps_its_exact_tier(self, chunk, monkeypatch):
        reference = sampled_pancake_estimate(PAST, 400, 2206)
        assert reference.exact
        monkeypatch.setattr(ranking, "MAX_TABLE_DEGREE", PAST - 1)
        if chunk is not None:
            monkeypatch.setattr(ranking, "CHUNK_NODES", chunk)
        assert sampled_pancake_estimate(PAST, 400, 2206) == reference


class TestTheDegreeAloneSelects:
    """The source flips exactly between the bound and the next degree."""

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_switch_sits_at_the_bound(self, family, offset):
        n = MAX_TABLE_DEGREE + offset
        graph = FAMILIES[family](n)
        calls = []
        # A stand-in table: the real degree-10 tables are too large to build
        # per test, and only whether the supplier is asked for one matters.
        stand_in = np.zeros((1, n - 1), dtype=np.int64)

        def supplier():
            calls.append(n)
            return stand_in

        graph.neighbor_index_table = supplier
        source = graph.neighbor_source()
        if offset <= 0:
            assert isinstance(source, TableNeighborSource)
            assert source.table is stand_in
            assert calls == [n]
        else:
            assert isinstance(source, ImplicitNeighborSource)
            assert source.num_nodes == math.factorial(n)
            assert calls == []


class TestRetiredVariablesAreInert:
    """``REPRO_NEIGHBORS`` and ``REPRO_CHUNK_NODES`` are read by nothing."""

    @pytest.mark.parametrize(
        "name,value",
        [
            ("REPRO_NEIGHBORS", "magic"),
            ("REPRO_NEIGHBORS", "implicit"),
            ("REPRO_NEIGHBORS", "table"),
            ("REPRO_CHUNK_NODES", "0"),
            ("REPRO_CHUNK_NODES", "many"),
        ],
    )
    def test_setting_one_changes_nothing(self, name, value, monkeypatch):
        origin = (2, 0, 4, 1, 3)

        def results():
            star = StarGraph(PAST)
            alive = np.ones(star.num_nodes, dtype=bool)
            alive[[3, 17]] = False
            ball = bounded_bfs_ball(star.neighbor_source(), 0, max_depth=2)
            return (
                type(star.neighbor_source()),
                type(StarGraph(OVER).neighbor_source()),
                np.asarray(star_distances_from(origin)).tolist(),
                np.asarray(masked_bfs_distances(star, 0, alive)).tolist(),
                measure_embedding(MeshToStarEmbedding(4)),
                np.asarray(ball.nodes).tolist(),
            )

        reference = results()
        assert reference[:2] == (TableNeighborSource, ImplicitNeighborSource)
        monkeypatch.setenv(name, value)
        assert results() == reference
