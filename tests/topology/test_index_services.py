"""Parity tests for the adjacency-index backend and its vectorised services.

The PR-3 facade contract: every index-native whole-graph service must be
bit-identical to the retained tuple/dict BFS references --

* ``neighbor_index_table`` round-trips against ``neighbors()`` (same
  neighbours, same order) on star, mesh and hypercube;
* ``bfs_distances_from`` matches ``Topology._bfs_distances`` (the dict BFS)
  and ``Topology.distance`` entry for entry, its rows over every origin form
  a symmetric matrix, and on the star graph it equals the closed form
  ``StarGraph.distances_from`` from every origin (and ``distance_summary``
  the closed-form diameter and mean);
* ``index_bfs_distances`` and ``bounded_bfs_ball`` refuse malformed masks,
  dead origins and out-of-range exclusions;
* index-based ``connectivity_after_faults`` matches the dict-of-tuples flood
  fill (``connectivity_after_faults_reference``) on random fault sets;
* ``star_distances_between`` matches the scalar ``star_distance`` closed form;
* ``distance_summary`` matches a diameter/average computed from the dict BFS,
  and its bit-parallel all-sources sweep equals a fold of per-source
  ``index_bfs_distances`` rows at every family size up to 720 nodes (plus one
  instance wider than a source block); the CMP, NETWORK-FAMILY and PROP-D
  payloads keep the digests they had under the per-source sweep.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.permutations.ranking import move_tables
from repro.topology.cayley import (
    BubbleSortGraph,
    PancakeGraph,
    TranspositionCayleyGraph,
    TranspositionTreeGraph,
)
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh, paper_mesh
from repro.topology.properties import (
    connectivity_after_faults,
    connectivity_after_faults_reference,
    degree_histogram,
    edge_count,
    node_degrees,
)
from repro.experiments.artifacts import build_payload, canonical_json
from repro.experiments.registry import get_spec
from repro.topology.routing import (
    SWEEP_SOURCE_BLOCK,
    DistanceSummary,
    bfs_distances_from,
    bounded_bfs_ball,
    connected_under_alive_mask,
    distance_summary,
    index_bfs_distances,
    star_distance,
    star_distances_between,
)
from repro.topology.base import _column_stack
from repro.topology.star import StarGraph


def small_topologies():
    return [
        StarGraph(3),
        StarGraph(4),
        StarGraph(5),
        paper_mesh(3),
        paper_mesh(4),
        Mesh((4, 1, 3)),
        Mesh((5,)),
        Hypercube(2),
        Hypercube(4),
        # The Cayley families (PR 4) ride the same parity suite: table
        # round-trip, BFS-vs-dict, fault flood, distance summary.
        PancakeGraph(3),
        PancakeGraph(4),
        BubbleSortGraph(4),
        TranspositionTreeGraph.star(4),
        TranspositionTreeGraph(5, ((0, 2), (1, 2), (2, 3), (3, 4))),
        TranspositionCayleyGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    ]


@pytest.mark.parametrize("topology", small_topologies(), ids=repr)
class TestNeighborIndexTable:
    def test_round_trip_against_neighbors(self, topology):
        table = topology.neighbor_index_table()
        assert len(table) == topology.num_nodes
        for index in range(topology.num_nodes):
            node = topology.node_from_index(index)
            expected = [topology.node_index(nb) for nb in topology.neighbors(node)]
            row = [int(entry) for entry in table[index]]
            assert row[: len(expected)] == expected
            assert all(entry == -1 for entry in row[len(expected) :])

    def test_cached_per_instance(self, topology):
        assert topology.neighbor_index_table() is topology.neighbor_index_table()

    def test_degrees_match(self, topology):
        degrees = node_degrees(topology)
        for index in range(topology.num_nodes):
            node = topology.node_from_index(index)
            assert int(degrees[index]) == topology.degree(node)


class TestColumnStack:
    """The shared move-table stacker behind the star and Cayley tables."""

    def test_stacks_plain_tuples_read_only(self):
        tables = move_tables(5)
        stacked = _column_stack(tables)
        assert stacked.dtype == np.int64
        assert not stacked.flags.writeable
        assert np.array_equal(stacked, np.column_stack(tables))

    def test_empty_tuple(self):
        assert _column_stack(()).shape == (0, 0)

    def test_columns_follow_table_order_and_widen_to_int64(self):
        first = np.array([1, 0, 3, 2], dtype=np.int32)
        second = np.array([2, 3, 0, 1], dtype=np.int32)
        stacked = _column_stack((first, second))
        assert stacked.shape == (4, 2)
        assert stacked.dtype == np.int64
        assert np.array_equal(stacked[:, 0], first)
        assert np.array_equal(stacked[:, 1], second)

    def test_result_does_not_alias_its_inputs(self):
        column = np.array([1, 0], dtype=np.int64)
        stacked = _column_stack((column,))
        column[0] = 7
        assert stacked.tolist() == [[1], [0]]

    @pytest.mark.parametrize(
        "topology",
        [
            StarGraph(4),
            PancakeGraph(4),
            BubbleSortGraph(4),
            TranspositionCayleyGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3))),
        ],
        ids=repr,
    )
    def test_permutation_graph_tables_are_the_stacked_move_tables(self, topology):
        table = topology.neighbor_index_table()
        assert not table.flags.writeable
        assert np.array_equal(table, _column_stack(topology.move_tables()))


@pytest.mark.parametrize("topology", small_topologies(), ids=repr)
class TestBfsParity:
    def test_bfs_distances_from_matches_dict_reference(self, topology):
        rng = random.Random(0)
        indices = {0, topology.num_nodes - 1}
        indices.update(rng.sample(range(topology.num_nodes), min(4, topology.num_nodes)))
        for index in indices:
            origin = topology.node_from_index(index)
            reference = topology._bfs_distances(origin)  # noqa: SLF001 - the retained oracle
            sweep = bfs_distances_from(topology, origin)
            assert len(reference) == topology.num_nodes  # all connected here
            for node, expected in reference.items():
                assert int(sweep[topology.node_index(node)]) == expected

    def test_distance_summary_matches_dict_sweep(self, topology):
        summary = distance_summary(topology)
        diameter = 0
        total = 0
        pairs = 0
        for node in topology.nodes():
            reference = topology._bfs_distances(node)  # noqa: SLF001
            diameter = max(diameter, max(reference.values()))
            total += sum(reference.values())
            pairs += len(reference) - 1
        assert summary.diameter == diameter
        assert summary.average_distance == pytest.approx(total / pairs)
        assert summary.connected

    def test_sweep_matches_pairwise_distance(self, topology):
        # ``distance`` is the closed form where the family has one (star
        # cycles, mesh/hypercube coordinates, Kendall tau) and an
        # early-exit BFS otherwise; either way it must equal the sweep.
        for index in {0, topology.num_nodes - 1}:
            origin = topology.node_from_index(index)
            sweep = bfs_distances_from(topology, origin)
            for node in topology.nodes():
                assert int(sweep[topology.node_index(node)]) == topology.distance(origin, node)

    def test_sweep_rows_form_a_symmetric_matrix(self, topology):
        rows = np.stack(
            [
                np.asarray(bfs_distances_from(topology, topology.node_from_index(index)))
                for index in range(topology.num_nodes)
            ]
        )
        assert (np.diag(rows) == 0).all()
        assert np.array_equal(rows, rows.T)
        assert int(rows.max()) == distance_summary(topology).diameter == topology.diameter()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_star_closed_form_equals_the_sweep(n):
    star = StarGraph(n)
    for index in range(star.num_nodes):
        origin = star.node_from_index(index)
        assert np.array_equal(star.distances_from(origin), bfs_distances_from(star, origin))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_star_summary_equals_the_closed_forms(n):
    # The star is vertex-transitive, so one closed-form row gives the mean.
    star = StarGraph(n)
    row = star.distances_from(star.identity)
    summary = distance_summary(star)
    assert summary.diameter == star.diameter() == int(row.max())
    assert summary.average_distance == int(row.sum()) / (star.num_nodes - 1)
    assert summary.connected


class TestIndexBfsValidation:
    """A bad origin or mask is refused, never answered from elsewhere."""

    @pytest.mark.parametrize("origin", [-1, 24])
    def test_origin_outside_the_graph(self, origin):
        star = StarGraph(4)
        with pytest.raises(InvalidParameterError, match=r"outside \[0, 24\)"):
            index_bfs_distances(star.neighbor_source(), origin)

    def test_integer_mask_is_read_as_truth_values(self):
        star = StarGraph(4)
        table = star.neighbor_index_table()
        alive = np.ones(24, dtype=np.int64)
        alive[5] = 0
        masked = index_bfs_distances(table, 0, alive_mask=alive)
        expected = index_bfs_distances(table, 0, alive_mask=alive.astype(bool))
        assert np.array_equal(masked, expected)
        assert masked[5] == -1 and (np.delete(masked, 5) >= 0).all()

    def test_dead_origin_is_refused(self):
        alive = np.ones(24, dtype=bool)
        alive[0] = False
        with pytest.raises(InvalidParameterError, match="not alive"):
            index_bfs_distances(StarGraph(4).neighbor_source(), 0, alive_mask=alive)

    @pytest.mark.parametrize("length", [23, 25])
    def test_mask_length_must_match_the_graph(self, length):
        with pytest.raises(InvalidParameterError, match=r"expected \(24,\)"):
            index_bfs_distances(
                StarGraph(4).neighbor_source(), 0, alive_mask=np.ones(length, dtype=bool)
            )

    @pytest.mark.parametrize("excluded", [[999], [-7], [3, 120]])
    def test_ball_exclusions_outside_the_graph_on_a_table(self, excluded):
        table = StarGraph(5).neighbor_index_table()
        with pytest.raises(InvalidParameterError, match=r"\[0, 120\)"):
            bounded_bfs_ball(table, 0, max_depth=2, excluded=excluded)


@pytest.mark.parametrize("topology", small_topologies(), ids=repr)
class TestConnectivityParity:
    def test_random_fault_sets_match_reference(self, topology):
        rng = random.Random(7)
        nodes = list(topology.nodes())
        for trial in range(8):
            faults = rng.sample(nodes, min(trial, len(nodes) - 1))
            assert connectivity_after_faults(topology, faults) == \
                connectivity_after_faults_reference(topology, faults)

    def test_all_faulty_matches_reference(self, topology):
        nodes = list(topology.nodes())
        assert connectivity_after_faults(topology, nodes) is False
        assert connectivity_after_faults_reference(topology, nodes) is False

    def test_foreign_faults_ignored_like_reference(self, topology):
        foreign = [(99,) * max(1, len(topology.node_from_index(0)))]
        assert connectivity_after_faults(topology, foreign) is True
        assert connectivity_after_faults_reference(topology, foreign) is True


class TestConnectivityCutVertices:
    def test_path_mesh_disconnects_on_interior_fault(self):
        path = Mesh((5,))
        assert not connectivity_after_faults(path, [(2,)])
        assert connectivity_after_faults(path, [(0,)])

    def test_alive_mask_form(self):
        star = StarGraph(4)
        alive = [True] * star.num_nodes
        assert connected_under_alive_mask(star, alive)
        alive[5] = alive[11] = False
        assert connected_under_alive_mask(star, alive)
        assert not connected_under_alive_mask(star, [False] * star.num_nodes)


class TestStarDistancesBetween:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_scalar_closed_form(self, n):
        rng = random.Random(n)
        star = StarGraph(n)
        sources = []
        targets = []
        for _ in range(40):
            sources.append(star.node_from_index(rng.randrange(star.num_nodes)))
            targets.append(star.node_from_index(rng.randrange(star.num_nodes)))
        batch = star_distances_between(sources, targets)
        for k in range(40):
            assert int(batch[k]) == star_distance(sources[k], targets[k])


class TestPropertiesOnTable:
    def test_degree_histogram_and_edge_count_vs_enumeration(self):
        for topology in (StarGraph(4), paper_mesh(4), Hypercube(3)):
            by_hand = {}
            edges = 0
            for node in topology.nodes():
                degree = len(topology.neighbors(node))
                by_hand[degree] = by_hand.get(degree, 0) + 1
                edges += degree
            assert degree_histogram(topology) == by_hand
            assert edge_count(topology) == edges // 2


def per_source_fold(topology) -> DistanceSummary:
    """The per-source sweep the all-sources kernel replaced: one BFS per node."""
    table = topology.neighbor_index_table()
    diameter = total = pairs = 0
    connected = True
    for index in range(topology.num_nodes):
        row = index_bfs_distances(table, index)
        if (row < 0).any():
            connected = False
            row = row[row >= 0]
        diameter = max(diameter, int(row.max()))
        total += int(row.sum())
        pairs += int(row.size) - 1
    return DistanceSummary(
        diameter=diameter,
        average_distance=total / pairs if pairs else 0.0,
        num_nodes=topology.num_nodes,
        connected=connected,
    )


def sweep_instances():
    """Every family at every size up to 720 nodes."""
    instances = []
    for n in range(2, 7):
        instances += [StarGraph(n), PancakeGraph(n), BubbleSortGraph(n)]
    for n in range(3, 7):
        # A spider: position 1 is the hub, so it is neither the star nor the path.
        edges = ((0, 1),) + tuple((1, leaf) for leaf in range(2, n))
        instances.append(TranspositionTreeGraph(n, edges))
    instances += [Hypercube(dim) for dim in range(1, 10)]
    instances += [paper_mesh(n) for n in range(2, 7)]
    instances += [Mesh((5,)), Mesh((4, 1, 3)), Mesh((7, 9))]
    return instances


class TestAllSourcesSweep:
    @pytest.mark.parametrize("topology", sweep_instances(), ids=repr)
    def test_equals_per_source_fold(self, topology):
        assert topology.num_nodes <= 720
        # == on the dataclass: the float average must match bit for bit.
        assert distance_summary(topology) == per_source_fold(topology)

    def test_instance_wider_than_a_source_block(self):
        mesh = Mesh((6, 5, 4, 3, 2, 2))  # 1440 nodes: one full block, one partial
        assert SWEEP_SOURCE_BLOCK < mesh.num_nodes < 2 * SWEEP_SOURCE_BLOCK
        assert distance_summary(mesh) == per_source_fold(mesh)

    def test_disconnected_pairs_are_left_out(self):
        # Two disjoint transpositions generate a 4-element subgroup: 6 cosets.
        split = TranspositionCayleyGraph(4, ((0, 1), (2, 3)))
        summary = distance_summary(split)
        assert summary == per_source_fold(split)
        assert not summary.connected
        assert summary.diameter == 2


#: sha256 of each payload's canonical JSON under the per-source sweep.
PAYLOAD_DIGESTS = {
    ("CMP", "fast"): "09bcfa495cdfefe47df5d9e4015d717bcb2c2beb92eff0c1ff41bed232ef10cb",
    ("CMP", "default"): "f32b05306c148c30f2d582bc3f6f001fa4428bb6ad09a4d0947be0b9245d1eaa",
    ("NETWORK-FAMILY", "fast"): "415c8eaaa2a05dc47bb255005f9029233caa0e50083cd2be09757a7e9089a22f",
    ("NETWORK-FAMILY", "default"): "f70f4640af5e072c7335136efd8fdabea2d9d3034faa0c017c491effdd6a653b",
    ("PROP-D", "fast"): "0984ae83a091b66562d5f4dd9f8155122ac4d87c69a0cc5fc155b8c965b43a35",
    ("PROP-D", "default"): "b47330ff53123fe97ad648cb9f071d647d750334b0a0471e82addd6ba21f8723",
}


@pytest.mark.parametrize("experiment_id, profile", sorted(PAYLOAD_DIGESTS))
def test_sweep_experiment_payloads_unchanged(experiment_id, profile):
    spec = get_spec(experiment_id)
    params = spec.params(profile)
    payload = build_payload(profile, params, spec.run(**params))
    digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    assert digest == PAYLOAD_DIGESTS[experiment_id, profile]
