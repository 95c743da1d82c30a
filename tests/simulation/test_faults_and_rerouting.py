"""Tests for the fault-campaign subsystem (:mod:`repro.simulation`).

The headline contracts:

* **Oracle parity** -- masked-BFS detour distances equal networkx shortest
  paths on the faulted induced subgraph, for random fault sets across all
  four campaign families at n = 3..5.
* **Route realisability** -- every detour distance is witnessed by an
  explicit path whose hops are edges between alive nodes.
* **Determinism** -- campaigns are pure functions of their parameters
  (order-free trial seeding), and the batched alive-mask campaign is
  bit-identical to the per-trial tuple-loop reference.
* **Theorem regime** -- below the connectivity no trial disconnects and no
  sampled pair is unreachable; with zero faults every stretch is exactly 1.
"""

import random

import networkx as nx
import pytest

from repro.exceptions import InvalidParameterError
from repro.permutations import ranking
from repro.simulation import (
    CAMPAIGN_FAMILIES,
    campaign_instances,
    connectivity_campaign,
    connectivity_campaign_reference,
    derive_trial_seed,
    fault_counts_for_rates,
    masked_bfs_distances,
    masked_route,
    mean_interval,
    sample_fault_indices,
    stretch_campaign,
    wilson_interval,
)
from repro.topology.cayley import BubbleSortGraph, PancakeGraph
from repro.topology.hypercube import Hypercube
from repro.topology.nx_adapter import to_networkx
from repro.topology.routing import ImplicitNeighborSource, bfs_distances_from
from repro.topology.star import StarGraph

#: The four-family instance set of the oracle property tests: permutation
#: families at n = 3..5 plus hypercubes of comparable sizes.
ORACLE_INSTANCES = [
    StarGraph(3),
    StarGraph(4),
    StarGraph(5),
    PancakeGraph(3),
    PancakeGraph(4),
    PancakeGraph(5),
    BubbleSortGraph(3),
    BubbleSortGraph(4),
    BubbleSortGraph(5),
    Hypercube(3),
    Hypercube(4),
    Hypercube(7),
]


def _random_alive(rng, topology, survival=0.7):
    """A random alive mask keeping roughly *survival* of the nodes."""
    return [rng.random() < survival for _ in range(topology.num_nodes)]


class TestStats:
    def test_wilson_zero_successes_still_informative(self):
        p, low, high = wilson_interval(0, 80)
        assert p == 0.0 and low == 0.0 and 0.0 < high < 0.1

    def test_wilson_full_successes(self):
        p, low, high = wilson_interval(80, 80)
        assert p == 1.0 and high == pytest.approx(1.0) and 0.9 < low < 1.0

    def test_wilson_midpoint_brackets_estimate(self):
        p, low, high = wilson_interval(40, 80)
        assert low < p == 0.5 < high

    def test_wilson_domain(self):
        with pytest.raises(InvalidParameterError):
            wilson_interval(1, 0)
        with pytest.raises(InvalidParameterError):
            wilson_interval(5, 4)

    def test_mean_interval_brackets_mean(self):
        mean, low, high = mean_interval([1.0, 2.0, 3.0, 4.0])
        assert low < mean == 2.5 < high

    def test_mean_interval_single_sample_degenerates(self):
        assert mean_interval([1.5]) == (1.5, 1.5, 1.5)

    def test_mean_interval_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            mean_interval([])

    def test_trial_seeds_stable_and_distinct(self):
        a = derive_trial_seed(7, "star", 3, 0, 1)
        assert a == derive_trial_seed(7, "star", 3, 0, 1)
        others = {
            derive_trial_seed(7, "star", 3, 0, 2),
            derive_trial_seed(7, "pancake", 3, 0, 1),
            derive_trial_seed(8, "star", 3, 0, 1),
        }
        assert a not in others and len(others) == 3


class TestMaskedBfsOracle:
    """Masked BFS against networkx shortest paths on the faulted subgraph."""

    @pytest.mark.parametrize(
        "topology", ORACLE_INSTANCES, ids=lambda t: repr(t.num_nodes) + "n"
    )
    def test_distances_match_networkx_on_faulted_subgraph(self, topology):
        rng = random.Random(0xFA17)
        for trial in range(3):
            alive = _random_alive(rng, topology)
            if not any(alive):
                alive[0] = True
            source = rng.choice([i for i, a in enumerate(alive) if a])
            measured = masked_bfs_distances(topology, source, alive)
            survivors = [
                topology.node_from_index(i) for i, a in enumerate(alive) if a
            ]
            graph = to_networkx(topology, nodes=survivors)
            oracle = nx.single_source_shortest_path_length(
                graph, topology.node_from_index(source)
            )
            for index in range(topology.num_nodes):
                node = topology.node_from_index(index)
                if node in oracle:
                    assert measured[index] == oracle[node]
                else:  # dead or disconnected from the source
                    assert measured[index] == -1

    def test_no_faults_equals_plain_bfs(self):
        topology = StarGraph(4)
        alive = [True] * topology.num_nodes
        measured = masked_bfs_distances(topology, 0, alive)
        plain = bfs_distances_from(topology, topology.node_from_index(0))
        assert list(measured) == list(plain)

    def test_dead_origin_rejected(self):
        topology = StarGraph(3)
        alive = [True] * topology.num_nodes
        alive[2] = False
        with pytest.raises(InvalidParameterError):
            masked_bfs_distances(topology, 2, alive)
        with pytest.raises(InvalidParameterError):
            masked_bfs_distances(topology, topology.num_nodes, alive)


#: Swept under a lowered ``MAX_TABLE_DEGREE``: routes walk back over
#: neighbour blocks computed on the fly, with no adjacency table.
IMPLICIT_STAR = StarGraph(5)


class TestMaskedRoute:
    @pytest.mark.parametrize(
        "topology",
        [StarGraph(4), PancakeGraph(4), BubbleSortGraph(4), Hypercube(4), IMPLICIT_STAR],
    )
    def test_routes_witness_distances(self, topology, monkeypatch):
        """Every finite detour distance is realised by an explicit path of
        alive-to-alive edges of exactly that many hops."""
        neighbor_sets = {
            i: {int(j) for j in topology.neighbor_index_table()[i] if j >= 0}
            for i in range(topology.num_nodes)
        }
        if topology is IMPLICIT_STAR:
            monkeypatch.setattr(ranking, "MAX_TABLE_DEGREE", 4)
            assert isinstance(topology.neighbor_source(), ImplicitNeighborSource)
        rng = random.Random(0x207E)
        alive = _random_alive(rng, topology)
        alive[0] = True
        distances = masked_bfs_distances(topology, 0, alive)
        for target in range(topology.num_nodes):
            path = masked_route(topology, 0, target, alive)
            if distances[target] < 0:
                assert path is None
                continue
            assert path is not None
            assert path[0] == 0 and path[-1] == target
            assert len(path) - 1 == distances[target]
            assert all(alive[i] for i in path)
            for a, b in zip(path, path[1:]):
                assert b in neighbor_sets[a]

    def test_source_equals_target(self):
        topology = StarGraph(3)
        alive = [True] * topology.num_nodes
        assert masked_route(topology, 1, 1, alive) == [1]

    def test_dead_target_unroutable(self):
        topology = StarGraph(3)
        alive = [True] * topology.num_nodes
        alive[3] = False
        assert masked_route(topology, 0, 3, alive) is None


class TestCampaigns:
    def test_batched_equals_tuple_reference(self):
        """The alive-mask campaign and the per-trial tuple loop draw the same
        faults and reach the same verdicts -- bit-identical points."""
        for topology in (StarGraph(4), Hypercube(4)):
            counts = [2, 5]
            kwargs = dict(fault_counts=counts, trials=25, seed=99, label="parity")
            assert connectivity_campaign(
                topology, **kwargs
            ) == connectivity_campaign_reference(topology, **kwargs)

    def test_campaign_deterministic(self):
        topology = StarGraph(4)
        kwargs = dict(fault_counts=[3], trials=20, seed=5, label="det")
        assert connectivity_campaign(topology, **kwargs) == connectivity_campaign(
            topology, **kwargs
        )
        s_kwargs = dict(
            fault_counts=[0, 3], trials=5, pairs_per_trial=3, seed=5, label="det"
        )
        assert stretch_campaign(topology, **s_kwargs) == stretch_campaign(
            topology, **s_kwargs
        )

    @pytest.mark.parametrize("family", CAMPAIGN_FAMILIES)
    def test_sub_connectivity_never_disconnects(self, family):
        """The theorem regime: fewer faults than the connectivity cannot
        disconnect a maximally connected family."""
        name, topology = campaign_instances(3)[family]
        kappa = topology.degree(topology.node_from_index(0))
        points = connectivity_campaign(
            topology,
            fault_counts=[kappa - 1],
            trials=30,
            seed=11,
            label=family,
        )
        assert points[0].disconnected == 0
        assert points[0].p_disconnect == 0.0 and points[0].ci_low == 0.0

    def test_zero_faults_stretch_exactly_one(self):
        for family in CAMPAIGN_FAMILIES:
            name, topology = campaign_instances(3)[family]
            (point,) = stretch_campaign(
                topology,
                fault_counts=[0],
                trials=4,
                pairs_per_trial=4,
                seed=3,
                label=family,
            )
            assert point.mean_stretch == 1.0 and point.max_stretch == 1.0
            assert point.unreachable == 0 and point.ci_low == point.ci_high == 1.0

    def test_stretch_never_below_one(self):
        topology = StarGraph(4)
        points = stretch_campaign(
            topology,
            fault_counts=[2, 6],
            trials=10,
            pairs_per_trial=5,
            seed=17,
            label="star",
        )
        for point in points:
            if point.pairs > point.unreachable:
                assert point.mean_stretch >= 1.0
                assert point.max_stretch >= point.mean_stretch

    def test_fault_counts_for_rates_clamp_and_domain(self):
        assert fault_counts_for_rates(120, (0.05, 0.1)) == [6, 12]
        assert fault_counts_for_rates(10, (0.99,)) == [9]  # clamped to n-1
        with pytest.raises(InvalidParameterError):
            fault_counts_for_rates(10, (1.0,))
        with pytest.raises(InvalidParameterError):
            fault_counts_for_rates(10, (-0.1,))

    def test_sample_fault_indices_domain(self):
        rng = random.Random(0)
        assert sample_fault_indices(rng, 10, 0) == []
        assert len(set(sample_fault_indices(rng, 10, 9))) == 9
        with pytest.raises(InvalidParameterError):
            sample_fault_indices(rng, 10, 10)

    def test_campaign_instances_matched_sizes(self):
        instances = campaign_instances(4)
        assert set(instances) == set(CAMPAIGN_FAMILIES)
        sizes = {family: topo.num_nodes for family, (_, topo) in instances.items()}
        assert sizes["star"] == sizes["pancake"] == sizes["bubble-sort"] == 120
        # Q_ceil(log2 5!) = Q_7: the smallest hypercube reaching 120 nodes.
        assert sizes["hypercube"] == 128
        assert instances["hypercube"][0] == "Q_7"

    def test_campaign_rejects_bad_trials(self):
        topology = StarGraph(3)
        with pytest.raises(InvalidParameterError):
            connectivity_campaign(
                topology, fault_counts=[1], trials=0, seed=1, label="x"
            )
        with pytest.raises(InvalidParameterError):
            stretch_campaign(
                topology,
                fault_counts=[1],
                trials=1,
                pairs_per_trial=0,
                seed=1,
                label="x",
            )
        with pytest.raises(InvalidParameterError):
            stretch_campaign(
                topology,
                fault_counts=[topology.num_nodes - 1],
                trials=1,
                pairs_per_trial=1,
                seed=1,
                label="x",
            )


class TestFaultExperiments:
    """The registry experiments over the campaign layer."""

    @pytest.mark.parametrize("experiment_id", ["FAULT-CONNECTIVITY", "FAULT-STRETCH"])
    def test_fast_profile_claim_holds(self, experiment_id):
        from repro.experiments.registry import get_spec, run_experiment

        result = run_experiment(experiment_id, profile="fast")
        result.assert_claim()
        assert result.headers == list(get_spec(experiment_id).schema.columns)
        assert len(result.rows) > 0

    def test_connectivity_guaranteed_rows_flagged(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment("FAULT-CONNECTIVITY", profile="fast")
        guaranteed = [row for row in result.rows if "< connectivity" in str(row[3])]
        assert guaranteed and all(row[6] == 0 for row in guaranteed)
        assert result.summary["sub_connectivity_disconnections"] == 0

    def test_stretch_zero_fault_rows_are_one(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment("FAULT-STRETCH", profile="fast")
        zero_rows = [row for row in result.rows if row[3] == 0]
        assert zero_rows
        for row in zero_rows:
            assert row[7].startswith("1.000") and row[8] == "1.000"

    def test_experiment_deterministic_payloads(self):
        """Same params => same bytes: the campaign experiments are pure."""
        import json

        from repro.experiments.artifacts import build_payload
        from repro.experiments.registry import get_spec

        for experiment_id in ("FAULT-CONNECTIVITY", "FAULT-STRETCH"):
            spec = get_spec(experiment_id)
            params = spec.params("fast")
            a = build_payload("fast", params, spec.run(**params))
            b = build_payload("fast", params, spec.run(**params))
            assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
